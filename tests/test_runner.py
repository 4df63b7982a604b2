"""Tests for the experiment pipeline: artifacts, determinism, failure modes."""

import json
import os

import numpy as np
import pytest

from metarec.config import build_experiment_config
from metarec.errors import DataError
from metarec.meta_learners import load_checkpoint
from metarec.model import user_embedding
from metarec.meta_learners import inference_alpha
from metarec.runner import (
    build_splits,
    load_tree,
    run_experiment,
    run_trial,
    version_string,
    write_tsv,
)

BASE_RAW = {
    "dataset.kind": "synthetic",
    "dataset.p1": "0.8",
    "dataset.p2": "0.2",
    "dataset.n_tasks": "40",
    "dataset.noise_sd": "0.1",
    "trainer.algorithm": "paml",
    "trainer.epochs": "1",
    "trainer.batch_size": "8",
    "trainer.embedding_dim": "2",
    "trainer.decision_dims": "4,1",
    "trainer.lr_hidden_dims": "4,2",
    "trainer.outer_lr": "0.001",
    "run.trials": "1",
    "run.seeds": "0",
}


def make_config(tmp_path, subdir="out", **extra):
    raw = dict(BASE_RAW)
    raw["run.output_dir"] = str(tmp_path / subdir)
    raw.update(extra)
    return build_experiment_config(raw)


def read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in fh]
    return header, rows


def report_metric(path, metric):
    header, rows = read_tsv(path)
    for row in rows:
        if row[0] == metric:
            return dict(zip(header, row))
    raise AssertionError(f"metric {metric} missing from {path}")


class TestTsvFormat:
    def test_floats_round_trip_through_repr(self, tmp_path):
        path = tmp_path / "t.tsv"
        value = 0.1 + 0.2
        write_tsv(path, ("a", "b", "c"), [(value, None, True)])
        _, rows = read_tsv(path)
        assert float(rows[0][0]) == value
        assert rows[0][1] == ""
        assert rows[0][2] == "true"


class TestRunTrial:
    def test_artifacts_exist_and_agree(self, tmp_path):
        config = make_config(tmp_path)
        result = run_trial(config, 0, 0)
        assert os.path.isdir(result.directory)
        for name in ("per_user.tsv", "history.tsv", "report.tsv", "checkpoint.npz"):
            assert os.path.exists(os.path.join(result.directory, name))
        header, rows = read_tsv(os.path.join(result.directory, "per_user.tsv"))
        assert header == ["user_key", "group", "alpha", "query_mse"]
        assert len(rows) == result.n_test_users == len(result.per_user_mse)

    def test_history_has_one_row_per_epoch(self, tmp_path):
        config = make_config(tmp_path, **{"trainer.epochs": "3"})
        result = run_trial(config, 0, 0)
        _, rows = read_tsv(os.path.join(result.directory, "history.tsv"))
        assert len(rows) == 3
        assert [r[0] for r in rows] == ["0", "1", "2"]

    def test_checkpoint_reloads(self, tmp_path):
        config = make_config(tmp_path)
        result = run_trial(config, 0, 0)
        model = load_checkpoint(result.checkpoint_path)
        assert model.algorithm == "paml"
        assert model.config.seed == 0

    def test_untrained_run_still_reports(self, tmp_path):
        config = make_config(tmp_path, **{"trainer.epochs": "0"})
        result = run_trial(config, 0, 0)
        report = report_metric(os.path.join(result.directory, "report.tsv"), "query_mse")
        assert float(report["mean"]) > 0.0
        _, history = read_tsv(os.path.join(result.directory, "history.tsv"))
        assert history == []


class TestRunExperiment:
    def test_run_produces_manifest_report_and_no_stale(self, tmp_path):
        config = make_config(tmp_path, **{"run.seeds": "0,1", "run.trials": "2"})
        result = run_experiment(config)
        assert os.path.exists(result.report_path)
        assert os.path.exists(result.manifest_path)
        assert not os.path.exists(os.path.join(config.output_dir, "STALE"))
        assert len(result.trials) == 2

    def test_manifest_reproduces_the_config(self, tmp_path):
        config = make_config(tmp_path)
        result = run_experiment(config)
        with open(result.manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert build_experiment_config(manifest["config"]) == config
        assert manifest["version"] == version_string()
        assert manifest["trials"][0]["seed"] == 0

    def test_identical_configs_yield_byte_identical_reports(self, tmp_path):
        result_a = run_experiment(make_config(tmp_path, "a", **{"run.seeds": "0,1",
                                                                "run.trials": "2"}))
        result_b = run_experiment(make_config(tmp_path, "b", **{"run.seeds": "0,1",
                                                                "run.trials": "2"}))
        for rel in ("report.tsv", "trial-00-seed-0/per_user.tsv",
                    "trial-00-seed-0/report.tsv", "trial-01-seed-1/history.tsv"):
            bytes_a = open(os.path.join(result_a.output_dir, rel), "rb").read()
            bytes_b = open(os.path.join(result_b.output_dir, rel), "rb").read()
            assert bytes_a == bytes_b, rel

    def test_parallel_trials_match_sequential(self, tmp_path):
        seq = run_experiment(make_config(tmp_path, "seq", **{"run.seeds": "0,1",
                                                             "run.trials": "2"}))
        par = run_experiment(make_config(tmp_path, "par", **{"run.seeds": "0,1",
                                                             "run.trials": "2",
                                                             "run.parallel": "true"}))
        for rel in ("report.tsv", "trial-00-seed-0/per_user.tsv",
                    "trial-01-seed-1/per_user.tsv"):
            bytes_a = open(os.path.join(seq.output_dir, rel), "rb").read()
            bytes_b = open(os.path.join(par.output_dir, rel), "rb").read()
            assert bytes_a == bytes_b, rel

    def test_failure_leaves_stage_tagged_stale_marker(self, tmp_path):
        config = build_experiment_config({
            "dataset.kind": "movielens",
            "dataset.ratings": str(tmp_path / "missing.dat"),
            "dataset.users": str(tmp_path / "missing.dat"),
            "dataset.movies": str(tmp_path / "missing.dat"),
            "run.output_dir": str(tmp_path / "bad"),
            "run.trials": "1",
        })
        with pytest.raises(DataError, match=r"\[stage: dataset trial 0\]"):
            run_experiment(config)
        stale = (tmp_path / "bad" / "STALE").read_text(encoding="utf-8")
        assert "stale:" in stale and "dataset" in stale

    def test_adaptive_rates_beat_fixed_rate_on_imbalanced_synthetic(self, tmp_path):
        shared = {
            "dataset.n_tasks": "80",
            "trainer.epochs": "5",
            "trainer.batch_size": "32",
            "trainer.embedding_dim": "4",
            "trainer.decision_dims": "8,1",
            "trainer.lr_hidden_dims": "8,4",
            "trainer.outer_lr": "0.02",
            "trainer.lr_scale": "0.1",
            "trainer.fixed_inner_lr": "0.01",
            "run.seeds": "0,1,2",
            "run.trials": "3",
        }
        means = {}
        for algorithm in ("reg-paml", "maml-fixed"):
            config = make_config(tmp_path, algorithm,
                                 **dict(shared, **{"trainer.algorithm": algorithm}))
            result = run_experiment(config)
            means[algorithm] = float(report_metric(result.report_path,
                                                   "query_mse")["mean"])
        assert means["reg-paml"] < means["maml-fixed"]


class TestEmittedArtifacts:
    def test_embedding_dump_covers_every_episode(self, tmp_path):
        config = make_config(tmp_path, **{"emit.embeddings": "true"})
        result = run_trial(config, 0, 0)
        header, rows = read_tsv(os.path.join(result.directory, "embeddings.tsv"))
        splits = build_splits(config, 0)
        total = len(splits.train) + len(splits.validation) + len(splits.test)
        assert len(rows) == total
        assert header[:4] == ["user_key", "subset", "group", "alpha"]
        assert header[4:] == ["h0", "h1"]

    def test_embedding_alphas_match_inference_rule(self, tmp_path):
        config = make_config(tmp_path, **{"emit.embeddings": "true"})
        result = run_trial(config, 0, 0)
        model = load_checkpoint(result.checkpoint_path)
        splits = build_splits(config, 0)
        _, rows = read_tsv(os.path.join(result.directory, "embeddings.tsv"))
        by_key = {(r[0], r[1]): float(r[3]) for r in rows}
        episode = splits.test[0]
        user_ids, _, _ = splits.encode(episode.user, episode.support)
        h = user_embedding(model.theta, model.spec, user_ids)
        expected = float(inference_alpha(model, h))
        assert by_key[(str(episode.user.user_id), "test")] == pytest.approx(expected,
                                                                            rel=1e-12)

    def test_lr_distribution_counts_every_test_user(self, tmp_path):
        config = make_config(tmp_path, **{"emit.lr_distribution": "true"})
        result = run_trial(config, 0, 0)
        _, rows = read_tsv(os.path.join(result.directory, "lr_distribution.tsv"))
        assert sum(int(r[2]) for r in rows) == result.n_test_users

    def test_constant_rates_get_a_single_bin(self, tmp_path):
        config = make_config(tmp_path, **{"emit.lr_distribution": "true",
                                          "trainer.algorithm": "maml-fixed",
                                          "trainer.epochs": "0"})
        result = run_trial(config, 0, 0)
        _, rows = read_tsv(os.path.join(result.directory, "lr_distribution.tsv"))
        assert len(rows) == 1
        assert int(rows[0][2]) == result.n_test_users

    def test_tree_dump_lists_every_node(self, tmp_path):
        config = make_config(tmp_path, **{"emit.tree": "true",
                                          "trainer.algorithm": "at-paml",
                                          "trainer.epochs": "2"})
        result = run_trial(config, 0, 0)
        tree = load_tree(result.checkpoint_path)
        _, rows = read_tsv(os.path.join(result.directory, "tree_nodes.tsv"))
        assert len(rows) == len(tree)

    def test_tree_dump_without_tree_is_header_only(self, tmp_path):
        config = make_config(tmp_path, **{"emit.tree": "true"})
        result = run_trial(config, 0, 0)
        _, rows = read_tsv(os.path.join(result.directory, "tree_nodes.tsv"))
        assert rows == []


class TestLoadTree:
    def test_checkpoint_path_finds_sidecar(self, tmp_path):
        config = make_config(tmp_path, **{"trainer.algorithm": "at-paml",
                                          "trainer.epochs": "2"})
        result = run_trial(config, 0, 0)
        via_checkpoint = load_tree(result.checkpoint_path)
        direct = load_tree(result.checkpoint_path[: -len(".npz")] + ".tree.npz")
        assert len(via_checkpoint) == len(direct) > 0

    def test_missing_dump_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no tree dump"):
            load_tree(tmp_path / "nothing.npz")

    def test_wrong_format_is_a_data_error(self, tmp_path):
        config = make_config(tmp_path)
        result = run_trial(config, 0, 0)  # paml checkpoint has no sidecar
        with pytest.raises(DataError, match="cannot read tree dump"):
            load_tree(result.checkpoint_path)
