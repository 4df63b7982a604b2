"""Tests for the experiment pipeline: artifacts, determinism, failure modes."""

import hashlib
import json
import os

import numpy as np
import pytest

from metarec.config import build_experiment_config
from metarec.datagen import generate_corpus
from metarec.errors import DataError
from metarec.meta_learners import load_checkpoint
from metarec.model import user_embedding
from metarec.meta_learners import inference_alpha, logged_rate
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

    @pytest.mark.parametrize("algorithm", ["at-paml", "meta-sgd"])
    def test_embedding_dump_matches_the_per_user_path(self, tmp_path, algorithm):
        """One embedding and rate call per subset writes the bytes that one
        call per user writes."""
        paths = generate_corpus(str(tmp_path / "corpus"), n_users=80, n_movies=25, seed=2,
                                min_items=4, max_items=8)
        config = make_config(tmp_path, **{
            "dataset.kind": "movielens", "dataset.ratings": paths["ratings"],
            "dataset.users": paths["users"], "dataset.movies": paths["movies"],
            "dataset.min_items": "3", "emit.embeddings": "true",
            "trainer.algorithm": algorithm, "trainer.epochs": "2",
            "trainer.tree_neighbors_train": "3", "trainer.tree_neighbors_infer": "2"})
        result = run_trial(config, 0, 0)
        model = load_checkpoint(result.checkpoint_path)
        splits = build_splits(config, 0)
        rows = []
        for name in ("train", "validation", "test"):
            for episode in getattr(splits, name):
                user_ids, _, _ = splits.encode(episode.user, episode.support)
                h = user_embedding(model.theta, model.spec, user_ids)
                group = "major" if splits.is_major[episode.user.user_id] else "minor"
                rows.append((episode.user.user_id, name, group,
                             logged_rate(inference_alpha(model, h)))
                            + tuple(float(v) for v in h))
        assert len({row[4:] for row in rows}) < len(rows)  # profiles repeat
        reference = str(tmp_path / "reference.tsv")
        write_tsv(reference, ["user_key", "subset", "group", "alpha"]
                  + [f"h{i}" for i in range(model.spec.user_width)], rows)
        with open(reference, "rb") as ref, \
                open(os.path.join(result.directory, "embeddings.tsv"), "rb") as got:
            assert got.read() == ref.read()

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


class TestPinnedAtPamlOutputs:
    """at-paml outputs pinned byte for byte, tree nodes included.

    The tree holds fewer nodes than training stores, so eviction, touched
    search, node updates and the checkpointed tree all reach the digests.
    The digests were recorded before the memory moved to numpy columns and
    must not change with how the memory is stored.
    """

    FILES = ("report.tsv", "per_user.tsv", "history.tsv", "tree_nodes.tsv")
    DIGESTS = {
        "lru": {
            "report.tsv": "3676ee25bec6e94eb6d6c674c20158f96d8f3a74192240edf2c31a12caf20569",
            "per_user.tsv": "b022149c2ab11f8b00f65494c5db1b7c5b034c4840cff2293c474b225289b07b",
            "history.tsv": "0457ebfdbbb07d399033f26027e62f80af4dbee1ab15818278e20d92c1edea9a",
            "tree_nodes.tsv": "746f5f60e7d0edfe511ef2af431464b81a1301138b85f0bede06329c73e0b074",
        },
        "lfu": {
            "report.tsv": "8f0fb91eab84502f984da94629df93f91e49a161c44a3c33f100ed70824923dd",
            "per_user.tsv": "d250270190566b30286443e075ec4a80e2252dbf8f6e90ec246313f9ce2f6bc7",
            "history.tsv": "8795870f5087a28a9ceee0e52e9f0f433b0a22c6e5f1c664118ffe93dff9b54c",
            "tree_nodes.tsv": "6167695fcb026e15b5d05eb41eba589bf921e14b1aeb1c3d6f31316125f89b23",
        },
    }

    @pytest.mark.parametrize("eviction", ["lru", "lfu"])
    def test_digests(self, tmp_path, eviction):
        config = make_config(tmp_path, **{
            "emit.tree": "true",
            "dataset.n_tasks": "60",
            "trainer.algorithm": "at-paml",
            "trainer.epochs": "3",
            "trainer.outer_lr": "0.02",
            "trainer.lr_scale": "0.1",
            "trainer.tree_capacity": "20",
            "trainer.tree_neighbors_train": "8",
            "trainer.tree_neighbors_infer": "3",
            "trainer.tree_eviction": eviction,
        })
        result = run_trial(config, 0, 0)
        tree = load_tree(result.checkpoint_path)
        assert len(tree) == 20 and tree.evictions > 0
        assert sha256_files(result.directory, self.FILES) == self.DIGESTS[eviction]


def sha256_files(directory, names):
    got = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    return got


class TestPinnedWideAtPamlOutputs:
    """at-paml on a generated corpus, pinned byte for byte at the tree width of
    the benchmark's corpus workload: 4 user features x embedding_dim 16 = 64.

    The tree holds fewer nodes than training stores, so eviction and
    20-neighbor touched searches over a full 64-wide tree reach the digests.
    The digests were recorded before tree search gained its norm-expansion
    prefilter and must not change with how the search finds its neighbors.
    """

    DIGESTS = {
        "report.tsv": "5c3ed89a9d404f49bb51ce47108410b8c22f64a1a8a92418c0638560dbecb4d2",
        "per_user.tsv": "447575476fdb6750791677c4b8cdb1c10c3b447e755dfa7ea180d7cbfc859bea",
        "history.tsv": "3965a53457922cf0ba1f27d117d49c1ad5f3d9664dc1b55e5682f96a15df0d13",
        "tree_nodes.tsv": "25495f374bd77fd26803f257f50aab9e7c972cefa8482ba8d6678822be15cbfa",
    }

    def test_digests(self, tmp_path):
        paths = generate_corpus(str(tmp_path / "corpus"), n_users=80, n_movies=40,
                                seed=0, minor_taste_scale=2.5, min_items=15,
                                max_items=25)
        config = build_experiment_config({
            "dataset.kind": "movielens",
            "dataset.ratings": paths["ratings"],
            "dataset.users": paths["users"],
            "dataset.movies": paths["movies"],
            "emit.tree": "true",
            "trainer.algorithm": "at-paml",
            "trainer.epochs": "3",
            "trainer.batch_size": "16",
            "trainer.embedding_dim": "16",
            "trainer.decision_dims": "64,32,1",
            "trainer.lr_hidden_dims": "32,16",
            "trainer.outer_lr": "0.05",
            "trainer.lr_scale": "0.1",
            "trainer.tree_capacity": "60",
            "run.trials": "1",
            "run.seeds": "0",
            "run.output_dir": str(tmp_path / "out"),
        })
        result = run_trial(config, 0, 0)
        tree = load_tree(result.checkpoint_path)
        assert (tree.dim, len(tree)) == (64, 60) and tree.evictions > 0
        assert sha256_files(result.directory, TestPinnedAtPamlOutputs.FILES) == self.DIGESTS


class TestPinnedSyntheticOutputs:
    """One small synthetic trial per algorithm, pinned byte for byte.

    The trainer is the criterion-4 one of the benchmark's synth-sweep
    workload with 2 epochs, so at-paml trains one epoch past its warm-up,
    and every episode has 5 support and 5 query rows.  These are literal
    digests of float64 outputs that pass through matmul and dot: they hold
    on the BLAS kernel that recorded them (OpenBLAS on an AVX-512 host) and
    may differ under another kernel (ROADMAP item 13).  They were recorded
    while every episode still ran through the model one at a time, and must
    not change with how episodes are stacked.
    """

    FILES = ("report.tsv", "per_user.tsv", "history.tsv")
    DIGESTS = {
        "paml": ("01ab381de5718f1d09949239a447802a6d07c406eb3439521a1633543fadec29",
                 "81bd1dfe18534569988786d1158816e602f911b7bbf575d4376548b5d13dbdd4",
                 "08aae9a0ebc62c67cb69c499de539b0aa11811f7dc1f8ba06f30751196130177"),
        "at-paml": ("f025d3fc64e2196ad79c4b00fccbb5d4febdf9633d7fe919d133a0146d9f62f9",
                    "6a30437d8c4b78b4203e4d553c97db3500019d43147e961debb560df63e643a3",
                    "efbb67a6ce9f0e5b3ce83aace1432b3d56dc045d6833fee3d778a2984cf8a269"),
        "reg-paml": ("3405b6dd1eb49ca939c9287313f73c7688103f68e8811c9c8ea1f69789b5fc3b",
                     "753928de1a8841cf44ceec371d193af99d9a0c55ea4f11bd7bd4974cf7dd2a95",
                     "8bd258032d69d3acdc896ed9094b58c7ce54375a336444f3c40e3090154c61cf"),
        "maml-fixed": ("67c74be7adc57f1d2f556cb77a0885e94af99859837af2a9b1fa9b73b87e3a4f",
                       "c2ad201d8b18ec0b64c42820333ffca9c2360f767cdd9a2380cd4eeb6497fb4d",
                       "1f1818b775c3bdad93a672fb2e8045d8865034918bf25bf4dad9acb5e6b33053"),
        "meta-sgd": ("e6b6cf3a181749621c4dcf69e1c0aa6fd856b7d435bcc2afcfc763a59bb7eee4",
                     "d947c00553c18f2ee2e06cb37d516087bdb4a51860e40550a4d85ec33a994e64",
                     "41a7e1d0bd7664921486dba1f030d42d5669e23b844bb0c18610fcf3c550d7e3"),
        "transfer": ("2490d8f0c8ef2712fb4c1c03aa4b7e343ce3b6cd2a29ab890c636c7dd85c01e7",
                     "1490dfea2507d65157233f79a3a8b622cf4e3c1a15847fedd4d07bc4922b70dc",
                     "9a96788b0fdb15c1b1f89254384692b639079fe4018250e79f0286609413eb3a"),
    }

    @pytest.mark.filterwarnings("ignore:p-value omitted")
    @pytest.mark.parametrize("algorithm", sorted(DIGESTS))
    def test_digests(self, tmp_path, algorithm):
        config = build_experiment_config({
            "dataset.kind": "synthetic",
            "dataset.p1": "0.8",
            "dataset.p2": "0.2",
            "dataset.x1": "0",
            "dataset.x2": "1",
            "dataset.n_tasks": "200",
            "dataset.noise_sd": "0.1",
            "trainer.algorithm": algorithm,
            "trainer.epochs": "2",
            "trainer.batch_size": "32",
            "trainer.embedding_dim": "4",
            "trainer.decision_dims": "8,1",
            "trainer.lr_hidden_dims": "8,4",
            "trainer.outer_lr": "0.02",
            "trainer.lr_scale": "0.1",
            "trainer.fixed_inner_lr": "0.001",
            "run.trials": "1",
            "run.seeds": "0",
            "run.output_dir": str(tmp_path / "out"),
        })
        result = run_trial(config, 0, 0)
        expected = dict(zip(self.FILES, self.DIGESTS[algorithm]))
        assert sha256_files(result.directory, self.FILES) == expected
