"""Tests for the command-line interface: subcommands and exit codes."""

import os

import numpy as np
import pytest

from metarec.cli import main
from metarec.memory_tree import TreeMemory

CONFIG_TEXT = """
dataset.kind = synthetic
dataset.p1 = 0.8
dataset.p2 = 0.2
dataset.n_tasks = 40
trainer.algorithm = paml
trainer.epochs = 1
trainer.batch_size = 8
trainer.embedding_dim = 2
trainer.decision_dims = 4,1
trainer.lr_hidden_dims = 4,2
run.trials = 1
run.seeds = 0
"""


def write_config(tmp_path, text=CONFIG_TEXT, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def parse_kv(output):
    values = {}
    for line in output.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            values[key] = value
    return values


class TestUsageErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "command" in capsys.readouterr().out


class TestLemmas:
    def test_defaults_report_both_lemmas_holding(self, capsys):
        assert main(["lemmas"]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert values["lemma1_holds"] == "true"
        assert values["lemma2_holds"] == "true"
        assert values["bound_holds_first_order"] == "true"

    def test_balanced_groups_report_the_equality_case(self, capsys):
        assert main(["lemmas", "--p1", "0.5", "--p2", "0.5"]) == 0
        values = parse_kv(capsys.readouterr().out)
        l_fixed = float(values["L_star"])
        l_adaptive = float(values["L_star_prime"])
        assert l_adaptive == pytest.approx(l_fixed, abs=1e-9)
        assert float(values["alpha2"]) == pytest.approx(float(values["alpha1"]))

    def test_malformed_probability_is_usage_error(self, capsys):
        assert main(["lemmas", "--p1", "1.2"]) == 1
        assert "sum to 1" in capsys.readouterr().err

    def test_explicit_alpha2_is_respected(self, capsys):
        assert main(["lemmas", "--alpha2", "0.25"]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert float(values["alpha2"]) == 0.25


class TestRun:
    def test_degenerate_run_still_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = str(tmp_path / "out")
        code = main(["run", config, "--output-dir", out_dir,
                     "--set", "trainer.epochs=0"])
        assert code == 0
        values = parse_kv(capsys.readouterr().out)
        assert os.path.exists(values["report"])
        assert os.path.exists(values["manifest"])

    def test_same_config_twice_is_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path)
        reports = []
        for name in ("a", "b"):
            assert main(["run", config, "--output-dir", str(tmp_path / name)]) == 0
            values = parse_kv(capsys.readouterr().out)
            reports.append(values["report"])
        first, second = (open(p, "rb").read() for p in reports)
        assert first == second

    def test_seeds_and_trials_flags(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["run", config, "--output-dir", str(tmp_path / "out"),
                     "--trials", "2", "--seeds", "5,9"])
        assert code == 0
        values = parse_kv(capsys.readouterr().out)
        assert values["trial_00"].endswith("trial-00-seed-5")
        assert values["trial_01"].endswith("trial-01-seed-9")

    def test_unknown_override_key_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["run", config, "--output-dir", str(tmp_path / "out"),
                     "--set", "trainer.bogus=1"])
        assert code == 1

    @pytest.mark.parametrize("setting", [
        "trainer.tree_eviction=similarity",
        "trainer.tree_capacity=0",
        "trainer.tree_search_mode=exact",
        "trainer.tree_leaf_size=8",
        "trainer.tree_num_random_trees=4",
        "trainer.tree_checks_budget=64",
    ])
    def test_bad_tree_setting_is_rejected_before_any_output(self, tmp_path, capsys, setting):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["run", config, "--output-dir", str(out_dir),
                     "--set", "trainer.algorithm=at-paml", "--set", setting])
        assert code == 1
        assert setting.split("=")[0].split(".")[1] in capsys.readouterr().err
        assert not out_dir.exists()

    def test_ctr_softmax_is_rejected_before_any_output(self, tmp_path, capsys):
        # no dataset kind yields 0/1 click labels, so the report could not be scored
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["run", config, "--output-dir", str(out_dir),
                     "--set", "trainer.algorithm=maml-fixed",
                     "--set", "trainer.output_kind=ctr-softmax",
                     "--set", "trainer.decision_dims=4,2"])
        assert code == 1
        assert "output_kind" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("settings", [
        ("dataset.split=-1,5,5",),
        ("dataset.split=7,3,0",),
        ("dataset.split=1,1",),
        ("dataset.split=0,1,1",),
        ("dataset.n_tasks=1",),
        ("dataset.n_tasks=3", "dataset.split=1,5,1"),
    ])
    def test_bad_user_split_is_rejected_before_any_output(self, tmp_path, capsys, settings):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        args = ["run", config, "--output-dir", str(out_dir)]
        for setting in settings:
            args += ["--set", setting]
        assert main(args) == 1
        assert "dataset.split" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_user_split_is_rejected_for_movielens(self, tmp_path, capsys):
        text = """
dataset.kind = movielens
dataset.ratings = missing.dat
dataset.users = missing.dat
dataset.movies = missing.dat
dataset.split = 7,3,0
run.trials = 1
"""
        config = write_config(tmp_path, text)
        out_dir = tmp_path / "out"
        assert main(["run", config, "--output-dir", str(out_dir)]) == 1
        assert "dataset.split" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_missing_dataset_is_data_error_and_flags_stale(self, tmp_path, capsys):
        text = """
dataset.kind = movielens
dataset.ratings = missing.dat
dataset.users = missing.dat
dataset.movies = missing.dat
run.trials = 1
"""
        config = write_config(tmp_path, text)
        out_dir = tmp_path / "out"
        assert main(["run", config, "--output-dir", str(out_dir)]) == 2
        assert "[stage: dataset trial 0]" in capsys.readouterr().err
        assert (out_dir / "STALE").exists()

    def test_numeric_blowup_is_exit_three(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["run", config, "--output-dir", str(tmp_path / "out"),
                     "--set", "trainer.algorithm=maml-fixed",
                     "--set", "trainer.epochs=0",
                     "--set", "trainer.fixed_inner_lr=1e200"])
        assert code == 3
        assert "[stage: evaluate trial 0]" in capsys.readouterr().err


class TestArtifactCommands:
    def run_tiny(self, tmp_path, capsys, algorithm="at-paml", epochs="2"):
        config = write_config(tmp_path)
        out_dir = str(tmp_path / f"out-{algorithm}")
        code = main(["run", config, "--output-dir", out_dir,
                     "--set", f"trainer.algorithm={algorithm}",
                     "--set", f"trainer.epochs={epochs}"])
        assert code == 0
        capsys.readouterr()
        return config, os.path.join(out_dir, "trial-00-seed-0", "checkpoint.npz")

    def test_inspect_tree_summarizes_nodes(self, tmp_path, capsys):
        _, checkpoint = self.run_tiny(tmp_path, capsys)
        assert main(["inspect-tree", checkpoint, "--top", "2"]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert int(values["nodes"]) > 0
        assert values["mode"] == "exact"

    def test_inspect_tree_missing_artifact_is_data_error(self, tmp_path, capsys):
        assert main(["inspect-tree", str(tmp_path / "none.npz")]) == 2

    def test_inspect_tree_malformed_dump_is_data_error(self, tmp_path, capsys):
        tree = TreeMemory(dim=2)
        for i in range(5):
            tree.store_node([float(i), 0.0], 1e-3)
        path = str(tmp_path / "memory.tree.npz")
        tree.dump(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["lrs"] = arrays["lrs"][:4]
        np.savez(path, **arrays)
        assert main(["inspect-tree", path]) == 2
        assert "lengths disagree" in capsys.readouterr().err

    def test_inspect_tree_without_sidecar_is_data_error(self, tmp_path, capsys):
        _, checkpoint = self.run_tiny(tmp_path, capsys, algorithm="paml", epochs="1")
        assert main(["inspect-tree", checkpoint]) == 2

    def test_dump_embeddings_writes_rows(self, tmp_path, capsys):
        config, checkpoint = self.run_tiny(tmp_path, capsys, algorithm="paml",
                                           epochs="1")
        out = str(tmp_path / "emb.tsv")
        code = main(["dump-embeddings", checkpoint, config,
                     "--output", out, "--split", "test"])
        assert code == 0
        values = parse_kv(capsys.readouterr().out)
        assert int(values["rows"]) > 0
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == int(values["rows"]) + 1
        assert lines[0].startswith("user_key\tsubset\tgroup\talpha")

    def test_dump_embeddings_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["dump-embeddings", str(tmp_path / "none.npz"), config,
                     "--output", str(tmp_path / "emb.tsv")])
        assert code == 2

    def test_make_data_then_full_pipeline(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        code = main(["make-data", corpus, "--users", "40", "--movies", "25",
                     "--min-items", "4", "--max-items", "8"])
        assert code == 0
        paths = parse_kv(capsys.readouterr().out)
        for name in ("users", "movies", "ratings"):
            assert os.path.exists(paths[name])
        text = f"""
dataset.kind = movielens
dataset.ratings = {paths["ratings"]}
dataset.users = {paths["users"]}
dataset.movies = {paths["movies"]}
dataset.min_items = 3
trainer.algorithm = reg-paml
trainer.epochs = 1
trainer.batch_size = 8
trainer.embedding_dim = 3
trainer.decision_dims = 6,1
trainer.lr_hidden_dims = 4,2
run.trials = 1
"""
        config = write_config(tmp_path, text, name="ml.cfg")
        code = main(["run", config, "--output-dir", str(tmp_path / "mlout")])
        assert code == 0
        values = parse_kv(capsys.readouterr().out)
        assert os.path.exists(values["report"])
