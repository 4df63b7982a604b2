"""Tests for the command-line interface: subcommands and exit codes."""

import json
import os
import shutil

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

    @pytest.mark.parametrize("flags, message", [
        (("--x1", "nan"), "must be finite"),
        (("--x2", "inf"), "must be finite"),
        (("--alpha1", "inf"), "must be finite"),
        (("--alpha2", "nan"), "must be finite"),
        (("--tol", "nan"), "tol must be finite"),
        (("--tol", "-1"), "tol must be finite"),
    ])
    def test_non_finite_input_prints_no_verdict(self, capsys, flags, message):
        assert main(["lemmas", *flags]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (("--alpha1", "1e200"), "adapted losses overflowed"),
        (("--x2", "1e200"), "adapted losses overflowed"),
        (("--x2", "1e154"), "loss-gap bound overflowed"),
    ])
    def test_inputs_that_overflow_print_no_verdict(self, capsys, flags, message):
        # finite flags whose losses or bound terms overflow; the bound is now
        # computed before the first line prints
        assert main(["lemmas", *flags]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and "not finite" in captured.err
        assert captured.out == ""

    def test_preferences_near_the_float_limit_print_the_bound(self, capsys):
        assert main(["lemmas", "--x1", "1e300", "--x2", "1e300"]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert values["bound_embedding_term"] == "2e+300"
        assert values["bound_holds_full"] == "true"

    @pytest.mark.parametrize("rates", [[], ["--alpha2", "0.25"],
                                       ["--alpha1", "0.3", "--alpha2", "0.05"],
                                       ["--alpha2", "0.95"]])
    def test_lemma2_condition_matches_the_numeric_verdict(self, capsys, rates):
        assert main(["lemmas", *rates]) == 0
        values = parse_kv(capsys.readouterr().out)
        alpha1, alpha2 = float(values["alpha1"]), float(values["alpha2"])
        expected = abs(1 - 2 * alpha2) <= abs(1 - 2 * alpha1)
        assert values["lemma2_condition"] == ("true" if expected else "false")
        assert values["lemma2_condition"] == values["lemma2_holds"]

    def test_lemma2_condition_is_printed_only_where_it_applies(self, capsys):
        assert main(["lemmas", "--convention", "expansion"]) == 0
        assert "lemma2_condition" not in parse_kv(capsys.readouterr().out)

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

    @pytest.mark.parametrize("settings, message", [
        (("run.seeds=-1",), "run.seeds must be >= 0"),
        (("run.trials=2", "run.seeds=3,-2"), "run.seeds must be >= 0"),
        (("trainer.seed=-1",), "seed must be >= 0"),
        (("trainer.decision_dims=0,1",), "decision_dims widths must be >= 1"),
        (("trainer.decision_dims=4,2",), "decision_dims must end in"),
        (("trainer.lr_hidden_dims=4,0",), "lr_hidden_dims widths must be >= 1"),
        (("dataset.x1=nan",), "x1 and x2 must be finite"),
        (("dataset.x2=inf",), "x1 and x2 must be finite"),
    ], ids=["run-seed", "second-run-seed", "trainer-seed", "decision-width", "output-width",
            "rate-width", "x1-nan", "x2-inf"])
    def test_bad_seed_or_width_is_rejected_before_any_output(self, tmp_path, capsys,
                                                             settings, message):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        args = ["run", config, "--output-dir", str(out_dir)]
        for setting in settings:
            args += ["--set", setting]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
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

    def test_retired_psi_update_rule_is_rejected_before_any_output(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["run", config, "--output-dir", str(out_dir),
                     "--set", "trainer.psi_update_rule=ascent"])
        assert code == 1
        assert "unknown config key 'trainer.psi_update_rule'" in capsys.readouterr().err
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

    def test_diverging_paml_rate_is_exit_three(self, tmp_path, capsys):
        # the huge outer step makes the head's rate nan: a numeric failure,
        # not a configuration problem
        config = write_config(tmp_path)
        code = main(["run", config, "--output-dir", str(tmp_path / "out"),
                     "--set", "trainer.epochs=2", "--set", "trainer.embedding_dim=8",
                     "--set", "trainer.outer_lr=1e300"])
        assert code == 3
        assert "inner rate must be finite, got nan" in capsys.readouterr().err


def npz_arrays(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


class TestArtifactCommands:
    def run_tiny(self, tmp_path, capsys, algorithm="at-paml", epochs="2"):
        """A finished one-trial run; returns its trial directory."""
        config = write_config(tmp_path)
        out_dir = str(tmp_path / f"out-{algorithm}")
        code = main(["run", config, "--output-dir", out_dir,
                     "--set", f"trainer.algorithm={algorithm}",
                     "--set", f"trainer.epochs={epochs}"])
        assert code == 0
        capsys.readouterr()
        return os.path.join(out_dir, "trial-00-seed-0")

    def plant_sidecar(self, tmp_path, capsys, edit):
        """An at-paml trial whose tree sidecar is replaced by a 2-wide tree
        dump with ``edit`` applied to its entries; returns the trial directory."""
        trial_dir = self.run_tiny(tmp_path, capsys)
        tree = TreeMemory(dim=2)
        for i in range(5):
            tree.store_node([float(i), 0.0], 1e-3)
        sidecar = os.path.join(trial_dir, "checkpoint.tree.npz")
        tree.dump(sidecar)
        arrays = npz_arrays(sidecar)
        edit(arrays)
        np.savez(sidecar, **arrays)
        return trial_dir

    def assert_refused(self, capsys, argv, path, out=None):
        """Exit 2 naming ``path``, with no traceback and no output written."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        if out is not None:
            assert not os.path.exists(out)

    def test_inspect_tree_summarizes_nodes(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys)
        assert main(["inspect-tree", trial_dir, "--top", "2"]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert int(values["nodes"]) > 0
        assert "mode" not in values  # the exact scan is the only search

    def test_inspect_tree_negative_top_is_usage_error(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys)
        assert main(["inspect-tree", trial_dir, "--top", "-1"]) == 1
        captured = capsys.readouterr()
        assert "--top must be >= 0" in captured.err
        assert captured.out == ""

    def test_inspect_tree_missing_run_is_data_error(self, tmp_path, capsys):
        self.assert_refused(capsys, ["inspect-tree", str(tmp_path / "trial-00-seed-0")],
                            tmp_path / "manifest.json")

    def test_inspect_tree_malformed_dump_is_data_error(self, tmp_path, capsys):
        def drop_a_rate(arrays):
            arrays["lrs"] = arrays["lrs"][:4]
        trial_dir = self.plant_sidecar(tmp_path, capsys, drop_a_rate)
        assert main(["inspect-tree", trial_dir]) == 2
        assert "lengths disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["eviction"])
    def test_inspect_tree_unknown_stored_code_is_data_error(self, tmp_path, capsys, key):
        trial_dir = self.plant_sidecar(tmp_path, capsys,
                                       lambda arrays: arrays.update({key: np.array([7], dtype=np.int64)}))
        assert main(["inspect-tree", trial_dir]) == 2
        assert f"{key} code [7]" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("meta", np.array([2, 0, 1, 1, 0], dtype=np.int64), "capacity must be >= 1"),
        ("params", np.array([np.nan, 1e-5]), "delta must be finite")])
    def test_inspect_tree_stored_settings_out_of_range_are_data_errors(
            self, tmp_path, capsys, key, value, message):
        trial_dir = self.plant_sidecar(tmp_path, capsys,
                                       lambda arrays: arrays.update({key: value}))
        assert main(["inspect-tree", trial_dir]) == 2
        assert message in capsys.readouterr().err

    def test_inspect_tree_of_a_paml_trial_is_data_error(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys, algorithm="paml", epochs="1")
        self.assert_refused(capsys, ["inspect-tree", trial_dir],
                            os.path.join(trial_dir, "checkpoint.npz"))

    def test_inspect_tree_truncated_dump_is_data_error(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys)
        sidecar = os.path.join(trial_dir, "checkpoint.tree.npz")
        with open(sidecar, "rb") as fh:
            head = fh.read(200)
        with open(sidecar, "wb") as fh:
            fh.write(head)
        self.assert_refused(capsys, ["inspect-tree", trial_dir], sidecar)

    def test_dump_embeddings_writes_rows(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys, algorithm="paml", epochs="1")
        out = str(tmp_path / "emb.tsv")
        code = main(["dump-embeddings", trial_dir, "--output", out, "--split", "test"])
        assert code == 0
        values = parse_kv(capsys.readouterr().out)
        assert int(values["rows"]) > 0
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == int(values["rows"]) + 1
        assert lines[0].startswith("user_key\tsubset\tgroup\talpha")

    def test_dump_embeddings_of_a_copied_run_writes_the_same_bytes(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys)
        copy = str(tmp_path / "copy")
        shutil.copytree(os.path.dirname(trial_dir), copy)
        outs = [str(tmp_path / "here.tsv"), str(tmp_path / "there.tsv")]
        for directory, out in zip((trial_dir, os.path.join(copy, "trial-00-seed-0")), outs):
            assert main(["dump-embeddings", directory, "--output", out]) == 0
        with open(outs[0], "rb") as here, open(outs[1], "rb") as there:
            assert here.read() == there.read()

    def test_dump_embeddings_of_a_directory_outside_the_run_is_data_error(
            self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys, algorithm="paml", epochs="1")
        stray = os.path.join(os.path.dirname(trial_dir), "trial-01-seed-1")
        out = tmp_path / "emb.tsv"
        self.assert_refused(capsys, ["dump-embeddings", stray, "--output", str(out)],
                            stray, out)

    def copied_run_with_manifest(self, tmp_path, capsys, edit):
        """A copy of a finished run whose manifest has ``edit`` applied;
        returns (trial directory, manifest path)."""
        trial_dir = self.run_tiny(tmp_path, capsys, algorithm="paml", epochs="1")
        copy = str(tmp_path / "copy")
        shutil.copytree(os.path.dirname(trial_dir), copy)
        manifest_path = os.path.join(copy, "manifest.json")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        return os.path.join(copy, "trial-00-seed-0"), manifest_path

    def test_dump_embeddings_rejected_manifest_config_is_data_error(self, tmp_path, capsys):
        trial_dir, manifest = self.copied_run_with_manifest(
            tmp_path, capsys, lambda manifest: manifest["config"].update(
                {"trainer.epochs": "-1"}))
        out = tmp_path / "emb.tsv"
        self.assert_refused(capsys, ["dump-embeddings", trial_dir, "--output", str(out)],
                            manifest, out)

    def test_dump_embeddings_malformed_trials_entry_is_data_error(self, tmp_path, capsys):
        trial_dir, manifest = self.copied_run_with_manifest(
            tmp_path, capsys, lambda manifest: manifest.update({"trials": ["x"]}))
        out = tmp_path / "emb.tsv"
        self.assert_refused(capsys, ["dump-embeddings", trial_dir, "--output", str(out)],
                            manifest, out)

    def test_dump_embeddings_unwritable_output_is_data_error(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys, algorithm="paml", epochs="1")
        out = tmp_path / "nodir" / "emb.tsv"
        self.assert_refused(capsys, ["dump-embeddings", trial_dir, "--output", str(out)],
                            out, out)

    def test_dump_embeddings_mis_shaped_rate_entry_is_data_error(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys, algorithm="paml", epochs="1")
        checkpoint = os.path.join(trial_dir, "checkpoint.npz")
        arrays = npz_arrays(checkpoint)
        arrays["psi.lr_W0"] = arrays["psi.lr_W0"].T
        np.savez(checkpoint, **arrays)
        out = tmp_path / "emb.tsv"
        assert main(["dump-embeddings", trial_dir, "--output", str(out)]) == 2
        assert "checkpoint entry 'psi.lr_W0' has shape" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_embeddings_sidecar_of_another_width_is_data_error(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys)
        sidecar = os.path.join(trial_dir, "checkpoint.tree.npz")
        wide = TreeMemory(dim=3)  # the tiny run's users are 2 wide
        wide.store_node([0.0, 0.0, 0.0], 1e-3)
        wide.dump(sidecar)
        out = tmp_path / "emb.tsv"
        assert main(["dump-embeddings", trial_dir, "--output", str(out)]) == 2
        assert f"tree sidecar {sidecar} holds 3-wide" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_embeddings_sidecar_without_meta_is_data_error(self, tmp_path, capsys):
        trial_dir = self.plant_sidecar(tmp_path, capsys, lambda arrays: arrays.pop("meta"))
        out = tmp_path / "emb.tsv"
        self.assert_refused(capsys, ["dump-embeddings", trial_dir, "--output", str(out)],
                            os.path.join(trial_dir, "checkpoint.tree.npz"), out)

    @pytest.mark.parametrize("damage", ["no-version", "not-an-archive", "truncated", "empty"])
    def test_dump_embeddings_unreadable_checkpoint_is_data_error(self, tmp_path, capsys,
                                                                 damage):
        trial_dir = self.run_tiny(tmp_path, capsys, algorithm="paml", epochs="1")
        checkpoint = os.path.join(trial_dir, "checkpoint.npz")
        if damage == "no-version":
            arrays = npz_arrays(checkpoint)
            del arrays["version"]
            np.savez(checkpoint, **arrays)
        else:
            with open(checkpoint, "rb") as fh:
                head = fh.read(300)
            with open(checkpoint, "wb") as fh:
                fh.write({"not-an-archive": b"not an archive\n", "truncated": head,
                          "empty": b""}[damage])
        out = tmp_path / "emb.tsv"
        self.assert_refused(capsys, ["dump-embeddings", trial_dir, "--output", str(out)],
                            checkpoint, out)

    def test_dump_embeddings_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        trial_dir = self.run_tiny(tmp_path, capsys, algorithm="paml", epochs="1")
        checkpoint = os.path.join(trial_dir, "checkpoint.npz")
        os.remove(checkpoint)
        out = tmp_path / "emb.tsv"
        self.assert_refused(capsys, ["dump-embeddings", trial_dir, "--output", str(out)],
                            checkpoint, out)

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
trainer.algorithm = at-paml
trainer.epochs = 2
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
        trial_dir = values["trial_00"]
        out = str(tmp_path / "embeddings.tsv")
        assert main(["dump-embeddings", trial_dir, "--output", out]) == 0
        dumped = parse_kv(capsys.readouterr().out)
        with open(out, encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == int(dumped["rows"]) + 1 > 1
        assert main(["inspect-tree", trial_dir]) == 0
        assert int(parse_kv(capsys.readouterr().out)["nodes"]) > 0

    @pytest.mark.parametrize("noise_sd", ["nan", "inf", "-1"])
    def test_make_data_bad_noise_sd_is_config_error(self, tmp_path, capsys, noise_sd):
        corpus = tmp_path / "corpus"
        code = main(["make-data", str(corpus), "--noise-sd", noise_sd])
        assert code == 1
        assert "noise_sd must be finite and non-negative" in capsys.readouterr().err
        assert not corpus.exists()

    def test_make_data_negative_seed_is_config_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["make-data", str(corpus), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "seed must be >= 0" in captured.err
        assert captured.out == ""
        assert not corpus.exists()

