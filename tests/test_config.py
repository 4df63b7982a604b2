"""Tests for experiment config parsing, validation, and canonical rendering."""

import dataclasses
import os
import re

import pytest

from metarec.config import (
    SCHEMA,
    ExperimentConfig,
    MovielensConfig,
    SyntheticConfig,
    apply_overrides,
    build_experiment_config,
    experiment_digest,
    flatten_config,
    load_experiment_config,
    parse_config_text,
)
from metarec.errors import ConfigError
from metarec.meta_learners import TrainerConfig
from metarec.tasks import PreprocessConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

SYNTH_TEXT = """
# smoke experiment
dataset.kind = synthetic
dataset.p1 = 0.8
dataset.p2 = 0.2
dataset.n_tasks = 40

trainer.algorithm = paml
trainer.epochs = 2
trainer.decision_dims = 8,4,1

run.output_dir = out
run.seeds = 0,1
"""


def synth_config(**extra_raw):
    raw = parse_config_text(SYNTH_TEXT)
    raw.update(extra_raw)
    return build_experiment_config(raw)


class TestParsing:
    def test_comments_and_blank_lines_are_ignored(self):
        raw = parse_config_text("\n# note\ndataset.kind = synthetic  # trailing\n\n")
        assert raw == {"dataset.kind": "synthetic"}

    def test_unknown_key_is_rejected_with_its_name(self):
        with pytest.raises(ConfigError, match="dataset.kindd"):
            parse_config_text("dataset.kindd = synthetic")

    def test_duplicate_key_is_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("trainer.epochs = 1\ntrainer.epochs = 2")

    def test_line_without_equals_is_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_value_may_contain_equals(self):
        raw = parse_config_text("run.output_dir = a=b")
        assert raw["run.output_dir"] == "a=b"

    def test_bad_int_is_rejected(self):
        with pytest.raises(ConfigError, match="trainer.epochs"):
            synth_config(**{"trainer.epochs": "soon"})

    def test_bad_bool_is_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            synth_config(**{"run.parallel": "maybe"})

    def test_bool_spellings(self):
        assert synth_config(**{"run.parallel": "YES"}).parallel is True
        assert synth_config(**{"run.parallel": "0"}).parallel is False

    def test_tuple_value(self):
        config = synth_config(**{"trainer.lr_hidden_dims": "16,8"})
        assert config.trainer.lr_hidden_dims == (16, 8)

    def test_none_spelling_for_optional_float(self):
        config = synth_config(**{"trainer.outer_lr": "none"})
        assert config.trainer.outer_lr is None

    def test_override_wins_over_file_value(self):
        raw = apply_overrides(parse_config_text(SYNTH_TEXT), ["trainer.epochs=7"])
        assert build_experiment_config(raw).trainer.epochs == 7

    def test_override_must_be_key_value(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["trainer.epochs"])

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            apply_overrides({}, ["trainer.bogus=1"])


class TestValidation:
    def test_dataset_kind_required(self):
        with pytest.raises(ConfigError, match="dataset.kind"):
            build_experiment_config({"run.output_dir": "out"})

    def test_unknown_dataset_kind(self):
        with pytest.raises(ConfigError, match="unknown dataset kind"):
            synth_config(**{"dataset.kind": "csv"})

    def test_output_dir_required(self):
        raw = parse_config_text(SYNTH_TEXT)
        del raw["run.output_dir"]
        with pytest.raises(ConfigError, match="run.output_dir"):
            build_experiment_config(raw)

    def test_movielens_requires_paths(self):
        with pytest.raises(ConfigError, match="dataset.ratings"):
            build_experiment_config({"dataset.kind": "movielens",
                                     "run.output_dir": "out"})

    def test_synthetic_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            synth_config(**{"dataset.p1": "0.8", "dataset.p2": "0.3"})

    @pytest.mark.parametrize("noise_sd", ["nan", "inf", "-0.5"])
    def test_synthetic_noise_sd_must_be_finite_and_non_negative(self, noise_sd):
        with pytest.raises(ConfigError, match="noise_sd must be finite"):
            synth_config(**{"dataset.noise_sd": noise_sd})

    @pytest.mark.parametrize("key, value", [
        ("tree_delta", "nan"), ("tree_delta", "inf"), ("tree_delta", "-1"),
        ("tree_sigma", "nan"), ("tree_sigma", "inf"), ("tree_sigma", "0"), ("tree_sigma", "-1")])
    def test_tree_kernel_params_out_of_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            synth_config(**{"trainer.algorithm": "at-paml", f"trainer.{key}": value})

    @pytest.mark.parametrize("key, value", [
        ("decision_dims", "0,1"), ("decision_dims", "4,-1,1"),
        ("lr_hidden_dims", "0"), ("lr_hidden_dims", "4,0")])
    def test_layer_widths_below_one_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} widths must be >= 1"):
            synth_config(**{f"trainer.{key}": value})

    @pytest.mark.parametrize("value", ["4,2", "2", "8,4,0"])
    def test_output_width_other_than_one_rejected(self, value):
        with pytest.raises(ConfigError, match="decision_dims must end in the 1-wide"):
            synth_config(**{"trainer.decision_dims": value})

    @pytest.mark.parametrize("key", ["dataset.x1", "dataset.x2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_synthetic_preferences_must_be_finite(self, key, value):
        with pytest.raises(ConfigError, match="x1 and x2 must be finite"):
            synth_config(**{key: value})

    @pytest.mark.parametrize("key, value", [("trainer.output_kind", "rating-regression"),
                                            ("trainer.psi_update_rule", "exact")],
                             ids=["trainer.output_kind", "trainer.psi_update_rule"])
    def test_retired_trainer_key_is_an_unknown_key(self, key, value):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config_text(SYNTH_TEXT + f"{key} = {value}\n")

    def test_zero_tree_delta_accepted(self):
        assert synth_config(**{"trainer.tree_delta": "0"}).trainer.tree_delta == 0.0

    def test_trainer_validation_happens_at_build_time(self):
        with pytest.raises(ConfigError, match="algorithm"):
            synth_config(**{"trainer.algorithm": "gpt"})

    def test_seeds_and_trials_must_agree(self):
        with pytest.raises(ConfigError, match="seeds"):
            synth_config(**{"run.trials": "3"})  # file pins two seeds

    def test_trials_alone_derives_consecutive_seeds(self):
        raw = parse_config_text(SYNTH_TEXT)
        del raw["run.seeds"]
        raw["run.trials"] = "2"
        raw["trainer.seed"] = "5"
        config = build_experiment_config(raw)
        assert config.seeds == (5, 6)

    def test_default_is_three_trials(self):
        raw = parse_config_text(SYNTH_TEXT)
        del raw["run.seeds"]
        config = build_experiment_config(raw)
        assert config.trials == 3 and config.seeds == (0, 1, 2)

    @pytest.mark.parametrize("extra, message", [
        ({"run.seeds": "-1", "run.trials": "1"}, "run.seeds must be >= 0"),
        ({"run.seeds": "0,-3"}, "run.seeds must be >= 0"),
        ({"trainer.seed": "-1"}, "seed must be >= 0")],
        ids=["run-seed", "second-run-seed", "trainer-seed"])
    def test_negative_seeds_rejected(self, extra, message):
        with pytest.raises(ConfigError, match=message):
            synth_config(**extra)

    def test_negative_trainer_seed_rejected_before_deriving_run_seeds(self):
        raw = parse_config_text(SYNTH_TEXT)
        del raw["run.seeds"]
        raw["trainer.seed"] = "-2"
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            build_experiment_config(raw)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            synth_config(**{"run.seeds": "4,4"})

    def test_schema_covers_every_trainer_field(self):
        trainer_keys = {k.split(".", 1)[1] for k in SCHEMA if k.startswith("trainer.")}
        field_names = {f.name for f in dataclasses.fields(TrainerConfig)}
        assert trainer_keys == field_names

    def test_readme_documents_exactly_the_trainer_keys(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        section = text.split("### trainer keys", 1)[1].split("\n### ", 1)[0]
        documented = set(re.findall(r"`trainer\.(\w+)`", section))
        parsed = {k.split(".", 1)[1] for k in SCHEMA if k.startswith("trainer.")}
        field_names = {f.name for f in dataclasses.fields(TrainerConfig)}
        assert documented == parsed == field_names

    def test_schema_covers_every_preprocess_field_except_seed(self):
        dataset_keys = {k.split(".", 1)[1] for k in SCHEMA if k.startswith("dataset.")}
        wanted = {f.name for f in dataclasses.fields(PreprocessConfig)} - {"seed"}
        assert wanted <= dataset_keys


class TestCanonicalRendering:
    def test_flatten_round_trips_synthetic(self):
        config = synth_config(**{"emit.tree": "true"})
        assert build_experiment_config(flatten_config(config)) == config

    def test_flatten_round_trips_movielens(self):
        raw = {
            "dataset.kind": "movielens",
            "dataset.ratings": "r.dat",
            "dataset.users": "u.dat",
            "dataset.movies": "m.dat",
            "dataset.min_items": "4",
            "dataset.split": "6,2,2",
            "run.output_dir": "out",
            "run.seeds": "3",
        }
        config = build_experiment_config(raw)
        assert config.movielens.preprocess.min_items == 4
        assert config.movielens.preprocess.split == (6, 2, 2)
        assert build_experiment_config(flatten_config(config)) == config

    def test_digest_ignores_comments_and_order(self):
        a = build_experiment_config(parse_config_text(SYNTH_TEXT))
        reordered = "\n".join(reversed(SYNTH_TEXT.strip().splitlines()))
        b = build_experiment_config(parse_config_text(reordered))
        assert experiment_digest(a) == experiment_digest(b)

    def test_digest_changes_with_any_value(self):
        a = experiment_digest(synth_config())
        b = experiment_digest(synth_config(**{"trainer.gamma": "0.5"}))
        assert a != b

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError, match="synthetic dataset selected"):
            ExperimentConfig(output_dir="out", trainer=TrainerConfig(),
                             dataset_kind="synthetic", trials=1, seeds=(0,))

    def test_movielens_config_defaults(self):
        source = MovielensConfig(ratings="r", users="u", movies="m")
        assert source.preprocess == PreprocessConfig()

    def test_synthetic_defaults_are_valid(self):
        assert SyntheticConfig().p1 == 0.7


class TestLoadFromDisk:
    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(SYNTH_TEXT, encoding="utf-8")
        config = load_experiment_config(path, ["run.output_dir=elsewhere"])
        assert config.output_dir == "elsewhere"
        assert config.trainer.epochs == 2

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_experiment_config(tmp_path / "nope.cfg")
