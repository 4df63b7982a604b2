"""Experiment configuration: flat ``key = value`` files with a typed schema.

A config file is plain text.  Blank lines and ``#`` comments are ignored;
every other line must read ``key = value`` with a known dotted key.  Unknown
and duplicated keys are rejected outright so typos cannot silently fall back
to defaults.  Command-line overrides are strings of the same ``key=value``
shape and are applied after the file.

Key groups:
  dataset.*   where episodes come from (a ratings corpus on disk, or the
              two-group synthetic generator) and how they are split
  trainer.*   every TrainerConfig field, same names
  run.*       trial count, seeds, output directory, parallelism
  emit.*      optional artifact dumps (rate histogram, tree); per-user
              embeddings come from ``metarec dump-embeddings`` after the run

``flatten_config`` inverts parsing: it renders a configuration back to the
canonical flat mapping (defaults resolved, seeds expanded), which is what the
run manifest records, and ``experiment_digest`` hashes that mapping.
"""

import dataclasses
import hashlib
import json
import typing
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .errors import ConfigError
from .meta_learners import TrainerConfig
from .tasks import PreprocessConfig, check_split, check_synthetic

DATASET_KINDS = ("synthetic", "movielens")


@dataclasses.dataclass(frozen=True)
class SyntheticConfig:
    """Two-group scalar-regression corpus parameters."""

    p1: float = 0.7
    p2: float = 0.3
    x1: float = 0.0
    x2: float = 1.0
    n_tasks: int = 200
    noise_sd: float = 0.1
    support_size: int = 5
    query_size: int = 5
    split: Tuple[int, int, int] = (7, 1, 2)

    def __post_init__(self):
        check_synthetic(self.p1, self.p2, self.x1, self.x2, self.n_tasks, self.noise_sd,
                        self.support_size, self.query_size)
        check_split(self.split, self.n_tasks)


@dataclasses.dataclass(frozen=True)
class MovielensConfig:
    """Paths to a ``::``-delimited ratings corpus plus preprocessing knobs."""

    ratings: str
    users: str
    movies: str
    preprocess: PreprocessConfig = PreprocessConfig()


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything one ``run`` needs; validated before any work starts."""

    output_dir: str
    trainer: TrainerConfig
    dataset_kind: str
    synthetic: Optional[SyntheticConfig] = None
    movielens: Optional[MovielensConfig] = None
    trials: int = 3
    seeds: Tuple[int, ...] = (0, 1, 2)
    parallel: bool = False
    emit_lr_distribution: bool = False
    emit_tree: bool = False

    def __post_init__(self):
        if self.dataset_kind not in DATASET_KINDS:
            raise ConfigError(
                f"unknown dataset kind {self.dataset_kind!r} (use one of {DATASET_KINDS})")
        if self.dataset_kind == "synthetic" and self.synthetic is None:
            raise ConfigError("synthetic dataset selected but not configured")
        if self.dataset_kind == "movielens" and self.movielens is None:
            raise ConfigError("movielens dataset selected but not configured")
        if self.trials < 1:
            raise ConfigError("run.trials must be >= 1")
        if len(self.seeds) != self.trials:
            raise ConfigError(
                f"run.seeds lists {len(self.seeds)} seeds but run.trials is {self.trials}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("run.seeds must be distinct (each trial owns one directory)")
        if min(self.seeds) < 0:
            raise ConfigError(f"run.seeds must be >= 0, got {self.seeds}")
        if not self.output_dir:
            raise ConfigError("run.output_dir must be a non-empty path")


# ---------------------------------------------------------------------------
# value parsing


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_int_tuple(text: str) -> Tuple[int, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")
    return tuple(_parse_int(p) for p in parts)


def _parse_opt_float(text: str) -> Optional[float]:
    if text.strip().lower() == "none":
        return None
    return _parse_float(text)


_PARSER_BY_TYPE: Dict[object, Callable[[str], object]] = {
    str: _parse_str,
    int: _parse_int,
    float: _parse_float,
    Optional[float]: _parse_opt_float,
    Tuple[int, ...]: _parse_int_tuple,
}


def _field_parsers(cls, skip: Sequence[str] = ("split",)) -> Dict[str, Callable[[str], object]]:
    """The parser of each field of the config dataclass ``cls``, by the field's
    type; ``split`` is keyed once, as ``dataset.split``."""
    types = typing.get_type_hints(cls)
    return {field.name: _PARSER_BY_TYPE[types[field.name]]
            for field in dataclasses.fields(cls) if field.name not in skip}


_TRAINER_PARSERS = _field_parsers(TrainerConfig)
_SYNTHETIC_PARSERS = _field_parsers(SyntheticConfig)
# a movielens trial takes its preprocessing seed from the run's seeds
_PREPROCESS_PARSERS = _field_parsers(PreprocessConfig, skip=("split", "seed"))

_RUN_PARSERS: Dict[str, Callable[[str], object]] = {
    "output_dir": _parse_str,
    "trials": _parse_int,
    "seeds": _parse_int_tuple,
    "parallel": _parse_bool,
}

_EMIT_KEYS = ("lr_distribution", "tree")
_MOVIELENS_PATH_KEYS = ("ratings", "users", "movies")


def _schema() -> Dict[str, Callable[[str], object]]:
    table: Dict[str, Callable[[str], object]] = {"dataset.kind": _parse_str,
                                                 "dataset.split": _parse_int_tuple}
    for key in _MOVIELENS_PATH_KEYS:
        table[f"dataset.{key}"] = _parse_str
    for key, parser in _PREPROCESS_PARSERS.items():
        table[f"dataset.{key}"] = parser
    for key, parser in _SYNTHETIC_PARSERS.items():
        table[f"dataset.{key}"] = parser
    for key, parser in _TRAINER_PARSERS.items():
        table[f"trainer.{key}"] = parser
    for key, parser in _RUN_PARSERS.items():
        table[f"run.{key}"] = parser
    for key in _EMIT_KEYS:
        table[f"emit.{key}"] = _parse_bool
    return table


SCHEMA: Dict[str, Callable[[str], object]] = _schema()


# ---------------------------------------------------------------------------
# text -> raw mapping -> ExperimentConfig


def parse_config_text(text: str) -> Dict[str, str]:
    """Collect raw key/value strings; reject unknown and duplicated keys."""
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        raw[key] = value.strip()
    return raw


def apply_overrides(raw: Mapping[str, str], overrides: Sequence[str]) -> Dict[str, str]:
    """Apply ``key=value`` override strings on top of file values."""
    merged = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r} in override")
        merged[key] = value.strip()
    return merged


def _typed(raw: Mapping[str, str]) -> Dict[str, object]:
    typed: Dict[str, object] = {}
    for key, value in raw.items():
        try:
            typed[key] = SCHEMA[key](value)
        except ConfigError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    return typed


def _collect(typed: Mapping[str, object], prefix: str,
             names: Sequence[str]) -> Dict[str, object]:
    return {name: typed[f"{prefix}.{name}"] for name in names
            if f"{prefix}.{name}" in typed}


def build_experiment_config(raw: Mapping[str, str]) -> ExperimentConfig:
    """Turn a raw key/value mapping into a validated ExperimentConfig."""
    typed = _typed(raw)

    kind = typed.get("dataset.kind")
    if kind is None:
        raise ConfigError("dataset.kind is required (one of %s)" % (DATASET_KINDS,))
    synthetic = None
    movielens = None
    if kind == "synthetic":
        kwargs = _collect(typed, "dataset", tuple(_SYNTHETIC_PARSERS))
        if "dataset.split" in typed:
            kwargs["split"] = typed["dataset.split"]
        synthetic = SyntheticConfig(**kwargs)
    elif kind == "movielens":
        missing = [k for k in _MOVIELENS_PATH_KEYS if f"dataset.{k}" not in typed]
        if missing:
            raise ConfigError(f"movielens dataset needs dataset.{missing[0]}")
        pre_kwargs = _collect(typed, "dataset", tuple(_PREPROCESS_PARSERS))
        if "dataset.split" in typed:
            pre_kwargs["split"] = typed["dataset.split"]
        movielens = MovielensConfig(
            ratings=typed["dataset.ratings"],
            users=typed["dataset.users"],
            movies=typed["dataset.movies"],
            preprocess=PreprocessConfig(**pre_kwargs),
        )

    trainer_kwargs = _collect(typed, "trainer", tuple(_TRAINER_PARSERS))
    trainer = TrainerConfig(**trainer_kwargs)

    output_dir = typed.get("run.output_dir")
    if output_dir is None:
        raise ConfigError("run.output_dir is required")

    seeds = typed.get("run.seeds")
    trials = typed.get("run.trials")
    if seeds is not None and trials is None:
        trials = len(seeds)
    if trials is None:
        trials = 3
    if seeds is None:
        seeds = tuple(trainer.seed + i for i in range(trials))

    return ExperimentConfig(
        output_dir=str(output_dir),
        trainer=trainer,
        dataset_kind=str(kind),
        synthetic=synthetic,
        movielens=movielens,
        trials=int(trials),
        seeds=tuple(int(s) for s in seeds),
        parallel=bool(typed.get("run.parallel", False)),
        emit_lr_distribution=bool(typed.get("emit.lr_distribution", False)),
        emit_tree=bool(typed.get("emit.tree", False)),
    )


def load_experiment_config(path, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Read, override, and validate a config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return build_experiment_config(apply_overrides(parse_config_text(text), overrides))


# ---------------------------------------------------------------------------
# canonical rendering (manifest + digest)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def flatten_config(config: ExperimentConfig) -> Dict[str, str]:
    """Canonical flat mapping; feeding it back through the builder round-trips."""
    flat: Dict[str, str] = {"dataset.kind": config.dataset_kind}
    if config.synthetic is not None:
        for name in _SYNTHETIC_PARSERS:
            flat[f"dataset.{name}"] = _format_value(getattr(config.synthetic, name))
        flat["dataset.split"] = _format_value(config.synthetic.split)
    if config.movielens is not None:
        for name in _MOVIELENS_PATH_KEYS:
            flat[f"dataset.{name}"] = _format_value(getattr(config.movielens, name))
        for name in _PREPROCESS_PARSERS:
            flat[f"dataset.{name}"] = _format_value(getattr(config.movielens.preprocess, name))
        flat["dataset.split"] = _format_value(config.movielens.preprocess.split)
    for name in _TRAINER_PARSERS:
        flat[f"trainer.{name}"] = _format_value(getattr(config.trainer, name))
    flat["run.output_dir"] = config.output_dir
    flat["run.trials"] = _format_value(config.trials)
    flat["run.seeds"] = _format_value(config.seeds)
    flat["run.parallel"] = _format_value(config.parallel)
    flat["emit.lr_distribution"] = _format_value(config.emit_lr_distribution)
    flat["emit.tree"] = _format_value(config.emit_tree)
    return flat


def experiment_digest(config: ExperimentConfig) -> str:
    """sha256 over the canonical flat mapping, key-sorted."""
    canonical = json.dumps(flatten_config(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
