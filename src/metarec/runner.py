"""Seeded experiment pipeline: dataset, training, evaluation, report files.

One run executes ``trials`` independent trials, one per seed.  A trial's seed
drives everything random in it: dataset generation (or the cold-start user
shuffle), parameter initialization, and batch order.  Each trial writes its
own subdirectory; the run directory gets a cross-trial report plus a manifest
that records the full resolved configuration, its digest, a source-content
version string, and the wall time.

Report files are tab-separated text with a header row.  Floats are rendered
with ``repr``, which is shortest-round-trip and therefore byte-stable across
identically configured runs; the manifest is the only output that differs
between two identical runs (wall time).

A ``STALE`` marker file exists in the run directory for exactly as long as
outputs there cannot be trusted: it is written before the first trial and
removed after the manifest lands, so any crash leaves it behind with the
failing stage recorded inside.
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import ExperimentConfig, experiment_digest, flatten_config
from .errors import DataError, MetarecError
from .evaluation import build_report
from .memory_tree import TreeMemory
from .meta_learners import (TrainedModel, evaluate, logged_rate, save_checkpoint, train,
                            tree_sidecar, _distinct_rates, _encode_split,
                            _normalize_checkpoint_path)
from .model import user_embedding
from .tasks import DatasetSplits, load_movielens, preprocess, synthetic_splits

VERSION = "0.1.0"
STALE_MARKER = "STALE"
LR_HISTOGRAM_BINS = 20
REPORT_HEADER = ("metric", "n_trials", "mean", "sd", "major_mean", "major_sd",
                 "minor_mean", "minor_sd", "p_value")
SUBSET_NAMES = ("train", "validation", "test")


def _source_digest() -> str:
    package_dir = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            digest.update(name.encode("utf-8"))
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def version_string() -> str:
    """Release number plus a content hash of the package sources."""
    return f"{VERSION}+src.{_source_digest()[:12]}"


@contextlib.contextmanager
def _stage(name: str):
    """Tag pipeline errors with the stage they came from."""
    try:
        yield
    except MetarecError as exc:
        raise type(exc)(f"[stage: {name}] {exc}") from exc
    except OSError as exc:
        raise DataError(f"[stage: {name}] {exc}") from exc


# ---------------------------------------------------------------------------
# delimiter-separated output


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_tsv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(value) for value in row) + "\n")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# dataset stage


def build_splits(config: ExperimentConfig, seed: int) -> DatasetSplits:
    """Materialize the configured dataset under one trial seed."""
    if config.dataset_kind == "synthetic":
        synth = config.synthetic
        return synthetic_splits(synth.p1, synth.p2, synth.x1, synth.x2,
                                synth.n_tasks, synth.noise_sd, seed,
                                synth.support_size, synth.query_size, synth.split)
    source = config.movielens
    raw = load_movielens(source.ratings, source.users, source.movies)
    return preprocess(raw, dataclasses.replace(source.preprocess, seed=seed))


# ---------------------------------------------------------------------------
# one trial


@dataclasses.dataclass(frozen=True)
class TrialResult:
    """Plain-data summary of one trial (safe to send across processes)."""

    index: int
    seed: int
    directory: str
    per_user_mse: Dict
    per_user_alpha: Dict
    is_major: Dict
    checkpoint_path: str
    best_epoch: Optional[int]
    n_test_users: int


def _trial_directory(config: ExperimentConfig, index: int, seed: int) -> str:
    return os.path.join(config.output_dir, f"trial-{index:02d}-seed-{seed}")


def _group_name(flag: bool) -> str:
    return "major" if flag else "minor"


def _write_report(path, mse_by_trial: Sequence[Dict], alpha_by_trial: Sequence[Dict],
                  is_major: Dict) -> None:
    """``report.tsv``: the ``alpha`` and ``query_mse`` rows, each aggregated
    over the per-trial user -> value mappings."""
    rows = []
    for name, by_trial in (("alpha", alpha_by_trial), ("query_mse", mse_by_trial)):
        rep = build_report(by_trial, is_major)
        rows.append((name, rep.n_trials, rep.mean, rep.sd, rep.major_mean,
                     rep.major_sd, rep.minor_mean, rep.minor_sd, rep.p_value))
    write_tsv(path, REPORT_HEADER, rows)


def embedding_rows(model: TrainedModel, splits: DatasetSplits,
                   subsets: Sequence[str]) -> Tuple[List[str], List[Tuple]]:
    """Per-user embedding vectors with the inference-time inner rate.

    Returns (header, rows); one row per episode in the chosen subsets, in
    split order.  Each distinct embedding gets one rate from
    `_distinct_rates`, logged once; meta-sgd rates are logged as the mean of
    the vector.
    """
    by_name = {"train": splits.train, "validation": splits.validation,
               "test": splits.test}
    unknown = [s for s in subsets if s not in by_name]
    if unknown:
        raise DataError(f"unknown split name {unknown[0]!r} (use one of {SUBSET_NAMES})")
    rows: List[Tuple] = []
    width = None
    for name in subsets:
        episodes = by_name[name]
        if not episodes:
            continue
        encoded = _encode_split(splits, episodes, model.spec)
        h = user_embedding(model.theta, model.spec, encoded.support.users)
        width = h.shape[1]
        rates, index = _distinct_rates(model.config, model.lr_head, model.meta_sgd_alpha,
                                       model.tree, h)
        logged = [logged_rate(rate[0]) for rate in rates]
        for key, j, h_i in zip(encoded.keys, index, h.tolist()):
            rows.append((key, name, _group_name(bool(splits.is_major[key])), logged[j])
                        + tuple(h_i))
    if width is None:
        raise DataError("no episodes in the requested splits")
    header = ["user_key", "subset", "group", "alpha"] + [f"h{i}" for i in range(width)]
    return header, rows


def write_embeddings(path, model: TrainedModel, splits: DatasetSplits,
                     subsets: Sequence[str]) -> int:
    """Write the embedding dump; returns the number of rows."""
    header, rows = embedding_rows(model, splits, subsets)
    write_tsv(path, header, rows)
    return len(rows)


def _write_lr_distribution(path, alphas: Sequence[float]) -> None:
    values = np.asarray(list(alphas), dtype=np.float64)
    finite = values[np.isfinite(values)]
    if finite.size == 0 or float(finite.min()) == float(finite.max()):
        # degenerate spread: a single bin keeps the file well-formed
        low = float(finite.min()) if finite.size else math.nan
        rows = [(low, low, int(finite.size))]
    else:
        counts, edges = np.histogram(finite, bins=LR_HISTOGRAM_BINS)
        rows = [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
                for i in range(len(counts))]
    write_tsv(path, ("bin_left", "bin_right", "count"), rows)


def _write_tree_nodes(path, tree: Optional[TreeMemory]) -> None:
    if tree is None or len(tree) == 0:
        write_tsv(path, ("node_id", "lr", "recency", "freq"), [])
        return
    dim = tree.dim
    header = ["node_id", "lr", "recency", "freq"] + [f"h{i}" for i in range(dim)]
    rows = []
    for node_id in sorted(tree.node_ids()):
        node = tree.node(node_id)
        rows.append((node_id, float(node.lr), node.recency, node.freq)
                    + tuple(float(v) for v in node.embedding))
    write_tsv(path, header, rows)


def run_trial(config: ExperimentConfig, index: int, seed: int) -> TrialResult:
    """Dataset -> train -> evaluate -> per-trial artifacts for one seed."""
    trial_dir = _trial_directory(config, index, seed)
    with _stage(f"setup trial {index}"):
        os.makedirs(trial_dir, exist_ok=True)

    with _stage(f"dataset trial {index}"):
        splits = build_splits(config, seed)

    trainer_config = dataclasses.replace(config.trainer, seed=seed)
    with _stage(f"train trial {index}"):
        model = train(splits, trainer_config)

    with _stage(f"evaluate trial {index}"):
        records = evaluate(model, splits.test, splits)
        if not records:
            raise DataError("test split is empty; nothing to evaluate")

    with _stage(f"report trial {index}"):
        per_user_mse: Dict = {}
        per_user_alpha: Dict = {}
        for rec in records:
            per_user_mse[rec.user_key] = rec.query_loss
            per_user_alpha[rec.user_key] = float(rec.alpha)

        checkpoint_path = save_checkpoint(model, os.path.join(trial_dir, "checkpoint.npz"))

        user_rows = [(key, _group_name(bool(splits.is_major[key])),
                      per_user_alpha[key], per_user_mse[key])
                     for key in sorted(per_user_mse, key=str)]
        write_tsv(os.path.join(trial_dir, "per_user.tsv"),
                  ("user_key", "group", "alpha", "query_mse"), user_rows)

        history_rows = [(row["epoch"], row["warmup"], row["aborted"],
                         row["train_loss"], row["val_loss"]) for row in model.history]
        write_tsv(os.path.join(trial_dir, "history.tsv"),
                  ("epoch", "warmup", "aborted", "train_loss", "val_loss"), history_rows)

        _write_report(os.path.join(trial_dir, "report.tsv"), [per_user_mse],
                      [per_user_alpha], splits.is_major)

        if config.emit_embeddings:
            write_embeddings(os.path.join(trial_dir, "embeddings.tsv"),
                             model, splits, SUBSET_NAMES)
        if config.emit_lr_distribution:
            _write_lr_distribution(os.path.join(trial_dir, "lr_distribution.tsv"),
                                   list(per_user_alpha.values()))
        if config.emit_tree:
            _write_tree_nodes(os.path.join(trial_dir, "tree_nodes.tsv"), model.tree)

    test_labels = {key: bool(splits.is_major[key]) for key in per_user_mse}
    return TrialResult(
        index=index,
        seed=seed,
        directory=trial_dir,
        per_user_mse=per_user_mse,
        per_user_alpha=per_user_alpha,
        is_major=test_labels,
        checkpoint_path=checkpoint_path,
        best_epoch=model.best_epoch,
        n_test_users=len(records),
    )


def _trial_worker(args) -> TrialResult:
    config, index, seed = args
    return run_trial(config, index, seed)


# ---------------------------------------------------------------------------
# whole run


@dataclasses.dataclass(frozen=True)
class RunResult:
    output_dir: str
    manifest_path: str
    report_path: str
    trials: Tuple[TrialResult, ...]
    wall_time_seconds: float


def _write_aggregate_report(output_dir: str, results: Sequence[TrialResult]) -> str:
    """Cross-trial report; user keys get a trial prefix so trials with
    coinciding user ids (fresh synthetic draws per seed) stay distinct."""
    mse_by_trial: List[Dict] = []
    alpha_by_trial: List[Dict] = []
    labels: Dict = {}
    for res in results:
        prefix = f"trial{res.index:02d}:"
        mse_by_trial.append({prefix + str(u): v for u, v in res.per_user_mse.items()})
        alpha_by_trial.append({prefix + str(u): v for u, v in res.per_user_alpha.items()})
        labels.update({prefix + str(u): res.is_major[u] for u in res.per_user_mse})
    path = os.path.join(output_dir, "report.tsv")
    _write_report(path, mse_by_trial, alpha_by_trial, labels)
    return path


def _write_manifest(config: ExperimentConfig, results: Sequence[TrialResult],
                    report_path: str, wall_time: float) -> str:
    manifest = {
        "config": flatten_config(config),
        "config_digest": experiment_digest(config),
        "version": version_string(),
        "wall_time_seconds": wall_time,
        "report": os.path.basename(report_path),
        "trials": [
            {
                "index": res.index,
                "seed": res.seed,
                "directory": os.path.relpath(res.directory, config.output_dir),
                "checkpoint": os.path.relpath(res.checkpoint_path, config.output_dir),
                "best_epoch": res.best_epoch,
                "test_users": res.n_test_users,
            }
            for res in results
        ],
    }
    path = os.path.join(config.output_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Execute every trial, aggregate, and write the manifest.

    The ``STALE`` marker in the output directory flags partial outputs: it
    appears before work starts and disappears only after the manifest is
    written, so its presence means the directory cannot be trusted.
    """
    start = time.perf_counter()
    with _stage("setup"):
        os.makedirs(config.output_dir, exist_ok=True)
        stale_path = os.path.join(config.output_dir, STALE_MARKER)
        _write_text(stale_path, "run in progress\n")

    try:
        jobs = list(enumerate(config.seeds))
        if config.parallel and len(jobs) > 1:
            workers = min(len(jobs), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_trial_worker,
                                        [(config, i, s) for i, s in jobs]))
        else:
            results = [run_trial(config, i, s) for i, s in jobs]
        with _stage("aggregate report"):
            report_path = _write_aggregate_report(config.output_dir, results)
        wall_time = time.perf_counter() - start
        with _stage("manifest"):
            manifest_path = _write_manifest(config, results, report_path, wall_time)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            _write_text(stale_path, f"stale: {exc}\n")
        raise

    os.remove(stale_path)
    return RunResult(
        output_dir=config.output_dir,
        manifest_path=manifest_path,
        report_path=report_path,
        trials=tuple(results),
        wall_time_seconds=wall_time,
    )


# ---------------------------------------------------------------------------
# artifact loading helpers for the command-line tools


def load_tree(path) -> TreeMemory:
    """Load a tree dump; accepts a checkpoint path and finds its sidecar."""
    path = _normalize_checkpoint_path(path)
    if not path.endswith(".tree.npz") and os.path.exists(tree_sidecar(path)):
        path = tree_sidecar(path)
    if not os.path.exists(path):
        raise DataError(f"no tree dump at {path}")
    try:
        return TreeMemory.load(path)
    except (KeyError, ValueError, OSError) as exc:
        raise DataError(f"cannot read tree dump {path}: {exc}") from None
