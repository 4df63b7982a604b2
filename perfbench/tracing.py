"""Span timing by wrapping metarec functions from outside the package.

The benchmark edits no program code.  It replaces attributes at the names
callers look up (module globals imported by name, such as
``metarec.meta_learners.grad``, and methods on classes) with timing wrappers,
and puts the originals back when the pass ends.

Spans nest: a wrapper that runs while another is open is that span's child.
A span's self time is its duration minus the time its child spans cover.
Spans opened while no other span is open are stage spans; their summed
duration is what ``trace.coverage`` compares with the wall time.
"""

import os
import time
from typing import Callable, Dict, List, Optional, Tuple


class Stat:
    """Running totals for every span recorded under one name."""

    __slots__ = ("calls", "total_s", "self_s", "durations", "counters")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: Optional[List[float]] = [] if keep_durations else None
        self.counters: Dict[str, float] = {}

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount


class Tracer:
    """Installs timing wrappers and keeps per-name span statistics in memory."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.stage_s = 0.0
        self._open: List[float] = []  # child time covered so far, one per open span
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, keep_durations: bool = False,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``before(args)`` runs ahead of the span and its return value is handed
        to ``after(stat, args, result, token)``, which runs once the span has
        closed.  Probe time lands in the parent span, never in this one.
        Several attributes may share one name; their spans add up.
        """
        original = vars(owner)[attr]
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(keep_durations)
        durations = stat.durations
        open_spans = self._open
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            open_spans.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
                if durations is not None:
                    durations.append(elapsed)
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    tracer.stage_s += elapsed
            if after is not None:
                after(stat, args, result, token)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# probes


def _count_training(stat: Stat, args, model, _token) -> None:
    """Episodes scheduled, processed and dropped, read from the trained model."""
    splits, config = args[0], args[1]
    scheduled = config.epochs * len(splits.train)
    if config.algorithm == "transfer":
        processed = scheduled  # pooled training logs no episodes and drops none
    else:
        processed = sum(len(step.episode_logs) for step in model.step_logs)
    stat.add("scheduled", scheduled)
    stat.add("processed", processed)
    stat.add("dropped", sum(step.n_skipped for step in model.step_logs))
    stat.add("aborted_epochs", sum(1 for row in model.history if row["aborted"]))


def _count_users(stat: Stat, _args, records, _token) -> None:
    stat.add("users", len(records))


def install_stages(tracer: Tracer, metarec) -> None:
    """The wrappers of the untraced pass: the set-up and training stage calls,
    once per trial each, and the shared adapt-and-score loop.

    Validation runs that loop once per epoch and the test stage once, so it
    gives eval_users_per_s over every user scored.  The test set alone is
    scored with the tree of whichever epoch validated best, so its speed
    swings with that epoch.
    """
    runner = metarec.runner
    tracer.wrap(runner, "build_splits", "runner.build_splits")
    tracer.wrap(runner, "train", "runner.train", after=_count_training)
    tracer.wrap(metarec.meta_learners, "_evaluate_encoded", "meta_learners.adapt_and_score",
                after=_count_users)


def _batch_items(batch) -> int:
    if isinstance(batch, tuple) and len(batch) == 3 and not isinstance(batch[0], tuple):
        batch = [batch]
    return sum(int(items.shape[0]) for _, items, _ in batch)


def _dense_macs(spec) -> int:
    """Multiply-adds per item of one pass through the decision stack."""
    total, fan_in = 0, spec.fused_width
    for width in spec.decision_dims:
        total += fan_in * width
        fan_in = width
    return total


# grad runs 3 matmuls per layer (forward, weight grad, input grad); hvp runs
# the same code on dual numbers, where each of them costs 3 matmuls.
GRAD_FLOP_PER_MAC = 2 * 3
HVP_FLOP_PER_MAC = 2 * 9


def _model_work(flop_per_mac: int) -> Callable:
    def after(stat: Stat, args, _result, _token) -> None:
        items = _batch_items(args[2])
        stat.add("items", items)
        stat.add("flop", flop_per_mac * items * _dense_macs(args[1]))
    return after


def _tree_dirty(args) -> bool:
    return args[0]._dirty


def _tree_search(stat: Stat, args, _hits, was_dirty) -> None:
    tree = args[0]
    stat.add("rebuilds", 1 if was_dirty else 0)
    stat.add("visited", tree.last_search_visited)
    stat.add("stored", len(tree))


def _tree_evictions(args) -> int:
    return args[0].evictions


def _tree_store(stat: Stat, args, _node_id, evictions_before) -> None:
    stat.add("evictions", args[0].evictions - evictions_before)


def _tsv_bytes(stat: Stat, args, _result, _token) -> None:
    stat.add("bytes", os.path.getsize(args[0]))


def _raw_lines(stat: Stat, _args, raw, _token) -> None:
    stat.add("lines", raw.total_lines)


PARAMSET_OPS = ("add", "sub", "scale", "mul", "dot", "norm", "copy", "zeros_like",
                "check_finite")


def install_layers(tracer: Tracer, metarec) -> None:
    """Wrappers of the traced pass: the stages plus every measured layer.

    ``metarec`` is the imported package; its submodules are looked up on it.
    """
    runner, ml = metarec.runner, metarec.meta_learners
    install_stages(tracer, metarec)
    tracer.wrap(runner, "evaluate", "runner.evaluate")
    tracer.wrap(runner, "load_movielens", "tasks.load_movielens", after=_raw_lines)
    tracer.wrap(runner, "preprocess", "tasks.preprocess")
    tracer.wrap(runner, "synthetic_splits", "tasks.synthetic_splits")
    tracer.wrap(metarec.tasks.DatasetSplits, "encode", "tasks.encode")
    tracer.wrap(runner, "save_checkpoint", "runner.save_checkpoint")
    tracer.wrap(runner, "write_tsv", "runner.write_tsv", after=_tsv_bytes)
    tracer.wrap(runner, "build_report", "evaluation.build_report")

    tracer.wrap(ml, "grad", "model.grad", keep_durations=True,
                after=_model_work(GRAD_FLOP_PER_MAC))
    tracer.wrap(ml, "hvp", "model.hvp", keep_durations=True,
                after=_model_work(HVP_FLOP_PER_MAC))
    tracer.wrap(ml, "forward", "model.forward")
    tracer.wrap(ml, "user_embedding", "model.user_embedding")

    tracer.wrap(ml, "axpy_update", "params.axpy_update")
    for op in PARAMSET_OPS:
        tracer.wrap(metarec.params.ParamSet, op, "params.paramset_ops")
    tracer.wrap(ml.LrHead, "alpha", "meta_learners.lr_head")
    tracer.wrap(ml.LrHead, "alpha_and_grad", "meta_learners.lr_head")

    tracer.wrap(ml.MetaTrainer, "outer_step", "meta_learners.outer_step", keep_durations=True)
    tracer.wrap(ml.MetaTrainer, "outer_gradients", "meta_learners.outer_gradients")
    tracer.wrap(ml.MetaTrainer, "_validation_loss", "meta_learners.validation")

    tree = metarec.memory_tree.TreeMemory
    tracer.wrap(tree, "search", "memory_tree.search", keep_durations=True,
                before=_tree_dirty, after=_tree_search)
    tracer.wrap(tree, "store_node", "memory_tree.store_node",
                before=_tree_evictions, after=_tree_store)
    tracer.wrap(tree, "update_nodes", "memory_tree.update_nodes")
    tracer.wrap(ml, "blend_gradients", "memory_tree.blend_gradients")


# ---------------------------------------------------------------------------
# per-layer metrics


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0 when the layer never ran."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit); the order is the order results print in
LAYER_METRICS = (
    ("memory_tree.search.calls", "count"),
    ("memory_tree.search.self_s", "s"),
    ("memory_tree.search.us_p50", "us"),
    ("memory_tree.search.us_p99", "us"),
    ("memory_tree.search.visited_frac", "frac"),
    ("memory_tree.rebuilds", "count"),
    ("memory_tree.store_node.calls", "count"),
    ("memory_tree.store_node.self_s", "s"),
    ("memory_tree.evictions", "count"),
    ("memory_tree.update_nodes.calls", "count"),
    ("memory_tree.update_nodes.self_s", "s"),
    ("memory_tree.blend_gradients.calls", "count"),
    ("memory_tree.blend_gradients.self_s", "s"),
    ("model.grad.calls", "count"),
    ("model.grad.self_s", "s"),
    ("model.grad.us_p50", "us"),
    ("model.grad.us_p99", "us"),
    ("model.grad.items_per_call", "items"),
    ("model.grad.gflop_computed", "GFLOP"),
    ("model.grad.gflop_per_s", "GFLOP/s"),
    ("model.hvp.calls", "count"),
    ("model.hvp.self_s", "s"),
    ("model.hvp.us_p50", "us"),
    ("model.hvp.us_p99", "us"),
    ("model.hvp.gflop_computed", "GFLOP"),
    ("model.hvp.gflop_per_s", "GFLOP/s"),
    ("model.forward.calls", "count"),
    ("model.forward.self_s", "s"),
    ("model.user_embedding.calls", "count"),
    ("model.user_embedding.self_s", "s"),
    ("params.axpy_update.calls", "count"),
    ("params.axpy_update.self_s", "s"),
    ("params.paramset_ops.calls", "count"),
    ("params.paramset_ops.self_s", "s"),
    ("meta_learners.lr_head.calls", "count"),
    ("meta_learners.lr_head.self_s", "s"),
    ("meta_learners.outer_step.calls", "count"),
    ("meta_learners.outer_step.self_s", "s"),
    ("meta_learners.outer_step.ms_p50", "ms"),
    ("meta_learners.outer_step.ms_p99", "ms"),
    ("meta_learners.outer_gradients.self_s", "s"),
    ("meta_learners.validation.calls", "count"),
    ("meta_learners.validation.s", "s"),
    ("meta_learners.evaluate.s", "s"),
    ("meta_learners.dropped_episodes", "count"),
    ("meta_learners.aborted_epochs", "count"),
    ("tasks.load_movielens.s", "s"),
    ("tasks.load_movielens.lines_per_s", "lines/s"),
    ("tasks.preprocess.s", "s"),
    ("tasks.synthetic_splits.s", "s"),
    ("tasks.encode.calls", "count"),
    ("tasks.encode.s", "s"),
    ("evaluation.build_report.calls", "count"),
    ("evaluation.build_report.self_s", "s"),
    ("runner.save_checkpoint.self_s", "s"),
    ("runner.write_tsv.calls", "count"),
    ("runner.write_tsv.self_s", "s"),
    ("runner.write_tsv.bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
)


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric from one traced pass; layers that never ran read 0."""
    stats = tracer.stats
    out: Dict[str, float] = {}
    for name in ("memory_tree.search", "memory_tree.store_node", "memory_tree.update_nodes",
                 "memory_tree.blend_gradients", "model.grad", "model.hvp", "model.forward",
                 "model.user_embedding", "params.axpy_update", "params.paramset_ops",
                 "meta_learners.lr_head", "meta_learners.outer_step",
                 "evaluation.build_report", "runner.write_tsv"):
        out[f"{name}.calls"] = stats[name].calls
        out[f"{name}.self_s"] = stats[name].self_s

    search = stats["memory_tree.search"]
    out["memory_tree.search.us_p50"] = 1e6 * _percentile(search.durations, 50)
    out["memory_tree.search.us_p99"] = 1e6 * _percentile(search.durations, 99)
    out["memory_tree.search.visited_frac"] = _ratio(search.counters.get("visited", 0),
                                                    search.counters.get("stored", 0))
    out["memory_tree.rebuilds"] = search.counters.get("rebuilds", 0)
    out["memory_tree.evictions"] = stats["memory_tree.store_node"].counters.get("evictions", 0)

    for name in ("model.grad", "model.hvp"):
        s = stats[name]
        gflop = s.counters.get("flop", 0) / 1e9
        out[f"{name}.us_p50"] = 1e6 * _percentile(s.durations, 50)
        out[f"{name}.us_p99"] = 1e6 * _percentile(s.durations, 99)
        out[f"{name}.gflop_computed"] = gflop
        out[f"{name}.gflop_per_s"] = _ratio(gflop, s.self_s)
    out["model.grad.items_per_call"] = _ratio(stats["model.grad"].counters.get("items", 0),
                                              stats["model.grad"].calls)

    step = stats["meta_learners.outer_step"]
    out["meta_learners.outer_step.ms_p50"] = 1e3 * _percentile(step.durations, 50)
    out["meta_learners.outer_step.ms_p99"] = 1e3 * _percentile(step.durations, 99)
    out["meta_learners.outer_gradients.self_s"] = stats["meta_learners.outer_gradients"].self_s
    out["meta_learners.validation.calls"] = stats["meta_learners.validation"].calls
    out["meta_learners.validation.s"] = stats["meta_learners.validation"].total_s
    out["meta_learners.evaluate.s"] = stats["runner.evaluate"].total_s
    training = stats["runner.train"].counters
    out["meta_learners.dropped_episodes"] = training.get("dropped", 0)
    out["meta_learners.aborted_epochs"] = training.get("aborted_epochs", 0)

    load = stats["tasks.load_movielens"]
    out["tasks.load_movielens.s"] = load.total_s
    out["tasks.load_movielens.lines_per_s"] = _ratio(load.counters.get("lines", 0), load.total_s)
    out["tasks.preprocess.s"] = stats["tasks.preprocess"].total_s
    out["tasks.synthetic_splits.s"] = stats["tasks.synthetic_splits"].total_s
    out["tasks.encode.calls"] = stats["tasks.encode"].calls
    out["tasks.encode.s"] = stats["tasks.encode"].total_s

    out["runner.save_checkpoint.self_s"] = stats["runner.save_checkpoint"].self_s
    out["runner.write_tsv.bytes"] = stats["runner.write_tsv"].counters.get("bytes", 0)
    out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    out["trace.coverage"] = _ratio(tracer.stage_s, traced_wall_s)

    names = [name for name, _ in LAYER_METRICS]
    if sorted(out) != sorted(names):
        raise RuntimeError(f"layer metrics out of step with LAYER_METRICS: {set(out) ^ set(names)}")
    return {name: out[name] for name in names}
