"""metarec benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports metarec from ``src/`` there.
It repeats the workload's ``run_experiment`` calls until ``--seconds`` have
passed (at least twice, so determinism can be checked).  Speeds are total
work over total time across the repeats; set-up time and the per-layer
metrics are medians over the repeats.

``--trace 0`` wraps only the stage calls and reports the end-to-end metrics.
``--trace 1`` alternates an untraced and a traced repeat and reports the
per-layer metrics of the traced ones, with the tracing overhead.  Either way
every metric prints by name with its unit, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The full record (machine, corpus and report digests, every repeat) is written
to ``perfbench/.out/results/``.  The exit code is 1 when any correctness
check fails.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, ".out")

import tracing  # noqa: E402  (sibling module; the script's directory is on sys.path)
import workloads  # noqa: E402

# (name, unit); BENCHMARK.json lists the same names with their bounds
E2E_METRICS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("train_episodes_per_s", "1/s"),
    ("eval_users_per_s", "1/s"),
    ("kept_episode_frac", "frac"),
    ("peak_rss_mb", "MB"),
)
# Report figures vary over seeds (corpus, split and training outcome) by more
# than any end-to-end bound allows, so they go with the per-layer metrics.
QUALITY_METRICS = (
    ("evaluation.query_mse", "mse"),
    ("evaluation.minor_query_mse", "mse"),
)
LAYER_METRICS = tracing.LAYER_METRICS + QUALITY_METRICS
MIN_REPEATS = 2


class CheckFailed(Exception):
    """A correctness check on the program's outputs did not hold."""


def load_program():
    """Import metarec from this checkout's sources, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "metarec", "__init__.py")):
        raise SystemExit(f"perfbench: no metarec sources under {SRC}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, SRC)
    import metarec
    import metarec.datagen
    import metarec.runner
    if not os.path.abspath(metarec.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported metarec from {metarec.__file__}, not {SRC}")
    return metarec


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS's own thread count, asked through its C API; None if unknown."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_sha():
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(metarec) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "metarec_version": metarec.runner.version_string(),
    }


# ---------------------------------------------------------------------------
# one repeat of a workload


def _read_report(path: str, header) -> dict:
    """query_mse row of a report.tsv, with its mean and minor mean as floats."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    if not rows or tuple(rows[0]) != tuple(header):
        raise CheckFailed(f"{path}: header is not {list(header)}")
    by_metric = {row[0]: dict(zip(header, row)) for row in rows[1:]}
    if "query_mse" not in by_metric:
        raise CheckFailed(f"{path}: no query_mse row")
    values = {}
    for column in ("mean", "minor_mean"):
        try:
            values[column] = float(by_metric["query_mse"][column])
        except ValueError:
            raise CheckFailed(f"{path}: query_mse {column} is "
                              f"{by_metric['query_mse'][column]!r}") from None
        if not math.isfinite(values[column]):
            raise CheckFailed(f"{path}: query_mse {column} is not finite")
    return values


def _tsv_digests(directory: str) -> dict:
    digests = {}
    for dirpath, _, names in os.walk(directory):
        for name in names:
            if name.endswith(".tsv"):
                path = os.path.join(dirpath, name)
                digests[os.path.relpath(path, directory)] = workloads.file_sha256(path)
    return dict(sorted(digests.items()))


def run_repeat(metarec, configs, traced: bool) -> dict:
    """Every run_experiment call of the workload once, outputs checked.

    The tracer is installed for the repeat only; the untraced repeat wraps
    nothing but the stage calls, which happen once per trial.
    """
    runner = metarec.runner
    tracer = tracing.Tracer()
    if traced:
        tracing.install_layers(tracer, metarec)
    else:
        tracing.install_stages(tracer, metarec)
    wall_s = 0.0
    reports, digests = {}, {}
    try:
        for label, config in configs:
            shutil.rmtree(config.output_dir, ignore_errors=True)
            start = time.perf_counter()
            result = runner.run_experiment(config)
            wall_s += time.perf_counter() - start
            if os.path.exists(os.path.join(config.output_dir, runner.STALE_MARKER)):
                raise CheckFailed(f"{label}: STALE marker left in {config.output_dir}")
            reports[label] = _read_report(result.report_path, runner.REPORT_HEADER)
            digests[label] = _tsv_digests(config.output_dir)
            shutil.rmtree(config.output_dir)
    finally:
        tracer.remove()
    return {"traced": traced, "wall_s": wall_s, "tracer": tracer,
            "reports": reports, "digests": digests}


def e2e_metrics(repeats: list) -> dict:
    """End-to-end metrics over a run's untraced repeats, except peak memory.

    Speeds are the total work of all repeats over their total time, which
    averages out more of the machine's noise than a median repeat does;
    set-up time is the median over the repeats.
    """
    def total(stat: str, counter: str = "") -> float:
        stats = [r["tracer"].stats[stat] for r in repeats]
        return sum(st.counters[counter] if counter else st.total_s for st in stats)

    processed = total("runner.train", "processed")
    return {
        "wall_s": statistics.mean(r["wall_s"] for r in repeats),
        "setup_s": statistics.median(r["tracer"].stats["runner.build_splits"].total_s
                                     for r in repeats),
        "train_episodes_per_s": processed / total("runner.train"),
        "eval_users_per_s": (total("meta_learners.adapt_and_score", "users")
                             / total("meta_learners.adapt_and_score")),
        "kept_episode_frac": processed / total("runner.train", "scheduled"),
    }


def quality_metrics(repeat: dict) -> dict:
    """Report figures; synth-sweep's six algorithms weigh equally in a geometric mean."""
    reports = repeat["reports"].values()
    return {
        "evaluation.query_mse": statistics.geometric_mean(r["mean"] for r in reports),
        "evaluation.minor_query_mse": statistics.geometric_mean(r["minor_mean"] for r in reports),
    }


def _medians(rows) -> dict:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def _print_metrics(values: dict, units) -> dict:
    """Print each metric with its unit; returns them in the result's shape."""
    for name, unit in units:
        print(f"{name:<44} {values[name]:>16.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny version of the workload, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(metarec, configs, seconds: float, trace: int) -> list:
    """Repeats until ``seconds`` have passed, and at least MIN_REPEATS.

    Trace mode runs untraced/traced pairs, swapping their order every pair so
    that warm-up in the first repeat does not always land on the same side.
    """
    repeats = []
    deadline = time.perf_counter() + seconds
    while len(repeats) < MIN_REPEATS or time.perf_counter() < deadline:
        if not trace:
            repeats.append(run_repeat(metarec, configs, traced=False))
            continue
        for traced in ((False, True) if len(repeats) % 4 == 0 else (True, False)):
            repeats.append(run_repeat(metarec, configs, traced=traced))
    return repeats


def main(argv=None) -> int:
    args = parse_args(argv)
    metarec = load_program()
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    configs, corpus_sha256 = workloads.experiments(
        metarec, workload, args.seed, args.smoke, os.path.join(OUT, "corpus"),
        os.path.join(OUT, "work", tag))

    problems = []
    try:
        repeats = measure(metarec, configs, args.seconds, args.trace)
    except (CheckFailed, metarec.errors.MetarecError) as exc:
        repeats = []
        problems.append(f"{type(exc).__name__}: {exc}")
    for index, repeat in enumerate(repeats[1:], start=1):
        if repeat["digests"] != repeats[0]["digests"]:
            problems.append(f"repeat {index} wrote TSVs that differ from repeat 0")

    result = {"correct": not problems, "attempted": 1, "failed": 0, "metrics": {}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(metarec),
              "corpus_sha256": corpus_sha256, "problems": problems}
    if repeats:
        counts = [r["tracer"].stats["runner.train"].counters for r in repeats]
        result["attempted"] = max(1, int(sum(c["scheduled"] for c in counts)))
        result["failed"] = int(sum(c["scheduled"] - c["processed"] for c in counts))
        untraced = [r for r in repeats if not r["traced"]]
        e2e = e2e_metrics(untraced)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(reports=repeats[0]["reports"], report_digests=repeats[0]["digests"],
                      repeats=[{"traced": r["traced"], **e2e_metrics([r])} for r in repeats])
        record["end_to_end"] = result["metrics"] = _print_metrics(e2e, E2E_METRICS)
        if args.trace:
            traced = [r for r in repeats if r["traced"]]
            layers = _medians([{**tracing.layer_metrics(t["tracer"], t["wall_s"], u["wall_s"]),
                                **quality_metrics(t)} for u, t in zip(untraced, traced)])
            record["per_layer"] = result["metrics"] = _print_metrics(layers, LAYER_METRICS)
        else:
            _print_metrics(quality_metrics(repeats[0]), QUALITY_METRICS)
    for problem in problems:
        print(f"perfbench: correctness check failed: {problem}", file=sys.stderr)

    record["result"] = result
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
