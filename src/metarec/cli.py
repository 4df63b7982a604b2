"""Command-line interface: run experiments, verify lemmas, inspect artifacts.

``inspect-tree`` and ``dump-embeddings`` read one trial directory of a
finished run, through the run's manifest (`runner.load_run`).

Exit codes: 0 success, 1 usage or configuration problem, 2 missing or
malformed input data, 3 numeric failure.  Anything unexpected escaping a
pipeline stage prints a traceback and exits 3.
"""

import argparse
import os
import sys
import traceback

import numpy as np

from .config import load_experiment_config
from .datagen import generate_corpus
from .errors import ConfigError, DataError, MetarecError, NumericError, data_errors
from .lemma_oracle import (CONVENTIONS, TwoGroupSpec, alpha2_equalizing,
                           bound_check, lemma2_condition, verify_lemmas)
from .runner import (SUBSET_NAMES, FinishedTrial, embedding_rows, load_run,
                     run_experiment, version_string, write_tsv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the error taxonomy."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _kv(key: str, value) -> str:
    if isinstance(value, (bool, np.bool_)):
        value = "true" if value else "false"
    elif isinstance(value, float):
        value = repr(float(value))
    elif isinstance(value, tuple):
        value = ", ".join(repr(float(v)) for v in value)
    return f"{key} = {value}"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_run(args) -> None:
    overrides = list(args.overrides)
    if args.output_dir is not None:
        overrides.append(f"run.output_dir={args.output_dir}")
    if args.trials is not None:
        overrides.append(f"run.trials={args.trials}")
    if args.seeds is not None:
        overrides.append(f"run.seeds={args.seeds}")
    if args.parallel:
        overrides.append("run.parallel=true")
    config = load_experiment_config(args.config, overrides)
    result = run_experiment(config)
    print(_kv("version", version_string()))
    for trial in result.trials:
        print(_kv(f"trial_{trial.index:02d}", trial.directory))
    print(_kv("report", result.report_path))
    print(_kv("manifest", result.manifest_path))
    print(_kv("wall_time_seconds", result.wall_time_seconds))


def _cmd_lemmas(args) -> None:
    alpha2 = args.alpha2
    if alpha2 is None:
        alpha2 = alpha2_equalizing(args.alpha1, args.p1, args.p2)
    spec = TwoGroupSpec(p1=args.p1, p2=args.p2, x1=args.x1, x2=args.x2,
                        alpha1=args.alpha1, alpha2=alpha2)
    report = verify_lemmas(spec, convention=args.convention, tol=args.tol)
    grads = [2.0 * (report.theta_star - x) for x in (spec.x1, spec.x2)]
    # both raise on inputs that overflow, so no verdict prints for them
    bound = bound_check(
        losses=list(report.group_losses_fixed),
        grads=grads,
        alphas=[spec.alpha1, alpha2],
        embeddings=[[spec.x1], [spec.x2]],
    )
    print(_kv("convention", args.convention))
    print(_kv("alpha1", args.alpha1))
    print(_kv("alpha2", alpha2))
    print(_kv("theta_star", report.theta_star))
    print(_kv("theta_star_prime", report.theta_star_prime))
    print(_kv("L_star", report.L_star))
    print(_kv("L_star_prime", report.L_star_prime))
    print(_kv("total_loss_gap", report.L_star_prime - report.L_star))
    print(_kv("group_losses_fixed", tuple(report.group_losses_fixed)))
    print(_kv("group_losses_adaptive", tuple(report.group_losses_adaptive)))
    print(_kv("lemma1_holds", report.lemma1_holds))
    print(_kv("lemma2_holds", report.lemma2_holds))
    if args.convention == "descent" and args.p1 >= args.p2:
        print(_kv("lemma2_condition", lemma2_condition(args.alpha1, alpha2)))
    print(_kv("bound_lhs", bound.lhs))
    print(_kv("bound_first_order_rhs", bound.first_order_rhs))
    print(_kv("bound_embedding_term", bound.embedding_term))
    print(_kv("bound_holds_first_order", bound.holds_first_order))
    print(_kv("bound_holds_full", bound.holds_full))


def _trial(trial_dir) -> FinishedTrial:
    """The trial of a finished run that lives in ``trial_dir``."""
    path = os.path.abspath(trial_dir)
    for trial in load_run(os.path.dirname(path)):
        if os.path.abspath(trial.directory) == path:
            return trial
    raise DataError(f"{trial_dir} is not a trial directory of the run that holds it")


def _cmd_inspect_tree(args) -> None:
    trial = _trial(args.trial_dir)
    tree = trial.model.tree
    if tree is None:
        raise DataError(f"checkpoint {trial.checkpoint} holds no tree memory (at-paml only)")
    print(_kv("nodes", len(tree)))
    print(_kv("capacity", tree.capacity))
    print(_kv("dim", tree.dim))
    print(_kv("eviction", tree.eviction))
    print(_kv("delta", tree.delta))
    print(_kv("sigma", tree.sigma))
    if len(tree) == 0:
        return
    ids = sorted(tree.node_ids())
    lrs = np.array([tree.node(i).lr for i in ids])
    recency = [tree.node(i).recency for i in ids]
    print(_kv("lr_min", float(lrs.min())))
    print(_kv("lr_mean", float(lrs.mean())))
    print(_kv("lr_max", float(lrs.max())))
    print(_kv("recency_span", f"{min(recency)}..{max(recency)}"))
    busiest = sorted(ids, key=lambda i: (-tree.node(i).freq, i))[: args.top]
    for node_id in busiest:
        node = tree.node(node_id)
        print(_kv(f"node_{node_id}",
                  f"freq={node.freq} recency={node.recency} lr={node.lr!r}"))


def _cmd_dump_embeddings(args) -> None:
    trial = _trial(args.trial_dir)
    subsets = SUBSET_NAMES if args.split == "all" else (args.split,)
    header, rows = embedding_rows(trial.model, trial.splits, subsets)
    with data_errors("write", args.output):
        write_tsv(args.output, header, rows)
    print(_kv("rows", len(rows)))
    print(_kv("output", args.output))


def _cmd_make_data(args) -> None:
    paths = generate_corpus(
        args.out_dir,
        n_users=args.users,
        n_movies=args.movies,
        seed=args.seed,
        major_fraction=args.major_fraction,
        noise_sd=args.noise_sd,
        min_items=args.min_items,
        max_items=args.max_items,
    )
    for name in ("users", "movies", "ratings"):
        print(_kv(name, paths[name]))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="metarec",
                     description="Meta-learning experiments for cold-start "
                                 "recommendation with adaptive inner rates.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run_p = sub.add_parser("run", help="execute a configured experiment end to end")
    run_p.add_argument("config", help="path to a 'key = value' experiment config file")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config entry; repeatable")
    run_p.add_argument("--output-dir", help="shorthand for --set run.output_dir=...")
    run_p.add_argument("--trials", type=int, help="shorthand for --set run.trials=...")
    run_p.add_argument("--seeds", help="comma-separated seeds, one per trial")
    run_p.add_argument("--parallel", action="store_true",
                       help="run trials in separate processes")
    run_p.set_defaults(handler=_cmd_run)

    lem = sub.add_parser("lemmas", help="verify the two-group rate lemmas numerically")
    lem.add_argument("--p1", type=float, default=0.7, help="major-group probability")
    lem.add_argument("--p2", type=float, default=0.3, help="minor-group probability")
    lem.add_argument("--x1", type=float, default=0.0, help="major-group preference")
    lem.add_argument("--x2", type=float, default=1.0, help="minor-group preference")
    lem.add_argument("--alpha1", type=float, default=0.1, help="major-group inner rate")
    lem.add_argument("--alpha2", type=float, default=None,
                     help="minor-group inner rate; defaults to the equalizing rate")
    lem.add_argument("--convention", choices=CONVENTIONS, default="descent",
                     help="inner-step sign convention")
    lem.add_argument("--tol", type=float, default=1e-10)
    lem.set_defaults(handler=_cmd_lemmas)

    tree_p = sub.add_parser("inspect-tree", help="summarize the tree memory of a trial")
    tree_p.add_argument("trial_dir", help="trial directory of a finished at-paml run")
    tree_p.add_argument("--top", type=int, default=5,
                        help="how many most-visited nodes to list")
    tree_p.set_defaults(handler=_cmd_inspect_tree)

    emb = sub.add_parser("dump-embeddings",
                         help="write per-user embeddings and inner rates as TSV")
    emb.add_argument("trial_dir", help="trial directory of a finished run")
    emb.add_argument("--output", required=True, help="destination TSV path")
    emb.add_argument("--split", choices=SUBSET_NAMES + ("all",), default="all")
    emb.set_defaults(handler=_cmd_dump_embeddings)

    gen = sub.add_parser("make-data",
                         help="generate a synthetic rating corpus in the "
                              "::-delimited three-file format")
    gen.add_argument("out_dir")
    gen.add_argument("--users", type=int, default=500)
    gen.add_argument("--movies", type=int, default=300)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--major-fraction", type=float, default=0.8)
    gen.add_argument("--noise-sd", type=float, default=0.3)
    gen.add_argument("--min-items", type=int, default=10)
    gen.add_argument("--max-items", type=int, default=25)
    gen.set_defaults(handler=_cmd_make_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "top", 0) < 0:
            raise ConfigError(f"--top must be >= 0, got {args.top}")
        args.handler(args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MetarecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
