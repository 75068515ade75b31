"""Command line front end: generate graphs and data, learn, benchmark, check.

Subcommands:
  generate      write a random DAG as an edge list, optionally with a
                simulated linear-Gaussian dataset next to it
  learn         recover a PDAG from a truth graph (exact oracle) or from a
                CSV dataset (partial-correlation tests) and print a metrics
                row
  bench         run the seeded experiment a key=value config file describes,
                the one source of its settings, and emit the results CSV
  oracle-check  report whether a learned PDAG is Markov equivalent to a
                truth DAG

Exit codes: 0 on success, 1 on argument or input errors (an --out that
names another file of the command among them), 2 on internal errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    ALGOS,
    GENERATORS,
    generate_dag,
    load_config,
    rows_to_csv,
    run_experiment,
    run_metrics,
    simulate_dataset,
    solve,
)
from .ci import dsep_oracle, fisher_z_oracle, load_dataset, save_dataset
from .graph import load_dag, load_pdag, markov_equivalent, save_dag, save_pdag


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marvel", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random DAG (and optional dataset)")
    gen.add_argument("--generator", choices=GENERATORS, required=True)
    gen.add_argument("--p", type=int, required=True, help="number of vertices")
    gen.add_argument("--m", type=int, help="edge count (erdos_renyi)")
    gen.add_argument(
        "--delta-in", type=int, help="in-degree parameter (fixed_indegree, cluster)"
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="edge-list output path")
    gen.add_argument("--data", help="also write a CSV dataset to this path")
    gen.add_argument("--n-samples", type=int, help="rows for --data")
    gen.set_defaults(run=_cmd_generate)

    learn = sub.add_parser("learn", help="learn a PDAG and print a metrics row")
    learn.add_argument("--graph", help="truth DAG edge list (exact oracle input)")
    learn.add_argument("--data", help="CSV dataset (statistical oracle input)")
    learn.add_argument("--algo", choices=ALGOS, default="marvel")
    learn.add_argument("--alpha", type=float, help="test level (fisher_z only)")
    learn.add_argument("--out", help="write the learned PDAG here")
    learn.set_defaults(run=_cmd_learn)

    bench = sub.add_parser("bench", help="run an experiment config, emit CSV")
    bench.add_argument("config", help="flat key=value experiment config file")
    bench.add_argument("--out", help="CSV output path (default: stdout)")
    bench.set_defaults(run=_cmd_bench)

    check = sub.add_parser(
        "oracle-check", help="compare a learned PDAG against a truth DAG"
    )
    check.add_argument("--learned", required=True, help="PDAG file")
    check.add_argument("--truth", required=True, help="DAG edge-list file")
    check.set_defaults(run=_cmd_oracle_check)

    return parser


def _check_out(out: str | None, flag: str, other: str | None) -> None:
    """Reject an --out that resolves to the command's other file."""
    if out and other and os.path.realpath(out) == os.path.realpath(other):
        raise ValueError(f"--out and {flag} name the same file")


def _cmd_generate(args: argparse.Namespace) -> int:
    # every check runs before the first file is written
    if (args.data is None) != (args.n_samples is None):
        raise ValueError("--data and --n-samples go together")
    _check_out(args.out, "--data", args.data)
    g = generate_dag(args.generator, args.p, args.seed, args.m, args.delta_in)
    dataset = None
    if args.data is not None:
        dataset = simulate_dataset(g, args.n_samples, args.seed)
    save_dag(g, args.out)
    if dataset is not None:
        try:
            save_dataset(dataset, args.data)
        except OSError:
            os.remove(args.out)
            raise
    print(f"wrote {args.out} (p={g.p}, m={g.n_edges})")
    if dataset is not None:
        print(f"wrote {args.data} ({dataset.n} rows)")
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    if (args.graph is None) == (args.data is None):
        raise ValueError("give exactly one of --graph or --data")
    if args.graph is not None:
        _check_out(args.out, "--graph", args.graph)
        if args.alpha is not None:
            raise ValueError("--alpha applies to the fisher_z oracle only")
        truth = load_dag(args.graph)
        oracle = dsep_oracle(truth)
    else:
        _check_out(args.out, "--data", args.data)
        truth = None
        oracle = fisher_z_oracle(load_dataset(args.data), args.alpha)

    mb_tests, result = solve(oracle, args.algo)
    if args.out:
        save_pdag(result.essential, args.out)
        print(f"wrote {args.out}")
    for line in result.warnings:
        print(f"warning: {line}", file=sys.stderr)
    metrics = run_metrics(mb_tests, result, truth)
    print(" ".join(
        f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in metrics.items()
    ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    _check_out(args.out, "config", args.config)
    cfg = load_config(args.config)
    if not args.out:
        sys.stdout.write(rows_to_csv(run_experiment(cfg)))
        return 0
    # Opened before the first seed runs, so an unwritable path costs no
    # run. Appending leaves an earlier file's bytes alone; only a file this
    # run created is removed when the run or its write fails.
    created = not os.path.lexists(args.out)
    with open(args.out, "a", encoding="utf-8"):
        pass
    try:
        rows = run_experiment(cfg)
        text = rows_to_csv(rows)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    learned = load_pdag(args.learned)
    truth = load_dag(args.truth)
    verdict = markov_equivalent(learned, truth)
    print(f"equivalent: {'true' if verdict else 'false'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
