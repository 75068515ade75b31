"""Time the compiled d-separation kernel against the pure-Python fallback.

Two comparisons on identical seeded workloads:

  kernel   raw dsep_bitmask calls on random (x, y, S) queries
  learner  full structure recovery with the package forced onto one kernel

Run from the repository root:

  python3 benchmarks/bench_dsep.py
  python3 benchmarks/bench_dsep.py --p 20 40 60 --queries 20000
"""

import argparse
import random
import statistics
import sys
from time import perf_counter

import numpy as np

from marvel import graph
from marvel.ci import dsep_oracle
from marvel.marvel import marvel_learn
from marvel.mb import total_conditioning
from marvel.synth import erdos_renyi_dag


def random_queries(rng, p, count):
    out = []
    for _ in range(count):
        x, y = rng.sample(range(p), 2)
        rest = [v for v in range(p) if v not in (x, y)]
        k = rng.randint(0, min(len(rest), 8))
        smask = 0
        for v in rng.sample(rest, k):
            smask |= 1 << v
        out.append((x, y, smask))
    return out


def time_kernel(fn, masks, queries, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        for x, y, smask in queries:
            fn(*masks, x, y, smask)
        best = min(best, perf_counter() - t0)
    return best / len(queries)


def bench_raw_queries(p, n_queries, repeats, seed):
    rng = random.Random(seed)
    g = erdos_renyi_dag(p, 2 * p, seed)
    queries = random_queries(rng, p, n_queries)
    pure = time_kernel(
        graph._dsep_py.dsep_bitmask,
        (g._pmask, g._cmask, g._amask, g._dmask),
        queries,
        repeats,
    )
    if graph._dsepc is None:
        return pure, None
    npmask = np.array(g._pmask, dtype=np.uint64)
    ncmask = np.array(g._cmask, dtype=np.uint64)
    compiled = time_kernel(
        graph._dsepc.dsep_bitmask, (npmask, ncmask), queries, repeats
    )
    return pure, compiled


def learner_wall_ms(p, seeds, force_pure):
    saved = graph._dsepc
    if force_pure:
        graph._dsepc = None
    try:
        walls = []
        for seed in seeds:
            # built inside the override so the Dag binds the right kernel
            g = erdos_renyi_dag(p, 2 * p, seed)
            oracle = dsep_oracle(g)
            t0 = perf_counter()
            marvel_learn(oracle, total_conditioning(oracle))
            walls.append((perf_counter() - t0) * 1000.0)
        return statistics.mean(walls)
    finally:
        graph._dsepc = saved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, nargs="+", default=[15, 30, 60])
    parser.add_argument("--queries", type=int, default=50_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--learner-seeds", type=int, default=5,
        help="graphs per size for the end-to-end comparison",
    )
    args = parser.parse_args(argv)

    print(f"available kernel: {graph.kernel_name()}")
    if graph._dsepc is None:
        print("compiled kernel missing; timing the fallback only\n")

    print("raw kernel, microseconds per query")
    print(f"{'p':>4} {'pure':>10} {'compiled':>10} {'speedup':>8}")
    for p in args.p:
        pure, compiled = bench_raw_queries(
            p, args.queries, args.repeats, args.seed
        )
        if compiled is None:
            print(f"{p:>4} {pure * 1e6:>10.3f} {'-':>10} {'-':>8}")
        else:
            print(
                f"{p:>4} {pure * 1e6:>10.3f} {compiled * 1e6:>10.3f} "
                f"{pure / compiled:>7.1f}x"
            )

    print("\nfull run on sparse graphs (m = 2p), mean wall ms")
    print(f"{'p':>4} {'pure':>10} {'compiled':>10} {'speedup':>8}")
    seeds = range(args.seed, args.seed + args.learner_seeds)
    for p in args.p:
        pure_ms = learner_wall_ms(p, seeds, force_pure=True)
        if graph._dsepc is None:
            print(f"{p:>4} {pure_ms:>10.2f} {'-':>10} {'-':>8}")
            continue
        fast_ms = learner_wall_ms(p, seeds, force_pure=False)
        print(
            f"{p:>4} {pure_ms:>10.2f} {fast_ms:>10.2f} "
            f"{pure_ms / fast_ms:>7.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
