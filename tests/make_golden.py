"""Write golden_exact.json and golden_fisherz.json: counts, orders and
digests of seeded runs.

  PYTHONPATH=src python3 tests/make_golden.py

Every instance of ``GRID`` is a generated DAG, a fresh d-separation oracle,
boundary discovery by total conditioning and one learner: ``marvel_learn``,
the uncached reference ``reference.marvel_learn_uncached`` or
``pc_baseline``. Its record holds mb_tests, post_tests, the sum and the
maximum of the conditioning-set size over every counted query, the
elimination order, a digest of the essential graph and a digest of the
sorted multiset of counted (x, y, S) queries. The multiset digest lets a
change reorder the queries it issues, never change which queries are
counted.

Every instance of ``FISHER_Z_GRID`` is the same solve, with the same three
learners, on linear-Gaussian data simulated for the DAG and answered by a
Fisher-Z oracle. Its record adds the learner's warnings and the oracle's
``n_degenerate`` and ``n_singular``, and its query digest covers each
counted query's answer as well. Those answers come from the LAPACK that
numpy and scipy link, so the file also holds the versions of both it was
written with.

``tests/test_golden.py`` compares fresh runs with the committed files, so
rerun this only when a generator or a grid changes, never to make a changed
count pass.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy
import scipy

from reference import marvel_learn_uncached
from marvel.bench import generate_dag, pc_baseline, simulate_dataset
from marvel.ci import Dataset, DsepOracle, FisherZOracle
from marvel.graph import REST
from marvel.marvel import LearnResult, marvel_learn
from marvel.mb import total_conditioning

GOLDEN_PATH = Path(__file__).with_name("golden_exact.json")
FISHER_Z_PATH = Path(__file__).with_name("golden_fisherz.json")

LEARNERS = {
    "marvel": marvel_learn,
    "marvel-nocache": marvel_learn_uncached,
    "pc": pc_baseline,
}

ALL = tuple(LEARNERS)

# ((generator, p, seed, m, delta_in), learners); the cluster family ignores
# its seed. PC on the dense p=40 graph would issue 3.7 million queries, and
# the p=150 graphs are kept to few learners so the grid stays quick.
PLAN = (
    *((("fixed_indegree", 12, s, None, 3), ALL) for s in range(4)),
    *((("fixed_indegree", 30, s, None, 4), ALL) for s in range(3)),
    (("fixed_indegree", 40, 0, None, 8), ("marvel", "marvel-nocache")),
    (("fixed_indegree", 150, 0, None, 4), ALL),
    (("fixed_indegree", 150, 1, None, 4), ("marvel",)),
    *((("erdos_renyi", 15, s, 25, None), ALL) for s in range(4)),
    *((("erdos_renyi", 20, s, 40, None), ALL) for s in range(3)),
    *((("erdos_renyi", 30, s, 60, None), ALL) for s in range(2)),
    (("cluster", 12, 0, None, 3), ALL),
    (("cluster", 20, 0, None, 4), ALL),
)

GRID = tuple((graph, algo) for graph, algos in PLAN for algo in algos)

# (graph, n_samples, alpha, duplicated): the data are simulate_dataset(g,
# n_samples, seed) for the graph's DAG g and seed, and alpha None is the
# oracle's default. Small erdos_renyi cells at two levels; a cell with
# n <= |S| + 3 for total conditioning's sets, so those queries are
# degenerate; a cell whose last column duplicates its first, so every
# submatrix holding both is singular; and the two cells of test_05 that
# test_marvel pins.
FISHER_Z_PLAN = (
    *(
        (("erdos_renyi", p, seed, 2 * p, None), n, alpha, False)
        for p, n in ((8, 30), (10, 50), (12, 100), (15, 60))
        for alpha in (0.05, 0.2)
        for seed in range(2)
    ),
    (("erdos_renyi", 12, 0, 24, None), 12, 0.2, False),
    (("erdos_renyi", 10, 0, 20, None), 50, 0.05, True),
    *((("fixed_indegree", 50, seed, None, 4), 2500, None, False) for seed in (6, 9)),
)

FISHER_Z_GRID = tuple((cell, algo) for cell in FISHER_Z_PLAN for algo in ALL)


class Recording:
    """Mixin, put before an oracle class, that logs every query it counts.

    It overrides ``_decide``, so every query goes through the real
    ``CiOracle.query``, ``REST`` pass-through included. A query is logged
    only once ``_decide`` has returned, which is when ``query`` counts it,
    so ``log`` holds exactly the counted queries and ``answers`` their
    answers. ``rest`` counts those asked with ``REST``, as total
    conditioning asks, and each is logged as the set it stands for.

    With a ``budget``, the query after the first ``budget`` raises
    AssertionError naming ``name``, before it is decided: a run that asks
    more queries than its record holds fails at once instead of running on.
    """

    def __init__(self, *args, budget=None, name="") -> None:
        super().__init__(*args)
        self.vertices = frozenset(range(self.p))
        self.log: list[tuple[int, int, int, tuple[int, ...]]] = []
        self.answers: list[bool] = []
        self.rest = 0
        self.budget = budget
        self.name = name

    def _decide(self, x, y, s):
        if self.budget is not None and len(self.log) >= self.budget:
            raise AssertionError(
                f"{self.name}: more than the recorded {self.budget} queries"
            )
        answer = super()._decide(x, y, s)
        if s is REST:
            self.rest += 1
            s = self.vertices - {x, y}
        # A set of more than half the vertices is written as its complement,
        # which keeps total conditioning at p=150 cheap to record; its size
        # makes the encoding unambiguous.
        if 2 * len(s) > self.p:
            listed = self.vertices.difference(s)
        else:
            listed = s
        self.log.append((int(x), int(y), len(s), tuple(sorted(listed))))
        self.answers.append(answer)
        return answer


class RecordingOracle(Recording, DsepOracle):
    """d-separation oracle that logs every query it counts."""


class RecordingFisherZ(Recording, FisherZOracle):
    """Fisher-Z oracle that logs every query it counts, and its answer."""


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def instance_key(graph, algo) -> str:
    generator, p, seed, m, delta_in = graph
    shape = f"m={m}" if m is not None else f"d={delta_in}"
    return f"{generator} p={p} {shape} seed={seed} {algo}"


def fisher_z_key(cell, algo) -> str:
    graph, n, alpha, duplicated = cell
    data = f"n={n} alpha={alpha}" + (" duplicated" if duplicated else "")
    return instance_key(graph, f"{data} {algo}")


def versions() -> dict:
    """The numpy and scipy versions of this run."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def run_instance(
    graph, algo, budget=None
) -> tuple[dict, RecordingOracle, LearnResult]:
    """One exact solve's record, the oracle that answered it and the result;
    a run that asks more than ``budget`` queries raises AssertionError."""
    generator, p, seed, m, delta_in = graph
    oracle = RecordingOracle(
        generate_dag(generator, p, seed, m, delta_in),
        budget=budget,
        name=instance_key(graph, algo),
    )
    record, res = record_solve(oracle, algo)
    return record, oracle, res


def run_fisher_z(
    cell, algo, budget=None
) -> tuple[dict, RecordingFisherZ, LearnResult]:
    """One Fisher-Z solve's record, the oracle that answered it and the
    result; a run that asks more than ``budget`` queries raises
    AssertionError."""
    (generator, p, seed, m, delta_in), n, alpha, duplicated = cell
    data = simulate_dataset(generate_dag(generator, p, seed, m, delta_in), n, seed)
    if duplicated:
        values = data.values.copy()
        values[:, -1] = values[:, 0]
        data = Dataset(values)
    oracle = RecordingFisherZ(
        data, alpha, budget=budget, name=fisher_z_key(cell, algo)
    )
    record, res = record_solve(oracle, algo)
    record["queries"] = _digest(sorted(zip(oracle.log, oracle.answers)))
    record["warnings"] = res.warnings
    record["n_degenerate"] = oracle.n_degenerate
    record["n_singular"] = oracle.n_singular
    return record, oracle, res


def record_solve(oracle, algo) -> tuple[dict, LearnResult]:
    """Boundary discovery and the named learner on a recording oracle: the
    record and the result."""
    mb0 = total_conditioning(oracle)
    mb_tests = len(oracle.log)
    res = LEARNERS[algo](oracle, mb0)
    ess = res.essential
    sizes = [k for _, _, k, _ in oracle.log]
    record = {
        "mb_tests": mb_tests,
        "post_tests": res.stats.n_tests,
        "cond_sum": sum(sizes),
        "cond_max": max(sizes, default=0),
        "order": list(res.elimination_order),
        "essential": _digest((ess.p, sorted(ess.directed), sorted(ess.undirected))),
        "queries": _digest(sorted(oracle.log)),
    }
    return record, res


def write(path, records: dict) -> None:
    """One line per entry, so a diff of the file names the moved records."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{path.name}: {len(lines)} entries")


def main() -> int:
    exact = {instance_key(*inst): run_instance(*inst)[0] for inst in GRID}
    write(GOLDEN_PATH, exact)
    fisher_z = {fisher_z_key(*inst): run_fisher_z(*inst)[0] for inst in FISHER_Z_GRID}
    write(FISHER_Z_PATH, {"versions": versions(), **fisher_z})
    return 0


if __name__ == "__main__":
    sys.exit(main())
