"""Write golden_exact.json: counts, orders and digests of seeded exact runs.

  PYTHONPATH=src python3 tests/make_golden.py

Every instance of ``GRID`` is a generated DAG, a fresh d-separation oracle,
boundary discovery by total conditioning and one learner: ``marvel_learn``,
the uncached reference ``reference.marvel_learn_uncached`` or
``pc_baseline``. Its record holds mb_tests, post_tests, the sum and the
maximum of the conditioning-set size over every counted query, the
elimination order, a digest of the essential graph and a digest of the
sorted multiset of counted (x, y, S) queries. The multiset digest lets a
change reorder the queries it issues, never change which queries are
counted. ``tests/test_golden.py`` compares a fresh run with the committed
file, so rerun this only when a generator or the grid changes, never to
make a changed count pass.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from reference import marvel_learn_uncached
from marvel.bench import generate_dag, pc_baseline
from marvel.ci import DsepOracle
from marvel.graph import AllBut
from marvel.marvel import LearnResult, marvel_learn
from marvel.mb import total_conditioning

GOLDEN_PATH = Path(__file__).with_name("golden_exact.json")

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


class RecordingOracle(DsepOracle):
    """d-separation oracle that logs every query it counts.

    It overrides ``_decide``, so every query goes through the real
    ``CiOracle.query``, ``AllBut`` pass-through included. A query is logged
    only once ``_decide`` has returned, which is when ``query`` counts it,
    so the log holds exactly the counted queries. ``all_but`` counts those
    asked with an ``AllBut`` token, as total conditioning asks.
    """

    def __init__(self, dag) -> None:
        super().__init__(dag)
        self.vertices = frozenset(range(dag.p))
        self.log: list[tuple[int, int, int, tuple[int, ...]]] = []
        self.all_but = 0

    def _decide(self, x, y, s):
        answer = super()._decide(x, y, s)
        self.all_but += type(s) is AllBut
        # A set of more than half the vertices is written as its complement,
        # which keeps total conditioning at p=150 cheap to record; its size
        # makes the encoding unambiguous.
        if 2 * len(s) > self.p:
            listed = self.vertices.difference(s)
        else:
            listed = s
        self.log.append((int(x), int(y), len(s), tuple(sorted(listed))))
        return answer


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def instance_key(graph, algo) -> str:
    generator, p, seed, m, delta_in = graph
    shape = f"m={m}" if m is not None else f"d={delta_in}"
    return f"{generator} p={p} {shape} seed={seed} {algo}"


def run_instance(graph, algo) -> tuple[dict, RecordingOracle, LearnResult]:
    """One solve's record, the oracle that answered it and the result."""
    generator, p, seed, m, delta_in = graph
    oracle = RecordingOracle(generate_dag(generator, p, seed, m, delta_in))
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
    return record, oracle, res


def main() -> int:
    lines = []
    for graph, algo in GRID:
        key = instance_key(graph, algo)
        record, _, _ = run_instance(graph, algo)
        print(key, record["mb_tests"], record["post_tests"], flush=True)
        lines.append(f"  {json.dumps(key)}: {json.dumps(record)}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
