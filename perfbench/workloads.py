"""Workload definitions, instance construction and output checks.

A workload is a generator regime, an oracle kind and a set of instances.
The first ``core`` instances use graph seeds 0, 1, ... in every run; the
rest are drawn from the run seed. The exact-oracle workloads keep half
their instances in the core, so every run checks the committed counts and
digests while half of its inputs change with the seed. The Fisher-Z
workload is all core: the fixed ten-instance cell of acceptance test 05,
whose per-instance cost spans two orders of magnitude, so that a
seed-drawn set of ten would not give a steady figure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# test_05's thresholds on mean skeleton F1 and recall for the Fisher-Z cell
TEST05_MIN_F1 = 0.85
TEST05_MIN_RECALL = 0.90


@dataclass(frozen=True)
class Workload:
    name: str
    oracle: str  # "dsep" or "fisher_z"
    p: int
    delta_in: int
    instances: int
    core: int
    n_samples: int = 0

    @property
    def exact(self) -> bool:
        return self.oracle == "dsep"

    def graph_seeds(self, seed: int) -> tuple[int, ...]:
        drawn = range(self.instances - self.core)
        return tuple(range(self.core)) + tuple((seed + 1) * 1000 + i for i in drawn)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dsep-boundary", "dsep", p=150, delta_in=4, instances=6, core=3),
        Workload("dsep-dense", "dsep", p=40, delta_in=8, instances=16, core=8),
        Workload(
            "fisherz-p50", "fisher_z", p=50, delta_in=4, instances=10, core=10,
            n_samples=2500,
        ),
    )
}


@dataclass
class Instance:
    index: int
    graph_seed: int
    dag: object
    oracle: object


def build_instances(mv, w: Workload, seed: int) -> tuple[list[Instance], dict]:
    """Graphs, simulated data and oracles for one pass, with layer timings."""
    times = {"synth.graph_s": 0.0, "synth.data_s": 0.0, "ci.build_s": 0.0}
    out = []
    for i, gs in enumerate(w.graph_seeds(seed)):
        t0 = perf_counter()
        g = mv.fixed_indegree_dag(w.p, w.delta_in, gs)
        t1 = perf_counter()
        data = mv.simulate_dataset(g, w.n_samples, gs) if not w.exact else None
        t2 = perf_counter()
        oracle = mv.dsep_oracle(g) if w.exact else mv.fisher_z_oracle(data)
        t3 = perf_counter()
        times["synth.graph_s"] += t1 - t0
        times["synth.data_s"] += t2 - t1
        times["ci.build_s"] += t3 - t2
        out.append(Instance(i, gs, g, oracle))
    return out, times


def truth_cpdag(mv, g):
    """Essential graph of g from its skeleton and colliders (pinned by test_06)."""
    base = mv.pdag_from_skeleton_and_vstructs(
        g.p, mv.skeleton(g).skeleton_pairs(), mv.v_structures(g)
    )
    return mv.apply_meek_rules(base)


def pdag_digest(pd) -> str:
    text = json.dumps([pd.p, sorted(pd.directed), sorted(pd.undirected)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _marks(pd) -> dict:
    marks = {pair: "-" for pair in pd.undirected}
    for i, j in pd.directed:
        marks[(min(i, j), max(i, j))] = ">" if i < j else "<"
    return marks


def shd(learned, truth) -> tuple[int, int]:
    """Vertex pairs whose edge mark differs, and pairs adjacent in either."""
    a, b = _marks(learned), _marks(truth)
    pairs = a.keys() | b.keys()
    return sum(a.get(k) != b.get(k) for k in pairs), len(pairs)


def forced_rounds(warnings) -> int:
    return sum("no removable vertex" in str(w) for w in warnings)


@dataclass
class Outcome:
    """One solve of one instance: timing, counts, output and problems."""

    index: int
    graph_seed: int
    seconds: float = 0.0
    mb_tests: int = 0
    post_tests: int = 0
    cond_sum: int = 0
    degenerate_mb: int = 0
    degenerate_post: int = 0
    forced_rounds: int = 0
    rounds: int = 0
    digest: str = ""
    order: tuple = ()
    recall: float = 0.0
    f1: float = 0.0
    shd: int = 0
    pairs: int = 0
    budget: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def key(self) -> tuple:
        """Everything a traced or repeated solve must reproduce exactly."""
        return (
            self.mb_tests, self.post_tests, self.cond_sum, self.digest,
            self.order, self.forced_rounds, self.degenerate_mb,
            self.degenerate_post,
        )


def score(mv, w: Workload, inst: Instance, res, truth, out: Outcome, reference) -> None:
    """Fill the output fields of ``out`` and append every failed check."""
    ess = res.essential
    out.digest = pdag_digest(ess)
    out.order = tuple(res.elimination_order)
    out.rounds = len(res.elimination_order)
    out.forced_rounds = forced_rounds(res.warnings)
    _, out.recall, out.f1 = mv.skeleton_metrics(ess, inst.dag)
    out.shd, out.pairs = shd(ess, truth)
    out.budget = mv.ci_budget_bound(w.p, inst.dag.max_in_degree())
    if not w.exact:
        return
    if ess != truth:
        out.problems.append(f"output differs from the truth CPDAG (SHD {out.shd})")
    if out.post_tests > out.budget:
        out.problems.append(f"post_tests {out.post_tests} > budget {out.budget}")
    ref = reference.get(str(inst.graph_seed))
    if ref is not None and ref != [out.mb_tests, out.post_tests, out.digest]:
        out.problems.append(
            f"drift from reference {ref}: "
            f"{[out.mb_tests, out.post_tests, out.digest]}"
        )


def load_reference(w: Workload) -> dict:
    """Committed [mb_tests, post_tests, digest] by graph seed.

    Only a registered exact workload has one, and it must cover the core;
    anything else (a shrunken copy in the self-tests) gets none.
    """
    if not w.exact or WORKLOADS.get(w.name) != w:
        return {}
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh).get(w.name, {})
    missing = [s for s in w.graph_seeds(0)[: w.core] if str(s) not in ref]
    if missing:
        raise ValueError(f"{w.name}: no committed reference for graph seeds {missing}")
    return ref
