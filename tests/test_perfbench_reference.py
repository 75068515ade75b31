"""The committed perfbench reference for the p = 150 workload.

``perfbench/reference.json`` pins [mb_tests, post_tests, digest] for the
fixed graphs of each exact workload. Its self-tests check only
``dsep-dense`` (p = 40), so this solves the fixed graphs of
``dsep-boundary`` (p = 150, Δ = 4), the only exact workload past 64
vertices, and compares each with its committed entry. The benchmark's
files are imported, never changed.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

from marvel.bench import solve  # noqa: E402
from marvel.ci import dsep_oracle  # noqa: E402
from marvel.marvel import ci_budget_bound  # noqa: E402
from marvel.synth import fixed_indegree_dag  # noqa: E402

BOUNDARY = workloads.WORKLOADS["dsep-boundary"]
REFERENCE = workloads.load_reference(BOUNDARY)


@pytest.mark.parametrize("graph_seed", BOUNDARY.graph_seeds(0)[: BOUNDARY.core])
def test_fixed_graph_matches_committed_entry(graph_seed):
    g = fixed_indegree_dag(BOUNDARY.p, BOUNDARY.delta_in, graph_seed)
    mb_tests, res = solve(dsep_oracle(g), "marvel")
    got = [mb_tests, res.stats.n_tests, workloads.pdag_digest(res.essential)]
    assert got == REFERENCE[str(graph_seed)]
    assert res.stats.n_tests <= ci_budget_bound(g.p, g.max_in_degree())
