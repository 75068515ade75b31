"""Golden-run gates: seeded solves against committed records.

``golden_exact.json`` holds, for each instance of ``make_golden.GRID``
(both learners, marvel with and without caches, three generators, p up to
150), the test counts, conditioning-set totals, elimination order, an
essential-graph digest and a digest of the multiset of counted queries. A
change to the exact path may make queries cheaper or reorder them, but it
may not change which queries are counted or what is learned.

``golden_fisherz.json`` holds the same for each Fisher-Z instance of
``make_golden.FISHER_Z_GRID``, plus the warnings, ``n_degenerate`` and
``n_singular``, with each counted query's answer in its digest: a change
to the Fisher-Z path may not flip one answer either.

Each run may ask only as many queries as its record counts: the recorder
raises on the first query past that, so a change that makes a learner
search without bound fails at once.
"""

import json
import re
from collections import Counter
from math import comb

import pytest

from make_golden import (
    FISHER_Z_GRID,
    FISHER_Z_PATH,
    FISHER_Z_PLAN,
    GOLDEN_PATH,
    GRID,
    fisher_z_key,
    instance_key,
    run_fisher_z,
    run_instance,
    versions,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())
FISHER_Z = json.loads(FISHER_Z_PATH.read_text())
# The answers' last bits come from the LAPACK that numpy and scipy link.
WRITTEN_WITH = FISHER_Z.pop("versions")


def test_file_covers_the_grid():
    assert sorted(GOLDEN) == sorted(instance_key(*inst) for inst in GRID)


@pytest.mark.parametrize(
    "graph, algo", GRID, ids=[instance_key(*inst) for inst in GRID]
)
def test_matches_golden(graph, algo):
    want = GOLDEN[instance_key(graph, algo)]
    record, oracle, res = run_instance(graph, algo, budget(want))
    assert record == want
    check_accounting(record, oracle, res)


def test_fisher_z_file_covers_the_grid():
    assert sorted(FISHER_Z) == sorted(fisher_z_key(*inst) for inst in FISHER_Z_GRID)


@pytest.mark.parametrize(
    "cell, algo", FISHER_Z_GRID, ids=[fisher_z_key(*inst) for inst in FISHER_Z_GRID]
)
def test_fisher_z_matches_golden(cell, algo):
    want = FISHER_Z[fisher_z_key(cell, algo)]
    record, oracle, res = run_fisher_z(cell, algo, budget(want))
    assert record == want, (
        f"golden_fisherz.json was written with {WRITTEN_WITH}; "
        f"this run has {versions()}"
    )
    check_accounting(record, oracle, res)


def test_fisher_z_caches_never_cost_queries():
    # On Fisher-Z data the cached and the uncached learner may learn
    # different graphs, but the cached one never asks more queries.
    for cell in FISHER_Z_PLAN:
        cached, uncached = (
            FISHER_Z[fisher_z_key(cell, algo)]["post_tests"]
            for algo in ("marvel", "marvel-nocache")
        )
        assert cached <= uncached, cell


@pytest.mark.parametrize(
    "run, inst, key, golden",
    [
        (run_instance, GRID[0], instance_key(*GRID[0]), GOLDEN),
        (run_fisher_z, FISHER_Z_GRID[0], fisher_z_key(*FISHER_Z_GRID[0]), FISHER_Z),
    ],
    ids=["exact", "fisher_z"],
)
def test_run_past_its_budget_fails_naming_it(run, inst, key, golden):
    with pytest.raises(AssertionError, match=re.escape(key)):
        run(*inst, budget(golden[key]) - 1)


def budget(record):
    """The queries a run may ask: its record's count. A run that asks more
    fails on the first query past it, not after an unbounded search."""
    return record["mb_tests"] + record["post_tests"]


def check_accounting(record, oracle, res):
    # The oracle's own counters agree with the queries it was seen to count.
    st = oracle.stats()
    assert (st.n_tests, st.sum_cond_size, st.max_cond_size) == (
        record["mb_tests"] + record["post_tests"],
        record["cond_sum"],
        record["cond_max"],
    )
    # Total conditioning asked every pair given REST.
    assert oracle.rest == comb(oracle.p, 2)
    # The learner's window holds exactly the queries after boundary discovery.
    post = [k for _, _, k, _ in oracle.log[record["mb_tests"]:]]
    assert res.stats.by_size == Counter(post)
