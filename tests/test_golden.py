"""Golden exact-run gate: seeded exact solves against committed records.

``golden_exact.json`` holds, for each instance of ``make_golden.GRID``
(both learners, marvel with and without caches, three generators, p up to
150), the test counts, conditioning-set totals, elimination order, an
essential-graph digest and a digest of the multiset of counted queries. A
change to the exact path may make queries cheaper or reorder them, but it
may not change which queries are counted or what is learned.
"""

import json

import pytest

from make_golden import GOLDEN_PATH, GRID, instance_key, run_instance

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_file_covers_the_grid():
    assert sorted(GOLDEN) == sorted(instance_key(*inst) for inst in GRID)


@pytest.mark.parametrize(
    "graph, algo", GRID, ids=[instance_key(*inst) for inst in GRID]
)
def test_matches_golden(graph, algo):
    record, oracle, res = run_instance(graph, algo)
    assert record == GOLDEN[instance_key(graph, algo)]
    # The oracle's own counters agree with the queries it was seen to count.
    st = oracle.stats()
    assert (st.n_tests, st.sum_cond_size, st.max_cond_size) == (
        record["mb_tests"] + record["post_tests"],
        record["cond_sum"],
        record["cond_max"],
    )
    # The learner's window holds exactly the queries after boundary discovery.
    post = [k for _, _, k, _ in oracle.log[record["mb_tests"]:]]
    assert res.metrics.n_tests == len(post)
    assert res.metrics.max_cond == max(post, default=0)
    assert res.metrics.asc == (sum(post) / len(post) if post else 0.0)
