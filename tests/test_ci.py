"""CI oracle tests: accounting exactness, Fisher-Z behavior, partial correlation.

Numeric expectations were derived independently: the z value for rho=0.5 at
n=100 from the transform definition, and the single-edge correlation from
the closed-form covariance of a two-variable linear model. The population
partial correlations are taken from ``reference.population_covariance``.
"""

import gc
import os
import random
import subprocess
import sys
import warnings
import weakref
from itertools import combinations
from math import atanh, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import random_dag, random_query
from reference import (
    d_separated_bruteforce,
    markov_boundary_graphical,
    population_covariance,
)
from marvel import ci, graph
from marvel.ci import (
    CiStats,
    Dataset,
    default_alpha,
    dsep_oracle,
    fisher_z_oracle,
    load_dataset,
    partial_correlation_from_corr,
    save_dataset,
)
from marvel.graph import REST, Dag, Pdag, d_separated
from marvel.marvel import marvel_learn
from marvel.mb import total_conditioning
from marvel.synth import ScmSpec, fixed_indegree_dag, random_scm, sample


# Symmetric with unit diagonal and a positive definite {2, 3} block, but
# indefinite as a whole (smallest eigenvalue about -0.67).
INDEFINITE = np.array(
    [
        [1.0, 0.3, -0.4, -0.9],
        [0.3, 1.0, -0.9, 0.6],
        [-0.4, -0.9, 1.0, 0.8],
        [-0.9, 0.6, 0.8, 1.0],
    ]
)


class TestCiStats:
    def test_asc_empty(self):
        assert CiStats().asc == 0.0

    def test_counting_exact(self):
        g = Dag(4, [(0, 1), (1, 2), (2, 3)])
        o = dsep_oracle(g)
        o.query(0, 2, (1,))
        o.query(0, 3, (1, 2))
        o.query(0, 3, (1, 2))  # duplicate still counts
        st = o.stats()
        assert st.n_tests == 3
        assert st.sum_cond_size == 5
        assert st.max_cond_size == 2
        assert st.asc == pytest.approx(5 / 3)

    def test_by_size_leaves_out_unasked_sizes(self):
        o = dsep_oracle(Dag(5, [(0, 1)]))
        o.query(0, 1, ())
        o.query(0, 2, (1, 3))
        o.query(0, 3, (1, 2))
        assert o.stats() == CiStats({0: 1, 2: 2})

    def test_phase_window(self):
        g = Dag(3, [(0, 1)])
        o = dsep_oracle(g)
        o.query(0, 1, ())
        start = o.stats()
        o.query(0, 2, (1,))
        assert o.stats().n_tests == 2
        ph = o.stats() - start
        assert ph.n_tests == 1 and ph.max_cond_size == 1

    def test_lifetime_max_spans_phases(self):
        o = dsep_oracle(Dag(5, [(0, 1)]))
        o.query(0, 1, (2, 3, 4))
        start = o.stats()
        o.query(0, 2, (1,))
        assert (o.stats().n_tests, o.stats().max_cond_size) == (2, 3)
        ph = o.stats() - start
        assert (ph.n_tests, ph.max_cond_size) == (1, 1)

    def test_consecutive_phases_report_own_queries(self):
        o = dsep_oracle(Dag(5, [(0, 1)]))
        o.query(0, 1, (2,))
        start = o.stats()
        o.query(0, 2, (1, 3))
        o.query(0, 3, ())
        mid = o.stats()
        first = mid - start
        assert o.stats() - mid == CiStats()
        o.query(1, 2, (0, 3, 4))
        second = o.stats() - mid
        assert (first.n_tests, first.sum_cond_size, first.max_cond_size) == (2, 2, 2)
        assert (second.n_tests, second.sum_cond_size, second.max_cond_size) == (1, 3, 3)
        st = o.stats()
        assert (st.n_tests, st.sum_cond_size, st.max_cond_size) == (4, 6, 3)

    def test_stats_returns_copy(self):
        g = Dag(3, [(0, 1)])
        o = dsep_oracle(g)
        snap = o.stats()
        o.query(0, 1, ())
        assert snap.n_tests == 0
        later = o.stats()
        o.query(0, 2, (1,))
        o.query(0, 1, ())
        assert later == CiStats({0: 1})
        assert (later.n_tests, later.sum_cond_size, later.max_cond_size) == (1, 0, 0)


class TestDsepOracle:
    def test_matches_d_separated(self):
        rng = random.Random(61)
        for _ in range(100):
            g = random_dag(rng, rng.randint(2, 9))
            o = dsep_oracle(g)
            x, y, s = random_query(rng, g.p)
            assert o.query(x, y, s) == d_separated(g, x, y, s)

    def test_symmetric(self):
        rng = random.Random(67)
        g = random_dag(rng, 8)
        o = dsep_oracle(g)
        for _ in range(50):
            x, y, s = random_query(rng, g.p)
            assert o.query(x, y, s) == o.query(y, x, s)

    def test_undecided_counters_stay_zero(self):
        o = dsep_oracle(Dag(3, [(0, 1)]))
        o.query(0, 2, (1,))
        assert (o.n_degenerate, o.n_singular) == (0, 0)


# With 3 rows every Fisher-Z query is degenerate (n <= |S| + 3), so the
# oracle validates it itself and it never reaches the kernel.
MAKE_ORACLE = [
    lambda: dsep_oracle(Dag(3, [(0, 1)])),
    lambda: fisher_z_oracle(Dataset(np.random.default_rng(4).normal(size=(30, 3)))),
    lambda: fisher_z_oracle(Dataset(np.random.default_rng(4).normal(size=(3, 3)))),
]
ORACLE_IDS = ["dsep", "fisher_z"]
MAKE_ORACLE_IDS = [*ORACLE_IDS, "fisher_z_degenerate"]

# The two public kernels over vertices 0..2.
CORR3 = Dataset(np.random.default_rng(4).normal(size=(30, 3))).corr
KERNELS = {
    "d_separated": lambda x, y, s: d_separated(Dag(3, [(0, 1)]), x, y, s),
    "partial_correlation": lambda x, y, s: partial_correlation_from_corr(
        CORR3, x, y, s
    ),
}


def non_integer_queries(v):
    """Queries over vertices 0..2 with v, a non-integer equal to vertex 2,
    as x, as y, inside a plain S, and as the x or y of a query given REST."""
    return [
        (v, 1, ()),
        (0, v, ()),
        (0, 1, [v]),
        (v, 0, REST),
        (1, v, REST),
    ]


def mixed_uint64_queries():
    """(query, the same query in Python ints) pairs over vertices 0..2 with
    one np.uint64 vertex among other integers: as x, as y, inside a plain
    S, and as the x of a query given REST."""
    u = np.uint64
    return [
        ((u(0), 2, [1]), (0, 2, [1])),
        ((0, u(2), [np.int64(1)]), (0, 2, [1])),
        ((2, 1, [u(0)]), (2, 1, [0])),
        ((u(1), 0, REST), (1, 0, REST)),
    ]


class TestQueryValidation:
    @pytest.mark.parametrize("make", MAKE_ORACLE, ids=MAKE_ORACLE_IDS)
    def test_argument_errors_not_counted(self, make):
        o = make()
        with pytest.raises(ValueError, match="endpoints must differ"):
            o.query(0, 0, ())
        with pytest.raises(ValueError, match="may not contain the endpoints"):
            o.query(0, 1, (1,))
        with pytest.raises(ValueError, match="out of range"):
            o.query(0, 5, ())
        assert o.stats().n_tests == 0

    @pytest.mark.parametrize(
        "query",
        [(0, 1, [2.5]), (0, 1, ["2"]), (0, 1, [None]), (0.5, 1, ()), (0, -1, ())],
    )
    @pytest.mark.parametrize("make", MAKE_ORACLE, ids=MAKE_ORACLE_IDS)
    def test_non_vertex_rejected_before_counting(self, make, query):
        o = make()
        with pytest.raises(ValueError, match="out of range"):
            o.query(*query)
        assert o.stats().n_tests == 0

    @pytest.mark.parametrize("make", MAKE_ORACLE, ids=MAKE_ORACLE_IDS)
    def test_numpy_integers_accepted(self, make):
        o = make()
        i = np.int64
        assert o.query(i(0), i(2), [i(1)]) == o.query(0, 2, [1])
        assert o.query(np.intp(2), 0, ()) == o.query(2, 0, ())
        assert o.stats().n_tests == 4

    @pytest.mark.parametrize("v", [2.0, 2 + 0j], ids=["float", "complex"])
    @pytest.mark.parametrize("make", MAKE_ORACLE, ids=MAKE_ORACLE_IDS)
    def test_non_integer_vertex_raises_uncounted(self, make, v):
        # v equals vertex 2, so it passes check_query, and the kernel (or
        # the degenerate branch) rejects it as an index. On the exact
        # oracle (0, 2, [1]) takes the moral-graph search, so the graph has
        # memoized it: (0, v, [1]) must still raise rather than hit the memo.
        o = make()
        o.query(0, 1, ())
        o.query(0, 2, [1])
        before = (o.stats(), o.n_degenerate, o.n_singular)
        for x, y, s in [*non_integer_queries(v), (0, v, [1])]:
            with pytest.raises(TypeError):
                o.query(x, y, s)
        assert (o.stats(), o.n_degenerate, o.n_singular) == before

    @pytest.mark.parametrize("v", [2.0, 2 + 0j], ids=["float", "complex"])
    @pytest.mark.parametrize("kernel", KERNELS.values(), ids=list(KERNELS))
    def test_non_integer_vertex_rejected_by_the_kernels(self, kernel, v):
        for x, y, s in non_integer_queries(v):
            with pytest.raises(TypeError):
                kernel(x, y, s)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.int16, np.uint8])
    @pytest.mark.parametrize("kernel", KERNELS.values(), ids=list(KERNELS))
    def test_numpy_integer_vertices_answer_as_ints(self, kernel, kind):
        for x, y, s in [(0, 1, ()), (0, 2, [1]), (2, 1, [0]), (1, 0, [2])]:
            want = kernel(x, y, s)
            got = kernel(kind(x), kind(y), [kind(v) for v in s])
            assert got == want
            assert kernel(kind(x), kind(y), REST) == kernel(x, y, REST)
        assert kernel(False, True, [2]) == kernel(0, 1, [2])

    @pytest.mark.parametrize("kernel", KERNELS.values(), ids=list(KERNELS))
    def test_mixed_uint64_vertices_answer_as_ints(self, kernel):
        # numpy makes a np.uint64 mixed with other integers a float array.
        for (x, y, s), plain in mixed_uint64_queries():
            assert kernel(x, y, s) == kernel(*plain)

    @pytest.mark.parametrize("make", MAKE_ORACLE, ids=MAKE_ORACLE_IDS)
    def test_mixed_uint64_vertices_accepted(self, make):
        o = make()
        for (x, y, s), plain in mixed_uint64_queries():
            assert o.query(x, y, s) == o.query(*plain)
        assert o.stats().n_tests == 2 * len(mixed_uint64_queries())

    @pytest.mark.parametrize("query", [(0, 2 + 0j, ()), (0, 1, [2 + 0j])])
    @pytest.mark.parametrize("make", MAKE_ORACLE, ids=MAKE_ORACLE_IDS)
    def test_query_that_raises_is_not_counted(self, make, query):
        # 2+0j equals vertex 2, so it passes check_query; the kernel then
        # rejects it as an index, as does the degenerate branch, which
        # repeats that check, and the query must leave every counter as it
        # was.
        o = make()
        o.query(0, 1, ())
        start = o.stats()
        o.query(0, 2, [1])
        before = (o.stats(), o.stats() - start, o.n_degenerate)
        with pytest.raises(TypeError):
            o.query(*query)
        assert (o.stats(), o.stats() - start, o.n_degenerate) == before

    def test_oracle_without_decide_raises_uncounted(self):
        class Undecided(ci.CiOracle):
            p = 3

        o = Undecided()
        for s in ((), REST):
            with pytest.raises(NotImplementedError):
                o.query(0, 1, s)
        assert o.stats() == CiStats()

    @pytest.mark.parametrize(
        "p, s",
        [(7, [2 + 0j, 3, 4, 5]), (5, [2 + 0j, 3, 4])],
        ids=["over_half", "all_but_xy"],
    )
    def test_complex_vertex_in_a_large_set_is_not_counted(self, p, s):
        # More than half the vertices, up to every vertex but x and y: a
        # plain set is always encoded from its own elements, whatever its
        # size, so 2+0j meets the bit table and raises.
        o = dsep_oracle(Dag(p, [(0, 2), (2, 1)]))
        o.query(0, 1, [2, 3])
        before = o.stats()
        with pytest.raises(TypeError):
            o.query(0, 1, s)
        assert o.stats() == before



CHAIN4 = Dag(4, [(0, 1), (1, 2), (2, 3)])


def chain4_dsep():
    return dsep_oracle(CHAIN4)


def chain4_fisher_z():
    return fisher_z_oracle(sample(random_scm(CHAIN4, seed=1), n=2000, seed=2))


CHAIN4_ORACLES = [chain4_dsep, chain4_fisher_z]


class TestFirstIndependent:
    # search returns the first independent candidate. On the chain
    # 0 -> 1 -> 2 -> 3, 0 and 3 are dependent marginally and independent
    # given 1 or 2; 0 and 2 are dependent given () and {3}. The Fisher-Z
    # sample agrees with d-separation on every query used here.

    @pytest.mark.parametrize("make", CHAIN4_ORACLES, ids=ORACLE_IDS)
    def test_stops_at_first_independent(self, make):
        o = make()
        assert [o.query(0, 3, s) for s in [(), (1,), (2,), (1, 2)]] == [
            False, True, True, True,
        ]
        before = o.stats()
        found = o.search(0, 3, [2, 1])
        assert found == frozenset({1}) and isinstance(found, frozenset)
        after = o.stats()
        assert after.n_tests - before.n_tests == 2
        assert after.sum_cond_size - before.sum_cond_size == 1

    @pytest.mark.parametrize("make", CHAIN4_ORACLES, ids=ORACLE_IDS)
    def test_none_independent_counts_every_candidate(self, make):
        o = make()
        assert o.search(0, 2, [3]) is None
        st = o.stats()
        assert (st.n_tests, st.sum_cond_size, st.max_cond_size) == (2, 1, 1)
        assert o.search(0, 2, [3], sizes=(1, 0, 1)) is None
        st = o.stats()
        assert (st.n_tests, st.sum_cond_size, st.max_cond_size) == (5, 3, 1)

    @pytest.mark.parametrize("make", CHAIN4_ORACLES, ids=ORACLE_IDS)
    def test_no_candidates_counts_nothing(self, make):
        o = make()
        assert o.search(0, 3, [1, 2], sizes=()) is None
        assert o.search(0, 3, [1, 2], sizes=iter(())) is None
        assert o.search(0, 3, [], sizes=(1,)) is None
        assert o.search(0, 3, [1, 2], sizes=(3, 4)) is None
        assert o.stats() == CiStats()

    @pytest.mark.parametrize("make", CHAIN4_ORACLES, ids=ORACLE_IDS)
    def test_bad_vertex_counts_only_the_candidates_before_it(self, make):
        o = make()
        with pytest.raises(ValueError, match="out of range"):
            o.search(0, 2, [9, 3])
        st = o.stats()
        assert (st.n_tests, st.sum_cond_size) == (2, 1)
        with pytest.raises(ValueError, match="out of range"):
            o.search(0, 2, [3], base=(9,))
        assert o.stats() == st

    @pytest.mark.parametrize("make", CHAIN4_ORACLES, ids=ORACLE_IDS)
    def test_each_candidate_queried_once(self, make, monkeypatch):
        seen = []
        query = ci.CiOracle.query

        def spy(self, x, y, s=()):
            seen.append((x, y, frozenset(s)))
            return query(self, x, y, s)

        monkeypatch.setattr(ci.CiOracle, "query", spy)
        o = make()
        assert o.search(0, 2, [3]) is None
        assert o.search(0, 3, [1, 2]) == {1}
        assert o.search(1, 3, [2], base=(0,)) == {0, 2}
        assert seen == [
            (0, 2, frozenset()),
            (0, 2, frozenset({3})),
            (0, 3, frozenset()),
            (0, 3, frozenset({1})),
            (1, 3, frozenset({0})),
            (1, 3, frozenset({0, 2})),
        ]
        assert o.stats().n_tests == len(seen)


class NeverIndependent(ci.CiOracle):
    """Oracle that answers every query dependent, so a search asks its
    whole family."""

    def __init__(self, p):
        super().__init__()
        self.p = p

    def _decide(self, x, y, s):
        graph.check_query(self.p, x, y, s)
        return False


def family(pool, **kwargs):
    """The candidates ``search`` asks, in order, for the pair (0, 9)."""
    seen = []
    o = NeverIndependent(10)
    query = o.query
    o.query = lambda x, y, s=(): seen.append(tuple(sorted(s))) or query(x, y, s)
    assert o.search(0, 9, pool, **kwargs) is None
    assert o.stats().n_tests == len(seen)
    return seen


class TestSubsetEnumeration:
    def test_order(self):
        assert family([3, 1, 2]) == [
            (),
            (1,),
            (2,),
            (3,),
            (1, 2),
            (1, 3),
            (2, 3),
            (1, 2, 3),
        ]
        assert family([3, 1, 2, 3], base=(5,)) == [
            (5,),
            (1, 5),
            (2, 5),
            (3, 5),
            (1, 2, 5),
            (1, 3, 5),
            (2, 3, 5),
            (1, 2, 3, 5),
        ]

    def test_proper_excludes_full(self):
        pool = [1, 2]
        got = family(pool, sizes=range(len(pool)))
        assert (1, 2) not in got
        assert len(got) == 3

    def test_empty_pool(self):
        assert family([]) == [()]
        assert family([], sizes=range(0)) == []


def reference_search(o, x, y, pool, base, sizes):
    """One query per candidate, spelled out with combinations."""
    for r in sizes:
        for combo in combinations(sorted(set(pool)), r):
            s = frozenset(base) | frozenset(combo)
            if o.query(x, y, s):
                return s
    return None


@hs.composite
def search_families(draw):
    p = draw(hs.integers(3, 8))
    seed = draw(hs.integers(0, 2**32 - 1))
    g = random_dag(random.Random(seed), p)
    x, y = draw(hs.lists(hs.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    rest = [v for v in range(p) if v not in (x, y)]
    base = draw(hs.lists(hs.sampled_from(rest), max_size=2, unique=True))
    pool = draw(hs.lists(hs.sampled_from(rest), max_size=len(rest)))
    sizes = draw(
        hs.none() | hs.lists(hs.integers(0, len(rest) + 1), max_size=len(rest) + 2)
    )
    return g, x, y, pool, base, sizes


class TestSearchMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(search_families())
    def test_same_answer_and_window(self, case):
        g, x, y, pool, base, sizes = case
        default = range(len(set(pool)) + 1)
        want_o, got_o = dsep_oracle(g), dsep_oracle(g)
        want = reference_search(
            want_o, x, y, pool, base, default if sizes is None else sizes
        )
        # A query before the search, which the window must leave out.
        got_o.query(x, y, set(range(g.p)) - {x, y})
        before = got_o.stats()
        got = got_o.search(x, y, pool, base=base, sizes=sizes)
        assert got == want
        assert got is None or isinstance(got, frozenset)
        assert got_o.stats() - before == want_o.stats()


def rest_oracles(p, seed):
    """A d-separation oracle and two Fisher-Z oracles over one random DAG
    on p vertices, fresh on each call. The second Fisher-Z oracle has
    n = p samples, so every total-conditioning query takes its degenerate
    branch."""
    g = random_dag(random.Random(seed), p)
    scm = random_scm(g, seed=seed)
    return g, [
        dsep_oracle(g),
        fisher_z_oracle(sample(scm, n=60, seed=seed)),
        fisher_z_oracle(sample(scm, n=p, seed=seed)),
    ]


@hs.composite
def rest_queries(draw):
    p = draw(hs.integers(2, 9))
    seed = draw(hs.integers(0, 2**32 - 1))
    x, y = draw(hs.lists(hs.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    return p, seed, x, y


class TestRestQueries:
    # Total conditioning asks REST in place of the frozenset of every vertex
    # but x and y; nothing the oracle reports may tell them apart, and a
    # query whose x or y is bad raises, uncounted.

    @settings(max_examples=100, deadline=None)
    @given(rest_queries())
    def test_same_answer_and_window_as_the_frozenset(self, case):
        p, seed, x, y = case
        g, got = rest_oracles(p, seed)
        _, want = rest_oracles(p, seed)
        s = frozenset(range(p)) - {x, y}
        truth = d_separated_bruteforce(g, x, y, s)
        for got_o, want_o in zip(got, want):
            got_o.query(0, 1, ())
            want_o.query(0, 1, ())
            start = got_o.stats()
            answer = got_o.query(x, y, REST)
            assert answer == want_o.query(x, y, s)
            assert got_o.stats() - start == CiStats({p - 2: 1})
            assert got_o.stats() == want_o.stats()
            assert (got_o.n_degenerate, got_o.n_singular) == (
                want_o.n_degenerate,
                want_o.n_singular,
            )
        assert got[0].query(x, y, REST) == truth

    @settings(max_examples=100, deadline=None)
    @given(hs.integers(2, 9), hs.integers(0, 2**32 - 1))
    def test_every_pair_answers_from_the_moral_row(self, p, seed):
        # Given every other vertex, x and y are independent exactly when y
        # is off x's Markov blanket; each query still counts once at p - 2.
        g = random_dag(random.Random(seed), p)
        o = dsep_oracle(g)
        for x, y in combinations(range(p), 2):
            s = frozenset(range(p)) - {x, y}
            before = o.stats()
            answer = o.query(x, y, REST)
            assert o.stats() - before == CiStats({p - 2: 1})
            assert answer == (y not in markov_boundary_graphical(g, x))
            assert answer == d_separated_bruteforce(g, x, y, s)

    def test_moral_row_answers_at_p_150(self):
        g = fixed_indegree_dag(150, 4, 0)
        o = dsep_oracle(g)
        for x, y in combinations(range(g.p), 2):
            answer = o.query(x, y, REST)
            assert answer == (y not in markov_boundary_graphical(g, x))
        assert o.stats() == CiStats({148: 150 * 149 // 2})

    @settings(max_examples=100, deadline=None)
    @given(rest_queries())
    def test_partial_correlation_identical(self, case):
        # Bit for bit: REST gathers the frozenset's sorted order.
        p, seed, x, y = case
        corr = rest_oracles(p, seed)[1][1].corr
        s = frozenset(range(p)) - {x, y}
        assert partial_correlation_from_corr(
            corr, x, y, REST
        ) == partial_correlation_from_corr(corr, x, y, s)

    @settings(max_examples=100, deadline=None)
    @given(rest_queries(), hs.data())
    def test_bad_endpoints_raise_uncounted(self, case, data):
        p, seed, x, y = case
        bad, error = data.draw(
            hs.sampled_from(
                [
                    ((x, x), ValueError),  # equal endpoints
                    ((y, y), ValueError),
                    ((x, p), ValueError),  # an endpoint out of range
                    ((-1, y), ValueError),
                    ((x + 0.5, y), ValueError),  # a float equal to no vertex
                    ((float(x), y), TypeError),  # a float equal to vertex x
                    ((x, complex(y)), TypeError),
                ]
            )
        )
        oracles = rest_oracles(p, seed)[1]
        for o in oracles:
            o.query(x, y, REST)
            before = (o.stats(), o.n_degenerate, o.n_singular)
            with pytest.raises(error):
                o.query(*bad, REST)
            assert (o.stats(), o.n_degenerate, o.n_singular) == before
        assert oracles[2].n_degenerate == 1

    def test_two_vertices_count_at_size_0(self):
        # Given the rest of two vertices is given nothing. Fisher-Z takes
        # its kernel path at n = 40 and its degenerate branch at n = 3.
        g = Dag(2, [(0, 1)])
        scm = random_scm(g, seed=3)
        data = [sample(scm, n=n, seed=3) for n in (40, 3)]
        for o in (dsep_oracle(g), *map(fisher_z_oracle, data)):
            assert o.query(1, 0, REST) == o.query(1, 0, ())
            assert o.stats() == CiStats({0: 2})
        corr = data[0].corr
        assert partial_correlation_from_corr(
            corr, 0, 1, REST
        ) == partial_correlation_from_corr(corr, 0, 1, ())


class TestValidatedOnce:
    def test_dsep_query_checked_once(self, monkeypatch):
        rng = random.Random(71)
        g = random_dag(rng, 9)
        queries = [random_query(rng, g.p) for _ in range(60)]
        expected = [d_separated(g, x, y, s) for x, y, s in queries]
        calls = []
        check = graph.check_query

        def counting_check(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(graph, "check_query", counting_check)
        monkeypatch.setattr(ci, "check_query", counting_check)
        o = dsep_oracle(g)
        for k, ((x, y, s), answer) in enumerate(zip(queries, expected), 1):
            assert o.query(x, y, s) == answer
            assert len(calls) == k
        assert o.stats().n_tests == 60

    def test_fisher_z_query_checked_once(self, monkeypatch):
        rng = random.Random(72)
        d = Dataset(np.random.default_rng(72).normal(size=(200, 9)))
        queries = [random_query(rng, 9) for _ in range(60)]
        reference = fisher_z_oracle(d, alpha=0.05)
        expected = [reference.query(x, y, s) for x, y, s in queries]
        calls = []
        check = graph.check_query

        def counting_check(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(graph, "check_query", counting_check)
        monkeypatch.setattr(ci, "check_query", counting_check)
        o = fisher_z_oracle(d, alpha=0.05)
        for k, ((x, y, s), answer) in enumerate(zip(queries, expected), 1):
            assert o.query(x, y, s) == answer
            assert len(calls) == k
        assert o.stats().n_tests == 60
        assert (o.n_degenerate, o.n_singular) == (0, 0)

    @pytest.mark.parametrize("bad", [9, -1, 2.5, "3", None])
    def test_degenerate_fisher_z_query_checked_before_counting(self, bad):
        d = Dataset(np.random.default_rng(7).normal(size=(5, 4)))
        o = fisher_z_oracle(d, alpha=0.05)
        o.query(0, 1, ())
        start = o.stats()
        # n = 5 <= |s| + 3 once |s| >= 2: the branch that skips the kernel
        assert not o.query(0, 1, (2, 3))
        before = (o.stats(), o.stats() - start, o.n_degenerate)
        with pytest.raises(ValueError, match="out of range"):
            o.query(0, 1, (2, bad))
        assert (o.stats(), o.stats() - start, o.n_degenerate) == before


def run_python(code):
    """Stdout of ``code`` run by a fresh interpreter that sees this package."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return out.stdout.strip()


SCIPY_MODULES = "[k for k in ('scipy.linalg.lapack', 'scipy.special') if k in sys.modules]"


class TestScipyDeferred:
    def test_exact_path_loads_no_scipy(self):
        code = f"""
import sys, numpy as np, marvel
from marvel import ci
o = marvel.dsep_oracle(marvel.fixed_indegree_dag(15, 3, 0))
marvel.marvel_learn(o, marvel.total_conditioning(o))
print([k for k in sys.modules if k.split('.')[0] == 'scipy'])
d = marvel.Dataset(np.random.default_rng(0).normal(size=(50, 3)))
marvel.fisher_z_oracle(d)
print({SCIPY_MODULES})
from scipy.linalg import lapack
print(ci.dpotrf is lapack.dpotrf)
"""
        lines = run_python(code).splitlines()
        assert lines == ["[]", "['scipy.linalg.lapack', 'scipy.special']", "True"]

    def test_partial_correlation_binds_scipy_on_first_use(self):
        # Chain 0 - 2 - 1: corr(0, 1) = 0.5 * 0.5, so rho(0, 1 | 2) = 0.
        code = f"""
import sys, numpy as np
from marvel import partial_correlation_from_corr
corr = np.array([[1.0, 0.25, 0.5], [0.25, 1.0, 0.5], [0.5, 0.5, 1.0]])
print({SCIPY_MODULES})
print(partial_correlation_from_corr(corr, 0, 1, [2]))
print(partial_correlation_from_corr(corr, 0, 1, [2]))
print({SCIPY_MODULES})
"""
        lines = run_python(code).splitlines()
        assert lines[0] == "[]"
        assert float(lines[1]) == pytest.approx(0.0, abs=1e-12)
        assert lines[2] == lines[1]
        assert lines[3] == "['scipy.linalg.lapack', 'scipy.special']"


class TestDataset:
    def test_shape_and_corr(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(50, 4))
        d = Dataset(vals)
        assert d.n == 50 and d.p == 4
        assert np.allclose(d.corr, d.corr.T)
        assert np.allclose(np.diag(d.corr), 1.0)
        assert np.all(np.abs(d.corr) <= 1.0)

    def test_rejects_constant_column(self):
        vals = np.ones((10, 2))
        vals[:, 0] = np.arange(10)
        with pytest.raises(ValueError):
            Dataset(vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_values(self, bad):
        vals = np.random.default_rng(12).normal(size=(10, 3))
        vals[4, 1] = bad
        with pytest.raises(ValueError, match="column 1"):
            Dataset(vals)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_rejects_a_column_off_the_float_scale(self, scale):
        # the variance overflows or underflows; a 1e-200 column is not
        # constant, though its standard deviation underflows to 0
        vals = np.random.default_rng(13).normal(size=(50, 3))
        vals[:, 1] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError,
                match=r"^column 1 is too large or too small for a correlation "
                r"matrix; rescale it$",
            ):
                Dataset(vals)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((1, 3)))

    def test_single_column(self):
        d = Dataset(np.random.default_rng(9).normal(size=(10, 1)))
        assert d.corr.tolist() == [[1.0]]

    def test_single_column_learns_the_one_vertex_graph(self):
        d = Dataset(np.random.default_rng(9).normal(size=(10, 1)))
        o = fisher_z_oracle(d, alpha=0.05)
        result = marvel_learn(o, total_conditioning(o))
        assert result.essential == Pdag(1)
        assert result.warnings == []

    def test_single_column_default_alpha_rejected(self):
        d = Dataset(np.random.default_rng(9).normal(size=(10, 1)))
        with pytest.raises(ValueError, match="alpha default needs p >= 2"):
            fisher_z_oracle(d)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        d = Dataset(rng.normal(size=(20, 3)))
        path = tmp_path / "data.csv"
        save_dataset(d, path)
        d2 = load_dataset(path)
        assert d2.n == 20 and d2.p == 3
        assert np.allclose(d.values, d2.values, atol=1e-9)


def unit_noise_covariance(p, coeffs):
    """Population covariance of the unit-noise model whose edges are the
    keys of ``coeffs``. Partial correlation given a nonempty set is
    scale-free, so the kernel takes the covariance as it is."""
    return population_covariance(ScmSpec(Dag(p, coeffs), coeffs, (1.0,) * p))


class TestPartialCorrelation:
    def test_marginal_case_returns_corr_entry(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(size=(40, 3)))
        assert partial_correlation_from_corr(d.corr, 0, 2, ()) == pytest.approx(
            float(d.corr[0, 2]), abs=1e-12
        )

    def test_population_chain_vanishes(self):
        # 0 -> 1 -> 2: partialling out the middle removes all correlation
        cov = unit_noise_covariance(3, {(0, 1): 0.8, (1, 2): -0.7})
        assert partial_correlation_from_corr(cov, 0, 2, (1,)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_population_collider_opens(self):
        # 0 -> 2 <- 1: marginally zero, nonzero given the collider
        cov = unit_noise_covariance(3, {(0, 2): 0.9, (1, 2): 0.9})
        assert partial_correlation_from_corr(cov, 0, 1, ()) == pytest.approx(
            0.0, abs=1e-12
        )
        assert abs(partial_correlation_from_corr(cov, 0, 1, (2,))) > 0.3

    def test_single_edge_closed_form(self):
        # 0 -> 1 beside an isolated 2: given 2, the correlation c / sqrt(1 + c^2)
        # of a unit-noise edge
        for c in (0.5, 1.0, -2.0):
            cov = unit_noise_covariance(3, {(0, 1): c})
            assert partial_correlation_from_corr(cov, 0, 1, (2,)) == pytest.approx(
                c / sqrt(1 + c * c), abs=1e-12
            )

    def test_clamped(self):
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        r = partial_correlation_from_corr(corr, 0, 1, ())
        assert r == pytest.approx(1.0 - 1e-7)

    def test_argument_errors(self):
        corr = np.eye(3)
        with pytest.raises(ValueError):
            partial_correlation_from_corr(corr, 0, 0, ())
        with pytest.raises(ValueError):
            partial_correlation_from_corr(corr, 0, 1, (1,))
        with pytest.raises(ValueError):
            partial_correlation_from_corr(corr, 0, 3, ())

    def test_singular_submatrix_raises(self):
        # duplicate a variable so the conditioning submatrix is singular
        base = np.array(
            [
                [1.0, 0.5, 0.5, 0.3],
                [0.5, 1.0, 1.0, 0.2],
                [0.5, 1.0, 1.0, 0.2],
                [0.3, 0.2, 0.2, 1.0],
            ]
        )
        with pytest.raises(np.linalg.LinAlgError):
            partial_correlation_from_corr(base, 0, 3, (1, 2))

    def test_indefinite_submatrix_raises(self):
        # no partial correlation exists, though both diagonal entries of the
        # inverse are positive, so checking them alone would accept it
        assert np.linalg.eigvalsh(INDEFINITE).min() < -0.5
        with pytest.raises(np.linalg.LinAlgError):
            partial_correlation_from_corr(INDEFINITE, 0, 1, (2, 3))


def inverse_reference(corr, x, y, s):
    """-theta01 / sqrt(theta00 theta11) from the inverse of the submatrix."""
    idx = [x, y, *sorted(s)]
    theta = np.linalg.inv(corr[np.ix_(idx, idx)])
    return float(-theta[0, 1] / sqrt(theta[0, 0] * theta[1, 1]))


def random_corr(rng, p):
    """A positive definite sample correlation matrix over p variables."""
    vals = rng.normal(size=(4 * p, p)) @ rng.normal(size=(p, p))
    return np.corrcoef(vals, rowvar=False)


class TestCholeskyKernel:
    def test_matches_inverse_reference(self):
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(20):
            corr = random_corr(rng, 30)
            for k in range(21):
                x, y, *s = (np.int64(v) for v in rng.permutation(30)[: k + 2])
                got = partial_correlation_from_corr(corr, x, y, s)
                assert got == pytest.approx(
                    inverse_reference(corr, x, y, s), abs=1e-12
                ), (x, y, s)
                checked += 1
        assert checked == 20 * 21

    def test_symmetric_and_order_free(self):
        rng = np.random.default_rng(15)
        corr = random_corr(rng, 30)
        for k in range(21):
            x, y, *s = (int(v) for v in rng.permutation(30)[: k + 2])
            r = partial_correlation_from_corr(corr, x, y, frozenset(s))
            assert partial_correlation_from_corr(corr, y, x, s) == pytest.approx(
                r, abs=1e-12
            )
            shuffled = list(s)
            random.Random(k).shuffle(shuffled)
            assert partial_correlation_from_corr(corr, x, y, shuffled) == r

    def test_bit_identical_to_list_gather(self):
        # Frozen copy of the earlier gather: a list of Python ints taken
        # twice and dpotrf called with keywords. The kernel must return
        # the very same float for int and numpy-int vertices.
        from scipy.linalg.lapack import dpotrf

        def list_gather(corr, x, y, s):
            x, y = int(x), int(y)
            if not s:
                r = float(corr[x, y])
            else:
                idx = sorted(map(int, s))
                idx.append(x)
                idx.append(y)
                sub = corr.take(idx, axis=0).take(idx, axis=1)
                c, info = dpotrf(sub.T, lower=1, clean=0, overwrite_a=1)
                assert info == 0
                a = float(c[-1, -2])
                b = float(c[-1, -1])
                r = a / sqrt(a * a + b * b)
            return max(-ci._CLAMP, min(ci._CLAMP, r))

        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(10):
            corr = random_corr(rng, 30)
            for k in range(21):
                x, y, *s = (int(v) for v in rng.permutation(30)[: k + 2])
                expected = list_gather(corr, x, y, s)
                for kind in (int, np.int64):
                    got = partial_correlation_from_corr(
                        corr, kind(x), kind(y), [kind(v) for v in s]
                    )
                    assert got == expected, (kind, x, y, s)
                    checked += 1
        assert checked == 10 * 21 * 2

    def test_leaves_corr_untouched(self):
        # the factorization overwrites its input, which must only ever be
        # the gathered copy
        rng = np.random.default_rng(16)
        corr = random_corr(rng, 30)
        before = corr.copy()
        for k in range(21):
            x, y, *s = (int(v) for v in rng.permutation(30)[: k + 2])
            partial_correlation_from_corr(corr, x, y, s)
        assert corr.tobytes() == before.tobytes()


class TestFisherZ:
    def test_default_alpha(self):
        assert default_alpha(25) == pytest.approx(2 / 625)
        with pytest.raises(ValueError):
            default_alpha(1)

    def test_textbook_z_value(self):
        # rho = 0.5, n = 100, |s| = 0: z = atanh(0.5) * sqrt(97) ~ 5.411
        z = sqrt(100 - 0 - 3) * atanh(0.5)
        assert z == pytest.approx(5.4100, abs=5e-4)
        # build data with that exact sample correlation via construction
        rng = np.random.default_rng(5)
        a = rng.normal(size=10000)
        b = 0.5 * a + sqrt(1 - 0.25) * rng.normal(size=10000)
        d = Dataset(np.column_stack([a, b]))
        o = fisher_z_oracle(d, alpha=0.05)
        assert not o.query(0, 1, ())  # strongly dependent

    def test_independent_columns_accepted(self):
        rng = np.random.default_rng(6)
        d = Dataset(rng.normal(size=(5000, 2)))
        o = fisher_z_oracle(d, alpha=0.01)
        assert o.query(0, 1, ())

    def test_degenerate_sample_forced_dependent(self):
        rng = np.random.default_rng(7)
        d = Dataset(rng.normal(size=(5, 4)))
        o = fisher_z_oracle(d, alpha=0.05)
        # n = 5 <= |s| + 3 once |s| >= 2
        assert not o.query(0, 1, (2, 3))
        assert o.n_degenerate == 1
        assert o.stats().n_tests == 1

    def test_singular_submatrix_forced_dependent(self):
        # x3 = x0 + x1 makes the submatrix of {0, 1, 3} singular
        vals = np.random.default_rng(13).normal(size=(200, 4))
        vals[:, 3] = vals[:, 0] + vals[:, 1]
        o = fisher_z_oracle(Dataset(vals), alpha=0.05)
        assert not o.query(0, 2, (1, 3))
        assert (o.n_singular, o.n_degenerate) == (1, 0)
        assert o.stats().n_tests == 1

    def test_indefinite_submatrix_forced_dependent(self):
        d = Dataset(np.random.default_rng(17).normal(size=(200, 4)))
        d.corr = INDEFINITE.copy()
        o = fisher_z_oracle(d, alpha=0.05)
        assert not o.query(0, 1, (2, 3))
        assert (o.n_singular, o.n_degenerate) == (1, 0)
        assert o.stats().n_tests == 1

    def test_oracle_does_not_keep_sample_matrix(self):
        d = Dataset(np.random.default_rng(20).normal(size=(300, 5)))
        values = weakref.ref(d.values)
        o = fisher_z_oracle(d, alpha=0.05)
        answer = o.query(0, 1, (2, 3))
        del d
        gc.collect()
        assert values() is None
        assert o.query(0, 1, (2, 3)) == answer
        assert (o.n, o.corr.shape) == (300, (5, 5))

    def test_alpha_validation(self):
        rng = np.random.default_rng(8)
        d = Dataset(rng.normal(size=(10, 2)))
        with pytest.raises(ValueError):
            fisher_z_oracle(d, alpha=1.5)

    def test_alpha_default_resolution(self):
        rng = np.random.default_rng(9)
        d = Dataset(rng.normal(size=(100, 5)))
        o = fisher_z_oracle(d)
        assert o.alpha == pytest.approx(2 / 25)

    @pytest.mark.parametrize("alpha", [2 / 2500, 2 / 625, 0.001, 0.01, 0.05, 0.2])
    def test_threshold_equals_scipy_stats_quantile(self, alpha):
        from scipy.stats import norm

        d = Dataset(np.random.default_rng(18).normal(size=(20, 2)))
        o = fisher_z_oracle(d, alpha=alpha)
        assert o.z_threshold == float(norm.ppf(1.0 - alpha / 2.0))

    def test_import_does_not_load_scipy_stats(self):
        code = "import sys, marvel; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "False"

    def test_larger_n_rejects_smaller_correlations(self):
        # same sample correlation, more data: |z| grows, so dependence is
        # declared at sizes where the small sample accepted independence
        corr = 0.08
        rng = np.random.default_rng(10)

        def dataset(n):
            # construct an exact in-sample correlation of `corr`
            a = rng.normal(size=n)
            raw = rng.normal(size=n)
            beta = np.dot(a - a.mean(), raw - raw.mean()) / np.dot(
                a - a.mean(), a - a.mean()
            )
            resid = raw - raw.mean() - beta * (a - a.mean())
            az = (a - a.mean()) / a.std()
            ez = resid / resid.std()
            b = corr * az + sqrt(1 - corr * corr) * ez
            d = Dataset(np.column_stack([a, b]))
            assert d.corr[0, 1] == pytest.approx(corr, abs=1e-9)
            return d

        small = fisher_z_oracle(dataset(30), alpha=0.05)
        big = fisher_z_oracle(dataset(200000), alpha=0.05)
        assert small.query(0, 1, ())
        assert not big.query(0, 1, ())

    def test_quick_calibration(self):
        # ~5% rejection under the null at alpha = 0.05; full-strength check
        # with tighter bounds lives in the acceptance suite
        rng = np.random.default_rng(11)
        rejects = 0
        trials = 200
        for _ in range(trials):
            d = Dataset(rng.normal(size=(500, 2)))
            o = fisher_z_oracle(d, alpha=0.05)
            if not o.query(0, 1, ()):
                rejects += 1
        assert 0.01 <= rejects / trials <= 0.10
