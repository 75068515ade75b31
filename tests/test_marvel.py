"""Removability battery and learner tests.

Unit cases freeze hand-checked d-separation outcomes on small graphs; the
learner is validated against cpdag_bruteforce and the battery against the
graphical removability test (the acceptance suite runs the full-strength
versions). A round-by-round graphical replay checks the scan and budget
properties.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dag
from marvel.bench import pc_baseline, simulate_dataset, solve
from marvel.ci import CiStats, dsep_oracle, fisher_z_oracle
from marvel.graph import (
    Dag,
    cpdag_bruteforce,
    is_removable_graphical,
    markov_boundary_graphical,
)
from marvel.marvel import (
    MarvelCaches,
    check_condition1,
    check_condition2,
    ci_budget_bound,
    find_neighbors,
    find_vpa,
    is_removable_ci,
    marvel_learn,
)
from marvel.mb import total_conditioning
from marvel.synth import erdos_renyi_dag, fixed_indegree_dag

COLLIDER = Dag(3, [(0, 2), (1, 2)])
CHAIN = Dag(3, [(0, 1), (1, 2)])
# X=0 and T=3 share children Y=1 and Z=2; the only edge missing from the
# diamond is 0-3, so (0,1,3) and (0,2,3) are its colliders.
TWO_CHILD = Dag(4, [(0, 1), (0, 2), (1, 2), (3, 1), (3, 2)])


def star(p):
    return Dag(p, [(0, i) for i in range(1, p)])


def battery_inputs(g, x):
    oracle = dsep_oracle(g)
    return oracle, frozenset(markov_boundary_graphical(g, x)), MarvelCaches()


class TestFindNeighbors:
    def test_collider_splits_boundary(self):
        oracle, mb, caches = battery_inputs(COLLIDER, 0)
        info = find_neighbors(0, mb, oracle, caches)
        assert info.neighbors == {2}
        assert info.coparents == {1}
        assert info.sepsets == {1: frozenset()}

    def test_star_center_keeps_everyone(self):
        g = star(5)
        oracle, mb, caches = battery_inputs(g, 0)
        info = find_neighbors(0, mb, oracle, caches)
        assert info.neighbors == {1, 2, 3, 4}
        assert info.coparents == frozenset()

    def test_sepsets_are_proper_subsets(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_dag(rng, rng.randint(3, 7))
            oracle = dsep_oracle(g)
            for x in range(g.p):
                mb = frozenset(markov_boundary_graphical(g, x))
                info = find_neighbors(x, mb, oracle, MarvelCaches())
                assert info.neighbors | info.coparents == mb
                assert not info.neighbors & info.coparents
                for t, s in info.sepsets.items():
                    assert s < mb - {t}

    def test_reentry_filters_without_queries(self):
        g = star(5)
        oracle, mb, caches = battery_inputs(g, 0)
        find_neighbors(0, mb, oracle, caches)
        before = oracle.stats().n_tests
        info = find_neighbors(0, mb - {4}, oracle, caches)
        assert info.neighbors == {1, 2, 3}
        assert oracle.stats().n_tests == before


class TestFindVpa:
    def test_collider_triple(self):
        oracle, mb, caches = battery_inputs(COLLIDER, 0)
        info = find_neighbors(0, mb, oracle, caches)
        vpa = find_vpa(0, info, mb, oracle, caches)
        assert vpa == {(0, 2, 1)}

    def test_chain_has_no_coparents(self):
        oracle, mb, caches = battery_inputs(CHAIN, 0)
        info = find_neighbors(0, mb, oracle, caches)
        vpa = find_vpa(0, info, mb, oracle, caches)
        assert vpa == frozenset()

    def test_two_shared_children(self):
        oracle, mb, caches = battery_inputs(TWO_CHILD, 0)
        info = find_neighbors(0, mb, oracle, caches)
        assert info.coparents == {3}
        vpa = find_vpa(0, info, mb, oracle, caches)
        assert vpa == {(0, 1, 3), (0, 2, 3)}

    def test_non_child_neighbor_excluded(self):
        # 2 has parents {0, 1} only, so (0, 2, 3) must not appear
        g = Dag(4, [(3, 1), (0, 1), (0, 2), (1, 2)])
        oracle, mb, caches = battery_inputs(g, 0)
        info = find_neighbors(0, mb, oracle, caches)
        vpa = find_vpa(0, info, mb, oracle, caches)
        assert vpa == {(0, 1, 3)}

    def test_triples_reference_current_split(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_dag(rng, rng.randint(3, 7))
            oracle = dsep_oracle(g)
            for x in range(g.p):
                mb = frozenset(markov_boundary_graphical(g, x))
                caches = MarvelCaches()
                info = find_neighbors(x, mb, oracle, caches)
                vpa = find_vpa(x, info, mb, oracle, caches)
                for a, y, t in vpa:
                    assert a == x
                    assert y in info.neighbors
                    assert t in info.coparents


class TestConditions:
    def test_star_center_fails_condition1(self):
        g = star(4)
        oracle, mb, caches = battery_inputs(g, 0)
        info = find_neighbors(0, mb, oracle, caches)
        assert not check_condition1(0, info, mb, oracle, caches)

    def test_single_neighbor_vacuous(self):
        oracle, mb, caches = battery_inputs(CHAIN, 0)
        info = find_neighbors(0, mb, oracle, caches)
        assert check_condition1(0, info, mb, oracle, caches)

    def test_triangle_passes_condition1(self):
        g = Dag(3, [(0, 1), (1, 2), (0, 2)])
        oracle, mb, caches = battery_inputs(g, 1)
        info = find_neighbors(1, mb, oracle, caches)
        assert check_condition1(1, info, mb, oracle, caches)

    def test_empty_vpa_vacuous_condition2(self):
        oracle, mb, caches = battery_inputs(CHAIN, 0)
        info = find_neighbors(0, mb, oracle, caches)
        vpa = find_vpa(0, info, mb, oracle, caches)
        assert check_condition2(0, info, vpa, mb, oracle, caches)

    def test_shared_children_pass_condition2(self):
        oracle, mb, caches = battery_inputs(TWO_CHILD, 0)
        info = find_neighbors(0, mb, oracle, caches)
        vpa = find_vpa(0, info, mb, oracle, caches)
        assert check_condition1(0, info, mb, oracle, caches)
        assert check_condition2(0, info, vpa, mb, oracle, caches)

    def test_missing_coparent_edge_fails_condition2(self):
        # 3 -> 1 <- 0 with 0 -> 2 <- 1: conditioning on {0, 1} cuts 2 off
        # from 3, so removing 0 would hide that v-structure
        g = Dag(4, [(3, 1), (0, 1), (0, 2), (1, 2)])
        oracle, mb, caches = battery_inputs(g, 0)
        info = find_neighbors(0, mb, oracle, caches)
        vpa = find_vpa(0, info, mb, oracle, caches)
        assert check_condition1(0, info, mb, oracle, caches)
        assert not check_condition2(0, info, vpa, mb, oracle, caches)

    def test_condition1_cache_skips_second_sweep(self):
        g = Dag(3, [(0, 1), (1, 2), (0, 2)])
        oracle, mb, caches = battery_inputs(g, 1)
        info = find_neighbors(1, mb, oracle, caches)
        assert check_condition1(1, info, mb, oracle, caches)
        before = oracle.stats().n_tests
        assert check_condition1(1, info, mb, oracle, caches)
        assert oracle.stats().n_tests == before


class TestIsRemovableCi:
    def test_sink_is_removable(self):
        oracle, mb, caches = battery_inputs(CHAIN, 2)
        verdict, _, _ = is_removable_ci(2, mb, oracle, caches)
        assert verdict

    def test_star_center_is_not(self):
        g = star(4)
        oracle, mb, caches = battery_inputs(g, 0)
        verdict, _, vpa = is_removable_ci(0, mb, oracle, caches)
        assert not verdict
        assert vpa == frozenset()

    def test_matches_graphical_verdict(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_dag(rng, rng.randint(2, 8))
            oracle = dsep_oracle(g)
            for x in range(g.p):
                mb = frozenset(markov_boundary_graphical(g, x))
                verdict, _, _ = is_removable_ci(x, mb, oracle, MarvelCaches())
                assert verdict == is_removable_graphical(g, x)


class TestBudgetBound:
    def test_frozen_values(self):
        assert ci_budget_bound(25, 1) == 37
        assert ci_budget_bound(25, 5) == 6750
        assert ci_budget_bound(40, 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ci_budget_bound(-1, 2)
        with pytest.raises(ValueError):
            ci_budget_bound(10, -2)


def learn(g, **kwargs):
    oracle = dsep_oracle(g)
    return marvel_learn(oracle, total_conditioning(oracle), **kwargs)


class TestMarvelLearn:
    def test_chain_fully_undirected(self):
        res = learn(CHAIN)
        assert res.essential.directed == frozenset()
        assert res.essential.undirected == {(0, 1), (1, 2)}

    def test_collider_preserved(self):
        res = learn(COLLIDER)
        assert res.essential.directed == {(0, 2), (1, 2)}
        assert res.essential.undirected == frozenset()

    def test_star_order_and_output(self):
        # leaves lead with |Mb| = 1; once three are gone the center also has
        # |Mb| = 1 and wins the index tie against the last leaf
        g = star(5)
        res = learn(g)
        assert res.elimination_order == (1, 2, 3, 0, 4)
        assert res.essential == cpdag_bruteforce(g)

    def test_empty_graph(self):
        res = learn(Dag(3))
        assert res.essential == cpdag_bruteforce(Dag(3))
        assert sorted(res.elimination_order) == [0, 1, 2]

    def test_single_vertex(self):
        res = learn(Dag(1))
        assert res.elimination_order == (0,)

    def test_late_parent_edge_is_not_a_collider(self):
        # 0's parent 1 is eliminated first and 0's edge to its child 5 is
        # only oriented when 0 itself goes, which once produced a phantom
        # collider 1 -> 0 <- 5 and a wrongly directed essential graph
        g = Dag(8, [(0, 2), (0, 5), (0, 6), (0, 7), (1, 0), (1, 2), (1, 6),
                    (1, 7), (2, 6), (2, 7), (3, 0), (3, 2), (3, 5), (3, 6),
                    (3, 7), (4, 0), (4, 1), (4, 2), (4, 3), (4, 5), (4, 6),
                    (4, 7), (5, 2), (5, 6), (5, 7), (6, 7)])
        res = learn(g)
        assert res.essential == cpdag_bruteforce(g)

    def test_matches_bruteforce_on_random_dags(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_dag(rng, rng.randint(2, 8))
            assert learn(g).essential == cpdag_bruteforce(g)

    def test_mismatched_boundary_map_rejected(self):
        g = Dag(3, [(0, 1)])
        oracle = dsep_oracle(g)
        with pytest.raises(ValueError):
            marvel_learn(oracle, total_conditioning(dsep_oracle(Dag(4))))

    def test_used_boundary_map_rejected(self):
        g = Dag(3, [(0, 1)])
        oracle = dsep_oracle(g)
        m = total_conditioning(oracle)
        from marvel.mb import update_after_removal

        update_after_removal(m, 2, sorted(m.mb[2]), oracle)
        with pytest.raises(ValueError):
            marvel_learn(oracle, m)

    @pytest.mark.parametrize("learner", [marvel_learn, pc_baseline])
    @pytest.mark.parametrize(
        "edit, pair",
        [
            (lambda mb: mb[1].add(7), r"\(1, 7\)"),
            (lambda mb: mb[2].add(2), r"\(2, 2\)"),
            (lambda mb: mb[0].add(3), r"\(0, 3\) is not symmetric"),
        ],
        ids=["out_of_range", "self", "asymmetric"],
    )
    def test_bad_boundary_map_rejected_before_counting(self, learner, edit, pair):
        g = Dag(4, [(0, 1), (1, 2), (2, 3)])
        m = total_conditioning(dsep_oracle(g))
        edit(m.mb)
        oracle = dsep_oracle(g)
        with pytest.raises(ValueError, match=pair):
            learner(oracle, m)
        assert oracle.stats() == CiStats()

    def test_input_boundary_map_not_mutated(self):
        g = TWO_CHILD
        oracle = dsep_oracle(g)
        m = total_conditioning(oracle)
        snapshot = m.copy()
        marvel_learn(oracle, m)
        assert m == snapshot


@st.composite
def small_dags(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(p)))
    pos = {v: k for k, v in enumerate(perm)}
    edges = [
        (i, j) if pos[i] < pos[j] else (j, i)
        for (i, j), keep in zip(pairs, mask)
        if keep
    ]
    return Dag(p, edges)


@settings(max_examples=60, deadline=None)
@given(small_dags())
def test_learner_equals_bruteforce_property(g):
    assert learn(g).essential == cpdag_bruteforce(g)


class TestRunProperties:
    def replay(self, g, res):
        """Re-derive each round's scan from the graph alone and return the
        largest boundary size any scanned variable had."""
        delta = g.max_in_degree()
        remaining = list(range(g.p))
        largest = 0
        for x in res.elimination_order:
            sub, remap = g.induced_subgraph(remaining)
            keys = sorted(
                (len(markov_boundary_graphical(sub, remap[v])), v)
                for v in remaining
            )
            for size, v in keys:
                largest = max(largest, size)
                if is_removable_graphical(sub, remap[v]):
                    assert v == x
                    break
            else:
                pytest.fail("no removable vertex in replay")
            remaining.remove(x)
        return largest, delta

    def test_scan_replay_and_boundary_gate(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_dag(rng, rng.randint(2, 8))
            res = learn(g)
            largest, delta = self.replay(g, res)
            assert largest <= delta

    def test_post_boundary_tests_within_budget(self):
        rng = random.Random(8)
        for _ in range(25):
            g = random_dag(rng, rng.randint(2, 8))
            res = learn(g)
            assert res.stats.n_tests <= ci_budget_bound(g.p, g.max_in_degree())

    def test_metrics_window_excludes_boundary_discovery(self):
        g = TWO_CHILD
        oracle = dsep_oracle(g)
        m = total_conditioning(oracle)
        mb_tests = oracle.stats().n_tests
        res = marvel_learn(oracle, m)
        assert mb_tests == 6
        assert oracle.stats().n_tests == mb_tests + res.stats.n_tests

    def test_deterministic_across_runs(self):
        rng = random.Random(9)
        for _ in range(10):
            g = random_dag(rng, rng.randint(2, 7))
            a, b = learn(g), learn(g)
            assert a.essential == b.essential
            assert a.elimination_order == b.elimination_order
            assert a.warnings == b.warnings
            assert a.stats == b.stats

    def test_caches_change_counts_not_output(self):
        rng = random.Random(10)
        saved_somewhere = False
        for _ in range(15):
            g = random_dag(rng, rng.randint(3, 8))
            with_caches = learn(g)
            without = learn(g, use_caches=False)
            assert with_caches.essential == without.essential
            assert with_caches.elimination_order == without.elimination_order
            assert with_caches.stats.n_tests <= without.stats.n_tests
            saved_somewhere |= (
                with_caches.stats.n_tests < without.stats.n_tests
            )
        assert saved_somewhere

    def test_no_warnings_with_exact_oracle(self):
        rng = random.Random(11)
        for _ in range(15):
            g = random_dag(rng, rng.randint(2, 7))
            res = learn(g)
            assert res.warnings == []


def _essential_digest(ess):
    return hashlib.sha256(
        repr((ess.p, sorted(ess.directed), sorted(ess.undirected))).encode()
    ).hexdigest()[:16]


# Two cheap cells of the finite-sample acceptance workload (p=50, in-degree
# 4, n=2500), pinned so that a faster partial-correlation kernel or a
# rewrite of the learner's edge bookkeeping cannot move a Fisher-Z count,
# decision, orientation or warning unnoticed: (seed, boundary-phase tests,
# post-boundary tests, elimination order, essential-graph digest, warnings).
# Every value was computed with the learner that kept directed, undirected
# and forced edge sets, before the shared pair/head record replaced them.
FISHER_Z_CELLS = [
    (6, 1225, 5434, (
        0, 1, 33, 41, 21, 28, 37, 29, 48, 19, 40, 31, 23, 8, 35, 38, 43, 32,
        18, 24, 34, 45, 11, 42, 16, 12, 46, 3, 15, 47, 22, 2, 26, 5, 13, 36,
        10, 7, 20, 6, 27, 39, 4, 30, 14, 17, 9, 25, 44, 49,
    ), "507bd3b47fc90d25", [
        "no removable vertex in round 25; forcing removal of 12",
        "no removable vertex in round 26; forcing removal of 46",
        "no removable vertex in round 29; forcing removal of 47",
        "no removable vertex in round 31; forcing removal of 2",
        "no removable vertex in round 32; forcing removal of 26",
        "no removable vertex in round 33; forcing removal of 5",
        "contradictory orientations forced for edge 12-30; left undirected",
    ]),
    (9, 1225, 10406, (
        8, 1, 26, 30, 0, 6, 11, 3, 45, 28, 17, 38, 35, 15, 40, 25, 7, 21, 29,
        47, 48, 4, 18, 32, 9, 49, 24, 42, 22, 23, 14, 34, 37, 2, 46, 10, 43,
        19, 27, 41, 13, 16, 31, 44, 39, 5, 12, 20, 33, 36,
    ), "eb30e01e5620caa8", [
        "no removable vertex in round 33; forcing removal of 2",
        "no removable vertex in round 35; forcing removal of 10",
        "contradictory orientations forced for edge 36-44; left undirected",
    ]),
]


@pytest.mark.parametrize(
    "seed, mb_tests, post_tests, order, essential, warnings",
    FISHER_Z_CELLS,
    ids=["seed6", "seed9"],
)
def test_fisher_z_counts_and_order_pinned(
    seed, mb_tests, post_tests, order, essential, warnings
):
    g = fixed_indegree_dag(50, 4, seed)
    oracle = fisher_z_oracle(simulate_dataset(g, 2500, seed))
    got_mb, res = solve(oracle, "marvel")
    assert (got_mb, res.stats.n_tests) == (mb_tests, post_tests)
    assert res.elimination_order == order
    assert _essential_digest(res.essential) == essential
    assert res.warnings == warnings


# Small noisy runs whose collider tests demand both orientations of an edge:
# (p, m, seed, n, alpha) for erdos_renyi_dag and a Fisher-Z oracle, then the
# warnings, elimination order and essential graph. The first head a pair
# gets is kept and the contradicting demand becomes a warning. The second
# recipe also forces a removal in round 0 before its conflict. Every value
# was computed with the learner that kept directed, undirected and forced
# edge sets, before the shared pair/head record replaced them.
CONFLICT_CASES = [
    (
        (4, 0, 34, 20, 0.5),
        [
            "kept existing orientation 3->1 over 1->3",
            "kept existing orientation 3->2 over 2->3",
        ],
        (0, 1, 2, 3),
        [(0, 1), (0, 2), (3, 1), (3, 2)],
        [],
    ),
    (
        (6, 6, 139, 40, 0.2),
        [
            "no removable vertex in round 0; forcing removal of 0",
            "kept existing orientation 2->3 over 3->2",
        ],
        (0, 3, 2, 4, 1, 5),
        [(2, 3), (3, 0), (5, 0), (5, 3)],
        [(1, 4), (1, 5), (2, 4)],
    ),
]


@pytest.mark.parametrize(
    "recipe, warnings, order, directed, undirected",
    CONFLICT_CASES,
    ids=["empty-p4", "forced-p6"],
)
def test_conflicting_collider_orientations_keep_first(
    recipe, warnings, order, directed, undirected
):
    p, m, seed, n, alpha = recipe
    g = erdos_renyi_dag(p, m, seed)
    oracle = fisher_z_oracle(simulate_dataset(g, n, seed), alpha)
    _, res = solve(oracle, "marvel")
    assert res.warnings == warnings
    assert res.elimination_order == order
    assert sorted(res.essential.directed) == directed
    assert sorted(res.essential.undirected) == undirected
