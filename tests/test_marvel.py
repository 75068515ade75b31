"""Removability battery and learner tests.

Unit cases freeze hand-checked d-separation outcomes on small graphs. The
learner is checked against cpdag_bruteforce here on seeded DAGs of 2 to 8
vertices and hypothesis DAGs of up to six, and on 200 DAGs of 4 to 10 by
``test_acceptance.py::test_01``; the battery is checked against the
graphical removability test here and by ``test_acceptance.py::test_02``. A
round-by-round graphical replay checks the scan and budget properties.
Fisher-Z counts, orders, orientations and warnings, kept-orientation
conflicts included, are pinned here for a few cells and by
``golden_fisherz.json``.
"""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import random_dag, small_dags
from reference import (
    cpdag_bruteforce,
    induced_subgraph,
    is_removable_graphical,
    markov_boundary_graphical,
    neighbors,
)
from marvel import marvel as marvel_module
from marvel.bench import pc_baseline, simulate_dataset, solve
from marvel.ci import CiStats, dsep_oracle, fisher_z_oracle
from marvel.graph import Dag
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
from marvel.mb import total_conditioning, update_after_removal
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


def split(x, mb, oracle, caches):
    """x's neighbors and its co-parent -> sepset map, as the battery has them."""
    sepsets = find_neighbors(x, mb, oracle, caches)
    return mb.difference(sepsets), sepsets


class TestFindNeighbors:
    def test_collider_splits_boundary(self):
        oracle, mb, caches = battery_inputs(COLLIDER, 0)
        assert mb == {1, 2}
        assert find_neighbors(0, mb, oracle, caches) == {1: frozenset()}

    def test_star_center_keeps_everyone(self):
        g = star(5)
        oracle, mb, caches = battery_inputs(g, 0)
        assert mb == {1, 2, 3, 4}
        assert find_neighbors(0, mb, oracle, caches) == {}

    def test_sepsets_are_proper_subsets(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_dag(rng, rng.randint(3, 7))
            oracle = dsep_oracle(g)
            for x in range(g.p):
                mb = frozenset(markov_boundary_graphical(g, x))
                sepsets = find_neighbors(x, mb, oracle, MarvelCaches())
                assert set(sepsets) == mb - neighbors(g, x)
                for t, s in sepsets.items():
                    assert s < mb - {t}

    def test_reentry_filters_without_queries(self):
        oracle, mb, caches = battery_inputs(TWO_CHILD, 0)
        first = find_neighbors(0, mb, oracle, caches)
        assert set(first) == {3}
        before = oracle.stats().n_tests
        assert find_neighbors(0, mb - {1}, oracle, caches) == first
        assert find_neighbors(0, mb - {3}, oracle, caches) == {}
        assert oracle.stats().n_tests == before


class TestFindVpa:
    def test_collider_triple(self):
        oracle, mb, caches = battery_inputs(COLLIDER, 0)
        nbrs, sepsets = split(0, mb, oracle, caches)
        vpa = find_vpa(0, nbrs, sepsets, mb, oracle, caches)
        assert vpa == {(2, 1)}

    def test_chain_has_no_coparents(self):
        oracle, mb, caches = battery_inputs(CHAIN, 0)
        nbrs, sepsets = split(0, mb, oracle, caches)
        vpa = find_vpa(0, nbrs, sepsets, mb, oracle, caches)
        assert vpa == frozenset()

    def test_two_shared_children(self):
        oracle, mb, caches = battery_inputs(TWO_CHILD, 0)
        nbrs, sepsets = split(0, mb, oracle, caches)
        assert (nbrs, set(sepsets)) == ({1, 2}, {3})
        vpa = find_vpa(0, nbrs, sepsets, mb, oracle, caches)
        assert vpa == {(1, 3), (2, 3)}

    def test_non_child_neighbor_excluded(self):
        # 2 has parents {0, 1} only, so (2, 3) must not appear
        g = Dag(4, [(3, 1), (0, 1), (0, 2), (1, 2)])
        oracle, mb, caches = battery_inputs(g, 0)
        nbrs, sepsets = split(0, mb, oracle, caches)
        vpa = find_vpa(0, nbrs, sepsets, mb, oracle, caches)
        assert vpa == {(1, 3)}

    def test_triples_reference_current_split(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_dag(rng, rng.randint(3, 7))
            oracle = dsep_oracle(g)
            for x in range(g.p):
                mb = frozenset(markov_boundary_graphical(g, x))
                caches = MarvelCaches()
                nbrs, sepsets = split(x, mb, oracle, caches)
                vpa = find_vpa(x, nbrs, sepsets, mb, oracle, caches)
                for y, t in vpa:
                    assert y in mb and y not in sepsets
                    assert t in sepsets
                    # a collider's common child is adjacent to both parents
                    assert {x, t} <= neighbors(g, y)


class TestConditions:
    def test_star_center_fails_condition1(self):
        g = star(4)
        oracle, mb, caches = battery_inputs(g, 0)
        nbrs, _ = split(0, mb, oracle, caches)
        assert not check_condition1(0, nbrs, mb, oracle, caches)

    def test_single_neighbor_vacuous(self):
        oracle, mb, caches = battery_inputs(CHAIN, 0)
        nbrs, _ = split(0, mb, oracle, caches)
        assert check_condition1(0, nbrs, mb, oracle, caches)

    def test_triangle_passes_condition1(self):
        g = Dag(3, [(0, 1), (1, 2), (0, 2)])
        oracle, mb, caches = battery_inputs(g, 1)
        nbrs, _ = split(1, mb, oracle, caches)
        assert check_condition1(1, nbrs, mb, oracle, caches)

    def test_empty_vpa_vacuous_condition2(self):
        oracle, mb, caches = battery_inputs(CHAIN, 0)
        nbrs, sepsets = split(0, mb, oracle, caches)
        vpa = find_vpa(0, nbrs, sepsets, mb, oracle, caches)
        assert check_condition2(0, nbrs, vpa, mb, oracle, caches)

    def test_shared_children_pass_condition2(self):
        oracle, mb, caches = battery_inputs(TWO_CHILD, 0)
        nbrs, sepsets = split(0, mb, oracle, caches)
        vpa = find_vpa(0, nbrs, sepsets, mb, oracle, caches)
        assert check_condition1(0, nbrs, mb, oracle, caches)
        assert check_condition2(0, nbrs, vpa, mb, oracle, caches)

    def test_missing_coparent_edge_fails_condition2(self):
        # 3 -> 1 <- 0 with 0 -> 2 <- 1: conditioning on {0, 1} cuts 2 off
        # from 3, so removing 0 would hide that v-structure
        g = Dag(4, [(3, 1), (0, 1), (0, 2), (1, 2)])
        oracle, mb, caches = battery_inputs(g, 0)
        nbrs, sepsets = split(0, mb, oracle, caches)
        vpa = find_vpa(0, nbrs, sepsets, mb, oracle, caches)
        assert check_condition1(0, nbrs, mb, oracle, caches)
        assert not check_condition2(0, nbrs, vpa, mb, oracle, caches)

    def test_condition1_cache_skips_second_sweep(self):
        g = Dag(3, [(0, 1), (1, 2), (0, 2)])
        oracle, mb, caches = battery_inputs(g, 1)
        nbrs, _ = split(1, mb, oracle, caches)
        assert check_condition1(1, nbrs, mb, oracle, caches)
        before = oracle.stats().n_tests
        assert check_condition1(1, nbrs, mb, oracle, caches)
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

    def test_any_iterable_boundary(self):
        # the exported entry point freezes mb_x itself; a list or a set
        # gives the same answer and a frozen neighbor set
        oracle, mb, _ = battery_inputs(TWO_CHILD, 0)
        want = is_removable_ci(0, mb, oracle, MarvelCaches())
        for given in (sorted(mb), set(mb)):
            got = is_removable_ci(0, given, oracle, MarvelCaches())
            assert got == want
            assert type(got[1]) is frozenset

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


def learn(g):
    oracle = dsep_oracle(g)
    return marvel_learn(oracle, total_conditioning(oracle))


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


@settings(max_examples=60, deadline=None)
@given(small_dags(1, 6))
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
            sub, remap = induced_subgraph(g, remaining)
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

    def test_no_warnings_with_exact_oracle(self):
        rng = random.Random(11)
        for _ in range(15):
            g = random_dag(rng, rng.randint(2, 7))
            res = learn(g)
            assert res.warnings == []


def scan_rounds(monkeypatch, oracle):
    """Solve with marvel, recording each round as (boundary map before the
    removal, vertices the scan tried, their verdicts, removed vertex)."""
    rounds, tried, verdicts = [], [], []

    def battery(x, mb_x, oracle, caches):
        out = is_removable_ci(x, mb_x, oracle, caches)
        tried.append(x)
        verdicts.append(out[0])
        return out

    def update(m, x, n_x, oracle):
        rounds.append((m.copy(), tried[:], verdicts[:], x))
        tried.clear()
        verdicts.clear()
        return update_after_removal(m, x, n_x, oracle)

    monkeypatch.setattr(marvel_module, "is_removable_ci", battery)
    monkeypatch.setattr(marvel_module, "update_after_removal", update)
    _, res = solve(oracle, "marvel")
    return rounds, res


@pytest.mark.parametrize("recipe", ["exact", "fisher_z-forced"])
def test_scan_tries_a_prefix_of_the_boundary_size_order(monkeypatch, recipe):
    if recipe == "exact":
        oracle = dsep_oracle(fixed_indegree_dag(30, 4, 3))
    else:
        g = erdos_renyi_dag(6, 6, 139)
        oracle = fisher_z_oracle(simulate_dataset(g, 40, 139), 0.2)
    rounds, res = scan_rounds(monkeypatch, oracle)
    assert tuple(r[3] for r in rounds) == res.elimination_order
    forced = 0
    for m, tried, verdicts, removed in rounds:
        alive = [v for v in range(m.p) if v not in m.removed]
        order = sorted(alive, key=lambda v: (len(m.mb[v]), v))
        assert tried == order[: len(tried)]
        if verdicts[-1]:
            assert removed == tried[-1] and not any(verdicts[:-1])
        else:
            assert tried == order and removed == order[0]
            forced += 1
    assert forced == sum("no removable vertex" in w for w in res.warnings)
    if recipe == "exact":
        assert forced == 0 and any(len(r[1]) > 1 for r in rounds)
    else:
        assert forced >= 1


@pytest.mark.parametrize(
    "recipe", ["exact-fixed_indegree", "exact-erdos_renyi", "fisher_z-forced"]
)
def test_boundary_never_grows_between_batteries(monkeypatch, recipe):
    # find_neighbors reuses x's first split on every later battery, which
    # is exact only because x's boundary never gains a member in between.
    if recipe == "exact-fixed_indegree":
        oracle = dsep_oracle(fixed_indegree_dag(30, 4, 3))
    elif recipe == "exact-erdos_renyi":
        oracle = dsep_oracle(erdos_renyi_dag(15, 30, 2))
    else:
        g = erdos_renyi_dag(12, 24, 1)
        oracle = fisher_z_oracle(simulate_dataset(g, 100, 1), 0.2)
    seen: dict[int, list[frozenset[int]]] = {}

    def battery(x, mb_x, oracle, caches):
        seen.setdefault(x, []).append(mb_x)
        return is_removable_ci(x, mb_x, oracle, caches)

    monkeypatch.setattr(marvel_module, "is_removable_ci", battery)
    _, res = solve(oracle, "marvel")
    for boundaries in seen.values():
        for earlier, later in combinations(boundaries, 2):
            assert later <= earlier
    # some vertex met a smaller boundary in a later battery
    assert any(b[-1] < b[0] for b in seen.values())
    forced = sum("no removable vertex" in w for w in res.warnings)
    assert (forced > 0) == recipe.startswith("fisher_z")


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
