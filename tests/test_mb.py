"""Markov boundary map tests.

Total conditioning is validated against the structural boundary definition;
the removal update is validated against recomputing total conditioning on
the induced subgraph, here after removing a random removable vertex and in
``test_acceptance.py::test_07`` after removing the first one.
"""

import random

import pytest

from conftest import random_dag
from reference import (
    induced_subgraph,
    is_removable_graphical,
    markov_boundary_graphical,
    neighbors,
)
from marvel.ci import dsep_oracle
from marvel.graph import Dag
from marvel.mb import MbMap, total_conditioning, update_after_removal
from marvel.synth import fixed_indegree_dag


def graphical_mb_map(g):
    m = MbMap(g.p)
    for x in range(g.p):
        m.mb[x] = set(markov_boundary_graphical(g, x))
    return m


class TestTotalConditioning:
    def test_collider(self):
        g = Dag(3, [(0, 2), (1, 2)])
        o = dsep_oracle(g)
        m = total_conditioning(o)
        assert m.mb == [{1, 2}, {0, 2}, {0, 1}]
        assert o.stats().n_tests == 3

    def test_empty_graph_test_count(self):
        o = dsep_oracle(Dag(4))
        m = total_conditioning(o)
        assert m.mb == [set(), set(), set(), set()]
        assert o.stats().n_tests == 6  # C(4, 2), no shortcuts

    def test_star(self):
        g = Dag(5, [(0, leaf) for leaf in range(1, 5)])
        m = total_conditioning(dsep_oracle(g))
        assert m.mb[0] == {1, 2, 3, 4}
        for leaf in range(1, 5):
            assert m.mb[leaf] == {0}

    def test_matches_graphical_random(self):
        rng = random.Random(71)
        for _ in range(200):
            g = random_dag(rng, rng.randint(1, 10))
            m = total_conditioning(dsep_oracle(g))
            assert m == graphical_mb_map(g)

    def test_matches_graphical_past_64_vertices(self):
        g = fixed_indegree_dag(150, 4, 0)
        assert total_conditioning(dsep_oracle(g)) == graphical_mb_map(g)

    def test_query_count_exact(self):
        rng = random.Random(73)
        for _ in range(20):
            g = random_dag(rng, rng.randint(2, 9))
            o = dsep_oracle(g)
            total_conditioning(o)
            assert o.stats().n_tests == g.p * (g.p - 1) // 2

    def test_conditioning_size_is_p_minus_2(self):
        g = random_dag(random.Random(79), 7)
        o = dsep_oracle(g)
        total_conditioning(o)
        st = o.stats()
        assert st.max_cond_size == 5
        assert st.asc == pytest.approx(5.0)


class TestUpdateAfterRemoval:
    def test_collider_pair_splits(self):
        # 0 -> 2 <- 1: removing the collider separates its parents
        g = Dag(3, [(0, 2), (1, 2)])
        o = dsep_oracle(g)
        m = total_conditioning(o)
        update_after_removal(m, 2, (0, 1), o)
        assert m.removed == {2}
        assert m.mb == [set(), set(), set()]

    def test_chain_end_removal(self):
        # 0 -> 1 -> 2: removing the sink leaves the edge pair intact
        g = Dag(3, [(0, 1), (1, 2)])
        o = dsep_oracle(g)
        m = total_conditioning(o)
        update_after_removal(m, 2, (1,), o)
        assert m.mb == [{1}, {0}, set()]

    def test_triangle_removal_keeps_edges(self):
        g = Dag(3, [(0, 1), (0, 2), (1, 2)])
        o = dsep_oracle(g)
        m = total_conditioning(o)
        update_after_removal(m, 2, (0, 1), o)
        assert m.mb == [{1}, {0}, set()]

    def test_budget(self):
        rng = random.Random(83)
        for _ in range(50):
            g = random_dag(rng, rng.randint(3, 9))
            o = dsep_oracle(g)
            m = total_conditioning(o)
            x = next(v for v in range(g.p) if is_removable_graphical(g, v))
            n_x = sorted(neighbors(g, x))
            before = o.stats()
            update_after_removal(m, x, n_x, o)
            k = len(n_x)
            assert (o.stats() - before).n_tests <= k * (k - 1) // 2

    def test_matches_fresh_total_conditioning(self):
        # removing a removable vertex then updating equals recomputing from
        # scratch on the induced subgraph
        rng = random.Random(89)
        for _ in range(60):
            g = random_dag(rng, rng.randint(2, 9))
            o = dsep_oracle(g)
            m = total_conditioning(o)
            removable = [v for v in range(g.p) if is_removable_graphical(g, v)]
            x = rng.choice(removable)
            update_after_removal(m, x, sorted(neighbors(g, x)), o)

            keep = [v for v in range(g.p) if v != x]
            sub, remap = induced_subgraph(g, keep)
            fresh = total_conditioning(dsep_oracle(sub))
            for v in keep:
                assert m.mb[v] == {
                    old for old, new in remap.items() if new in fresh.mb[remap[v]]
                }

    def test_symmetry_preserved(self):
        rng = random.Random(97)
        for _ in range(40):
            g = random_dag(rng, rng.randint(3, 9))
            o = dsep_oracle(g)
            m = total_conditioning(o)
            x = next(v for v in range(g.p) if is_removable_graphical(g, v))
            update_after_removal(m, x, sorted(neighbors(g, x)), o)
            for a in range(g.p):
                for b in m.mb[a]:
                    assert a in m.mb[b]

    def test_double_removal_rejected(self):
        g = Dag(3, [(0, 1), (1, 2)])
        o = dsep_oracle(g)
        m = total_conditioning(o)
        update_after_removal(m, 2, (1,), o)
        with pytest.raises(ValueError):
            update_after_removal(m, 2, (1,), o)

    def test_removed_neighbor_rejected(self):
        g = Dag(3, [(0, 1), (1, 2)])
        o = dsep_oracle(g)
        m = total_conditioning(o)
        update_after_removal(m, 2, (1,), o)
        with pytest.raises(ValueError):
            update_after_removal(m, 1, (0, 2), o)

    @pytest.mark.parametrize("n_x", [[1, -1], [1, 5], [1, 2.5]])
    def test_out_of_range_neighbor_rejected_before_any_change(self, n_x):
        o = dsep_oracle(Dag(3, [(0, 1), (1, 2)]))
        m = total_conditioning(o)
        before, start = m.copy(), o.stats()
        with pytest.raises(ValueError, match="neighbor .* out of range"):
            update_after_removal(m, 0, n_x, o)
        assert m == before
        assert o.stats() == start

    @pytest.mark.parametrize(
        "x, n_x",
        [(2.0, [1]), (2 + 0j, [1]), (1, [0, 2.0]), (1, [2 + 0j])],
    )
    def test_non_integer_vertex_rejected_before_any_change(self, x, n_x):
        # Each value equals a vertex, so only the integer rule rejects it.
        o = dsep_oracle(Dag(3, [(0, 1), (1, 2)]))
        m = total_conditioning(o)
        before, start = m.copy(), o.stats()
        with pytest.raises(TypeError):
            update_after_removal(m, x, n_x, o)
        assert m == before
        assert o.stats() == start

    def test_copy_independent(self):
        m = MbMap(3)
        m.mb[0] = {1}
        c = m.copy()
        c.mb[0].add(2)
        c.removed.add(1)
        assert m.mb[0] == {1} and m.removed == set()


class TestMbMap:
    def test_eq(self):
        a, b = MbMap(2), MbMap(2)
        assert a == b
        b.mb[0].add(1)
        assert a != b
