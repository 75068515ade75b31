"""Graph-layer tests: value types, d-separation, removability, Meek closure.

The linear-time d-separation query is validated against the path-enumeration
brute force, and the Meek completion against the permutation-enumeration
essential graph. Expected values in the fixed examples were derived by hand
from the definitions and frozen here.
"""

import copy
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dag, random_query, small_dags
from reference import (
    cpdag_bruteforce,
    d_separated_bruteforce,
    descendants,
    induced_subgraph,
    is_removable_graphical,
    markov_boundary_graphical,
    moralized_graph,
    neighbors,
)
from marvel.graph import (
    REST,
    Dag,
    Pdag,
    apply_meek_rules,
    check_query,
    d_separated,
    format_dag,
    format_pdag,
    markov_equivalent,
    parse_dag,
    parse_pdag,
    pdag_from_skeleton_and_vstructs,
    skeleton,
    v_structures,
)
from marvel.synth import fixed_indegree_dag

# Diamond-with-chord used throughout: X=0, Y=1, Z=2, T=3.
DIAMOND = Dag(4, [(0, 1), (0, 2), (1, 2), (3, 1), (3, 2)])


class TestDagConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            Dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_two_cycle(self):
        with pytest.raises(ValueError):
            Dag(2, [(0, 1), (1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Dag(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Dag(2, [(0, 2)])

    def test_parent_child_mirror(self):
        g = DIAMOND
        for i in range(g.p):
            for j in g.children[i]:
                assert i in g.parents[j]
            for j in g.parents[i]:
                assert i in g.children[j]

    def test_empty_graph(self):
        g = Dag(5)
        assert g.n_edges == 0
        assert neighbors(g, 3) == frozenset()

    def test_value_equality(self):
        a = Dag(3, [(0, 1), (1, 2)])
        b = Dag(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)

    def test_induced_subgraph(self):
        sub, remap = induced_subgraph(DIAMOND, [0, 1, 2])
        assert remap == {0: 0, 1: 1, 2: 2}
        assert set(sub.edges()) == {(0, 1), (0, 2), (1, 2)}
        sub2, remap2 = induced_subgraph(DIAMOND, [1, 2, 3])
        assert set(sub2.edges()) == {
            (remap2[1], remap2[2]),
            (remap2[3], remap2[1]),
            (remap2[3], remap2[2]),
        }


class TestDSeparation:
    def test_unconditional_separation(self):
        assert d_separated(DIAMOND, 3, 0, ())

    def test_collider_conditioning_connects(self):
        assert not d_separated(DIAMOND, 3, 0, (1,))

    def test_edge_never_separated(self):
        g = Dag(2, [(0, 1)])
        assert not d_separated(g, 0, 1, ())

    def test_chain_blocked_by_middle(self):
        g = Dag(3, [(0, 1), (1, 2)])
        assert not d_separated(g, 0, 2, ())
        assert d_separated(g, 0, 2, (1,))

    def test_collider_descendant_opens_path(self):
        # 0 -> 2 <- 1, 2 -> 3: conditioning on the collider's child connects
        g = Dag(4, [(0, 2), (1, 2), (2, 3)])
        assert d_separated(g, 0, 1, ())
        assert not d_separated(g, 0, 1, (3,))

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            d_separated(DIAMOND, 1, 1, ())
        with pytest.raises(ValueError):
            d_separated(DIAMOND, 0, 1, (0,))
        with pytest.raises(ValueError):
            d_separated(DIAMOND, 0, 4, ())
        with pytest.raises(ValueError, match="out of range"):
            d_separated(DIAMOND, 0, 1, [2.5])

    @pytest.mark.parametrize("p", [5, 70])
    def test_numpy_vertices_on_both_encodings(self, p):
        # REST is answered from x's moral row, every plain set is encoded
        # from its own elements
        g = random_dag(random.Random(p), p, p)
        i = np.int64
        for s in ([2], range(2, p // 2 + 3), range(2, p)):
            assert d_separated(g, i(0), i(1), [i(v) for v in s]) == d_separated(
                g, 0, 1, s
            )
        assert d_separated(g, i(0), i(1), REST) == d_separated(g, 0, 1, range(2, p))

    def test_symmetry_random(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_dag(rng, rng.randint(2, 9))
            x, y, s = random_query(rng, g.p)
            assert d_separated(g, x, y, s) == d_separated(g, y, x, s)

    @settings(max_examples=300, deadline=None)
    @given(small_dags(2, 8), st.data())
    def test_matches_bruteforce(self, g, data):
        # Several queries on one graph, each asked in both argument orders
        # and then again, so later asks meet a memo the earlier ones warmed.
        queries = []
        for _ in range(data.draw(st.integers(1, 4))):
            x = data.draw(st.integers(0, g.p - 1))
            y = data.draw(st.integers(0, g.p - 1).filter(lambda v: v != x))
            rest = [v for v in range(g.p) if v not in (x, y)]
            s = data.draw(st.sets(st.sampled_from(rest)) if rest else st.just(set()))
            queries.append((x, y, s, d_separated_bruteforce(g, x, y, s)))
        for _ in range(2):
            for x, y, s, expected in queries:
                assert d_separated(g, x, y, s) == expected
                assert d_separated(g, y, x, s) == expected

    def test_matches_bruteforce_seeded(self):
        rng = random.Random(42)
        for _ in range(300):
            g = random_dag(rng, rng.randint(2, 8))
            x, y, s = random_query(rng, g.p)
            assert d_separated(g, x, y, s) == d_separated_bruteforce(g, x, y, s)

    @pytest.mark.parametrize("p", [70, 150])
    def test_matches_moral_reference_past_64_vertices(self, p):
        # Sets both smaller and larger than p/2; the reference is built from
        # public functions: ancestral set, induced subgraph, moral graph,
        # search.
        rng = random.Random(p)
        for m in (2 * p, 4 * p):
            g = random_dag(rng, p, m)
            desc = [descendants(g, v) for v in range(p)]
            for _ in range(25):
                x, y = rng.sample(range(p), 2)
                rest = [v for v in range(p) if v not in (x, y)]
                for k in (rng.randint(0, p // 2 - 2), rng.randint(p // 2 + 1, p - 2)):
                    s = frozenset(rng.sample(rest, k))
                    expected = moral_reference_dsep(g, desc, x, y, s)
                    assert d_separated(g, x, y, s) == expected


def moral_reference_dsep(g, desc, x, y, s):
    seed = {x, y} | s
    anc = [v for v in range(g.p) if desc[v] & seed]
    sub, remap = induced_subgraph(g, anc)
    adj = {v: set() for v in range(sub.p)}
    for a, b in moralized_graph(sub).undirected:
        adj[a].add(b)
        adj[b].add(a)
    blocked = {remap[v] for v in s}
    seen = {remap[x]}
    stack = [remap[x]]
    while stack:
        for w in adj[stack.pop()] - seen - blocked:
            seen.add(w)
            stack.append(w)
    return remap[y] not in seen


class _NoSearch(tuple):
    """Ancestor closures, which d_separated reads only once its certificates
    have all failed, as the first step of its ancestral search."""

    def __getitem__(self, v):
        raise LookupError("search started")


def certified(g, x, y, s):
    """d_separated's answer if a certificate gave it, None if it searched.

    The probe gets an empty memo of its own: a copy shares g's, and a warm
    one would answer a searched query without touching ``_amask``."""
    probe = copy.copy(g)
    probe._amask = _NoSearch(g._amask)
    probe._memo = {}
    try:
        return d_separated(probe, x, y, s)
    except LookupError:
        return None


def short_open_path(g, x, y, s):
    """Reference: an open path of at most two edges joins x and y given s."""
    if y in neighbors(g, x):
        return True
    for z in neighbors(g, x) & neighbors(g, y):
        if x in g.parents[z] and y in g.parents[z]:
            if descendants(g, z) & s:
                return True
        elif z not in s:
            return True
    return False


def expected_certificate(g, x, y, s):
    """False (d-connected) for a short open path, else None: the kernel
    must search."""
    return False if short_open_path(g, x, y, s) else None


# name: (edges, x, y, s, d-separated, the certificate's answer or None when
# the kernel must search), on 10 vertices; vertices that no edge names are
# isolated.
CERTIFICATE_CASES = {
    "edge": ([(0, 1)], 0, 1, {2}, False, False),
    "fork_open": ([(2, 0), (2, 1)], 0, 1, set(), False, False),
    "fork_parent_in_s": ([(2, 0), (2, 1)], 0, 1, {2}, True, None),
    "chain_open": ([(0, 2), (2, 1)], 0, 1, set(), False, False),
    "reverse_chain_open": ([(1, 2), (2, 0)], 0, 1, {3}, False, False),
    "chain_middle_in_s": ([(0, 2), (2, 1)], 0, 1, {2}, True, None),
    "collider_in_s": ([(0, 2), (1, 2)], 0, 1, {2}, False, False),
    "collider_no_descendant_in_s": (
        [(0, 2), (1, 2), (2, 3)], 0, 1, {4}, True, None,
    ),
    "collider_grandchild_in_s": (
        [(0, 2), (1, 2), (2, 3), (3, 4)], 0, 1, {4}, False, False,
    ),
    "only_open_path_has_three_edges": (
        [(0, 2), (3, 2), (3, 1)], 0, 1, {2}, False, None,
    ),
    "only_path_is_a_long_chain": ([(0, 2), (2, 3), (3, 1)], 0, 1, set(), False, None),
    "only_y_row_covered": ([(2, 0), (3, 0), (4, 1), (4, 5)], 0, 1, {4}, True, None),
    "coparent_outside_s": ([(0, 2), (3, 2), (5, 1)], 0, 1, {2}, True, None),
    "coparent_through_child_outside_ancestors": (
        [(0, 2), (1, 2), (2, 3), (4, 0), (5, 1)], 0, 1, {4, 5}, True, None,
    ),
}


class TestShortPathCertificates:
    """Short open paths answer "d-connected" and every other plain-set
    query searches."""

    @pytest.mark.parametrize(
        "edges, x, y, s, separated, cert",
        list(CERTIFICATE_CASES.values()),
        ids=list(CERTIFICATE_CASES),
    )
    def test_hand_built(self, edges, x, y, s, separated, cert):
        g = Dag(10, edges)
        assert d_separated_bruteforce(g, x, y, s) is separated
        assert d_separated(g, x, y, s) is separated
        assert d_separated(g, y, x, s) is separated
        assert expected_certificate(g, x, y, s) is cert
        assert certified(g, x, y, s) is cert
        assert certified(g, y, x, s) is cert

    @pytest.mark.parametrize("m", [6, 9, 12, 15, 18])
    def test_every_query_of_small_dags(self, m):
        # p = 7 puts every subset of the other five vertices, up to total
        # conditioning, through the certificates and the search. The graph
        # memoizes every search, so on the sparser graphs, where most
        # queries search, two queries that shared a memo entry would not
        # both answer right.
        g = random_dag(random.Random(m), 7, m)
        for x, y in combinations(range(7), 2):
            rest = [v for v in range(7) if v not in (x, y)]
            subsets = (frozenset(c) for r in range(6) for c in combinations(rest, r))
            for s in subsets:
                expected = d_separated_bruteforce(g, x, y, s)
                assert d_separated(g, x, y, s) == expected
                assert d_separated(g, y, x, s) == expected
                cert = expected_certificate(g, x, y, s)
                assert certified(g, x, y, s) is cert
                assert certified(g, y, x, s) is cert
                assert cert is None or cert == expected

    def test_total_conditioning_as_a_plain_set(self):
        # Given every other vertex, x and y are d-separated exactly when y
        # is off x's Markov blanket, whichever step answers.
        g = fixed_indegree_dag(150, 4, 0)
        everything = frozenset(range(g.p))
        for x, y in combinations(range(g.p), 2):
            answer = d_separated(g, x, y, everything - {x, y})
            assert answer is (y not in markov_boundary_graphical(g, x))


class TestRest:
    def test_never_exported(self):
        import marvel

        assert "REST" not in marvel.__all__

    def test_is_not_a_set(self):
        # A kernel that does not know REST raises rather than read it as a
        # set of its own.
        with pytest.raises(TypeError):
            frozenset(REST)
        with pytest.raises(TypeError):
            len(REST)

    @pytest.mark.parametrize("p, x, y", [(6, 4, 1), (2, 0, 1), (150, 149, 0)])
    def test_check_query_passes_it_through(self, p, x, y):
        assert check_query(p, x, y, REST) is REST

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (4, 6, "vertex 6 out of range for p=6"),
            (-1, 2, "vertex -1 out of range for p=6"),
            (2.5, 1, "vertex 2.5 out of range for p=6"),
            (4, 4, "query endpoints must differ"),
        ],
        ids=["out_of_range", "negative", "float", "equal"],
    )
    def test_check_query_checks_the_endpoints(self, x, y, message):
        with pytest.raises(ValueError) as raised:
            check_query(6, x, y, REST)
        assert str(raised.value) == message

    def test_d_separated_matches_the_frozenset(self):
        rng = random.Random(83)
        for _ in range(100):
            g = random_dag(rng, rng.randint(2, 9))
            x, y = rng.sample(range(g.p), 2)
            s = frozenset(range(g.p)) - {x, y}
            want = d_separated_bruteforce(g, x, y, s)
            assert d_separated(g, x, y, REST) == want
            assert d_separated(g, x, y, s) == want

    @pytest.mark.parametrize("edges", [(), [(1, 0)]], ids=["empty", "edge"])
    def test_two_vertices_given_nothing(self, edges):
        g = Dag(2, edges)
        assert d_separated(g, 0, 1, REST) is d_separated(g, 0, 1, ()) is (not edges)


class TestDescendants:
    def test_diamond(self):
        assert descendants(DIAMOND, 3) == frozenset({1, 2, 3})

    def test_sink_is_own_descendant_set(self):
        assert descendants(DIAMOND, 2) == frozenset({2})

    def test_matches_edge_closure_random(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_dag(rng, rng.randint(1, 9))
            for x in range(g.p):
                reach = {x}
                changed = True
                while changed:
                    changed = False
                    for v in list(reach):
                        for c in g.children[v]:
                            if c not in reach:
                                reach.add(c)
                                changed = True
                assert descendants(g, x) == frozenset(reach)

    def test_dag_closures_match_descendants(self):
        rng = random.Random(5)
        for p in (1, 9, 70, 150):
            g = random_dag(rng, p, 2 * p if p > 9 else None)
            desc = [descendants(g, v) for v in range(p)]
            for v in range(p):
                assert g._dmask[v] == sum(1 << w for w in desc[v] - {v})
                anc = [u for u in range(p) if v in desc[u]]
                assert g._amask[v] == sum(1 << u for u in anc)


class TestRemovabilityGraphical:
    def test_triangle_example(self):
        # W=0 -> X=1 -> Z=2 with W -> Z: X is removable
        g = Dag(3, [(0, 1), (1, 2), (0, 2)])
        assert is_removable_graphical(g, 1)

    def test_star_center_not_removable(self):
        for p in (3, 5, 8):
            g = Dag(p, [(0, leaf) for leaf in range(1, p)])
            assert not is_removable_graphical(g, 0)

    def test_star_two_vertices_removable(self):
        g = Dag(2, [(0, 1)])
        assert is_removable_graphical(g, 0)

    def test_sinks_always_removable(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_dag(rng, rng.randint(1, 9))
            for x in range(g.p):
                if not g.children[x]:
                    assert is_removable_graphical(g, x)

    def test_every_dag_has_removable_vertex(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_dag(rng, rng.randint(1, 10))
            assert any(is_removable_graphical(g, x) for x in range(g.p))

    def test_condition2_violation(self):
        # X=0 -> Y=1 -> Z=2, X -> Z, W=3 -> Y: condition 1 holds for X but
        # Pa_Y = {X, W} is not contained in Pa_Z = {X, Y}
        g = Dag(4, [(0, 1), (1, 2), (0, 2), (3, 1)])
        assert not is_removable_graphical(g, 0)

    def test_removal_preserves_dsep_among_rest(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_dag(rng, rng.randint(3, 8))
            removable = [x for x in range(g.p) if is_removable_graphical(g, x)]
            x = removable[0]
            keep = [v for v in range(g.p) if v != x]
            sub, remap = induced_subgraph(g, keep)
            for _ in range(20):
                a, b, s = random_query(rng, g.p)
                if x in (a, b) or x in s:
                    continue
                assert d_separated(g, a, b, s) == d_separated(
                    sub, remap[a], remap[b], {remap[v] for v in s}
                )


class TestMarkovBoundaryGraphical:
    def test_star_center(self):
        g = Dag(5, [(0, leaf) for leaf in range(1, 5)])
        assert markov_boundary_graphical(g, 0) == frozenset({1, 2, 3, 4})

    def test_coparents_included(self):
        g = Dag(3, [(0, 2), (1, 2)])
        assert markov_boundary_graphical(g, 0) == frozenset({1, 2})

    def test_diamond(self):
        assert markov_boundary_graphical(DIAMOND, 0) == frozenset({1, 2, 3})

    def test_membership_symmetric(self):
        rng = random.Random(19)
        for _ in range(100):
            g = random_dag(rng, rng.randint(2, 9))
            for x in range(g.p):
                for y in markov_boundary_graphical(g, x):
                    assert x in markov_boundary_graphical(g, y)

    def test_matches_total_conditioning_dsep(self):
        # y in Mb_x iff x and y are dependent given everything else
        rng = random.Random(23)
        for _ in range(60):
            g = random_dag(rng, rng.randint(2, 8))
            for x, y in combinations(range(g.p), 2):
                rest = frozenset(range(g.p)) - {x, y}
                dep = not d_separated(g, x, y, rest)
                assert dep == (y in markov_boundary_graphical(g, x))


class TestMoralSkeletonVStructs:
    def test_moral_collider_triangle(self):
        g = Dag(3, [(0, 2), (1, 2)])
        assert moralized_graph(g).undirected == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_moral_equals_mb_adjacency(self):
        rng = random.Random(29)
        for _ in range(50):
            g = random_dag(rng, rng.randint(1, 9))
            expected = set()
            for x in range(g.p):
                for y in markov_boundary_graphical(g, x):
                    expected.add((min(x, y), max(x, y)))
            assert moralized_graph(g).undirected == frozenset(expected)

    def test_skeleton(self):
        assert skeleton(DIAMOND).undirected == frozenset(
            {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}
        )
        assert skeleton(DIAMOND).directed == frozenset()

    def test_v_structures_diamond(self):
        assert v_structures(DIAMOND) == frozenset({(0, 1, 3), (0, 2, 3)})

    def test_v_structures_chain_empty(self):
        assert v_structures(Dag(3, [(0, 1), (1, 2)])) == frozenset()

    def test_v_structures_adjacent_parents_excluded(self):
        g = Dag(3, [(0, 2), (1, 2), (0, 1)])
        assert v_structures(g) == frozenset()

    def test_v_structures_pdag(self):
        pd = Pdag(4, directed=[(0, 2), (1, 2)], undirected=[(2, 3)])
        assert v_structures(pd) == frozenset({(0, 2, 1)})

    def test_v_structures_random_pdags_match_triple_definition(self):
        rng = random.Random(23)
        for _ in range(200):
            p = rng.randint(1, 9)
            directed, undirected = [], []
            for i, j in combinations(range(p), 2):
                kind = rng.randrange(4)
                if kind == 1:
                    undirected.append((i, j))
                elif kind == 2:
                    directed.append((i, j))
                elif kind == 3:
                    directed.append((j, i))
            pd = Pdag(p, directed, undirected)
            adjacent = {frozenset(e) for e in directed + undirected}
            expected = frozenset(
                (a, c, b)
                for a, b in combinations(range(p), 2)
                for c in range(p)
                if (a, c) in pd.directed
                and (b, c) in pd.directed
                and frozenset((a, b)) not in adjacent
            )
            assert v_structures(pd) == expected

    def test_v_structures_dag_matches_its_directed_pdag(self):
        rng = random.Random(47)
        for _ in range(150):
            g = random_dag(rng, rng.randint(1, 9))
            assert v_structures(g) == v_structures(Pdag(g.p, directed=g.edges()))


class TestPdag:
    def test_rejects_conflicting_edge(self):
        with pytest.raises(ValueError):
            Pdag(2, directed=[(0, 1)], undirected=[(1, 0)])
        with pytest.raises(ValueError):
            Pdag(2, directed=[(0, 1), (1, 0)])

    def test_canonical_undirected(self):
        pd = Pdag(3, undirected=[(2, 0)])
        assert pd.undirected == frozenset({(0, 2)})

    def test_adjacency(self):
        pd = Pdag(3, directed=[(1, 0)], undirected=[(2, 1)])
        assert pd.skeleton_pairs() == frozenset({(0, 1), (1, 2)})


class TestMeekRules:
    def test_r1(self):
        # 0 -> 1, 1 - 2, 0 and 2 nonadjacent: forces 1 -> 2
        pd = Pdag(3, directed=[(0, 1)], undirected=[(1, 2)])
        out = apply_meek_rules(pd)
        assert out.directed == frozenset({(0, 1), (1, 2)})

    def test_r2(self):
        # 0 -> 1 -> 2 with 0 - 2: forces 0 -> 2
        pd = Pdag(3, directed=[(0, 1), (1, 2)], undirected=[(0, 2)])
        out = apply_meek_rules(pd)
        assert (0, 2) in out.directed

    def test_r3(self):
        # 0 - 1, 0 - 2, 0 - 3, 2 -> 1, 3 -> 1, 2 and 3 nonadjacent: 0 -> 1
        pd = Pdag(
            4,
            directed=[(2, 1), (3, 1)],
            undirected=[(0, 1), (0, 2), (0, 3)],
        )
        out = apply_meek_rules(pd)
        assert (0, 1) in out.directed

    def test_r4(self):
        # 0 - 1, 0 - 3, 3 -> 2, 2 -> 1, 1 and 3 nonadjacent: forces 0 -> 1
        pd = Pdag(
            4,
            directed=[(3, 2), (2, 1)],
            undirected=[(0, 1), (0, 3), (0, 2)],
        )
        out = apply_meek_rules(pd)
        assert (0, 1) in out.directed

    def test_no_adjacency_change(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_dag(rng, rng.randint(2, 8))
            pd = pdag_from_skeleton_and_vstructs(
                g.p, skeleton(g).undirected, v_structures(g)
            )
            out = apply_meek_rules(pd)
            assert out.skeleton_pairs() == pd.skeleton_pairs()

    def test_idempotent(self):
        rng = random.Random(37)
        for _ in range(100):
            g = random_dag(rng, rng.randint(2, 8))
            pd = pdag_from_skeleton_and_vstructs(
                g.p, skeleton(g).undirected, v_structures(g)
            )
            once = apply_meek_rules(pd)
            assert apply_meek_rules(once) == once

    def test_never_unorients(self):
        rng = random.Random(41)
        for _ in range(60):
            g = random_dag(rng, rng.randint(2, 8))
            pd = pdag_from_skeleton_and_vstructs(
                g.p, skeleton(g).undirected, v_structures(g)
            )
            out = apply_meek_rules(pd)
            assert pd.directed <= out.directed

    def test_conflict_detected(self):
        # 0 -> 1 - 2 <- 3 with 0, 2 and 1, 3 nonadjacent: R1 forces the
        # middle edge both ways, which only an inconsistent input can do
        pd = Pdag(4, directed=[(0, 1), (3, 2)], undirected=[(1, 2)])
        warnings = []
        assert apply_meek_rules(pd, warnings) == pd
        assert warnings == [
            "contradictory orientations forced for edge 1-2; left undirected"
        ]

    def test_conflict_does_not_stop_propagation(self):
        # the same conflict, with 1 - 4 - 5 beside it: R1 orients 1 -> 4 in
        # the sweep that drops 1 - 2, and 4 -> 5 in the sweep after it
        pd = Pdag(
            6,
            directed=[(0, 1), (3, 2)],
            undirected=[(1, 2), (1, 4), (4, 5)],
        )
        warnings = []
        out = apply_meek_rules(pd, warnings)
        assert out == Pdag(
            6,
            directed=[(0, 1), (3, 2), (1, 4), (4, 5)],
            undirected=[(1, 2)],
        )
        assert warnings == [
            "contradictory orientations forced for edge 1-2; left undirected"
        ]

    def test_completes_to_cpdag(self):
        # the Meek closure of skeleton + v-structures is the essential graph
        rng = random.Random(43)
        for _ in range(100):
            g = random_dag(rng, rng.randint(2, 7))
            pd = pdag_from_skeleton_and_vstructs(
                g.p, skeleton(g).undirected, v_structures(g)
            )
            assert apply_meek_rules(pd) == cpdag_bruteforce(g)


class TestCpdagBruteforce:
    def test_chain_fully_undirected(self):
        out = cpdag_bruteforce(Dag(3, [(0, 1), (1, 2)]))
        assert out == Pdag(3, undirected=[(0, 1), (1, 2)])

    def test_collider_stays_directed(self):
        out = cpdag_bruteforce(Dag(3, [(0, 1), (2, 1)]))
        assert out == Pdag(3, directed=[(0, 1), (2, 1)])

    def test_single_edge_undirected(self):
        out = cpdag_bruteforce(Dag(2, [(0, 1)]))
        assert out == Pdag(2, undirected=[(0, 1)])

    def test_diamond(self):
        out = cpdag_bruteforce(DIAMOND)
        # both v-structure edge pairs stay directed; 1 -> 2 is compelled by
        # R1-style reasoning (0 -> 1 - 2 would recreate no collider otherwise)
        assert (0, 1) in out.directed and (3, 1) in out.directed
        assert (0, 2) in out.directed and (3, 2) in out.directed

    def test_complete_graph_fully_undirected(self):
        g = Dag(5, [(i, j) for i, j in combinations(range(5), 2)])
        out = cpdag_bruteforce(g)
        assert out.directed == frozenset()
        assert out.undirected == frozenset(combinations(range(5), 2))

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            cpdag_bruteforce(Dag(11))

    def test_equivalence_class_members_agree(self):
        # the truth DAG itself is always class-consistent with its CPDAG
        rng = random.Random(47)
        for _ in range(50):
            g = random_dag(rng, rng.randint(2, 7))
            out = cpdag_bruteforce(g)
            assert out.skeleton_pairs() == skeleton(g).undirected
            for i, j in out.directed:
                assert j in g.children[i]


class TestMarkovEquivalent:
    def test_chain_orientations_equivalent(self):
        a = Dag(3, [(0, 1), (1, 2)])
        b = Dag(3, [(1, 0), (1, 2)])
        assert markov_equivalent(a, b)

    def test_collider_not_equivalent_to_chain(self):
        a = Dag(3, [(0, 1), (2, 1)])
        b = Dag(3, [(0, 1), (1, 2)])
        assert not markov_equivalent(a, b)

    def test_dag_equivalent_to_own_cpdag(self):
        rng = random.Random(53)
        for _ in range(50):
            g = random_dag(rng, rng.randint(2, 7))
            assert markov_equivalent(g, cpdag_bruteforce(g))

    def test_is_equivalence_relation(self):
        rng = random.Random(59)
        dags = [random_dag(rng, 5) for _ in range(30)]
        for g in dags:
            assert markov_equivalent(g, g)
        for a in dags[:10]:
            for b in dags[:10]:
                assert markov_equivalent(a, b) == markov_equivalent(b, a)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            markov_equivalent(Dag(2), Dag(3))


class TestEdgeListIO:
    def test_dag_roundtrip(self, tmp_path):
        text = format_dag(DIAMOND)
        assert parse_dag(text) == DIAMOND
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert parse_dag(path.read_text()) == DIAMOND

    def test_comments_and_blanks(self):
        text = "# truth graph\n3\n\n0 1  # edge\n1 2\n"
        assert parse_dag(text) == Dag(3, [(0, 1), (1, 2)])

    def test_dag_errors(self):
        with pytest.raises(ValueError):
            parse_dag("")
        with pytest.raises(ValueError):
            parse_dag("3\n0 1 2\n")
        with pytest.raises(ValueError):
            parse_dag("2\n0 1\n1 0\n")

    def test_pdag_roundtrip(self):
        pd = Pdag(4, directed=[(0, 1), (3, 1)], undirected=[(2, 3)])
        assert parse_pdag(format_pdag(pd)) == pd

    def test_pdag_bad_flag(self):
        with pytest.raises(ValueError):
            parse_pdag("2\n0 1 x\n")
