"""Brute-force references the tests compare the library against.

Each follows its definition directly, with no regard for speed:
path-enumeration d-separation, the essential graph by enumeration of every
vertex ordering, removability and the Markov boundary read off the
structure, the moral graph, directed descendants, the exact covariance of
a linear-Gaussian model, and ``marvel_learn_uncached``, the learner with
no memory across batteries. Two graph helpers only tests need sit beside
them: ``neighbors(g, v)``, a vertex's parents and children, and
``induced_subgraph(g, keep)``, the sub-DAG on a vertex set with dense
reindexing.

They live here because ``tests/test_layout.py`` lets the package hold only
what a run needs: every function or class of a package module, every
method of its classes and every property must be used, outside its own
definition, by another package module or by a ``perfbench`` script, and
every defaulted parameter must be given a value there.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import numpy as np

from marvel import marvel as marvel_module
from marvel.ci import CiOracle
from marvel.graph import Dag, Pdag, check_query, v_structures
from marvel.marvel import LearnResult, MarvelCaches, marvel_learn
from marvel.mb import MbMap
from marvel.synth import ScmSpec


def neighbors(g: Dag, v: int) -> frozenset[int]:
    return g.parents[v] | g.children[v]


def induced_subgraph(g: Dag, keep: Iterable[int]) -> tuple[Dag, dict[int, int]]:
    """Sub-DAG on ``keep`` with dense reindexing; returns (dag, old->new)."""
    old = sorted(set(keep))
    if any(not 0 <= v < g.p for v in old):
        raise ValueError("induced vertex out of range")
    remap = {v: k for k, v in enumerate(old)}
    edges = [
        (remap[i], remap[j])
        for i in old
        for j in sorted(g.children[i])
        if j in remap
    ]
    return Dag(len(old), edges), remap


def descendants(g: Dag, x: int) -> frozenset[int]:
    """All vertices reachable from x by directed paths, including x."""
    if not 0 <= x < g.p:
        raise ValueError(f"vertex {x} out of range for p={g.p}")
    out = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for c in g.children[v]:
            if c not in out:
                out.add(c)
                stack.append(c)
    return frozenset(out)


def d_separated_bruteforce(g: Dag, x: int, y: int, s: Iterable[int] = ()) -> bool:
    """Path-enumeration d-separation oracle, exponential; for validation only.

    Enumerates every simple path between x and y and applies the blocking
    rule directly: a path is active iff each collider on it has a descendant
    in s and no non-collider on it is in s.
    """
    s = frozenset(check_query(g.p, x, y, s))
    desc_cache: dict[int, frozenset[int]] = {}

    def blocked(path: list[int]) -> bool:
        for k in range(1, len(path) - 1):
            prev, v, nxt = path[k - 1], path[k], path[k + 1]
            is_collider = prev in g.parents[v] and nxt in g.parents[v]
            if is_collider:
                if v not in desc_cache:
                    desc_cache[v] = descendants(g, v)
                if not desc_cache[v] & s:
                    return True
            elif v in s:
                return True
        return False

    path = [x]
    on_path = {x}

    def dfs(v: int) -> bool:
        # returns True if an active path to y was found
        if v == y:
            return not blocked(path)
        for w in sorted(neighbors(g, v)):
            if w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            if dfs(w):
                return True
            path.pop()
            on_path.remove(w)
        return False

    return not dfs(x)


def is_removable_graphical(g: Dag, x: int) -> bool:
    """Removability from structure alone.

    x is removable iff for every child z: (1) every neighbor of x is z or a
    neighbor of z, and (2) every child y of x that is also a parent of z has
    its parent set contained in z's parent set. Sinks are trivially removable.
    """
    if not 0 <= x < g.p:
        raise ValueError(f"vertex {x} out of range for p={g.p}")
    n_x = neighbors(g, x)
    for z in g.children[x]:
        if not n_x <= (neighbors(g, z) | {z}):
            return False
        for y in g.children[x] & g.parents[z]:
            if not g.parents[y] <= g.parents[z]:
                return False
    return True


def markov_boundary_graphical(g: Dag, x: int) -> frozenset[int]:
    """Parents, children, and co-parents of x."""
    if not 0 <= x < g.p:
        raise ValueError(f"vertex {x} out of range for p={g.p}")
    mb = set(g.parents[x]) | set(g.children[x])
    for c in g.children[x]:
        mb |= g.parents[c]
    mb.discard(x)
    return frozenset(mb)


def moralized_graph(g: Dag) -> Pdag:
    """Undirected graph joining every vertex to its whole Markov boundary."""
    und = set(g.skeleton_pairs())
    for w in range(g.p):
        for a, b in combinations(sorted(g.parents[w]), 2):
            und.add((a, b))
    return Pdag(g.p, undirected=und)


_PERM_CACHE: dict[int, np.ndarray] = {}


def _all_position_rows(k: int) -> np.ndarray:
    """(k!, k) int8 matrix whose rows enumerate every permutation of 0..k-1."""
    if k in _PERM_CACHE:
        return _PERM_CACHE[k]
    if k <= 1:
        out = np.zeros((1, max(k, 1)), dtype=np.int8)[:, :k]
    else:
        base = _all_position_rows(k - 1)
        m = base.shape[0]
        out = np.empty((m * k, k), dtype=np.int8)
        for pos in range(k):
            block = out[pos * m : (pos + 1) * m]
            block[:, :pos] = base[:, :pos]
            block[:, pos] = k - 1
            block[:, pos + 1 :] = base[:, pos:]
    _PERM_CACHE[k] = out
    return out


def _component_vertices(p: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj: list[set[int]] = [set() for _ in range(p)]
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    seen = [False] * p
    comps = []
    for v in range(p):
        if seen[v]:
            continue
        comp = [v]
        seen[v] = True
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def cpdag_bruteforce(g: Dag) -> Pdag:
    """Essential graph by exhaustive enumeration over all vertex orderings.

    For every ordering of each skeleton component, orient the component's
    edges by position, keep the orientations whose collider triples match
    g's, and mark an edge directed iff all surviving members agree on it.
    Capacity-guarded at p <= 10; the orderings are streamed through numpy.
    """
    if g.p > 10:
        raise ValueError("cpdag_bruteforce is capacity-guarded at p <= 10")
    skel = g.skeleton_pairs()
    target = v_structures(g)
    directed: set[tuple[int, int]] = set()
    undirected: set[tuple[int, int]] = set()

    for comp in _component_vertices(g.p, skel):
        local = {v: k for k, v in enumerate(comp)}
        edges = [pr for pr in sorted(skel) if pr[0] in local and pr[1] in local]
        if not edges:
            continue
        k = len(comp)
        pos = _all_position_rows(k)

        cols: dict[tuple[int, int], np.ndarray] = {}

        def orient_col(i: int, j: int) -> np.ndarray:
            # boolean column: edge oriented i -> j in each enumerated member
            key = (i, j)
            if key not in cols:
                cols[key] = pos[:, local[i]] < pos[:, local[j]]
            return cols[key]

        adj: dict[int, set[int]] = {v: set() for v in comp}
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        mask = np.ones(pos.shape[0], dtype=bool)
        for c in comp:
            for a, b in combinations(sorted(adj[c]), 2):
                if b in adj[a]:
                    continue
                has_vs = orient_col(a, c) & orient_col(b, c)
                if (a, c, b) in target:
                    mask &= has_vs
                else:
                    mask &= ~has_vs
        for i, j in edges:
            col = orient_col(i, j)
            fwd = bool(np.any(col & mask))
            rev = bool(np.any(~col & mask))
            if fwd and rev:
                undirected.add((i, j))
            elif fwd:
                directed.add((i, j))
            else:
                directed.add((j, i))
    return Pdag(g.p, directed=directed, undirected=undirected)


def population_covariance(spec: ScmSpec) -> np.ndarray:
    """Exact covariance of the model: (I - A)^-1 D (I - A)^-T with A the
    weighted adjacency acting parents -> children and D the noise variances."""
    p = spec.dag.p
    a = np.zeros((p, p))
    for (u, v), c in spec.coeffs.items():
        a[v, u] = c
    inv = np.linalg.inv(np.eye(p) - a)
    d = np.diag(np.square(spec.noise_sd))
    return inv @ d @ inv.T


def marvel_learn_uncached(oracle: CiOracle, mb0: MbMap) -> LearnResult:
    """``marvel_learn`` with every removability battery started from a fresh
    ``MarvelCaches``, so each round recomputes its batteries from scratch.

    The learner looks ``is_removable_ci`` up in its module on every call;
    that name is swapped for the duration of the run and then restored.
    With an exact oracle the output equals the cached run's and only the
    query count may grow. On Fisher-Z data the two may learn different
    graphs.
    """
    battery = marvel_module.is_removable_ci

    def fresh(x, mb_x, oracle, caches):
        return battery(x, mb_x, oracle, MarvelCaches())

    marvel_module.is_removable_ci = fresh
    try:
        return marvel_learn(oracle, mb0)
    finally:
        marvel_module.is_removable_ci = battery
