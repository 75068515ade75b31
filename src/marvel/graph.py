"""Directed and partially directed graphs over dense integer vertices.

Vertices are always 0..p-1. ``Dag`` and ``Pdag`` are immutable value types
and every operation in this module is a pure function. Alongside the
production operations (linear-time d-separation, Meek closure) the module
carries the brute-force oracles used to validate them: a path-enumeration
d-separation checker and a permutation-enumeration essential-graph builder.

Vertex sets are plain frozensets at the API boundary; whenever iteration
order matters they are sorted first so that identical inputs give identical
outputs.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Union

import numpy as np


class GraphConsistencyError(ValueError):
    """Orientation rules forced both directions of the same edge."""


def kernel_name() -> str:
    """Name of the d-separation kernel: ``d_separated``, in pure Python."""
    return "pure-python"


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


class Dag:
    """Immutable directed acyclic graph.

    Edges are (i, j) pairs meaning i -> j. Construction rejects self-loops,
    out-of-range endpoints, duplicate edges in opposite directions forming a
    2-cycle, and any directed cycle.
    """

    __slots__ = (
        "p", "parents", "children",
        "_pmask", "_cmask", "_amask", "_dmask", "_mmask", "_bits",
    )

    def __init__(self, p: int, edges: Iterable[tuple[int, int]] = ()):
        if p < 0:
            raise ValueError("vertex count must be nonnegative")
        parents: list[set[int]] = [set() for _ in range(p)]
        children: list[set[int]] = [set() for _ in range(p)]
        for i, j in edges:
            if not (0 <= i < p and 0 <= j < p):
                raise ValueError(f"edge ({i}, {j}) out of range for p={p}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            parents[j].add(i)
            children[i].add(j)
        self.p = p
        self.parents = tuple(frozenset(s) for s in parents)
        self.children = tuple(frozenset(s) for s in children)
        order = self.topological_order()
        if len(order) != p:
            raise ValueError("edge set contains a directed cycle")
        self._bits = bits = tuple(1 << v for v in range(p))
        self._pmask = tuple(sum(bits[v] for v in s) for s in self.parents)
        self._cmask = tuple(sum(bits[v] for v in s) for s in self.children)
        # Moral rows: parents, children and co-parents, v itself left out.
        mmask = []
        for v in range(p):
            m = self._pmask[v] | self._cmask[v]
            for c in self.children[v]:
                m |= self._pmask[c]
            mmask.append(m & ~bits[v])
        self._mmask = tuple(mmask)
        # Ancestor (v included) and strict-descendant closures for the d-sep
        # kernel, each built in one pass over a topological order.
        amask = [0] * p
        for v in order:
            a = 1 << v
            for u in self.parents[v]:
                a |= amask[u]
            amask[v] = a
        dmask = [0] * p
        for v in reversed(order):
            d = 0
            for c in self.children[v]:
                d |= (1 << c) | dmask[c]
            dmask[v] = d
        self._amask = tuple(amask)
        self._dmask = tuple(dmask)

    def neighbors(self, x: int) -> frozenset[int]:
        return self.parents[x] | self.children[x]

    def topological_order(self) -> tuple[int, ...]:
        """Vertices with every parent before its children; ties go to the
        smallest ready index, so the order is deterministic."""
        indeg = [len(s) for s in self.parents]
        ready = [v for v in range(self.p) if indeg[v] == 0]
        heapq.heapify(ready)
        out = []
        while ready:
            v = heapq.heappop(ready)
            out.append(v)
            for c in sorted(self.children[v]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        return tuple(out)

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.p):
            for j in sorted(self.children[i]):
                yield (i, j)

    def skeleton_pairs(self) -> frozenset[tuple[int, int]]:
        """The edges as undirected (min, max) pairs."""
        return frozenset(_pair(i, j) for i, j in self.edges())

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.children)

    def max_in_degree(self) -> int:
        return max((len(s) for s in self.parents), default=0)

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Dag", dict[int, int]]:
        """Sub-DAG on ``keep`` with dense reindexing; returns (dag, old->new)."""
        old = sorted(set(keep))
        if any(not 0 <= v < self.p for v in old):
            raise ValueError("induced vertex out of range")
        remap = {v: k for k, v in enumerate(old)}
        edges = [
            (remap[i], remap[j])
            for i in old
            for j in sorted(self.children[i])
            if j in remap
        ]
        return Dag(len(old), edges), remap

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self.p == other.p and self.parents == other.parents

    def __hash__(self) -> int:
        return hash((self.p, self.parents))

    def __repr__(self) -> str:
        return f"Dag(p={self.p}, edges={list(self.edges())})"


class Pdag:
    """Immutable partially directed graph.

    ``directed`` holds (i, j) pairs meaning i -> j; ``undirected`` holds
    canonical (min, max) pairs. The two sets must be disjoint as adjacencies
    and the directed set may not contain both orientations of one pair.
    """

    __slots__ = ("p", "directed", "undirected")

    def __init__(
        self,
        p: int,
        directed: Iterable[tuple[int, int]] = (),
        undirected: Iterable[tuple[int, int]] = (),
    ):
        if p < 0:
            raise ValueError("vertex count must be nonnegative")
        dset = set()
        for i, j in directed:
            if not (0 <= i < p and 0 <= j < p):
                raise ValueError(f"edge ({i}, {j}) out of range for p={p}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if (j, i) in dset:
                raise ValueError(f"both orientations of ({i}, {j}) present")
            dset.add((i, j))
        uset = set()
        for i, j in undirected:
            if not (0 <= i < p and 0 <= j < p):
                raise ValueError(f"edge ({i}, {j}) out of range for p={p}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            uset.add(_pair(i, j))
        for i, j in dset:
            if _pair(i, j) in uset:
                raise ValueError(f"edge ({i}, {j}) both directed and undirected")
        self.p = p
        self.directed = frozenset(dset)
        self.undirected = frozenset(uset)

    def skeleton_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(_pair(i, j) for i, j in self.directed) | self.undirected

    def adjacent(self, i: int, j: int) -> bool:
        return (
            _pair(i, j) in self.undirected
            or (i, j) in self.directed
            or (j, i) in self.directed
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pdag):
            return NotImplemented
        return (
            self.p == other.p
            and self.directed == other.directed
            and self.undirected == other.undirected
        )

    def __hash__(self) -> int:
        return hash((self.p, self.directed, self.undirected))

    def __repr__(self) -> str:
        return (
            f"Pdag(p={self.p}, directed={sorted(self.directed)}, "
            f"undirected={sorted(self.undirected)})"
        )


AnyGraph = Union[Dag, Pdag]


@lru_cache(maxsize=32)
def _vertices(p: int) -> frozenset[int]:
    return frozenset(range(p))


def check_query(p: int, x: int, y: int, s: Iterable[int]) -> frozenset[int]:
    """Validate a CI query over vertices 0..p-1; returns s as a frozenset.

    Every query entry point (the oracles, d-separation, partial correlation)
    checks its arguments here, so all of them reject the same inputs with
    the same messages. A vertex is valid when it equals one of 0..p-1, so
    numpy integers pass and 2.5 or "2" do not; the kernels convert with
    ``int`` where they use a vertex as a number.
    """
    s = frozenset(s)
    vertices = _vertices(p)
    if not (x in vertices and y in vertices and s <= vertices):
        for v in (x, y, *s):
            if v not in vertices:
                raise ValueError(f"vertex {v!r} out of range for p={p}")
    if x == y:
        raise ValueError("query endpoints must differ")
    if x in s or y in s:
        raise ValueError("conditioning set may not contain the endpoints")
    return s


def d_separated(g: Dag, x: int, y: int, s: Iterable[int] = ()) -> bool:
    """True iff x and y are d-separated by s in g.

    Works on the bitmasks ``Dag`` precomputes: parent and child rows,
    ancestor closures (v included), strict-descendant closures and moral rows
    (parents, children and co-parents, v excluded). Python ints are
    unbounded, so any vertex count works.

    Answers from a certificate when one holds. "d-connected" at once when an
    open path of at most two edges joins x and y: an edge; a vertex outside
    s that is a common parent of x and y or lies between them on a directed
    path; or a common child that is in s or has a descendant in s. Most
    queries of the learner's subset searches end there, since the pairs it
    tests are mostly adjacent or share a parent or child.

    Failing that, "d-separated" when every vertex of x's moral row is in s,
    or every one of y's is. In the moral graph of the ancestral set the
    neighbors of x are a subset of its row, and y, which is never in s, is
    then not among them, so no path leaves x outside s. This answers every
    query of total conditioning (s = every other vertex) without a search:
    a pair in each other's Markov boundary is adjacent or has a common child
    in s, which the short-path certificates answer, and for any other pair
    the row lies in s.

    Otherwise applies the moralization criterion: x and y are d-separated
    iff they are disconnected in the moralized ancestral subgraph of
    {x, y} | s with s removed. The ancestral set is the union of the seed
    vertices' ancestor closures, and a moral row clipped to it is built only
    for a vertex the search expands, so the cost follows what the search
    visits rather than the vertex count.
    """
    s = check_query(g.p, x, y, s)
    x, y = int(x), int(y)
    bits = g._bits
    if 2 * len(s) > g.p and len(s) == g.p - 2:
        # Total conditioning: check_query has shown s is all but x, y.
        smask = ((1 << g.p) - 1) ^ bits[x] ^ bits[y]
    else:
        smask = 0
        try:
            for v in s:
                smask |= bits[v]
        except TypeError:
            # A float such as 2.0 equals a vertex but cannot index the table;
            # int() answers it as that vertex and raises for a complex one.
            smask = 0
            for v in s:
                smask |= 1 << int(v)

    pmask = g._pmask
    cmask = g._cmask
    xbit = bits[x]
    ybit = bits[y]
    px = pmask[x]
    cx = cmask[x]
    py = pmask[y]
    # Short-path certificates: an edge, an open fork or chain, an open collider.
    if (px | cx) & ybit or (px & (py | cmask[y]) | cx & py) & ~smask:
        return False
    dmask = g._dmask
    c = cx & cmask[y]
    while c:
        w = (c & -c).bit_length() - 1
        c &= c - 1
        if ((1 << w) | dmask[w]) & smask:
            return False
    # Separation certificate: x's or y's whole moral row lies in s.
    mmask = g._mmask
    if not mmask[x] & ~smask or not mmask[y] & ~smask:
        return True

    # An({x, y} | s) is the union of the seed vertices' ancestor closures.
    amask = g._amask
    anc = 0
    f = xbit | ybit | smask
    while f:
        v = (f & -f).bit_length() - 1
        f &= f - 1
        anc |= amask[v]
    # Breadth-first search from x in the moral graph of anc with s removed.
    # A child inside anc has all its parents inside anc, so a row is the
    # vertex's parents, its children and its co-parents, clipped to anc.
    visited = xbit
    frontier = visited
    while frontier:
        nxt = 0
        f = frontier
        while f:
            u = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= pmask[u] | cmask[u]
            c = cmask[u] & anc
            while c:
                w = (c & -c).bit_length() - 1
                c &= c - 1
                nxt |= pmask[w]
        nxt &= anc
        if nxt & ybit:
            return False
        nxt &= ~visited & ~smask
        visited |= nxt
        frontier = nxt
    return True


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
    s = check_query(g.p, x, y, s)
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
        for w in sorted(g.neighbors(v)):
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
    n_x = g.neighbors(x)
    for z in g.children[x]:
        if not n_x <= (g.neighbors(z) | {z}):
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


def skeleton(g: Dag) -> Pdag:
    """The DAG with every edge made undirected."""
    return Pdag(g.p, undirected=g.skeleton_pairs())


def v_structures(g: AnyGraph) -> frozenset[tuple[int, int, int]]:
    """Collider triples (a, c, b): a -> c <- b, a and b nonadjacent, a < b.

    For a Pdag only fully directed edge pairs count.
    """
    out = set()
    if isinstance(g, Dag):
        for c in range(g.p):
            for a, b in combinations(sorted(g.parents[c]), 2):
                if a not in g.neighbors(b):
                    out.add((a, c, b))
    else:
        # Every vertex's directed parents from one pass over the edges.
        parents: list[list[int]] = [[] for _ in range(g.p)]
        for a, c in g.directed:
            parents[c].append(a)
        for c, pa in enumerate(parents):
            for a, b in combinations(sorted(pa), 2):
                if not g.adjacent(a, b):
                    out.add((a, c, b))
    return frozenset(out)


def _meek_forced(
    p: int,
    directed: set[tuple[int, int]],
    undirected: set[tuple[int, int]],
) -> set[tuple[int, int]]:
    """Orientations forced by one synchronized sweep of rules R1-R4."""
    adj: list[set[int]] = [set() for _ in range(p)]
    for i, j in directed:
        adj[i].add(j)
        adj[j].add(i)
    for i, j in undirected:
        adj[i].add(j)
        adj[j].add(i)
    into: list[set[int]] = [set() for _ in range(p)]
    outof: list[set[int]] = [set() for _ in range(p)]
    for i, j in directed:
        into[j].add(i)
        outof[i].add(j)
    und_nbrs: list[set[int]] = [set() for _ in range(p)]
    for i, j in undirected:
        und_nbrs[i].add(j)
        und_nbrs[j].add(i)

    forced: set[tuple[int, int]] = set()
    for a, b in sorted(undirected):
        for u, v in ((a, b), (b, a)):
            # R1: w -> u, u - v, w and v nonadjacent
            if any(v not in adj[w] for w in into[u]):
                forced.add((u, v))
                continue
            # R2: u -> w -> v with u - v
            if outof[u] & into[v]:
                forced.add((u, v))
                continue
            # R3: u - w1, u - w2, w1 -> v, w2 -> v, w1 and w2 nonadjacent
            ws = sorted(und_nbrs[u] & into[v])
            if any(
                w2 not in adj[w1] for w1, w2 in combinations(ws, 2)
            ):
                forced.add((u, v))
                continue
            # R4: u - w1, w1 -> w2, w2 -> v, v and w1 nonadjacent
            if any(
                outof[w1] & into[v] and v not in adj[w1]
                for w1 in und_nbrs[u]
                if w1 != v
            ):
                forced.add((u, v))
    return forced


def apply_meek_rules(
    pd: Pdag,
    on_conflict: str = "raise",
    warnings: list[str] | None = None,
) -> Pdag:
    """Close a PDAG under Meek rules R1-R4.

    Rules are evaluated in synchronized sweeps against the frozen current
    graph until no rule fires; adjacencies never change. A sweep can force
    both orientations of an edge only when the input encodes contradictory
    evidence (never from a consistent skeleton-plus-colliders start). With
    on_conflict="raise" that raises a GraphConsistencyError; with "drop" the
    edge is left undirected for good, a note is appended to ``warnings`` if
    given, and propagation continues.
    """
    if on_conflict not in ("raise", "drop"):
        raise ValueError("on_conflict must be 'raise' or 'drop'")
    directed = set(pd.directed)
    undirected = set(pd.undirected)
    dropped: set[tuple[int, int]] = set()
    while True:
        forced = _meek_forced(pd.p, directed, undirected)
        forced = {e for e in forced if _pair(*e) not in dropped}
        conflicted = {e for e in forced if (e[1], e[0]) in forced}
        if conflicted and on_conflict == "raise":
            u, v = min(conflicted)
            raise GraphConsistencyError(
                f"rules force both orientations of edge ({u}, {v})"
            )
        for u, v in sorted(conflicted):
            if u < v:
                dropped.add((u, v))
                if warnings is not None:
                    warnings.append(
                        f"contradictory orientations forced for edge "
                        f"{u}-{v}; left undirected"
                    )
        forced -= conflicted
        if not forced:
            return Pdag(pd.p, directed=directed, undirected=undirected)
        for u, v in forced:
            undirected.discard(_pair(u, v))
            directed.add((u, v))


def pdag_from_skeleton_and_vstructs(
    p: int,
    skeleton_pairs: Iterable[tuple[int, int]],
    vstructs: Iterable[tuple[int, int, int]],
) -> Pdag:
    """PDAG whose only directed edges are those in some collider triple."""
    pairs = {_pair(i, j) for i, j in skeleton_pairs}
    directed = set()
    for a, c, b in vstructs:
        directed.add((a, c))
        directed.add((b, c))
    directed_pairs = {_pair(i, j) for i, j in directed}
    if not directed_pairs <= pairs:
        raise ValueError("collider edge missing from skeleton")
    undirected = pairs - directed_pairs
    return Pdag(p, directed=directed, undirected=undirected)


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


def markov_equivalent(g1: AnyGraph, g2: AnyGraph) -> bool:
    """True iff the two graphs share skeleton and collider triples."""
    if g1.p != g2.p:
        raise ValueError("graphs must have the same vertex count")
    return (
        g1.skeleton_pairs() == g2.skeleton_pairs()
        and v_structures(g1) == v_structures(g2)
    )


def enumerate_subsets(
    pool: Iterable[int], proper: bool = False
) -> Iterator[frozenset[int]]:
    """Subsets of pool in increasing cardinality, lexicographic within a size.

    With proper=True the full set is omitted. The empty set always comes
    first. Deterministic for any input order.
    """
    members = sorted(set(pool))
    top = len(members) - 1 if proper else len(members)
    for r in range(top + 1):
        for combo in combinations(members, r):
            yield frozenset(combo)


def parse_dag(text: str) -> Dag:
    """Read the edge-list format: first value p, then one 'i j' row per edge.

    '#' starts a comment; blank lines are skipped.
    """
    rows = _data_rows(text)
    if not rows:
        raise ValueError("missing vertex count")
    if len(rows[0]) != 1:
        raise ValueError("first data row must hold the vertex count alone")
    p = int(rows[0][0])
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"bad edge row: {row!r}")
        edges.append((int(row[0]), int(row[1])))
    return Dag(p, edges)


def format_dag(g: Dag) -> str:
    lines = [str(g.p)]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def parse_pdag(text: str) -> Pdag:
    """Read the PDAG format: rows 'i j d' (directed) or 'i j u' (undirected)."""
    rows = _data_rows(text)
    if not rows:
        raise ValueError("missing vertex count")
    if len(rows[0]) != 1:
        raise ValueError("first data row must hold the vertex count alone")
    p = int(rows[0][0])
    directed = []
    undirected = []
    for row in rows[1:]:
        if len(row) != 3 or row[2] not in ("d", "u"):
            raise ValueError(f"bad edge row: {row!r}")
        i, j = int(row[0]), int(row[1])
        (directed if row[2] == "d" else undirected).append((i, j))
    return Pdag(p, directed=directed, undirected=undirected)


def format_pdag(pd: Pdag) -> str:
    lines = [str(pd.p)]
    lines.extend(f"{i} {j} d" for i, j in sorted(pd.directed))
    lines.extend(f"{i} {j} u" for i, j in sorted(pd.undirected))
    return "\n".join(lines) + "\n"


def load_dag(path) -> Dag:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dag(fh.read())


def save_dag(g: Dag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_dag(g))


def load_pdag(path) -> Pdag:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pdag(fh.read())


def save_pdag(pd: Pdag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pdag(pd))


def _data_rows(text: str) -> list[list[str]]:
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows
