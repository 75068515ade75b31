"""Directed and partially directed graphs over dense integer vertices.

Vertices are always 0..p-1. ``Dag`` and ``Pdag`` are immutable value types
and every operation in this module is a pure function. The one piece of
hidden state is a ``Dag``'s private memo of ``d_separated``'s moral-graph
searches: it only remembers answers the graph fixes, so it never changes
one, and equality and hashing ignore it.

Vertex sets are plain frozensets at the API boundary, apart from the
constant ``REST``, which stands for the conditioning set of a
total-conditioning query: every vertex but the query's x and y. Whenever
iteration order matters sets are sorted first so that identical inputs
give identical outputs.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Union


def kernel_name() -> str:
    """Name of the d-separation kernel: ``d_separated``, in pure Python."""
    return "pure-python"


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _check_vertex_count(p: int) -> None:
    if p < 0:
        raise ValueError("vertex count must be nonnegative")


def _check_edge(p: int, i: int, j: int) -> None:
    if not (0 <= i < p and 0 <= j < p):
        raise ValueError(f"edge ({i}, {j}) out of range for p={p}")
    if i == j:
        raise ValueError(f"self-loop at vertex {i}")


class Dag:
    """Immutable directed acyclic graph.

    Edges are (i, j) pairs meaning i -> j. Construction rejects self-loops,
    out-of-range endpoints, duplicate edges in opposite directions forming a
    2-cycle, and any directed cycle.

    Besides the bitmasks ``d_separated`` reads, a graph carries a memo of
    that kernel's moral-graph searches, empty at construction. It holds
    answers the edges fix, so it never changes one, and ``__eq__`` and
    ``__hash__`` leave it out. It grows by one entry per distinct query
    that searches, for as long as the graph lives. ``copy.copy`` shares it
    with the original.
    """

    __slots__ = (
        "p", "parents", "children",
        "_pmask", "_cmask", "_amask", "_dmask", "_mmask", "_bits", "_memo",
    )

    def __init__(self, p: int, edges: Iterable[tuple[int, int]] = ()):
        _check_vertex_count(p)
        parents: list[set[int]] = [set() for _ in range(p)]
        children: list[set[int]] = [set() for _ in range(p)]
        for i, j in edges:
            _check_edge(p, i, j)
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
        self._memo: dict[int, bool] = {}

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
        _check_vertex_count(p)
        dset = set()
        for i, j in directed:
            _check_edge(p, i, j)
            if (j, i) in dset:
                raise ValueError(f"both orientations of ({i}, {j}) present")
            dset.add((i, j))
        uset = set()
        for i, j in undirected:
            _check_edge(p, i, j)
            uset.add(_pair(i, j))
        for i, j in dset:
            if _pair(i, j) in uset:
                raise ValueError(f"edge ({i}, {j}) both directed and undirected")
        self.p = p
        self.directed = frozenset(dset)
        self.undirected = frozenset(uset)

    def skeleton_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(_pair(i, j) for i, j in self.directed) | self.undirected

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


class Rest:
    """The type of ``REST``, which is its only instance."""

    def __repr__(self) -> str:
        return "REST"


REST = Rest()
"""The conditioning set of total conditioning: every vertex of the query's
0..p-1 but its own x and y. A constant, not a set: it names no p and no
pair, so it is never built and has no members to check."""


def check_query(
    p: int, x: int, y: int, s: Iterable[int] | Rest
) -> frozenset[int] | Rest:
    """Validate a CI query over vertices 0..p-1; returns s as a frozenset,
    or ``REST`` as it is.

    Every query entry point (the oracles, d-separation, partial correlation)
    checks its arguments here, so all of them reject the same inputs with
    the same messages. A vertex is an integer in 0..p-1, anything
    ``operator.index`` accepts: Python ints, numpy integers and bools. A
    value equal to none of 0..p-1, such as 2.5, -1 or "2", raises
    ValueError here; 2.0 or 2+0j passes, and the kernel that indexes with
    it raises TypeError. Nothing converts a vertex.

    For ``REST`` only x and y are checked: its members are the query's
    other vertices by definition.
    """
    rest = s is REST
    if not rest:
        s = frozenset(s)
    vertices = _vertices(p)
    if not (x in vertices and y in vertices and (rest or s <= vertices)):
        for v in (x, y, *(() if rest else s)):
            if v not in vertices:
                raise ValueError(f"vertex {v!r} out of range for p={p}")
    if x == y:
        raise ValueError("query endpoints must differ")
    if not rest and (x in s or y in s):
        raise ValueError("conditioning set may not contain the endpoints")
    return s


def d_separated(
    g: Dag, x: int, y: int, s: Iterable[int] | Rest = ()
) -> bool:
    """True iff x and y are d-separated by s in g.

    Works on the bitmasks ``Dag`` precomputes: parent and child rows,
    ancestor closures (v included), strict-descendant closures and moral rows
    (parents, children and co-parents, v excluded), indexed by the vertices
    as given, so a float or complex vertex raises TypeError. Python ints
    are unbounded, so any vertex count works.

    Total conditioning is answered from the moral row alone. Given
    ``REST``, which ``check_query`` passes through, x and y are d-separated
    exactly when y is off x's moral row, its Markov blanket: a pair on the
    row is adjacent or has a common child, which lies in s, so a path of at
    most two edges is open; for any other pair x's whole row lies in s, and
    in the moral graph of the ancestral set x's neighbors are a subset of
    that row, so no path leaves x outside s. No mask of s is built. Every
    other s is encoded from its own elements.

    Answers "d-connected" at once when an open path of at most two edges
    joins x and y: an edge; a vertex outside s that is a common parent of
    x and y or lies between them on a directed path; or a common child that
    is in s or has a descendant in s. Most queries of the learner's subset
    searches end there, since the pairs it tests are mostly adjacent or
    share a parent or child.

    Otherwise applies the moralization criterion: x and y are d-separated
    iff they are disconnected in the moralized ancestral subgraph of
    {x, y} | s with s removed. The ancestral set is the union of the seed
    vertices' ancestor closures, and a moral row clipped to it is built only
    for a vertex the search expands, so the cost follows what the search
    visits rather than the vertex count. The graph memoizes each search's
    answer under one int, ``(xbit | ybit) << p | smask``, the same for both
    argument orders, so a repeated query skips the search. The memo is
    read only after the query is validated, s is encoded and the short-path
    certificates fail, so every query is still checked in full, and since
    the graph fixes every answer a hit never changes one. ``copy.copy`` of
    a graph shares its memo.
    """
    s = check_query(g.p, x, y, s)
    bits = g._bits
    if s is REST:
        return not g._mmask[x] & bits[y]
    smask = 0
    for v in s:
        smask |= bits[v]

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

    # The moral-graph search, once per query and graph: the memo is keyed
    # by the pair's and s's bits, so both argument orders share an entry.
    key = (xbit | ybit) << g.p | smask
    memo = g._memo
    answer = memo.get(key)
    if answer is None:
        answer = memo[key] = _moral_search(g, xbit, ybit, smask)
    return answer


def _moral_search(g: Dag, xbit: int, ybit: int, smask: int) -> bool:
    """True iff no path joins x and y in the moral graph of the ancestral
    set of {x, y} | s with s removed; each argument is a bitmask."""
    pmask = g._pmask
    cmask = g._cmask
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


def skeleton(g: Dag) -> Pdag:
    """The DAG with every edge made undirected."""
    return Pdag(g.p, undirected=g.skeleton_pairs())


def v_structures(g: AnyGraph) -> frozenset[tuple[int, int, int]]:
    """Collider triples (a, c, b): a -> c <- b, a and b nonadjacent, a < b.

    For a Pdag only fully directed edge pairs count.
    """
    # Every vertex's directed parents from one pass over the edges.
    parents: list[list[int]] = [[] for _ in range(g.p)]
    for a, c in g.edges() if isinstance(g, Dag) else g.directed:
        parents[c].append(a)
    adjacent = g.skeleton_pairs()
    return frozenset(
        (a, c, b)
        for c, pa in enumerate(parents)
        for a, b in combinations(sorted(pa), 2)
        if (a, b) not in adjacent
    )


def _meek_forced(
    p: int,
    directed: set[tuple[int, int]],
    undirected: set[tuple[int, int]],
) -> set[tuple[int, int]]:
    """Orientations forced by one synchronized sweep of rules R1-R4."""
    adj: list[set[int]] = [set() for _ in range(p)]
    for i, j in directed | undirected:
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


def apply_meek_rules(pd: Pdag, warnings: list[str] | None = None) -> Pdag:
    """Close a PDAG under Meek rules R1-R4.

    Rules are evaluated in synchronized sweeps against the frozen current
    graph until no rule fires; adjacencies never change. A sweep can force
    both orientations of an edge only when the input encodes contradictory
    evidence, as a statistical oracle's answers can; a consistent
    skeleton-plus-colliders start never does. There is one policy: such an
    edge is left undirected for good, a note is appended to ``warnings`` if
    given, and propagation continues. Nothing is raised.
    """
    directed = set(pd.directed)
    undirected = set(pd.undirected)
    dropped: set[tuple[int, int]] = set()
    while True:
        forced = _meek_forced(pd.p, directed, undirected)
        forced = {e for e in forced if _pair(*e) not in dropped}
        conflicted = {e for e in forced if (e[1], e[0]) in forced}
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


def markov_equivalent(g1: AnyGraph, g2: AnyGraph) -> bool:
    """True iff the two graphs share skeleton and collider triples."""
    if g1.p != g2.p:
        raise ValueError("graphs must have the same vertex count")
    return (
        g1.skeleton_pairs() == g2.skeleton_pairs()
        and v_structures(g1) == v_structures(g2)
    )


def parse_dag(text: str) -> Dag:
    """Read the edge-list format: first value p, then one 'i j' row per edge.

    '#' starts a comment; blank lines are skipped.
    """
    p, rows = _data_rows(text)
    edges = []
    for row in rows:
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
    p, rows = _data_rows(text)
    directed = []
    undirected = []
    for row in rows:
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


def _data_rows(text: str) -> tuple[int, list[list[str]]]:
    """The vertex count of the first data row and the split rows after it."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise ValueError("missing vertex count")
    if len(rows[0]) != 1:
        raise ValueError("first data row must hold the vertex count alone")
    return int(rows[0][0]), rows[1:]
