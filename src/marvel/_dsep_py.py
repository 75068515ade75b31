"""Pure-Python d-separation kernel over integer bitmasks.

Python ints are unbounded, so this kernel works for any vertex count. It uses
the classic criterion: x and y are d-separated by S iff they are
disconnected in the moralized ancestral subgraph of {x, y} | S with the
vertices of S deleted.

Before that search it looks for a certificate of either answer. First come
the short-path certificates, an open path of at most two edges, each a
sufficient condition for d-connection:

- an edge between x and y;
- a vertex z outside S that is a common parent (an open fork x <- z -> y) or
  lies between them (an open chain x -> z -> y or y -> z -> x);
- a common child that is in S or has a descendant in S (an open collider).

Most queries of the learner's subset searches end there, since the pairs it
tests are mostly adjacent or share a parent or child.

Then comes the separation certificate, sufficient for d-separation: every
vertex of x's moral row (its parents, children and co-parents in the whole
graph) is in S, or every vertex of y's row is. In the moral graph of the
ancestral set the neighbors of x are a subset of its row, and y, which is
never in S, is then not among them, so no path leaves x outside S. It
answers every query of total conditioning (S = every other vertex) without
a search: a pair in each other's Markov boundary is adjacent or has a common
child in S, which the short-path certificates answer, and for any other pair
the row lies in S.

Otherwise its cost follows what the search visits, not the vertex count. The
ancestral set comes from the graph's precomputed closures, and a moral row
clipped to that set is built only for a vertex the search expands.
"""

from __future__ import annotations

from typing import Sequence


def dsep_bitmask(
    pmask: Sequence[int],
    cmask: Sequence[int],
    amask: Sequence[int],
    dmask: Sequence[int],
    mmask: Sequence[int],
    x: int,
    y: int,
    smask: int,
) -> bool:
    """True iff x and y are d-separated given the vertex set encoded by smask.

    ``pmask[v]`` has bit i set iff i is a parent of v; ``cmask`` likewise for
    children. ``amask[v]`` holds the ancestors of v, v included,
    ``dmask[v]`` its strict descendants, and ``mmask[v]`` its moral row:
    parents, children and co-parents, v excluded. Callers guarantee x != y
    and that neither is in smask.
    """
    xbit = 1 << x
    ybit = 1 << y
    px = pmask[x]
    cx = cmask[x]
    py = pmask[y]
    # Short-path certificates: an edge, an open fork or chain, an open collider.
    if (px | cx) & ybit or (px & (py | cmask[y]) | cx & py) & ~smask:
        return False
    c = cx & cmask[y]
    while c:
        w = (c & -c).bit_length() - 1
        c &= c - 1
        if ((1 << w) | dmask[w]) & smask:
            return False
    # Separation certificate: x's or y's whole moral row lies in S.
    if not mmask[x] & ~smask or not mmask[y] & ~smask:
        return True

    p = len(pmask)
    seed = xbit | ybit | smask
    if 2 * seed.bit_count() <= p:
        # An(seed) is the union of the seed vertices' ancestor closures.
        anc = 0
        f = seed
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            anc |= amask[v]
    else:
        # A vertex outside a large seed is an ancestor iff it has a
        # descendant in the seed; only the few outsiders are visited.
        anc = seed
        f = ((1 << p) - 1) & ~seed
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            if dmask[v] & seed:
                anc |= 1 << v

    # Breadth-first search from x in the moral graph of An(seed) with smask
    # removed. A child inside anc has all its parents inside anc, so a row is
    # the vertex's parents, its children and its co-parents, clipped to anc.
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
