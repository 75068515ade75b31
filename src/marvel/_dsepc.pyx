# cython: boundscheck=False, wraparound=False, initializedcheck=False
"""Compiled d-separation kernel for graphs with at most 64 vertices.

Moralizes the whole ancestral subgraph of {x, y} | S, then tests undirected
reachability with S removed. All vertex sets are uint64 bitmasks. It answers
the same queries as ``_dsep_py``, which instead reads the ancestral set from
precomputed closures and builds moral rows only for the vertices it visits.
"""

from libc.stdint cimport uint64_t

cdef extern from *:
    """
    #if defined(_MSC_VER)
    #include <intrin.h>
    static __inline int marvel_ctz64(unsigned long long v)
    { unsigned long i; _BitScanForward64(&i, v); return (int)i; }
    #else
    static inline int marvel_ctz64(unsigned long long v)
    { return __builtin_ctzll(v); }
    #endif
    """
    int marvel_ctz64(unsigned long long) nogil


def dsep_bitmask(uint64_t[::1] pmask, uint64_t[::1] cmask,
                 int x, int y, uint64_t smask):
    """True iff x and y are d-separated given the vertices in smask."""
    cdef uint64_t madj[64]
    cdef uint64_t one = 1
    cdef uint64_t seed, anc, frontier, nxt, f, a, pw, q, visited, ybit
    cdef int v, w, u

    seed = (one << x) | (one << y) | smask
    anc = seed
    frontier = seed
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = marvel_ctz64(f)
            f &= f - 1
            nxt |= pmask[v]
        nxt &= ~anc
        anc |= nxt
        frontier = nxt

    a = anc
    while a:
        w = marvel_ctz64(a)
        a &= a - 1
        madj[w] = 0
    a = anc
    while a:
        w = marvel_ctz64(a)
        a &= a - 1
        madj[w] |= (pmask[w] | cmask[w]) & anc
        pw = pmask[w] & anc
        q = pw
        while q:
            u = marvel_ctz64(q)
            q &= q - 1
            madj[u] |= pw & ~(one << u)

    ybit = one << y
    visited = one << x
    frontier = visited
    while frontier:
        nxt = 0
        f = frontier
        while f:
            u = marvel_ctz64(f)
            f &= f - 1
            nxt |= madj[u]
        if nxt & ybit:
            return False
        nxt &= ~visited & ~smask
        visited |= nxt
        frontier = nxt
    return True
