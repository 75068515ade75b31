"""Markov boundary discovery and maintenance under vertex elimination.

The boundary map starts from total conditioning (one test per vertex pair,
conditioning on everything else) and is kept current as variables are
removed: after deleting a removed vertex from every boundary, only pairs of
its neighbors can have lost their reason to stay mutually connected, and one
test per such pair settles it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .ci import CiOracle


class MbMap:
    """Per-variable Markov boundary sets over the still-alive variables.

    Mutable by design: ``update_after_removal`` edits it in place. Boundary
    membership is kept symmetric at all times.
    """

    __slots__ = ("p", "mb", "removed")

    def __init__(self, p: int) -> None:
        if p < 0:
            raise ValueError("vertex count must be nonnegative")
        self.p = p
        self.mb: list[set[int]] = [set() for _ in range(p)]
        self.removed: set[int] = set()

    def alive(self) -> list[int]:
        return [v for v in range(self.p) if v not in self.removed]

    def copy(self) -> "MbMap":
        out = MbMap(self.p)
        out.mb = [set(s) for s in self.mb]
        out.removed = set(self.removed)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MbMap):
            return NotImplemented
        return (
            self.p == other.p
            and self.mb == other.mb
            and self.removed == other.removed
        )

    def __repr__(self) -> str:
        return f"MbMap(p={self.p}, mb={self.mb}, removed={sorted(self.removed)})"


def total_conditioning(oracle: CiOracle) -> MbMap:
    """Markov boundaries by total conditioning.

    For each of the C(p, 2) pairs of the oracle's p variables, x and y
    belong to each other's boundary iff they are dependent given all
    remaining variables. Performs exactly C(p, 2) queries.
    """
    p = oracle.p
    m = MbMap(p)
    everything = frozenset(range(p))
    for x, y in combinations(range(p), 2):
        if not oracle.query(x, y, everything - {x, y}):
            m.mb[x].add(y)
            m.mb[y].add(x)
    return m


def update_after_removal(
    m: MbMap, x: int, n_x: Iterable[int], oracle: CiOracle
) -> None:
    """Remove x and retest the boundary pairs its removal may have split.

    n_x is the set of x's learned neighbors among the alive variables. After
    x is deleted from every boundary, each pair {y, z} of those neighbors
    that is still mutually in boundary gets one test conditioned on the
    smaller of the two boundaries (ties broken by smaller index) minus
    {x, y, z}; independence deletes the pair from each other's boundary.
    At most C(|n_x|, 2) queries.
    """
    if not 0 <= x < m.p:
        raise ValueError(f"vertex {x} out of range for p={m.p}")
    if x in m.removed:
        raise ValueError(f"vertex {x} was already removed")
    n_x = sorted(set(n_x))
    for v in n_x:
        if v in m.removed:
            raise ValueError(f"neighbor {v} was already removed")
        if v == x:
            raise ValueError("a vertex cannot neighbor itself")

    m.removed.add(x)
    for y in m.mb[x]:
        m.mb[y].discard(x)
    m.mb[x] = set()

    for y, z in combinations(n_x, 2):
        if z not in m.mb[y]:
            continue
        if (len(m.mb[y]), y) <= (len(m.mb[z]), z):
            w = y
        else:
            w = z
        cond = frozenset(m.mb[w]) - {x, y, z}
        if oracle.query(y, z, cond):
            m.mb[y].discard(z)
            m.mb[z].discard(y)
