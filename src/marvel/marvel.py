"""Structure learning by recursive elimination of removable variables.

Each round sorts the remaining variables by Markov boundary size, walks that
order looking for the first variable whose removability battery passes,
records the adjacent pairs and collider orientations each battery revealed,
removes the variable, and patches the boundary map. Both learners keep one
edge record: the set of adjacent pairs, and the head of the first collider
orientation each pair got. Once every variable is eliminated, each pair with
no head points at its endpoint eliminated first, the colliders of that graph
the run actually vouches for are kept, and the Meek rules close them into
the essential graph.

All batteries run against the current Markov boundary only, which keeps the
conditioning sets small; cross-round caches avoid repeating queries whose
answers removals cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import ceil, comb
from time import perf_counter
from typing import Callable, Iterable

from .ci import CiOracle, CiStats
from .graph import (
    Pdag,
    _pair,
    apply_meek_rules,
    pdag_from_skeleton_and_vstructs,
    v_structures,
)
from .mb import MbMap, update_after_removal


@dataclass
class NeighborInfo:
    """Split of one variable's Markov boundary into neighbors and co-parents.

    ``sepsets[t]`` is the first separating set found for co-parent t; it
    witnesses that t is not adjacent.
    """

    neighbors: frozenset[int]
    coparents: frozenset[int]
    sepsets: dict[int, frozenset[int]]


@dataclass
class MarvelCaches:
    """Cross-round memory.

    neighbor_info and vpa hold one entry per variable, filtered to survivors
    on re-entry; a vpa entry is the frozenset of collider triples (x, y, t),
    x -> y <- t with x, t nonadjacent. cond1_nosep records (x, {z, w})
    pairs proven inseparable by any set containing x; cond2_nosep records
    ({z, t}, {x, y}) combinations proven inseparable by any set containing
    both x and y. Entries are only invalidated by vertex removal, never by
    anything else.
    """

    neighbor_info: dict[int, NeighborInfo] = field(default_factory=dict)
    vpa: dict[int, frozenset[tuple[int, int, int]]] = field(default_factory=dict)
    cond1_nosep: set[tuple[int, frozenset[int]]] = field(default_factory=set)
    cond2_nosep: set[tuple[frozenset[int], frozenset[int]]] = field(
        default_factory=set
    )


@dataclass
class LearnResult:
    """One learner run: the essential graph, the order of elimination, the
    ``CiStats`` window of the queries the learner asked (boundary discovery
    excluded), the warnings it recorded and its wall time. Skeleton accuracy
    against a truth graph is scored separately by
    ``bench.skeleton_metrics``."""

    essential: Pdag
    elimination_order: tuple[int, ...]
    stats: CiStats
    warnings: list[str]
    wall_ms: float


def find_neighbors(
    x: int, mb_x: Iterable[int], oracle: CiOracle, caches: MarvelCaches
) -> NeighborInfo:
    """Split mb_x into neighbors and co-parents of x.

    A boundary member y is a co-parent iff some proper subset of
    mb_x - {y} separates it from x; the first such subset (searched in
    increasing cardinality) is recorded as its sepset. At most
    2**(|mb_x| - 1) - 1 queries per member. On re-entry the cached split is
    filtered to the current boundary with zero new queries.
    """
    mb_x = frozenset(mb_x)
    cached = caches.neighbor_info.get(x)
    if cached is not None:
        coparents = cached.coparents & mb_x
        return NeighborInfo(
            neighbors=cached.neighbors & mb_x,
            coparents=coparents,
            sepsets={t: cached.sepsets[t] for t in coparents},
        )
    neighbors = set()
    coparents = set()
    sepsets: dict[int, frozenset[int]] = {}
    for y in sorted(mb_x):
        s = oracle.search(x, y, mb_x - {y}, sizes=range(len(mb_x) - 1))
        if s is None:
            neighbors.add(y)
        else:
            coparents.add(y)
            sepsets[y] = s
    info = NeighborInfo(frozenset(neighbors), frozenset(coparents), sepsets)
    caches.neighbor_info[x] = info
    return info


def find_vpa(
    x: int,
    info: NeighborInfo,
    mb_x: Iterable[int],
    oracle: CiOracle,
    caches: MarvelCaches,
) -> frozenset[tuple[int, int, int]]:
    """Colliders x -> y <- t between x and each of its co-parents t.

    A neighbor y is a common child of x and t iff y is outside the recorded
    sepset of t and no subset of mb_x | {x} - {y, t} separates y from t.
    Cached across rounds; on re-entry triples are pruned to members that are
    still live neighbors and co-parents, with zero new queries.
    """
    mb_x = frozenset(mb_x)
    cached = caches.vpa.get(x)
    if cached is not None:
        return frozenset(
            (a, y, t)
            for a, y, t in cached
            if y in info.neighbors and t in info.coparents
        )
    pool_base = mb_x | {x}
    triples = set()
    for t in sorted(info.coparents):
        s_xt = info.sepsets[t]
        for y in sorted(info.neighbors):
            if y in s_xt:
                continue
            if oracle.search(y, t, pool_base - {y, t}) is None:
                triples.add((x, y, t))
    out = frozenset(triples)
    caches.vpa[x] = out
    return out


def check_condition1(
    x: int,
    info: NeighborInfo,
    mb_x: Iterable[int],
    oracle: CiOracle,
    caches: MarvelCaches,
) -> bool:
    """True iff no pair of x's neighbors is separable by a set containing x.

    Short-circuits false on the first separated pair. Pairs that survive a
    full sweep are recorded in cond1_nosep and never retested for this x.
    """
    mb_x = frozenset(mb_x)
    for z, w in combinations(sorted(info.neighbors), 2):
        key = (x, frozenset((z, w)))
        if key in caches.cond1_nosep:
            continue
        if oracle.search(z, w, mb_x - {z, w}, base=(x,)) is not None:
            return False
        caches.cond1_nosep.add(key)
    return True


def check_condition2(
    x: int,
    info: NeighborInfo,
    vpa: frozenset[tuple[int, int, int]],
    mb_x: Iterable[int],
    oracle: CiOracle,
    caches: MarvelCaches,
) -> bool:
    """True iff no neighbor z is separable from a collider co-parent t by a
    set containing both x and the common child y.

    Requires check_condition1 to have passed for x in the current round.
    Short-circuits false on the first separated combination; exhausted
    combinations are recorded in cond2_nosep and never retested.
    """
    mb_x = frozenset(mb_x)
    for _, y, t in sorted(vpa):
        for z in sorted(info.neighbors - {y}):
            key = (frozenset((z, t)), frozenset((x, y)))
            if key in caches.cond2_nosep:
                continue
            if oracle.search(z, t, mb_x - {z, y, t}, base=(x, y)) is not None:
                return False
            caches.cond2_nosep.add(key)
    return True


def is_removable_ci(
    x: int, mb_x: Iterable[int], oracle: CiOracle, caches: MarvelCaches
) -> tuple[bool, NeighborInfo, frozenset[tuple[int, int, int]]]:
    """Full removability battery for x against its current boundary.

    Composes neighbor discovery, the neighbor-pair condition, collider
    discovery, and the co-parent condition, in that order. The returned
    artifacts let the caller wire edges and orientations; the collider set is
    empty when the first condition already failed (none were computed).
    """
    mb_x = frozenset(mb_x)
    info = find_neighbors(x, mb_x, oracle, caches)
    if not check_condition1(x, info, mb_x, oracle, caches):
        return False, info, frozenset()
    vpa = find_vpa(x, info, mb_x, oracle, caches)
    if not check_condition2(x, info, vpa, mb_x, oracle, caches):
        return False, info, vpa
    return True, info, vpa


def ci_budget_bound(p: int, delta_in: int) -> int:
    """Worst-case post-boundary CI-test count for the elimination phase.

    p * C(delta_in, 2) for the boundary updates plus
    (p / 2) * delta_in * (1 + 0.45 * delta_in) * 2**delta_in for the
    removability batteries, rounded up to an integer.
    """
    if p < 0 or delta_in < 0:
        raise ValueError("arguments must be nonnegative")
    total = (
        Fraction(p) * comb(delta_in, 2)
        + Fraction(p, 2)
        * delta_in
        * (1 + Fraction(9, 20) * delta_in)
        * 2**delta_in
    )
    return ceil(total)


def _orient(
    heads: dict[tuple[int, int], int], i: int, j: int, warnings: list[str]
) -> None:
    # orient i -> j unless the pair already has a head; the first one stays
    if heads.setdefault(_pair(i, j), j) != j:
        warnings.append(f"kept existing orientation {j}->{i} over {i}->{j}")


def _as_pdag(
    p: int, pairs: Iterable[tuple[int, int]], heads: dict[tuple[int, int], int]
) -> Pdag:
    """Every pair and every headed pair as an edge; a headed one points at
    its head, the rest stay undirected."""
    return Pdag(
        p,
        directed=[(b if h == a else a, h) for (a, b), h in heads.items()],
        undirected=[pr for pr in pairs if pr not in heads],
    )


def run_learner(
    oracle: CiOracle,
    mb0: MbMap,
    recover: Callable[[CiOracle, MbMap, list[str]], tuple[Pdag, tuple[int, ...]]],
) -> LearnResult:
    """The frame both learners run in.

    Checks the starting boundary map against the oracle before any query:
    every member must be another vertex in range, and membership must be
    symmetric. Then calls ``recover(oracle, mb0, warnings)``, which returns
    the learner's PDAG before orientation closure plus the vertex order to
    report. The PDAG is then closed under the Meek rules, dropping
    contradictory orientations to undirected. Queries the oracle could not
    decide over its whole life, boundary discovery included, are reported
    as warnings. The result's ``stats`` covers the queries asked from here
    on, the difference of two ``stats()`` snapshots.
    """
    if mb0.p != oracle.p:
        raise ValueError("boundary map and oracle disagree on p")
    if mb0.removed:
        raise ValueError("starting boundary map must have no removed vertices")
    for x, row in enumerate(mb0.mb):
        for y in sorted(row):
            if not 0 <= y < mb0.p or y == x:
                raise ValueError(f"boundary pair ({x}, {y}): {y} is not another vertex")
            if x not in mb0.mb[y]:
                raise ValueError(f"boundary pair ({x}, {y}) is not symmetric")
    warnings: list[str] = []
    t0 = perf_counter()
    before = oracle.stats()

    base, order = recover(oracle, mb0, warnings)
    essential = apply_meek_rules(base, on_conflict="drop", warnings=warnings)

    post = oracle.stats() - before
    if oracle.n_degenerate:
        warnings.append(
            f"{oracle.n_degenerate} queries had too few samples and were "
            "declared dependent"
        )
    if oracle.n_singular:
        warnings.append(
            f"{oracle.n_singular} queries met a singular correlation "
            "submatrix and were declared dependent"
        )
    wall_ms = (perf_counter() - t0) * 1000.0
    return LearnResult(essential, order, post, warnings, wall_ms)


def marvel_learn(
    oracle: CiOracle, mb0: MbMap, use_caches: bool = True
) -> LearnResult:
    """Recover the essential graph by recursive variable elimination.

    mb0 is the starting boundary map (typically from total_conditioning) and
    is not mutated. With use_caches=False every round recomputes its
    batteries from scratch; the output is identical, only the query count
    changes. If a round finds no removable variable (possible only with a
    fallible oracle), the variable with the smallest boundary is removed as
    if removable and a warning is recorded.
    """
    return run_learner(oracle, mb0, partial(_eliminate, use_caches=use_caches))


def _eliminate(
    oracle: CiOracle, mb0: MbMap, warnings: list[str], use_caches: bool
) -> tuple[Pdag, tuple[int, ...]]:
    p = oracle.p
    m = mb0.copy()
    caches = MarvelCaches()
    pairs: set[tuple[int, int]] = set()
    heads: dict[tuple[int, int], int] = {}
    order: list[int] = []

    while len(order) < p:
        scan = sorted(m.alive(), key=lambda v: (len(m.mb[v]), v))
        fallback: NeighborInfo | None = None
        for x in scan:
            battery_caches = caches if use_caches else MarvelCaches()
            mb_x = frozenset(m.mb[x])
            verdict, info, vpa = is_removable_ci(x, mb_x, oracle, battery_caches)
            if fallback is None:
                fallback = info
            pairs.update(_pair(x, y) for y in info.neighbors)
            for _, y, t in sorted(vpa):
                _orient(heads, x, y, warnings)
                _orient(heads, t, y, warnings)
            if verdict:
                break
        else:
            x, info = scan[0], fallback
            warnings.append(
                f"no removable vertex in round {len(order)}; "
                f"forcing removal of {x}"
            )
        order.append(x)
        update_after_removal(m, x, sorted(info.neighbors), oracle)

    # Boundaries never hold a removed vertex, so every pair was recorded
    # while both its ends were alive. A pair no collider test oriented
    # points at the end eliminated first: that removal made it an edge into
    # the removed vertex.
    pos = {v: i for i, v in enumerate(order)}
    forced = {pr: min(pr, key=pos.__getitem__) for pr in pairs if pr not in heads}
    ghat = _as_pdag(p, pairs, heads | forced)
    # Edges oriented by a collider test always point at a true common child.
    # A forced edge is weaker evidence: it marks a collider at its head c
    # only if the other parent was still present when c went, because c's
    # battery vouched for every pair of its remaining neighbors. Had that
    # other parent been eliminated earlier with the collider real, its own
    # battery would have found the collider and oriented this edge then. A
    # forced tail always outlives its head, so a collider is kept when
    # collider tests oriented both its edges or both its parents outlived c.
    kept = frozenset(
        (a, c, b)
        for a, c, b in v_structures(ghat)
        if (_pair(a, c) in heads and _pair(b, c) in heads)
        or pos[c] < min(pos[a], pos[b])
    )
    base = pdag_from_skeleton_and_vstructs(p, ghat.skeleton_pairs(), kept)
    return base, tuple(order)
