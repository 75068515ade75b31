"""Structure learning by recursive elimination of removable variables.

Each round walks the remaining variables in order of Markov boundary size,
ties to the smaller index, looking for the first whose removability battery
passes, records the adjacent pairs and collider orientations each battery
revealed, removes the variable, and patches the boundary map. Both learners
keep one edge record: the set of adjacent pairs, and the head of the first
collider orientation each pair got. Once every variable is eliminated, each
pair with no head points at its endpoint eliminated first, the colliders of
that graph the run actually vouches for are kept, and the Meek rules close
them into the essential graph. The PC-style baseline the experiments
compare against, ``pc_baseline``, fills the same record by edge removal.

All batteries run against the current Markov boundary only, which keeps the
conditioning sets small; cross-round caches avoid repeating queries whose
answers removals cannot change. A battery splits the boundary by its
co-parents, each mapped to a separating set; the other members are the
neighbors. Boundaries only shrink, so cached co-parents keep that split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import ceil, comb
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
class MarvelCaches:
    """Cross-round memory.

    sepsets and vpa hold one entry per variable, filtered to the current
    boundary on re-entry: x's sepsets entry maps each co-parent to its
    separating set, and its vpa entry is the frozenset of collider pairs
    (y, t), x -> y <- t with x, t nonadjacent. nosep holds the searches of
    x's battery that found no separator, keyed (x, z, w) for condition 1 and
    (x, y, z, t) for condition 2. Mb(x) only shrinks, so a repeat draws from
    a subset of the pool and, for a deterministic oracle, fails again.
    """

    sepsets: dict[int, dict[int, frozenset[int]]] = field(default_factory=dict)
    vpa: dict[int, frozenset[tuple[int, int]]] = field(default_factory=dict)
    nosep: set[tuple[int, ...]] = field(default_factory=set)


@dataclass
class LearnResult:
    """One learner run: the essential graph, the order of elimination, the
    ``CiStats`` window of the queries the learner asked (boundary discovery
    excluded) and the warnings it recorded. Two runs on one instance, each
    with a fresh oracle, return equal results. Skeleton accuracy against a
    truth graph is scored separately by ``bench.skeleton_metrics``."""

    essential: Pdag
    elimination_order: tuple[int, ...]
    stats: CiStats
    warnings: list[str]


def find_neighbors(
    x: int, mb_x: frozenset[int], oracle: CiOracle, caches: MarvelCaches
) -> dict[int, frozenset[int]]:
    """x's co-parents in mb_x, each mapped to its separating set.

    A boundary member y is a co-parent iff some proper subset of
    mb_x - {y} separates it from x; the first such subset (searched in
    increasing cardinality) is recorded, and the rest of mb_x are x's
    neighbors. At most 2**(|mb_x| - 1) - 1 queries per member. On re-entry
    the cached co-parents are filtered to mb_x with zero new queries;
    boundaries only shrink, so this keeps the split the first battery found.
    """
    cached = caches.sepsets.get(x)
    if cached is not None:
        return {t: s for t, s in cached.items() if t in mb_x}
    sepsets: dict[int, frozenset[int]] = {}
    for y in sorted(mb_x):
        s = oracle.search(x, y, mb_x - {y}, sizes=range(len(mb_x) - 1))
        if s is not None:
            sepsets[y] = s
    caches.sepsets[x] = sepsets
    return sepsets


def find_vpa(
    x: int,
    neighbors: frozenset[int],
    sepsets: dict[int, frozenset[int]],
    mb_x: frozenset[int],
    oracle: CiOracle,
    caches: MarvelCaches,
) -> frozenset[tuple[int, int]]:
    """Colliders x -> y <- t between x and each of its co-parents t, as
    (y, t) pairs.

    A neighbor y is a common child of x and t iff y is outside the recorded
    sepset of t and no subset of mb_x | {x} - {y, t} separates y from t.
    Cached across rounds; on re-entry pairs are pruned to members still in
    mb_x, with zero new queries.
    """
    cached = caches.vpa.get(x)
    if cached is not None:
        return frozenset((y, t) for y, t in cached if y in mb_x and t in mb_x)
    pool_base = mb_x | {x}
    colliders = set()
    for t, s_xt in sorted(sepsets.items()):
        for y in sorted(neighbors):
            if y in s_xt:
                continue
            if oracle.search(y, t, pool_base - {y, t}) is None:
                colliders.add((y, t))
    out = frozenset(colliders)
    caches.vpa[x] = out
    return out


def check_condition1(
    x: int,
    neighbors: frozenset[int],
    mb_x: frozenset[int],
    oracle: CiOracle,
    caches: MarvelCaches,
) -> bool:
    """True iff no pair of x's neighbors is separable by a set containing x.

    Short-circuits false on the first separated pair. A pair is recorded in
    nosep as (x, z, w) as soon as its own search finds no separator.
    """
    for z, w in combinations(sorted(neighbors), 2):
        key = (x, z, w)
        if key in caches.nosep:
            continue
        if oracle.search(z, w, mb_x - {z, w}, base=(x,)) is not None:
            return False
        caches.nosep.add(key)
    return True


def check_condition2(
    x: int,
    neighbors: frozenset[int],
    vpa: frozenset[tuple[int, int]],
    mb_x: frozenset[int],
    oracle: CiOracle,
    caches: MarvelCaches,
) -> bool:
    """True iff no neighbor z is separable from a collider co-parent t by a
    set containing both x and the common child y.

    Requires check_condition1 to have passed for x in the current round.
    Short-circuits false on the first separated combination; one whose
    search finds no separator is recorded in nosep as (x, y, z, t), keyed by
    the battery's vertex x.
    """
    for y, t in sorted(vpa):
        for z in sorted(neighbors - {y}):
            key = (x, y, z, t)
            if key in caches.nosep:
                continue
            if oracle.search(z, t, mb_x - {z, y, t}, base=(x, y)) is not None:
                return False
            caches.nosep.add(key)
    return True


def is_removable_ci(
    x: int, mb_x: Iterable[int], oracle: CiOracle, caches: MarvelCaches
) -> tuple[bool, frozenset[int], frozenset[tuple[int, int]]]:
    """Full removability battery for x against its current boundary.

    Composes neighbor discovery, the neighbor-pair condition, collider
    discovery, and the co-parent condition, in that order. Returns the
    verdict, x's neighbors and the collider pairs; the collider set is
    empty when the first condition already failed (none were computed).
    """
    mb_x = frozenset(mb_x)
    sepsets = find_neighbors(x, mb_x, oracle, caches)
    neighbors = mb_x.difference(sepsets)
    if not check_condition1(x, neighbors, mb_x, oracle, caches):
        return False, neighbors, frozenset()
    vpa = find_vpa(x, neighbors, sepsets, mb_x, oracle, caches)
    if not check_condition2(x, neighbors, vpa, mb_x, oracle, caches):
        return False, neighbors, vpa
    return True, neighbors, vpa


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
    before = oracle.stats()

    base, order = recover(oracle, mb0, warnings)
    essential = apply_meek_rules(base, warnings)

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
    return LearnResult(essential, order, post, warnings)


def marvel_learn(oracle: CiOracle, mb0: MbMap) -> LearnResult:
    """Recover the essential graph by recursive variable elimination.

    mb0 is the starting boundary map (typically from total_conditioning) and
    is not mutated. One ``MarvelCaches`` serves every round: a battery
    reuses what earlier batteries learned. With an exact oracle no removal
    can change what was learned, so the output equals an uncached run's
    and the query count can only drop. A statistical oracle's answers hold
    for no one DAG: a cached co-parent's separating set, or a "not a
    collider" verdict, can outlive the larger boundary it was found in, so
    the output may differ from an uncached run's.
    If a round finds no removable variable (possible only with a fallible
    oracle), the variable with the smallest boundary is removed as if
    removable and a warning is recorded.
    """
    return run_learner(oracle, mb0, _eliminate)


def _eliminate(
    oracle: CiOracle, mb0: MbMap, warnings: list[str]
) -> tuple[Pdag, tuple[int, ...]]:
    p = oracle.p
    m = mb0.copy()
    caches = MarvelCaches()
    pairs: set[tuple[int, int]] = set()
    heads: dict[tuple[int, int], int] = {}
    order: list[int] = []
    # Scan order is (|Mb(v)|, v), popped lazily from one heap for the whole
    # run: a round usually stops after a few batteries, so sorting or
    # rebuilding the alive vertices each round is waste. An entry is live
    # while it equals its vertex's current key; boundaries only shrink, so
    # every other entry is stale for good, and a removed vertex keeps none.
    scan = [(len(m.mb[v]), v) for v in range(p)]
    heapify(scan)

    while len(order) < p:
        first: tuple[int, frozenset[int]] | None = None
        popped: list[tuple[int, int]] = []
        while scan:
            entry = heappop(scan)
            key, x = entry
            if key != len(m.mb[x]):
                continue
            popped.append(entry)
            mb_x = frozenset(m.mb[x])
            verdict, neighbors, vpa = is_removable_ci(x, mb_x, oracle, caches)
            if first is None:
                first = x, neighbors
            pairs.update(_pair(x, y) for y in neighbors)
            for y, t in sorted(vpa):
                _orient(heads, x, y, warnings)
                _orient(heads, t, y, warnings)
            if verdict:
                break
        else:
            x, neighbors = first
            warnings.append(
                f"no removable vertex in round {len(order)}; "
                f"forcing removal of {x}"
            )
        order.append(x)
        for entry in popped:
            if entry[1] != x:
                heappush(scan, entry)
        # Only the removed vertex's old boundary can shrink.
        touched = list(m.mb[x])
        update_after_removal(m, x, sorted(neighbors), oracle)
        for v in touched:
            heappush(scan, (len(m.mb[v]), v))

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


def pc_baseline(oracle: CiOracle, mb0: MbMap) -> LearnResult:
    """PC-style edge removal started from the boundary map's moral graph.

    Conditioning sets of size 0, 1, 2, ... are drawn from the current
    adjacency of each endpoint (adjacencies shrink as edges fall during the
    sweep). Separating sets are recorded and drive the collider rule; Meek
    rules finish the orientation. Vertices are processed in ascending index
    at every step.
    """
    return run_learner(oracle, mb0, _pc_sweep)


def _pc_sweep(
    oracle: CiOracle, mb0: MbMap, warnings: list[str]
) -> tuple[Pdag, tuple[int, ...]]:
    p = oracle.p
    adj: list[set[int]] = [set(mb0.mb[x]) for x in range(p)]
    sepsets: dict[tuple[int, int], frozenset[int]] = {}
    level = 0
    while any(len(adj[x]) - 1 >= level for x in range(p)):
        for x in range(p):
            for y in sorted(adj[x]):
                s = oracle.search(x, y, adj[x] - {y}, sizes=(level,))
                if s is not None:
                    adj[x].discard(y)
                    adj[y].discard(x)
                    sepsets[_pair(x, y)] = s
        level += 1

    heads: dict[tuple[int, int], int] = {}
    for c in range(p):
        for a, b in combinations(sorted(adj[c]), 2):
            key = (a, b)
            if b in adj[a] or key not in sepsets or c in sepsets[key]:
                continue
            # keep-first when noisy answers demand both directions of an edge
            _orient(heads, a, c, warnings)
            _orient(heads, b, c, warnings)
    pairs = [(x, y) for x in range(p) for y in adj[x] if x < y]
    return _as_pdag(p, pairs, heads), tuple(range(p))
