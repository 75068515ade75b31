"""Shared test helpers: seeded random DAG samplers independent of synth,
the one hypothesis DAG strategy, and an oracle scripted by a table."""

import random
from itertools import combinations

from hypothesis import strategies as st

from marvel.ci import CiOracle
from marvel.graph import Dag


def random_dag(rng: random.Random, p: int, m: int | None = None) -> Dag:
    """Uniform m-edge skeleton oriented by a uniform random vertex order."""
    pairs = list(combinations(range(p), 2))
    if m is None:
        m = rng.randint(0, len(pairs))
    chosen = rng.sample(pairs, m)
    order = list(range(p))
    rng.shuffle(order)
    pos = {v: k for k, v in enumerate(order)}
    edges = [(i, j) if pos[i] < pos[j] else (j, i) for i, j in chosen]
    return Dag(p, edges)


def random_query(rng: random.Random, p: int) -> tuple[int, int, frozenset[int]]:
    x, y = rng.sample(range(p), 2)
    rest = [v for v in range(p) if v not in (x, y)]
    k = rng.randint(0, len(rest))
    return x, y, frozenset(rng.sample(rest, k))


@st.composite
def small_dags(draw, min_p: int, max_p: int) -> Dag:
    """A drawn subset of the pairs on min_p..max_p vertices, oriented by a
    drawn vertex order."""
    p = draw(st.integers(min_value=min_p, max_value=max_p))
    pairs = list(combinations(range(p), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    order = draw(st.permutations(range(p)))
    pos = {v: k for k, v in enumerate(order)}
    edges = [
        (i, j) if pos[i] < pos[j] else (j, i)
        for (i, j), keep in zip(pairs, mask)
        if keep
    ]
    return Dag(p, edges)


class ScriptedOracle(CiOracle):
    """Oracle answering from a fixed table of independent triples."""

    def __init__(self, p, independencies):
        super().__init__()
        self.p = p
        self._indep = {
            (min(x, y), max(x, y), frozenset(s)) for x, y, s in independencies
        }

    def _decide(self, x, y, s):
        return (min(x, y), max(x, y), s) in self._indep
