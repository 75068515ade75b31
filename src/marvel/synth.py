"""Random graph generators and linear-Gaussian data simulation.

Three graph families cover the experiment grid: uniform m-edge DAGs, DAGs
with a capped in-degree, and the disjoint-clique family that forces any
conditional-independence learner to spend exponentially many tests inside
each clique. Data comes from linear structural models with Gaussian noise,
sampled in topological order.

Every generator is a pure function of its parameters and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ci import Dataset
from .graph import Dag

RngSeed = int

COEFF_RANGE = (0.5, 1.0)  # edge weight magnitudes; the sign is a fair coin
SD_RANGE = (1.0, math.sqrt(3.0))  # noise standard deviations


@dataclass
class ScmSpec:
    """Linear-Gaussian structural model: one weight per edge, one noise
    standard deviation per vertex."""

    dag: Dag
    coeffs: dict[tuple[int, int], float]
    noise_sd: tuple[float, ...]

    def __post_init__(self) -> None:
        if set(self.coeffs) != set(self.dag.edges()):
            raise ValueError("coefficients must be keyed exactly by the edges")
        if len(self.noise_sd) != self.dag.p:
            raise ValueError("need one noise sd per vertex")
        if any(sd <= 0 for sd in self.noise_sd):
            raise ValueError("noise sds must be positive")


def erdos_renyi_dag(p: int, m: int, seed: RngSeed) -> Dag:
    """Uniform m-edge skeleton oriented by a uniform random vertex order."""
    pairs = list(combinations(range(p), 2))
    if not 0 <= m <= len(pairs):
        raise ValueError(f"need 0 <= m <= {len(pairs)} (the available pairs)")
    rng = np.random.default_rng(seed)
    chosen = [pairs[k] for k in rng.choice(len(pairs), size=m, replace=False)]
    pos = {int(v): k for k, v in enumerate(rng.permutation(p))}
    return Dag(p, [(i, j) if pos[i] < pos[j] else (j, i) for i, j in chosen])


def fixed_indegree_dag(p: int, delta_in: int, seed: RngSeed) -> Dag:
    """DAG whose max in-degree is exactly delta_in.

    Fixes a uniform random vertex order, draws delta_in distinct candidate
    parents per vertex, and keeps the candidates that precede the vertex in
    the order. The vertex last in the order keeps all of its candidates, so
    no vertex has more parents and that one has exactly delta_in.
    """
    if not 0 <= delta_in < p:
        raise ValueError("need 0 <= delta_in < p")
    rng = np.random.default_rng(seed)
    pos = {int(v): k for k, v in enumerate(rng.permutation(p))}
    edges = []
    for v in range(p):
        others = [u for u in range(p) if u != v]
        candidates = rng.choice(len(others), size=delta_in, replace=False)
        edges.extend(
            (others[k], v) for k in candidates if pos[others[k]] < pos[v]
        )
    return Dag(p, edges)


def cluster_adversarial_dag(p: int, d: int) -> Dag:
    """Disjoint complete clusters of size d + 1; leftover vertices isolated.

    Each cluster's tournament follows global index order, so the max
    in-degree is exactly d. Separating any intra-cluster pair requires
    conditioning inside the cluster, which is what makes the family a
    worst case for test counting.
    """
    if not 0 <= d < p:
        raise ValueError("need 0 <= d < p")
    size = d + 1
    edges = []
    for start in range(0, (p // size) * size, size):
        members = range(start, start + size)
        edges.extend(combinations(members, 2))
    return Dag(p, edges)


def random_scm(dag: Dag, seed: RngSeed = 0) -> ScmSpec:
    """Draw edge weights from ±COEFF_RANGE (fair sign) and noise sds from
    SD_RANGE. Other weights need an ScmSpec built directly."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for e in dag.edges():
        magnitude = rng.uniform(*COEFF_RANGE)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        coeffs[e] = sign * magnitude
    noise_sd = tuple(float(rng.uniform(*SD_RANGE)) for _ in range(dag.p))
    return ScmSpec(dag, coeffs, noise_sd)


def sample(spec: ScmSpec, n: int, seed: RngSeed) -> Dataset:
    """n draws from the model, each variable filled in topological order."""
    if n < 2:
        raise ValueError("need at least two samples for a correlation matrix")
    rng = np.random.default_rng(seed)
    p = spec.dag.p
    values = rng.standard_normal((n, p)) * np.asarray(spec.noise_sd)
    for v in spec.dag.topological_order():
        for u in sorted(spec.dag.parents[v]):
            values[:, v] += spec.coeffs[(u, v)] * values[:, u]
    return Dataset(values)
