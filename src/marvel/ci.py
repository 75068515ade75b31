"""Conditional independence oracles with mandatory test accounting.

Two oracle families share one interface: exact d-separation queries against a
known DAG, and Fisher-Z partial-correlation tests on Gaussian data. Every
call to ``query`` increments the counters exactly once, duplicates included;
deduplication is always the caller's job. ``query`` returns True iff the pair
is judged independent given the conditioning set.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atanh, sqrt
from typing import Iterable

import numpy as np
from scipy.stats import norm

from .graph import Dag, check_query, d_separated


@dataclass
class CiStats:
    """Running totals over a stream of CI queries."""

    n_tests: int = 0
    sum_cond_size: int = 0
    max_cond_size: int = 0

    @property
    def asc(self) -> float:
        """Average conditioning set size; 0.0 before any query."""
        if self.n_tests == 0:
            return 0.0
        return self.sum_cond_size / self.n_tests

    def copy(self) -> "CiStats":
        return CiStats(self.n_tests, self.sum_cond_size, self.max_cond_size)


class CiOracle:
    """Base oracle: argument checking and accounting around ``_decide``.

    Subclasses set ``self.p`` and implement ``_decide(x, y, s)``. Alongside
    the cumulative ``stats()`` the oracle keeps a phase window that callers
    may reset with ``begin_phase()`` to split accounting into stages (for
    example boundary discovery vs structure recovery).

    ``n_degenerate`` and ``n_singular`` count, over the oracle's whole life,
    the queries it could not decide and answered "dependent": too few
    samples for the test, and a singular correlation submatrix. An exact
    oracle leaves both at 0.
    """

    p: int
    n_degenerate = 0
    n_singular = 0

    def __init__(self) -> None:
        self._stats = CiStats()
        self._phase = CiStats()

    def query(self, x: int, y: int, s: Iterable[int] = ()) -> bool:
        s = check_query(self.p, x, y, s)
        for acc in (self._stats, self._phase):
            acc.n_tests += 1
            acc.sum_cond_size += len(s)
            if len(s) > acc.max_cond_size:
                acc.max_cond_size = len(s)
        return self._decide(x, y, s)

    def _decide(self, x: int, y: int, s: frozenset[int]) -> bool:
        raise NotImplementedError

    def stats(self) -> CiStats:
        return self._stats.copy()

    def begin_phase(self) -> None:
        self._phase = CiStats()

    def phase_stats(self) -> CiStats:
        return self._phase.copy()


class DsepOracle(CiOracle):
    """Exact oracle answering queries by d-separation in a known DAG."""

    def __init__(self, dag: Dag) -> None:
        super().__init__()
        self.dag = dag
        self.p = dag.p

    def _decide(self, x: int, y: int, s: frozenset[int]) -> bool:
        return d_separated(self.dag, x, y, s)


def dsep_oracle(dag: Dag) -> DsepOracle:
    return DsepOracle(dag)


class Dataset:
    """n x p sample matrix with its correlation matrix computed once.

    Requires n >= 2 rows and finite, nonconstant columns, since the
    correlation matrix is undefined otherwise.
    """

    __slots__ = ("n", "p", "values", "corr")

    def __init__(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("dataset must be a 2-d matrix")
        n, p = values.shape
        if n < 2:
            raise ValueError("dataset needs at least two rows")
        finite = np.isfinite(values).all(axis=0)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"column {bad} holds NaN or infinite values")
        stds = values.std(axis=0)
        if np.any(stds == 0.0):
            bad = int(np.flatnonzero(stds == 0.0)[0])
            raise ValueError(f"column {bad} is constant; correlation undefined")
        self.n = n
        self.p = p
        self.values = values
        corr = np.corrcoef(values, rowvar=False)
        corr = np.clip(corr, -1.0, 1.0)
        np.fill_diagonal(corr, 1.0)
        self.corr = corr


def load_dataset(path) -> Dataset:
    """Read a headerless numeric CSV with one row per sample."""
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    return Dataset(values)


def save_dataset(d: Dataset, path) -> None:
    np.savetxt(path, d.values, delimiter=",", fmt="%.10g")


def default_alpha(p: int) -> float:
    """Significance level 2 / p**2, shrinking with dimension."""
    if p < 2:
        raise ValueError("alpha default needs p >= 2")
    return 2.0 / (p * p)


@dataclass
class GaussianCiConfig:
    """Fisher-Z settings; alpha=None resolves to default_alpha(p)."""

    alpha: float | None = None


_CLAMP = 1.0 - 1e-7


def partial_correlation_from_corr(corr: np.ndarray, x: int, y: int, s) -> float:
    """Partial correlation of x, y given s from a correlation matrix.

    Uses the precision-matrix identity on the (|s|+2)-dimensional submatrix.
    A singular or non-positive-definite submatrix raises LinAlgError rather
    than returning a silent junk value. Output is clamped to +-(1 - 1e-7) so
    the Fisher transform stays finite.
    """
    s = check_query(corr.shape[0], x, y, s)
    if not s:
        r = float(corr[x, y])
    else:
        idx = [x, y, *sorted(s)]
        theta = np.linalg.inv(corr[np.ix_(idx, idx)])
        if theta[0, 0] <= 0.0 or theta[1, 1] <= 0.0:
            raise np.linalg.LinAlgError(
                "submatrix not positive definite; partial correlation undefined"
            )
        r = float(-theta[0, 1] / sqrt(theta[0, 0] * theta[1, 1]))
    return max(-_CLAMP, min(_CLAMP, r))


def partial_correlation(d: Dataset, x: int, y: int, s) -> float:
    return partial_correlation_from_corr(d.corr, x, y, s)


class FisherZOracle(CiOracle):
    """Gaussian CI oracle: Fisher-transformed partial correlation z-test.

    z = sqrt(n - |s| - 3) * atanh(rho); independent iff |z| <= the two-sided
    normal quantile for alpha, with ties counted as independent. Samples too
    small for the transform (n <= |s| + 3) are declared dependent and counted
    in ``n_degenerate``; a singular or non-positive-definite submatrix (as
    collinear columns give) is declared dependent and counted in
    ``n_singular``.
    """

    def __init__(self, dataset: Dataset, config: GaussianCiConfig | None = None) -> None:
        super().__init__()
        alpha = config.alpha if config is not None else None
        if alpha is None:
            alpha = default_alpha(dataset.p)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.dataset = dataset
        self.p = dataset.p
        self.alpha = alpha
        self.z_threshold = float(norm.ppf(1.0 - alpha / 2.0))

    def _decide(self, x: int, y: int, s: frozenset[int]) -> bool:
        n = self.dataset.n
        if n <= len(s) + 3:
            self.n_degenerate += 1
            return False
        try:
            r = partial_correlation_from_corr(self.dataset.corr, x, y, s)
        except np.linalg.LinAlgError:
            self.n_singular += 1
            return False
        z = sqrt(n - len(s) - 3) * atanh(r)
        return abs(z) <= self.z_threshold


def fisher_z_oracle(
    dataset: Dataset, config: GaussianCiConfig | None = None
) -> FisherZOracle:
    return FisherZOracle(dataset, config)
