"""Conditional independence oracles with mandatory test accounting.

Two oracle families share one interface: exact d-separation queries against a
known DAG, and Fisher-Z partial-correlation tests on Gaussian data. Every
call to ``query`` that returns an answer is counted exactly once, duplicates
included; a call that raises counts nothing. Deduplication is always the
caller's job. ``query`` returns True iff the pair is judged independent
given the conditioning set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from math import atanh, sqrt
from operator import index
from typing import Iterable

import numpy as np

from .graph import REST, Dag, Rest, check_query, d_separated


@dataclass(frozen=True)
class CiStats:
    """Counts of CI queries by conditioning-set size.

    ``by_size[k]`` is the number of queries asked with |S| = k; sizes never
    asked are left out, so an empty window equals ``CiStats()``. The totals
    are derived from it. ``later - earlier`` of two ``CiOracle.stats()``
    snapshots gives the stats of the queries asked in between, including
    their largest |S|.
    """

    by_size: dict[int, int] = field(default_factory=dict)

    @property
    def n_tests(self) -> int:
        return sum(self.by_size.values())

    @property
    def sum_cond_size(self) -> int:
        return sum(k * c for k, c in self.by_size.items())

    @property
    def max_cond_size(self) -> int:
        return max(self.by_size, default=0)

    @property
    def asc(self) -> float:
        """Average conditioning set size; 0.0 before any query."""
        n = self.n_tests
        return self.sum_cond_size / n if n else 0.0

    def __sub__(self, earlier: CiStats) -> CiStats:
        before = earlier.by_size
        diff = {k: c - before.get(k, 0) for k, c in self.by_size.items()}
        return CiStats({k: c for k, c in diff.items() if c})


class CiOracle:
    """Base oracle: ``query``, ``search`` and ``stats`` around ``_decide``.

    Subclasses set ``self.p`` and implement ``_decide(x, y, s)``. It gets s
    as a frozenset, or, during total conditioning, as ``graph.REST``, every
    vertex but x and y: ``query`` passes ``REST`` through unconverted,
    counts it at |S| = p - 2, and turns every other input into a
    frozenset. ``_decide`` owns argument validation: it must reject a bad
    query with ``check_query``'s errors before deciding anything. A query
    is counted only after ``_decide`` returns, so a rejected one counts
    nothing. Each query is validated once, by the kernel that decides it:
    ``d_separated`` for ``DsepOracle`` and ``partial_correlation_from_corr``
    for ``FisherZOracle``, which repeats the kernel's checks itself only
    for the degenerate queries that never reach it. Both kernels take
    ``REST`` as it is: ``d_separated`` answers it from the moral row,
    independent exactly when y is off x's Markov blanket, and the Fisher-Z
    kernel gathers every vertex but x and y in ascending order.

    ``search(x, y, pool, base, sizes)`` is the one subset search the
    learners use, and the only place that knows the enumeration order. It
    asks ``query`` once per candidate up to the first independence, so a
    search counts exactly the prefix it tried.

    ``stats()`` returns a snapshot of the lifetime counts; it does not move
    when later queries are asked. A caller that wants the queries of one
    stage takes a snapshot before it and subtracts it from one after.

    ``n_degenerate`` and ``n_singular`` count, over the oracle's whole life,
    the queries it could not decide and answered "dependent": too few
    samples for the test, and a correlation submatrix that is not positive
    definite (singular or indefinite). An exact oracle leaves both at 0.
    """

    p: int
    n_degenerate = 0
    n_singular = 0

    def __init__(self) -> None:
        self._by_size: dict[int, int] = {}

    def query(self, x: int, y: int, s: Iterable[int] | Rest = ()) -> bool:
        if s is not REST:
            s = frozenset(s)
        answer = self._decide(x, y, s)
        # Counted only once answered, so a query that raises leaves no trace.
        k = self._size(s)
        self._by_size[k] = self._by_size.get(k, 0) + 1
        return answer

    def _size(self, s: frozenset[int] | Rest) -> int:
        """|S|, with ``REST`` counted as the p - 2 vertices it stands for."""
        return self.p - 2 if s is REST else len(s)

    def search(
        self,
        x: int,
        y: int,
        pool: Iterable[int],
        base: Iterable[int] = (),
        sizes: Iterable[int] | None = None,
    ) -> frozenset[int] | None:
        """The first set given which x and y test independent.

        The candidates are ``base`` joined with each subset of
        ``sorted(set(pool))`` whose size is in ``sizes`` (default: every
        size, 0 through |pool|), in the order of ``sizes`` and
        lexicographically within a size. Asks ``query`` once per candidate,
        in order, and returns the first set answered independent, or None
        when none is, so exactly the candidates tried are counted. A
        candidate that fails validation raises; only the candidates before
        it stay counted.
        """
        members = sorted(set(pool))
        base = frozenset(base)
        # Either way one allocation per candidate; frozenset(combo) also
        # skips copying an empty base.
        join = base.union if base else frozenset
        if sizes is None:
            sizes = range(len(members) + 1)
        query = self.query
        for r in sizes:
            for combo in combinations(members, r):
                s = join(combo)
                if query(x, y, s):
                    return s
        return None

    def _decide(self, x: int, y: int, s: frozenset[int] | Rest) -> bool:
        raise NotImplementedError

    def stats(self) -> CiStats:
        return CiStats(dict(self._by_size))


class DsepOracle(CiOracle):
    """Exact oracle answering queries by d-separation in a known DAG.

    ``d_separated`` validates each query, so the oracle does not repeat it.
    """

    def __init__(self, dag: Dag) -> None:
        super().__init__()
        self.dag = dag
        self.p = dag.p

    def _decide(self, x: int, y: int, s: frozenset[int] | Rest) -> bool:
        return d_separated(self.dag, x, y, s)


dsep_oracle = DsepOracle


class Dataset:
    """n x p sample matrix with its correlation matrix computed once.

    Requires n >= 2 rows and finite, nonconstant columns whose variance
    neither overflows nor underflows (as 1e200 or 1e-200 times a normal
    column does), since the correlation matrix is undefined otherwise.
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
        _check_columns(~finite, "holds NaN or infinite values")
        with np.errstate(all="ignore"):
            # The range, unlike the standard deviation, cannot underflow to
            # 0. corrcoef returns a 0-d array for a single column.
            spread = np.ptp(values, axis=0)
            corr = np.atleast_2d(np.corrcoef(values, rowvar=False))
        _check_columns(spread == 0.0, "is constant; correlation undefined")
        _check_columns(
            ~np.isfinite(corr.diagonal()),
            "is too large or too small for a correlation matrix; rescale it",
        )
        self.n = n
        self.p = p
        self.values = values
        corr = np.clip(corr, -1.0, 1.0)
        np.fill_diagonal(corr, 1.0)
        self.corr = corr


def _check_columns(bad: np.ndarray, problem: str) -> None:
    """Reject a dataset naming the first column ``bad`` flags."""
    if bad.any():
        raise ValueError(f"column {int(np.flatnonzero(bad)[0])} {problem}")


def load_dataset(path) -> Dataset:
    """Read a headerless numeric CSV with one row per sample."""
    with warnings.catch_warnings():
        # An empty file fails Dataset's row check; numpy's warning adds nothing.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        values = np.loadtxt(path, delimiter=",", ndmin=2)
    return Dataset(values)


def save_dataset(d: Dataset, path) -> None:
    np.savetxt(path, d.values, delimiter=",", fmt="%.10g")


def default_alpha(p: int) -> float:
    """Significance level 2 / p**2, shrinking with dimension."""
    if p < 2:
        raise ValueError("alpha default needs p >= 2")
    return 2.0 / (p * p)


def checked_alpha(alpha: float | None, p: int) -> float:
    """``alpha``, or ``default_alpha(p)`` when it is None, checked to lie
    in (0, 1)."""
    if alpha is None:
        alpha = default_alpha(p)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


_CLAMP = 1.0 - 1e-7


def _bind_scipy() -> None:
    """Bind the scipy routines of the Fisher-Z path over this module's names.

    Deferred so that the exact path never imports scipy, which costs about
    0.35 s and 30 MB. ``FisherZOracle`` binds them when it is built; a
    direct call of ``partial_correlation_from_corr`` binds them on its first
    use through the ``dpotrf`` stand-in below.
    """
    global dpotrf, ndtri
    from scipy.linalg.lapack import dpotrf
    from scipy.special import ndtri


def dpotrf(*args, **kwargs):
    """Stand-in for scipy's dpotrf: replaces itself on its first call."""
    _bind_scipy()
    return dpotrf(*args, **kwargs)


def partial_correlation_from_corr(corr: np.ndarray, x: int, y: int, s) -> float:
    """Partial correlation of x, y given s from a correlation matrix.

    Gathers the submatrix over the order [*sorted(s), x, y] (for ``REST``,
    every vertex but x and y in ascending order, then x and y) and factors
    it once with a lower Cholesky factorization, L L^T. The trailing 2x2
    block L22 of the factor satisfies L22 L22^T = the Schur complement of
    the s block, which is the conditional covariance of (x, y) given s, so
    with L22 = [[., 0], [a, b]] the partial correlation is
    a / sqrt(a^2 + b^2).
    A submatrix that is not positive definite (singular or indefinite)
    raises LinAlgError rather than returning a silent junk value. Output is
    clamped to +-(1 - 1e-7) so the Fisher transform stays finite.
    The vertices index ``corr`` as given: a float or complex one raises
    TypeError.
    """
    p = corr.shape[0]
    s = check_query(p, x, y, s)
    if s is REST:
        idx = [v for v in range(p) if v != x and v != y]
    else:
        idx = sorted(s)
    if not idx:
        r = float(corr[index(x), index(y)])
    else:
        idx.append(x)
        idx.append(y)
        # One array serves both gathers. Only a non-integer one (a float or
        # complex vertex, or numpy's float array of a np.uint64 mixed with
        # other ints) is rebuilt through index(), which rejects the former.
        gather = np.array(idx)
        if gather.dtype.kind not in "iu":
            gather = np.array([index(v) for v in idx])
        sub = corr.take(gather, axis=0).take(gather, axis=1)
        # sub.T is a Fortran-ordered view, so LAPACK factors the gathered
        # copy in place and never touches corr. Positional arguments in
        # f2py's order: lower=1, clean=0, overwrite_a=1.
        c, info = dpotrf(sub.T, 1, 0, 1)
        if info != 0:
            raise np.linalg.LinAlgError(
                "submatrix not positive definite; partial correlation undefined"
            )
        a = float(c[-1, -2])
        b = float(c[-1, -1])
        r = a / sqrt(a * a + b * b)
    return max(-_CLAMP, min(_CLAMP, r))


class FisherZOracle(CiOracle):
    """Gaussian CI oracle: Fisher-transformed partial correlation z-test.

    z = sqrt(n - |s| - 3) * atanh(rho); independent iff |z| <= the two-sided
    normal quantile for the significance level ``alpha``, with ties counted
    as independent. ``alpha`` must lie in (0, 1) and defaults to
    ``default_alpha(p)``. Samples too small for the transform
    (n <= |s| + 3) are declared dependent and counted in ``n_degenerate``;
    a submatrix that is not positive definite (singular, as collinear
    columns give, or indefinite) is declared dependent and counted in
    ``n_singular``.

    A degenerate query is validated here before it is counted, and is
    rejected exactly when the kernel would reject it; every other query is
    validated by the kernel, ``partial_correlation_from_corr``, alone. The
    oracle keeps only the sample count ``n`` and the correlation matrix
    ``corr`` of its dataset, so the sample matrix is freed with the
    ``Dataset`` it came from.
    """

    def __init__(self, dataset: Dataset, alpha: float | None = None) -> None:
        super().__init__()
        self.alpha = alpha = checked_alpha(alpha, dataset.p)
        self.n = dataset.n
        self.corr = dataset.corr
        self.p = dataset.p
        _bind_scipy()
        # ndtri is the standard normal quantile that scipy.stats.norm.ppf
        # wraps; calling it directly spares importing all of scipy.stats.
        self.z_threshold = float(ndtri(1.0 - alpha / 2.0))

    def _decide(self, x: int, y: int, s: frozenset[int] | Rest) -> bool:
        n = self.n
        k = self._size(s)
        if n <= k + 3:
            # This branch never reaches the kernel, so it repeats the
            # kernel's checks: check_query, then the integer rule that
            # raises TypeError for a vertex such as 2.0 or 2+0j.
            check_query(self.p, x, y, s)
            for v in (x, y, *(() if s is REST else s)):
                index(v)
            self.n_degenerate += 1
            return False
        try:
            r = partial_correlation_from_corr(self.corr, x, y, s)
        except np.linalg.LinAlgError:
            self.n_singular += 1
            return False
        z = sqrt(n - k - 3) * atanh(r)
        return abs(z) <= self.z_threshold


fisher_z_oracle = FisherZOracle
