"""Conditional independence oracles with mandatory test accounting.

Two oracle families share one interface: exact d-separation queries against a
known DAG, and Fisher-Z partial-correlation tests on Gaussian data. Every
call to ``query`` that returns an answer is counted exactly once, duplicates
included; a call that raises counts nothing. Deduplication is always the
caller's job. ``query`` returns True iff the pair is judged independent
given the conditioning set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import atanh, sqrt
from typing import Iterable

import numpy as np

from .graph import AllBut, Dag, check_query, d_separated


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
    as a frozenset, or, during total conditioning, as ``AllBut(p, x, y)``:
    ``query`` passes an ``AllBut`` of its own p, x and y through unconverted
    and turns every other input into a frozenset. ``_decide`` owns argument
    validation: it must reject a bad query with ``check_query``'s errors
    before deciding anything. A query is counted only after ``_decide``
    returns, so a rejected one counts nothing. Each query is validated
    once, by the kernel that decides it: ``d_separated`` for ``DsepOracle``
    and ``partial_correlation_from_corr`` for ``FisherZOracle``, which
    repeats the kernel's checks itself only for the degenerate queries that
    never reach it. Both kernels take an ``AllBut`` as it is:
    ``d_separated`` encodes it from x and y, and the Fisher-Z kernel reads
    it through ``sorted(s)``.

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

    def query(self, x: int, y: int, s: Iterable[int] = ()) -> bool:
        if not (type(s) is AllBut and s.x == x and s.y == y and s.p == self.p):
            s = frozenset(s)
        answer = self._decide(x, y, s)
        # Counted only once answered, so a query that raises leaves no trace.
        k = len(s)
        self._by_size[k] = self._by_size.get(k, 0) + 1
        return answer

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

    def _decide(self, x: int, y: int, s: frozenset[int] | AllBut) -> bool:
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

    def _decide(self, x: int, y: int, s: frozenset[int] | AllBut) -> bool:
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
        # corrcoef returns a 0-d array for a single column.
        corr = np.atleast_2d(np.corrcoef(values, rowvar=False))
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

    Gathers the submatrix over the order [*sorted(s), x, y] and factors it
    once with a lower Cholesky factorization, L L^T. The trailing 2x2 block
    L22 of the factor satisfies L22 L22^T = the Schur complement of the s
    block, which is the conditional covariance of (x, y) given s, so with
    L22 = [[., 0], [a, b]] the partial correlation is a / sqrt(a^2 + b^2).
    A submatrix that is not positive definite (singular or indefinite)
    raises LinAlgError rather than returning a silent junk value. Output is
    clamped to +-(1 - 1e-7) so the Fisher transform stays finite.
    """
    s = check_query(corr.shape[0], x, y, s)
    if not s:
        r = float(corr[int(x), int(y)])
    else:
        idx = sorted(s)
        idx.append(x)
        idx.append(y)
        # One conversion serves both gathers; it turns a vertex given as a
        # numpy integer or an integral float into that vertex, and raises
        # TypeError for a complex one.
        idx = np.array(idx, dtype=np.intp)
        sub = corr.take(idx, axis=0).take(idx, axis=1)
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
        if alpha is None:
            alpha = default_alpha(dataset.p)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.n = dataset.n
        self.corr = dataset.corr
        self.p = dataset.p
        self.alpha = alpha
        _bind_scipy()
        # ndtri is the standard normal quantile that scipy.stats.norm.ppf
        # wraps; calling it directly spares importing all of scipy.stats.
        self.z_threshold = float(ndtri(1.0 - alpha / 2.0))

    def _decide(self, x: int, y: int, s: frozenset[int] | AllBut) -> bool:
        n = self.n
        if n <= len(s) + 3:
            # This branch never reaches the kernel, so it repeats the
            # kernel's checks: check_query, then the int() conversion that
            # raises TypeError for a complex vertex such as 2+0j.
            for v in (x, y, *check_query(self.p, x, y, s)):
                int(v)
            self.n_degenerate += 1
            return False
        try:
            r = partial_correlation_from_corr(self.corr, x, y, s)
        except np.linalg.LinAlgError:
            self.n_singular += 1
            return False
        z = sqrt(n - len(s) - 3) * atanh(r)
        return abs(z) <= self.z_threshold


def fisher_z_oracle(dataset: Dataset, alpha: float | None = None) -> FisherZOracle:
    """A ``FisherZOracle`` at significance level alpha, which defaults to
    ``default_alpha(dataset.p)``."""
    return FisherZOracle(dataset, alpha)
