"""CI oracle tests: accounting exactness, Fisher-Z behavior, partial correlation.

Numeric expectations were derived independently: the z value for rho=0.5 at
n=100 from the transform definition, the single-edge correlation from the
closed-form covariance of a two-variable linear model, and the population
partial correlations from analytic covariance matrices.
"""

import random
from math import atanh, sqrt

import numpy as np
import pytest

from conftest import random_dag, random_query
from marvel.ci import (
    CiStats,
    Dataset,
    GaussianCiConfig,
    default_alpha,
    dsep_oracle,
    fisher_z_oracle,
    load_dataset,
    partial_correlation,
    partial_correlation_from_corr,
    save_dataset,
)
from marvel.graph import Dag, d_separated


def population_corr(p, edges_with_coeffs, noise_var):
    """Closed-form correlation of the linear model x = B^T x + eps."""
    b = np.zeros((p, p))
    for (i, j), c in edges_with_coeffs.items():
        b[i, j] = c
    a = np.linalg.inv(np.eye(p) - b.T)
    cov = a @ np.diag(noise_var) @ a.T
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


class TestCiStats:
    def test_asc_empty(self):
        assert CiStats().asc == 0.0

    def test_counting_exact(self):
        g = Dag(4, [(0, 1), (1, 2), (2, 3)])
        o = dsep_oracle(g)
        o.query(0, 2, (1,))
        o.query(0, 3, (1, 2))
        o.query(0, 3, (1, 2))  # duplicate still counts
        st = o.stats()
        assert st.n_tests == 3
        assert st.sum_cond_size == 5
        assert st.max_cond_size == 2
        assert st.asc == pytest.approx(5 / 3)

    def test_phase_window(self):
        g = Dag(3, [(0, 1)])
        o = dsep_oracle(g)
        o.query(0, 1, ())
        o.begin_phase()
        o.query(0, 2, (1,))
        assert o.stats().n_tests == 2
        ph = o.phase_stats()
        assert ph.n_tests == 1 and ph.max_cond_size == 1

    def test_stats_returns_copy(self):
        g = Dag(2, [(0, 1)])
        o = dsep_oracle(g)
        snap = o.stats()
        o.query(0, 1, ())
        assert snap.n_tests == 0


class TestDsepOracle:
    def test_matches_d_separated(self):
        rng = random.Random(61)
        for _ in range(100):
            g = random_dag(rng, rng.randint(2, 9))
            o = dsep_oracle(g)
            x, y, s = random_query(rng, g.p)
            assert o.query(x, y, s) == d_separated(g, x, y, s)

    def test_symmetric(self):
        rng = random.Random(67)
        g = random_dag(rng, 8)
        o = dsep_oracle(g)
        for _ in range(50):
            x, y, s = random_query(rng, g.p)
            assert o.query(x, y, s) == o.query(y, x, s)

    def test_undecided_counters_stay_zero(self):
        o = dsep_oracle(Dag(3, [(0, 1)]))
        o.query(0, 2, (1,))
        assert (o.n_degenerate, o.n_singular) == (0, 0)


class TestQueryValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: dsep_oracle(Dag(3, [(0, 1)])),
            lambda: fisher_z_oracle(
                Dataset(np.random.default_rng(4).normal(size=(30, 3)))
            ),
        ],
        ids=["dsep", "fisher_z"],
    )
    def test_argument_errors_not_counted(self, make):
        o = make()
        with pytest.raises(ValueError, match="endpoints must differ"):
            o.query(0, 0, ())
        with pytest.raises(ValueError, match="may not contain the endpoints"):
            o.query(0, 1, (1,))
        with pytest.raises(ValueError, match="out of range"):
            o.query(0, 5, ())
        assert o.stats().n_tests == 0


class TestDataset:
    def test_shape_and_corr(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(50, 4))
        d = Dataset(vals)
        assert d.n == 50 and d.p == 4
        assert np.allclose(d.corr, d.corr.T)
        assert np.allclose(np.diag(d.corr), 1.0)
        assert np.all(np.abs(d.corr) <= 1.0)

    def test_rejects_constant_column(self):
        vals = np.ones((10, 2))
        vals[:, 0] = np.arange(10)
        with pytest.raises(ValueError):
            Dataset(vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_values(self, bad):
        vals = np.random.default_rng(12).normal(size=(10, 3))
        vals[4, 1] = bad
        with pytest.raises(ValueError, match="column 1"):
            Dataset(vals)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((1, 3)))

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        d = Dataset(rng.normal(size=(20, 3)))
        path = tmp_path / "data.csv"
        save_dataset(d, path)
        d2 = load_dataset(path)
        assert d2.n == 20 and d2.p == 3
        assert np.allclose(d.values, d2.values, atol=1e-9)


class TestPartialCorrelation:
    def test_marginal_case_returns_corr_entry(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(size=(40, 3)))
        assert partial_correlation(d, 0, 2, ()) == pytest.approx(
            float(d.corr[0, 2]), abs=1e-12
        )

    def test_population_chain_vanishes(self):
        # 0 -> 1 -> 2: partialling out the middle removes all correlation
        corr = population_corr(
            3, {(0, 1): 0.8, (1, 2): -0.7}, np.array([1.0, 1.0, 1.0])
        )
        assert partial_correlation_from_corr(corr, 0, 2, (1,)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_population_collider_opens(self):
        # 0 -> 2 <- 1: marginally zero, nonzero given the collider
        corr = population_corr(3, {(0, 2): 0.9, (1, 2): 0.9}, np.ones(3))
        assert partial_correlation_from_corr(corr, 0, 1, ()) == pytest.approx(
            0.0, abs=1e-12
        )
        assert abs(partial_correlation_from_corr(corr, 0, 1, (2,))) > 0.3

    def test_single_edge_closed_form(self):
        for c in (0.5, 1.0, -2.0):
            corr = population_corr(2, {(0, 1): c}, np.ones(2))
            assert corr[0, 1] == pytest.approx(c / sqrt(1 + c * c), abs=1e-12)

    def test_clamped(self):
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        r = partial_correlation_from_corr(corr, 0, 1, ())
        assert r == pytest.approx(1.0 - 1e-7)

    def test_argument_errors(self):
        corr = np.eye(3)
        with pytest.raises(ValueError):
            partial_correlation_from_corr(corr, 0, 0, ())
        with pytest.raises(ValueError):
            partial_correlation_from_corr(corr, 0, 1, (1,))
        with pytest.raises(ValueError):
            partial_correlation_from_corr(corr, 0, 3, ())

    def test_singular_submatrix_raises(self):
        # duplicate a variable so the conditioning submatrix is singular
        base = np.array(
            [
                [1.0, 0.5, 0.5, 0.3],
                [0.5, 1.0, 1.0, 0.2],
                [0.5, 1.0, 1.0, 0.2],
                [0.3, 0.2, 0.2, 1.0],
            ]
        )
        with pytest.raises(np.linalg.LinAlgError):
            partial_correlation_from_corr(base, 0, 3, (1, 2))


class TestFisherZ:
    def test_default_alpha(self):
        assert default_alpha(25) == pytest.approx(2 / 625)
        with pytest.raises(ValueError):
            default_alpha(1)

    def test_textbook_z_value(self):
        # rho = 0.5, n = 100, |s| = 0: z = atanh(0.5) * sqrt(97) ~ 5.411
        z = sqrt(100 - 0 - 3) * atanh(0.5)
        assert z == pytest.approx(5.4100, abs=5e-4)
        # build data with that exact sample correlation via construction
        rng = np.random.default_rng(5)
        a = rng.normal(size=10000)
        b = 0.5 * a + sqrt(1 - 0.25) * rng.normal(size=10000)
        d = Dataset(np.column_stack([a, b]))
        o = fisher_z_oracle(d, GaussianCiConfig(alpha=0.05))
        assert not o.query(0, 1, ())  # strongly dependent

    def test_independent_columns_accepted(self):
        rng = np.random.default_rng(6)
        d = Dataset(rng.normal(size=(5000, 2)))
        o = fisher_z_oracle(d, GaussianCiConfig(alpha=0.01))
        assert o.query(0, 1, ())

    def test_degenerate_sample_forced_dependent(self):
        rng = np.random.default_rng(7)
        d = Dataset(rng.normal(size=(5, 4)))
        o = fisher_z_oracle(d, GaussianCiConfig(alpha=0.05))
        # n = 5 <= |s| + 3 once |s| >= 2
        assert not o.query(0, 1, (2, 3))
        assert o.n_degenerate == 1
        assert o.stats().n_tests == 1

    def test_singular_submatrix_forced_dependent(self):
        # x3 = x0 + x1 makes the submatrix of {0, 1, 3} singular
        vals = np.random.default_rng(13).normal(size=(200, 4))
        vals[:, 3] = vals[:, 0] + vals[:, 1]
        o = fisher_z_oracle(Dataset(vals), GaussianCiConfig(alpha=0.05))
        assert not o.query(0, 2, (1, 3))
        assert (o.n_singular, o.n_degenerate) == (1, 0)
        assert o.stats().n_tests == 1

    def test_alpha_validation(self):
        rng = np.random.default_rng(8)
        d = Dataset(rng.normal(size=(10, 2)))
        with pytest.raises(ValueError):
            fisher_z_oracle(d, GaussianCiConfig(alpha=1.5))

    def test_alpha_default_resolution(self):
        rng = np.random.default_rng(9)
        d = Dataset(rng.normal(size=(100, 5)))
        o = fisher_z_oracle(d)
        assert o.alpha == pytest.approx(2 / 25)

    def test_larger_n_rejects_smaller_correlations(self):
        # same sample correlation, more data: |z| grows, so dependence is
        # declared at sizes where the small sample accepted independence
        corr = 0.08
        rng = np.random.default_rng(10)

        def dataset(n):
            # construct an exact in-sample correlation of `corr`
            a = rng.normal(size=n)
            raw = rng.normal(size=n)
            beta = np.dot(a - a.mean(), raw - raw.mean()) / np.dot(
                a - a.mean(), a - a.mean()
            )
            resid = raw - raw.mean() - beta * (a - a.mean())
            az = (a - a.mean()) / a.std()
            ez = resid / resid.std()
            b = corr * az + sqrt(1 - corr * corr) * ez
            d = Dataset(np.column_stack([a, b]))
            assert d.corr[0, 1] == pytest.approx(corr, abs=1e-9)
            return d

        small = fisher_z_oracle(dataset(30), GaussianCiConfig(alpha=0.05))
        big = fisher_z_oracle(dataset(200000), GaussianCiConfig(alpha=0.05))
        assert small.query(0, 1, ())
        assert not big.query(0, 1, ())

    def test_quick_calibration(self):
        # ~5% rejection under the null at alpha = 0.05; full-strength check
        # with tighter bounds lives in the acceptance suite
        rng = np.random.default_rng(11)
        rejects = 0
        trials = 200
        for _ in range(trials):
            d = Dataset(rng.normal(size=(500, 2)))
            o = fisher_z_oracle(d, GaussianCiConfig(alpha=0.05))
            if not o.query(0, 1, ()):
                rejects += 1
        assert 0.01 <= rejects / trials <= 0.10
