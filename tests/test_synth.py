"""Generator and simulation tests.

Graph generators are checked for shape properties (edge counts, in-degree
caps, cluster layout) and per-seed determinism; the sampler is checked
against the analytic covariance of the model it claims to draw from.
"""

import hashlib
import math

import numpy as np
import pytest

from reference import neighbors, population_covariance
from marvel.bench import simulate_dataset
from marvel.graph import Dag
from marvel.synth import (
    ScmSpec,
    cluster_adversarial_dag,
    erdos_renyi_dag,
    fixed_indegree_dag,
    random_scm,
    sample,
)


class TestErdosRenyi:
    def test_edge_count_exact(self):
        g = erdos_renyi_dag(25, 75, seed=0)
        assert g.p == 25
        assert g.n_edges == 75

    def test_zero_edges(self):
        g = erdos_renyi_dag(6, 0, seed=1)
        assert g.n_edges == 0

    def test_full_graph(self):
        g = erdos_renyi_dag(5, 10, seed=2)
        assert g.n_edges == 10

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            erdos_renyi_dag(4, 7, seed=0)

    def test_negative_edge_count_rejected(self):
        with pytest.raises(ValueError, match="need 0 <= m"):
            erdos_renyi_dag(4, -1, seed=0)

    def test_many_seeds_build_valid_dags(self):
        # Dag construction rejects cycles, so building is the check
        for seed in range(300):
            erdos_renyi_dag(8, 14, seed=seed)

    def test_deterministic_per_seed(self):
        assert erdos_renyi_dag(10, 20, seed=7) == erdos_renyi_dag(10, 20, seed=7)
        assert any(
            erdos_renyi_dag(10, 20, seed=7) != erdos_renyi_dag(10, 20, seed=s)
            for s in range(8, 13)
        )


class TestFixedIndegree:
    def test_zero_indegree(self):
        assert fixed_indegree_dag(6, 0, seed=0).n_edges == 0

    def test_indegree_capped(self):
        for seed in range(300):
            g = fixed_indegree_dag(10, 3, seed=seed)
            assert g.max_in_degree() <= 3

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            fixed_indegree_dag(5, 5, seed=0)
        with pytest.raises(ValueError):
            fixed_indegree_dag(5, -1, seed=0)

    def test_deterministic_per_seed(self):
        assert fixed_indegree_dag(12, 4, seed=3) == fixed_indegree_dag(
            12, 4, seed=3
        )


class TestClusterAdversarial:
    def test_two_triangles(self):
        g = cluster_adversarial_dag(6, 2)
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}

    def test_singleton_clusters(self):
        assert cluster_adversarial_dag(4, 0).n_edges == 0

    def test_leftover_vertices_isolated(self):
        g = cluster_adversarial_dag(8, 2)
        assert neighbors(g, 6) == frozenset()
        assert neighbors(g, 7) == frozenset()

    def test_max_indegree_is_d(self):
        for p, d in [(6, 2), (9, 2), (10, 4), (12, 1), (7, 6)]:
            assert cluster_adversarial_dag(p, d).max_in_degree() == d

    def test_oversized_cluster_rejected(self):
        with pytest.raises(ValueError):
            cluster_adversarial_dag(3, 3)

    @pytest.mark.parametrize("d", [-1, -2])
    def test_negative_d_rejected(self, d):
        with pytest.raises(ValueError):
            cluster_adversarial_dag(3, d)


DIAMOND = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestRandomScm:
    def test_ranges_and_keys(self):
        spec = random_scm(DIAMOND, seed=0)
        assert set(spec.coeffs) == set(DIAMOND.edges())
        for c in spec.coeffs.values():
            assert 0.5 <= abs(c) <= 1.0
        for sd in spec.noise_sd:
            assert 1.0 <= sd <= math.sqrt(3.0)

    def test_both_signs_appear(self):
        coeffs = [
            c
            for seed in range(10)
            for c in random_scm(DIAMOND, seed=seed).coeffs.values()
        ]
        assert any(c > 0 for c in coeffs)
        assert any(c < 0 for c in coeffs)

    def test_deterministic_per_seed(self):
        a = random_scm(DIAMOND, seed=5)
        b = random_scm(DIAMOND, seed=5)
        assert a.coeffs == b.coeffs
        assert a.noise_sd == b.noise_sd

    def test_scm_spec_validation(self):
        spec = random_scm(DIAMOND, seed=0)
        with pytest.raises(ValueError):
            ScmSpec(DIAMOND, {**spec.coeffs, (0, 3): 1.0}, spec.noise_sd)
        with pytest.raises(ValueError):
            ScmSpec(DIAMOND, spec.coeffs, spec.noise_sd[:-1])
        with pytest.raises(ValueError):
            ScmSpec(DIAMOND, spec.coeffs, (1.0, 1.0, 1.0, -1.0))


class TestSample:
    def test_shape_and_determinism(self):
        spec = random_scm(DIAMOND, seed=1)
        d1 = sample(spec, 100, seed=2)
        d2 = sample(spec, 100, seed=2)
        assert d1.values.shape == (100, 4)
        assert np.array_equal(d1.values, d2.values)

    def test_tiny_n_rejected(self):
        spec = random_scm(DIAMOND, seed=1)
        with pytest.raises(ValueError):
            sample(spec, 1, seed=0)

    def test_empty_dag_columns_independent(self):
        spec = random_scm(Dag(3), seed=3)
        d = sample(spec, 20000, seed=4)
        off = d.corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.05)

    def test_single_edge_correlation(self):
        g = Dag(2, [(0, 1)])
        spec = ScmSpec(g, {(0, 1): 0.8}, (1.0, 1.0))
        cov = population_covariance(spec)
        expected = 0.8 / math.sqrt(1 + 0.8**2)
        assert cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]) == pytest.approx(
            expected
        )
        d = sample(spec, 50000, seed=5)
        assert d.corr[0, 1] == pytest.approx(expected, abs=0.02)

    def test_sample_means_near_zero(self):
        spec = random_scm(DIAMOND, seed=6)
        n = 40000
        d = sample(spec, n, seed=7)
        sds = np.sqrt(np.diag(population_covariance(spec)))
        assert np.all(np.abs(d.values.mean(axis=0)) < 5 * sds / math.sqrt(n))

    def test_population_matches_sample_covariance(self):
        spec = random_scm(DIAMOND, seed=8)
        n = 100000
        d = sample(spec, n, seed=9)
        pop = population_covariance(spec)
        emp = np.cov(d.values, rowvar=False)
        scale = np.sqrt(np.outer(np.diag(pop), np.diag(pop)))
        assert np.all(np.abs(emp - pop) < 6 * scale / math.sqrt(n))


def test_simulated_data_pinned():
    # The ten datasets of the fixed Fisher-Z cell (p = 50, delta_in = 4,
    # n = 2500, seeds 0-9), hashed in seed order. The digest was computed
    # while the ranges were still settable, with their defaults, so the fixed
    # ranges reproduce every dataset bit for bit.
    h = hashlib.sha256()
    for s in range(10):
        data = simulate_dataset(fixed_indegree_dag(50, 4, s), 2500, s)
        h.update(data.values.tobytes())
    assert h.hexdigest() == (
        "312d47a61d13bbba5372801f42553d664d18ed831659a9bfe5d5163c70d15757"
    )


class TestPopulationCovariance:
    def test_chain_composition(self):
        g = Dag(3, [(0, 1), (1, 2)])
        spec = ScmSpec(g, {(0, 1): 0.5, (1, 2): -0.7}, (1.0, 2.0, 0.5))
        cov = population_covariance(spec)
        assert cov[0, 0] == pytest.approx(1.0)
        assert cov[1, 1] == pytest.approx(0.5**2 + 4.0)
        assert cov[0, 1] == pytest.approx(0.5)
        assert cov[0, 2] == pytest.approx(0.5 * -0.7)
        assert cov[2, 2] == pytest.approx((-0.7) ** 2 * (0.5**2 + 4.0) + 0.25)

    def test_collider_parents_uncorrelated(self):
        g = Dag(3, [(0, 2), (1, 2)])
        spec = ScmSpec(g, {(0, 2): 0.9, (1, 2): -0.9}, (1.0, 1.0, 1.0))
        cov = population_covariance(spec)
        assert cov[0, 1] == pytest.approx(0.0)
