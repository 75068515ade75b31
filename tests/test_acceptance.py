"""Acceptance suite: the library's end-to-end guarantees at full strength.

One test per guarantee, so pytest -v shows one pass/fail line for each.
Exact-oracle recovery, removability, boundary bookkeeping, and collider
closure are held to exact equality against brute-force references; the
query-count criteria are hard per-run bounds; the finite-sample criterion
bounds mean skeleton scores over a fixed seed set.
"""

import random

import numpy as np

from conftest import random_dag
from reference import (
    cpdag_bruteforce,
    induced_subgraph,
    is_removable_graphical,
    markov_boundary_graphical,
    marvel_learn_uncached,
    neighbors,
)
from marvel.bench import ExperimentConfig, run_experiment
from marvel.ci import Dataset, dsep_oracle, fisher_z_oracle
from marvel.graph import (
    apply_meek_rules,
    pdag_from_skeleton_and_vstructs,
    skeleton,
    v_structures,
)
from marvel.marvel import (
    MarvelCaches,
    ci_budget_bound,
    is_removable_ci,
    marvel_learn,
)
from marvel.mb import total_conditioning, update_after_removal


def test_01_exact_oracle_output_equals_bruteforce_essential_graph():
    # 200 seeded draws across p in 4..10 with any edge density; the learned
    # graph must match the brute-force essential graph exactly every time.
    rng = random.Random(101)
    for _ in range(200):
        p = rng.randint(4, 10)
        m = rng.randint(0, p * (p - 1) // 2)
        g = random_dag(rng, p, m)
        oracle = dsep_oracle(g)
        result = marvel_learn(oracle, total_conditioning(oracle))
        assert result.essential == cpdag_bruteforce(g), g


def test_02_query_removability_equals_graphical_removability():
    # The CI-query battery and the structural test must agree on every
    # vertex of 100 random DAGs with p <= 10.
    rng = random.Random(202)
    for _ in range(100):
        g = random_dag(rng, rng.randint(2, 10))
        oracle = dsep_oracle(g)
        for x in range(g.p):
            mb = frozenset(markov_boundary_graphical(g, x))
            verdict, _, _ = is_removable_ci(x, mb, oracle, MarvelCaches())
            assert verdict == is_removable_graphical(g, x), (g, x)


def test_03_query_count_beats_own_bound_and_pc_baseline():
    # Fixed in-degree graphs at p = 25, 20 seeds per in-degree: every run
    # stays within the closed-form query budget, and for in-degree >= 3 the
    # mean count undercuts the PC baseline's mean.
    seeds = tuple(range(20))
    for delta in range(1, 6):
        rows = run_experiment(ExperimentConfig(
            generator="fixed_indegree", p=25, algo="marvel",
            seeds=seeds, delta_in=delta,
        ))
        bound = ci_budget_bound(25, delta)
        assert all(r["post_tests"] <= bound for r in rows[:-1]), delta
        if delta >= 3:
            pc_rows = run_experiment(ExperimentConfig(
                generator="fixed_indegree", p=25, algo="pc",
                seeds=seeds, delta_in=delta,
            ))
            assert rows[-1]["post_tests"] < pc_rows[-1]["post_tests"], delta


def test_04_removable_vertices_have_boundaries_within_max_indegree():
    # On 500 random DAGs, any vertex the structural test calls removable
    # has a Markov boundary no larger than the graph's maximum in-degree.
    rng = random.Random(404)
    for _ in range(500):
        g = random_dag(rng, rng.randint(2, 10))
        delta_in = g.max_in_degree()
        for x in range(g.p):
            if is_removable_graphical(g, x):
                assert len(markov_boundary_graphical(g, x)) <= delta_in, (g, x)


def test_05_finite_sample_skeleton_quality():
    # p = 50, in-degree 4, n = 50p rows, partial-correlation tests at the
    # default level: mean skeleton F1 and recall over 10 seeds must clear
    # 0.85 and 0.90.
    rows = run_experiment(ExperimentConfig(
        generator="fixed_indegree", p=50, algo="marvel",
        seeds=tuple(range(10)), delta_in=4, n_samples=2500,
    ))
    mean = rows[-1]
    assert mean["f1"] >= 0.85, mean
    assert mean["recall"] >= 0.90, mean


def test_06_collider_closure_recovers_the_essential_graph():
    # Rebuilding from the true skeleton plus collider triples and closing
    # under the orientation rules equals brute force on 300 DAGs, p <= 6.
    rng = random.Random(606)
    for _ in range(300):
        g = random_dag(rng, rng.randint(1, 6))
        base = pdag_from_skeleton_and_vstructs(
            g.p, skeleton(g).skeleton_pairs(), v_structures(g)
        )
        assert apply_meek_rules(base) == cpdag_bruteforce(g), g


def test_07_boundary_update_matches_fresh_recomputation():
    # After deleting a removable vertex, the incremental boundary update
    # must equal boundary discovery rerun from scratch on the subgraph.
    rng = random.Random(707)
    for _ in range(100):
        g = random_dag(rng, rng.randint(2, 9))
        x = next(v for v in range(g.p) if is_removable_graphical(g, v))
        oracle = dsep_oracle(g)
        m = total_conditioning(oracle)
        update_after_removal(m, x, sorted(neighbors(g, x)), oracle)
        sub, remap = induced_subgraph(g, (v for v in range(g.p) if v != x))
        fresh = total_conditioning(dsep_oracle(sub))
        back = {new: old for old, new in remap.items()}
        for v in range(g.p):
            if v != x:
                assert m.mb[v] == {back[w] for w in fresh.mb[remap[v]]}, (g, x)


def test_08_independence_test_calibration():
    # Independent bivariate Gaussian, n = 10^4, level 0.05: over 1000
    # resamples the empirical rejection rate stays within [0.04, 0.06].
    rng = np.random.default_rng(1)
    rejections = 0
    for _ in range(1000):
        data = Dataset(rng.standard_normal((10_000, 2)))
        oracle = fisher_z_oracle(data, alpha=0.05)
        if not oracle.query(0, 1):
            rejections += 1
    assert 0.04 <= rejections / 1000 <= 0.06, rejections


def test_09_caches_change_query_counts_but_never_output():
    # 100 random-DAG runs with caching on and off: identical elimination
    # order and essential graph, and caching never costs extra queries and
    # saves some on at least one run.
    rng = random.Random(909)
    saved_somewhere = False
    for _ in range(100):
        g = random_dag(rng, rng.randint(2, 9))
        on_oracle, off_oracle = dsep_oracle(g), dsep_oracle(g)
        on = marvel_learn(on_oracle, total_conditioning(on_oracle))
        off = marvel_learn_uncached(off_oracle, total_conditioning(off_oracle))
        assert on.essential == off.essential, g
        assert on.elimination_order == off.elimination_order, g
        assert on.stats.n_tests <= off.stats.n_tests, g
        saved_somewhere |= on.stats.n_tests < off.stats.n_tests
    assert saved_somewhere
