"""Harness tests: skeleton scoring, the PC baseline, experiments and the CLI.

The PC baseline is validated against cpdag_bruteforce with the exact oracle
and against a scripted inconsistent oracle for its conflict handling.
Experiment runs are checked for byte-level CSV determinism and for the
phase-split accounting contract.
"""

import os
import random
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest

from conftest import ScriptedOracle, random_dag
from reference import cpdag_bruteforce
from marvel import bench, cli
from marvel.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    generate_dag,
    parse_config,
    pc_baseline,
    rows_to_csv,
    run_experiment,
    simulate_dataset,
    skeleton_metrics,
    solve,
)
from marvel.ci import (
    Dataset,
    DsepOracle,
    FisherZOracle,
    dsep_oracle,
    fisher_z_oracle,
    load_dataset,
)
from marvel.graph import Dag, Pdag, load_dag, load_pdag
from marvel.marvel import ci_budget_bound, marvel_learn
from marvel.mb import MbMap, total_conditioning

COLLIDER = Dag(3, [(0, 2), (1, 2)])
CHAIN = Dag(3, [(0, 1), (1, 2)])


class TestSkeletonMetrics:
    def test_perfect_recovery(self):
        g = Dag(4, [(0, 1), (1, 2), (0, 3)])
        assert skeleton_metrics(cpdag_bruteforce(g), g) == (1.0, 1.0, 1.0)

    def test_half_recall(self):
        truth = Dag(3, [(0, 1), (1, 2)])
        learned = Pdag(3, undirected=[(0, 1)])
        precision, recall, f1 = skeleton_metrics(learned, truth)
        assert precision == 1.0
        assert recall == 0.5
        assert f1 == pytest.approx(2 / 3)

    def test_extra_edge_costs_precision(self):
        truth = Dag(3, [(0, 1)])
        learned = Pdag(3, undirected=[(0, 1), (1, 2)])
        precision, recall, f1 = skeleton_metrics(learned, truth)
        assert precision == 0.5
        assert recall == 1.0
        assert f1 == pytest.approx(2 / 3)

    def test_both_empty(self):
        assert skeleton_metrics(Pdag(3), Dag(3, [])) == (1.0, 1.0, 1.0)

    def test_empty_learned_nonempty_truth(self):
        assert skeleton_metrics(Pdag(2), Dag(2, [(0, 1)])) == (0.0, 0.0, 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            skeleton_metrics(Pdag(3), Dag(4, []))


def run_pc(g):
    oracle = dsep_oracle(g)
    return pc_baseline(oracle, total_conditioning(oracle)), oracle


class TestPcBaseline:
    def test_collider_recovered(self):
        res, _ = run_pc(COLLIDER)
        assert res.essential.directed == frozenset({(0, 2), (1, 2)})
        assert res.essential.undirected == frozenset()

    def test_chain_stays_undirected(self):
        res, _ = run_pc(CHAIN)
        assert res.essential == cpdag_bruteforce(CHAIN)
        assert res.essential.directed == frozenset()

    def test_empty_graph_needs_no_tests(self):
        res, _ = run_pc(Dag(5, []))
        assert res.essential == Pdag(5)
        assert res.stats.n_tests == 0

    def test_matches_bruteforce_on_random_dags(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_dag(rng, rng.randint(2, 8))
            res, _ = run_pc(g)
            assert res.essential == cpdag_bruteforce(g)
            assert skeleton_metrics(res.essential, g) == (1.0, 1.0, 1.0)

    def test_accounting_excludes_boundary_phase(self):
        res, oracle = run_pc(COLLIDER)
        assert oracle.stats().n_tests == 3 + res.stats.n_tests
        assert res.elimination_order == (0, 1, 2)

    def test_boundary_map_validation(self):
        oracle = dsep_oracle(COLLIDER)
        with pytest.raises(ValueError):
            pc_baseline(oracle, MbMap(4))
        used = total_conditioning(oracle)
        used.removed.add(0)
        with pytest.raises(ValueError):
            pc_baseline(oracle, used)


class TestPcConflictHandling:
    def test_contradictory_colliders_keep_first(self):
        # Skeleton 1-2, 2-3, 0-3 plus the moral edges 1-3 and 0-2. The
        # scripted answers separate (1,3) and (0,2) by the empty set, so the
        # sepset rule demands 3->2 at center 2 but 2->3 at center 3.
        oracle = ScriptedOracle(4, [(1, 3, ()), (0, 2, ())])
        mb0 = MbMap(4)
        mb0.mb = [{2, 3}, {2, 3}, {0, 1, 3}, {0, 1, 2}]
        res = pc_baseline(oracle, mb0)
        assert res.essential.directed == frozenset({(0, 3), (1, 2), (3, 2)})
        assert len(res.warnings) == 1
        assert "kept existing orientation" in res.warnings[0]


@pytest.mark.parametrize("learner", [marvel_learn, pc_baseline], ids=["marvel", "pc"])
class TestUndecidedQueryWarnings:
    def test_degenerate_boundary_tests_reported(self, learner):
        # n = 8 rows leave every boundary test (|S| = 6) without samples
        oracle = fisher_z_oracle(Dataset(np.random.default_rng(0).normal(size=(8, 8))))
        res = learner(oracle, total_conditioning(oracle))
        assert oracle.n_degenerate == 28
        assert res.warnings[-1].startswith("28 queries had too few samples")

    def test_collinear_data_completes_with_warning(self, learner):
        vals = np.random.default_rng(1).normal(size=(200, 4))
        vals[:, 3] = vals[:, 0] + vals[:, 1]
        oracle = fisher_z_oracle(Dataset(vals))
        res = learner(oracle, total_conditioning(oracle))
        assert oracle.n_singular > 0 and oracle.n_degenerate == 0
        assert res.warnings[-1].startswith(
            f"{oracle.n_singular} queries met a singular correlation submatrix"
        )


class TestExperimentConfig:
    def test_valid_dsep_config(self):
        cfg = ExperimentConfig(
            generator="erdos_renyi", p=6, algo="marvel",
            seeds=(0, 1), m=5,
        )
        assert cfg.seeds == (0, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"generator": "nope"},
            {"algo": "nope"},
            {"seeds": ()},
            # rejected for every generator, cluster (which ignores seeds)
            # included, before seed 0 runs
            {"seeds": (0, -1)},
            {"generator": "cluster", "m": None, "delta_in": 2, "seeds": (-3,)},
            # a repeated seed would run twice and weigh twice in the mean row
            {"seeds": (0, 1, 2, 2)},
            {"p": 0},
            {"m": None},
            {"n_samples": 1},
            {"n_samples": 100, "alpha": 1.0},
            {"alpha": 0.01},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(
            generator="erdos_renyi", p=6, algo="marvel",
            seeds=(0,), m=5,
        )
        with pytest.raises(ValueError):
            ExperimentConfig(**{**base, **kwargs})

    def test_many_seeds_check_in_linear_time(self):
        # a repeated-seed check that copies a slice per seed is quadratic:
        # 20,000 seeds take seconds
        text = (
            "generator = erdos_renyi\np = 6\nm = 5\nalgo = marvel\n"
            "seeds = 0..49999\n"
        )
        start = time.process_time()
        cfg = parse_config(text)
        assert time.process_time() - start < 1.0
        assert len(cfg.seeds) == 50_000

    def test_n_samples_is_the_only_oracle_setting(self):
        # the sample size picks the oracle, so there is no field naming it
        assert "oracle" not in {f.name for f in fields(ExperimentConfig)}
        assert not hasattr(bench, "ORACLES")
        with pytest.raises(TypeError):
            ExperimentConfig(
                generator="erdos_renyi", p=6, algo="marvel", oracle="dsep",
                seeds=(0,), m=5,
            )

    def test_fixed_indegree_needs_delta(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                generator="fixed_indegree", p=6, algo="pc",
                seeds=(0,),
            )


class TestParseConfig:
    def test_full_round_trip(self):
        text = """
        # experiment grid cell
        generator = fixed_indegree
        p = 25            # vertices
        delta_in = 3
        algo = marvel
        n_samples = 1250
        alpha = 0.0032
        seeds = 0..2, 7
        """
        cfg = parse_config(text)
        assert cfg == ExperimentConfig(
            generator="fixed_indegree", p=25, algo="marvel",
            seeds=(0, 1, 2, 7), delta_in=3,
            n_samples=1250, alpha=0.0032,
        )

    def test_keys_are_the_config_fields(self):
        # one parser per ExperimentConfig field, in field order
        assert list(bench._CONFIG_PARSERS) == [
            f.name for f in fields(ExperimentConfig)
        ]

    def test_seed_ranges_are_inclusive(self):
        cfg = parse_config(
            "generator = erdos_renyi\np = 4\nm = 2\nalgo = pc\n"
            "seeds = 5..8\n"
        )
        assert cfg.seeds == (5, 6, 7, 8)

    def test_empty_seed_tokens_are_skipped(self):
        cfg = parse_config(
            "generator = erdos_renyi\np = 4\nm = 2\nalgo = pc\n"
            "seeds = 0,,2,\n"
        )
        assert cfg.seeds == (0, 2)

    @pytest.mark.parametrize(
        "text",
        [
            "generator erdos_renyi",
            "bogus_key = 1\ngenerator = erdos_renyi\np = 4\nm = 1\n"
            "algo = pc\nseeds = 0",
            "generator = erdos_renyi\np = 4\nm = 1\nalgo = pc",
            "generator = erdos_renyi\np = 4\nm = 1\nalgo = pc\n"
            "seeds = 3..1",
            "generator = erdos_renyi\np = 4\nm = 1\nalgo = pc\n"
            "seeds = 0\nrecord_wall = yes",
            # the simulation ranges are fixed, so they are unknown keys
            "generator = erdos_renyi\np = 4\nm = 1\nalgo = pc\n"
            "n_samples = 50\nseeds = 0\ncoeff_lo = 0.7",
            # a repeated key is an error, not a silent override
            "p = 5\ngenerator = erdos_renyi\np = 9\nm = 1\nalgo = pc\n"
            "seeds = 0",
            "seeds = 0\ngenerator = erdos_renyi\np = 4\nm = 1\nalgo = pc\n"
            "seeds = 1",
            # a parameter the generator family ignores is an error
            "generator = fixed_indegree\np = 8\ndelta_in = 2\nm = 5\n"
            "algo = pc\nseeds = 0",
            "generator = cluster\np = 8\ndelta_in = 2\nm = 5\n"
            "algo = pc\nseeds = 0",
            "generator = erdos_renyi\np = 8\nm = 5\ndelta_in = 2\n"
            "algo = pc\nseeds = 0",
        ],
    )
    def test_bad_config_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_config(text)


DSEP_CFG = ExperimentConfig(
    generator="fixed_indegree", p=10, algo="marvel",
    seeds=(0, 1, 2, 3), delta_in=2,
)


class TestRunExperiment:
    def test_rows_and_aggregate(self):
        rows = run_experiment(DSEP_CFG)
        assert len(rows) == 5
        assert [r["seed"] for r in rows] == [0, 1, 2, 3, "mean"]
        assert rows[-1]["m"] == pytest.approx(
            sum(r["m"] for r in rows[:-1]) / 4
        )

    def test_identical_csv_bytes_on_rerun(self):
        a = rows_to_csv(run_experiment(DSEP_CFG))
        b = rows_to_csv(run_experiment(DSEP_CFG))
        assert a == b
        assert a.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_boundary_phase_is_all_pairs(self):
        for row in run_experiment(DSEP_CFG)[:-1]:
            assert row["mb_tests"] == 10 * 9 // 2

    @pytest.mark.parametrize("algo", ["marvel", "pc"])
    def test_solve_counts_only_its_own_boundary_queries(self, algo):
        g = random_dag(random.Random(5), 10, 15)
        fresh = solve(dsep_oracle(g), algo)
        o = dsep_oracle(g)
        o.query(0, 1)
        mb_tests, res = solve(o, algo)
        assert mb_tests == 10 * 9 // 2
        assert res.stats.n_tests == fresh[1].stats.n_tests
        assert o.stats().n_tests == 1 + mb_tests + res.stats.n_tests

    def test_exact_oracle_recovery_is_perfect(self):
        for row in run_experiment(DSEP_CFG)[:-1]:
            assert (row["precision"], row["recall"], row["f1"]) == (1, 1, 1)

    def test_budget_holds_per_run(self):
        bound = ci_budget_bound(10, 2)
        for row in run_experiment(DSEP_CFG)[:-1]:
            assert row["post_tests"] <= bound

    def test_budget_columns_follow_warnings(self):
        assert CSV_COLUMNS[13:] == ("warnings", "budget", "within_budget")
        rows = run_experiment(DSEP_CFG)
        for row in rows[:-1]:
            g = generate_dag("fixed_indegree", 10, row["seed"], delta_in=2)
            assert row["budget"] == ci_budget_bound(10, g.max_in_degree())
        assert [r["within_budget"] for r in rows] == [1, 1, 1, 1, 1.0]

    def test_within_budget_share_in_mean_row(self, monkeypatch):
        posts = [r["post_tests"] for r in run_experiment(DSEP_CFG)[:-1]]
        cap = sorted(posts)[1]
        monkeypatch.setattr(bench, "ci_budget_bound", lambda p, d: cap)
        rows = run_experiment(DSEP_CFG)
        within = [int(t <= cap) for t in posts]
        assert 0 < sum(within) < len(posts)
        assert [r["within_budget"] for r in rows[:-1]] == within
        assert rows[-1]["within_budget"] == sum(within) / len(posts)

    @pytest.mark.parametrize(
        "n_samples, kind", [(None, DsepOracle), (50, FisherZOracle)]
    )
    def test_n_samples_picks_the_oracle(self, n_samples, kind, monkeypatch):
        seen = []

        def spy(oracle, algo):
            seen.append(type(oracle))
            return solve(oracle, algo)

        monkeypatch.setattr(bench, "solve", spy)
        run_experiment(ExperimentConfig(
            generator="erdos_renyi", p=5, algo="marvel", seeds=(0, 1), m=4,
            n_samples=n_samples,
        ))
        assert seen == [kind, kind]

    def test_finite_sample_run_completes(self):
        cfg = ExperimentConfig(
            generator="erdos_renyi", p=6, algo="pc",
            seeds=(0, 1), m=6, n_samples=400,
        )
        rows = run_experiment(cfg)
        for row in rows[:-1]:
            assert row["n_samples"] == 400
            assert 0.0 <= row["precision"] <= 1.0
            assert 0.0 <= row["recall"] <= 1.0

    def test_generator_failure_carries_seed_context(self):
        cfg = ExperimentConfig(
            generator="erdos_renyi", p=4, algo="marvel",
            seeds=(9,), m=100,
        )
        with pytest.raises(ValueError, match="seed 9"):
            run_experiment(cfg)

    @pytest.mark.parametrize("algo", ["marvel", "pc"])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "fisher_z"])
    def test_two_solves_return_equal_results(self, algo, exact):
        # A result holds no clock reading, so one instance solved twice,
        # each time on a fresh oracle, gives equal results.
        g = random_dag(random.Random(3), 8, 12)
        data = simulate_dataset(g, 300, seed=3)

        def fresh():
            return dsep_oracle(g) if exact else fisher_z_oracle(data)

        assert solve(fresh(), algo) == solve(fresh(), algo)


class TestSimulateDataset:
    def test_deterministic_and_sized(self):
        g = Dag(4, [(0, 1), (1, 2)])
        a = simulate_dataset(g, 50, seed=3)
        b = simulate_dataset(g, 50, seed=3)
        assert a.values.shape == (50, 4)
        assert (a.values == b.values).all()

    def test_seed_changes_rows(self):
        g = Dag(3, [(0, 1)])
        a = simulate_dataset(g, 50, seed=0)
        b = simulate_dataset(g, 50, seed=1)
        assert (a.values != b.values).any()


class TestCli:
    def test_generate_learn_check_pipeline(self, tmp_path, capsys):
        truth = tmp_path / "truth.edges"
        learned = tmp_path / "learned.pdag"
        assert cli.main([
            "generate", "--generator", "erdos_renyi", "--p", "8",
            "--m", "10", "--seed", "5", "--out", str(truth),
        ]) == 0
        assert cli.main([
            "learn", "--graph", str(truth), "--algo", "marvel",
            "--out", str(learned),
        ]) == 0
        assert cli.main([
            "oracle-check", "--learned", str(learned), "--truth", str(truth),
        ]) == 0
        out = capsys.readouterr().out
        assert "equivalent: true" in out
        assert "f1=1" in out
        g = load_dag(truth)
        assert (g.p, g.n_edges) == (8, 10)
        assert load_pdag(learned) == cpdag_bruteforce(g)

    def test_oracle_check_reports_false(self, tmp_path, capsys):
        truth = tmp_path / "truth.edges"
        wrong = tmp_path / "wrong.pdag"
        truth.write_text("3\n0 1\n1 2\n")
        wrong.write_text("3\n0 1 u\n")
        assert cli.main([
            "oracle-check", "--learned", str(wrong), "--truth", str(truth),
        ]) == 0
        assert "equivalent: false" in capsys.readouterr().out

    def test_generate_with_dataset(self, tmp_path):
        truth = tmp_path / "g.edges"
        data = tmp_path / "d.csv"
        assert cli.main([
            "generate", "--generator", "fixed_indegree", "--p", "6",
            "--delta-in", "2", "--seed", "1", "--out", str(truth),
            "--data", str(data), "--n-samples", "30",
        ]) == 0
        assert load_dataset(data).values.shape == (30, 6)

    def test_learn_from_data(self, tmp_path, capsys):
        truth = tmp_path / "g.edges"
        data = tmp_path / "d.csv"
        cli.main([
            "generate", "--generator", "erdos_renyi", "--p", "5", "--m", "4",
            "--seed", "2", "--out", str(truth), "--data", str(data),
            "--n-samples", "500",
        ])
        assert cli.main([
            "learn", "--data", str(data), "--algo", "pc", "--alpha", "0.01",
        ]) == 0
        out = capsys.readouterr().out
        assert "mb_tests=10" in out
        assert "f1=" not in out

    def test_bench_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "results.csv"
        cfg.write_text(
            "generator = fixed_indegree\np = 8\ndelta_in = 2\n"
            "algo = marvel\nseeds = 0..3\n"
        )
        assert cli.main(["bench", str(cfg), "--out", str(out)]) == 0
        first = out.read_text()
        assert first.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert len(first.splitlines()) == 1 + 4 + 1
        assert cli.main(["bench", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == first
        capsys.readouterr()
        one = tmp_path / "one.txt"
        one.write_text(
            "generator = fixed_indegree\np = 8\ndelta_in = 2\n"
            "algo = pc\nseeds = 1\n"
        )
        assert cli.main(["bench", str(one)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith(",".join(CSV_COLUMNS))
        assert "\npc,1," in stdout

    @pytest.fixture
    def generated(self, tmp_path, capsys):
        truth = tmp_path / "g.edges"
        data = tmp_path / "d.csv"
        assert cli.main([
            "generate", "--generator", "fixed_indegree", "--p", "10",
            "--delta-in", "3", "--seed", "3", "--out", str(truth),
            "--data", str(data), "--n-samples", "200",
        ]) == 0
        capsys.readouterr()
        return truth, data

    @pytest.mark.parametrize(
        "source, flags, line, warnings",
        [
            (
                "graph", [],
                "mb_tests=45 post_tests=69 asc=0.869565 max_cond=3 "
                "precision=1 recall=1 f1=1 warnings=0",
                [],
            ),
            (
                "data", ["--alpha", "0.05"],
                "mb_tests=45 post_tests=275 asc=1.37455 max_cond=4 warnings=1",
                ["no removable vertex in round 1; forcing removal of 3"],
            ),
            (
                "data", ["--algo", "pc"],
                "mb_tests=45 post_tests=132 asc=0.886364 max_cond=2 warnings=4",
                [
                    "kept existing orientation 7->0 over 0->7",
                    "kept existing orientation 9->0 over 0->9",
                    "kept existing orientation 9->6 over 6->9",
                    "contradictory orientations forced for edge 4-8; "
                    "left undirected",
                ],
            ),
        ],
        ids=["exact_marvel", "fisher_z_marvel", "fisher_z_pc"],
    )
    def test_learn_metric_line_and_warnings(
        self, generated, capsys, source, flags, line, warnings
    ):
        path = generated[0] if source == "graph" else generated[1]
        assert cli.main(["learn", f"--{source}", str(path), *flags]) == 0
        captured = capsys.readouterr()
        assert captured.out == line + "\n"
        assert captured.err == "".join(f"warning: {w}\n" for w in warnings)

    def test_learn_alpha_with_graph_exits_1(self, generated, capsys):
        assert cli.main(["learn", "--graph", str(generated[0]), "--alpha", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --alpha applies to the fisher_z oracle only\n"

    @pytest.mark.parametrize(
        "flag", [["--algo", "pc"], ["--alpha", "0.2"], ["--seed", "1"]]
    )
    def test_bench_takes_no_setting_flags(self, flag, tmp_path, capsys):
        # the config file is the one source of each setting
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "generator = erdos_renyi\np = 8\nm = 10\nalgo = marvel\n"
            "n_samples = 100\nseeds = 0..2\n"
        )
        assert cli.main(["bench", str(cfg), *flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err

    def test_bench_help_lists_config_and_out_only(self, capsys):
        assert cli.main(["bench", "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert usage == "usage: marvel bench [-h] [--out OUT] config"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["generate", "--generator", "erdos_renyi", "--p", "4", "--m",
              "3", "--out", "x", "--data", "./x", "--n-samples", "10"],
             "--data"),
            (["learn", "--graph", "g.edges", "--out", "g.edges"], "--graph"),
            (["learn", "--data", "d.csv", "--out", "sub/../d.csv"], "--data"),
            (["bench", "cfg.txt", "--out", "cfg.txt"], "config"),
        ],
        ids=["generate", "learn_graph", "learn_data", "bench"],
    )
    def test_out_over_another_file_exits_1(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        # rejected before anything is read or written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out and {flag} name the same file\n"
        assert [f.name for f in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn"],
            ["learn", "--graph", "a", "--data", "b"],
            ["learn", "--graph", "/nonexistent/truth.edges"],
            ["generate", "--generator", "erdos_renyi", "--p", "5",
             "--out", "x.edges"],
            ["generate", "--generator", "cluster", "--p", "5", "--m", "2",
             "--out", "x.edges"],
            ["frobnicate"],
            ["learn", "--graph", "a", "--bogus"],
            [],
            ["learn", "--graph", "a", "--oracle", "dsep"],
            ["generate", "--generator", "cluster", "--p", "3",
             "--delta-in", "-1", "--out", "x.edges"],
            ["generate", "--generator", "erdos_renyi", "--p", "3",
             "--m", "-1", "--out", "x.edges"],
            # a parameter the generator family ignores
            ["generate", "--generator", "cluster", "--p", "5",
             "--delta-in", "2", "--m", "2", "--out", "x.edges"],
            ["generate", "--generator", "fixed_indegree", "--p", "5",
             "--delta-in", "2", "--m", "2", "--out", "x.edges"],
            ["generate", "--generator", "erdos_renyi", "--p", "5",
             "--m", "2", "--delta-in", "2", "--out", "x.edges"],
        ],
    )
    def test_argument_errors_exit_1(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # relative --out paths land here
        assert cli.main(argv) == 1
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["frobnicate"],
                "argument command: invalid choice: 'frobnicate' (choose from "
                "'generate', 'learn', 'bench', 'oracle-check')",
            ),
            (["learn", "--graph", "a", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_usage_error_prints_usage_and_message(self, argv, message, capsys):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "usage: marvel [-h] {generate,learn,bench,oracle-check} ...\n"
            f"marvel: error: {message}\n"
        )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--data", "d.csv"],
            ["--n-samples", "30"],
            ["--data", "d.csv", "--n-samples", "1"],
            # the edge list is written first; the failed dataset write
            # (an OS error) removes it again
            ["--data", "nodir/d.csv", "--n-samples", "10"],
        ],
    )
    def test_failed_generate_writes_nothing(
        self, flags, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert cli.main([
            "generate", "--generator", "erdos_renyi", "--p", "4", "--m", "3",
            "--out", "g.edges", *flags,
        ]) == 1
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_bench_repeated_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "generator = erdos_renyi\np = 5\nm = 1\nalgo = marvel\n"
            "seeds = 0\np = 9\n"
        )
        assert cli.main(["bench", str(cfg)]) == 1
        assert "config line 6: repeated key 'p'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "regime",
        ["generator = cluster\ndelta_in = -1", "generator = erdos_renyi\nm = -1"],
    )
    def test_bench_generator_out_of_range_exits_1(
        self, regime, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"{regime}\np = 3\nalgo = marvel\nseeds = 0\n"
        )
        assert cli.main(["bench", str(cfg)]) == 1
        assert "seed 0: need 0 <=" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                "n_samples = -5\n",
                "need at least two samples for a correlation matrix",
            ),
            (
                "n_samples = 50\nalpha = 2\n",
                "alpha must be in (0, 1), got 2.0",
            ),
            (
                "alpha = 0.05\n",
                "alpha applies to the fisher_z oracle only",
            ),
            # no setting reads a clock
            (
                "record_wall = true\n",
                "config key 'record_wall': unknown key",
            ),
        ],
        ids=["n_samples", "alpha", "alpha_without_n_samples", "record_wall"],
    )
    def test_bench_config_error_blames_no_seed(
        self, extra, message, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "generator = fixed_indegree\np = 5\ndelta_in = 2\nalgo = marvel\n"
            f"seeds = 3..5\n{extra}"
        )
        assert cli.main(["bench", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bench_unwritable_out_runs_no_seed(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "generator = fixed_indegree\np = 8\ndelta_in = 2\n"
            "algo = marvel\nseeds = 0..1\n"
        )
        calls = []
        monkeypatch.setattr(cli, "run_experiment", calls.append)
        out = tmp_path / "missing" / "results.csv"
        assert cli.main(["bench", str(cfg), "--out", str(out)]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert calls == []

    def test_failed_bench_removes_its_out(self, tmp_path, capsys):
        cfg = self._failing_cfg(tmp_path)
        out = tmp_path / "results.csv"
        assert cli.main(["bench", str(cfg), "--out", str(out)]) == 1
        assert "seed 0: need 0 <=" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.txt"]

    def _failing_cfg(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "generator = cluster\ndelta_in = -1\np = 3\nalgo = marvel\n"
            "seeds = 0\n"
        )
        return cfg

    def test_failed_bench_keeps_an_earlier_out(self, tmp_path, capsys):
        cfg = self._failing_cfg(tmp_path)
        out = tmp_path / "results.csv"
        out.write_bytes(b"earlier,results\n1,2\n")
        assert cli.main(["bench", str(cfg), "--out", str(out)]) == 1
        assert "seed 0: need 0 <=" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier,results\n1,2\n"

    def test_failed_bench_never_unlinks_a_symlinked_out(
        self, tmp_path, capsys
    ):
        cfg = self._failing_cfg(tmp_path)
        target = tmp_path / "target.csv"
        target.write_bytes(b"kept\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        dangling = tmp_path / "dangling.csv"
        dangling.symlink_to(tmp_path / "nowhere.csv")
        for out in (link, dangling):
            assert cli.main(["bench", str(cfg), "--out", str(out)]) == 1
            assert out.is_symlink()
        assert target.read_bytes() == b"kept\n"
        capsys.readouterr()

    def test_failed_write_removes_only_a_new_out(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "generator = fixed_indegree\np = 6\ndelta_in = 2\n"
            "algo = marvel\nseeds = 0\n"
        )

        def no_space(rows):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "rows_to_csv", no_space)
        new = tmp_path / "new.csv"
        old = tmp_path / "old.csv"
        old.write_bytes(b"old\n")
        for out in (new, old):
            assert cli.main(["bench", str(cfg), "--out", str(out)]) == 1
            assert "No space left on device" in capsys.readouterr().err
        assert not new.exists()
        assert old.read_bytes() == b"old\n"

    def test_bench_seeds_of_empty_tokens_only_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "generator = erdos_renyi\np = 4\nm = 2\nalgo = pc\n"
            "seeds = ,\n"
        )
        assert cli.main(["bench", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least one seed\n"

    @pytest.mark.parametrize(
        "text", ["", "# a comment and a blank line\n\n"], ids=["empty", "comments"]
    )
    def test_learn_on_a_dataset_without_rows(self, text, tmp_path):
        # A fresh interpreter, since pytest would capture a numpy warning
        # that the command line prints to stderr.
        data = tmp_path / "d.csv"
        data.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "marvel.cli", "learn", "--data", str(data)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: dataset needs at least two rows\n"
        )

    def test_oracle_flag_is_unknown(self, tmp_path, capsys):
        # the oracle follows from --graph or --data, so there is no flag
        truth = tmp_path / "truth.edges"
        assert cli.main([
            "generate", "--generator", "erdos_renyi", "--p", "4",
            "--m", "3", "--out", str(truth),
        ]) == 0
        capsys.readouterr()
        assert cli.main(["learn", "--graph", str(truth), "--oracle", "dsep"]) == 1
        assert "unrecognized arguments: --oracle dsep" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_internal_errors_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "generator = erdos_renyi\np = 4\nm = 2\n"
            "algo = marvel\nseeds = 0\n"
        )
        def boom(_cfg):
            raise RuntimeError("forced failure")
        monkeypatch.setattr(cli, "run_experiment", boom)
        assert cli.main(["bench", str(cfg)]) == 2
        assert "internal error" in capsys.readouterr().err

