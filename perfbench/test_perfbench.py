"""Self-tests of the benchmark on shrunken workloads.

  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import TraceError, Tracer  # noqa: E402

mv = worker.import_marvel()
REGISTRY = run.load_registry()

SMALL = {
    "dsep-boundary": replace(
        workloads.WORKLOADS["dsep-boundary"], p=16, instances=2, core=1
    ),
    "dsep-dense": replace(workloads.WORKLOADS["dsep-dense"], p=12, instances=2, core=1),
    "fisherz-p50": replace(
        workloads.WORKLOADS["fisherz-p50"], p=10, n_samples=1000, instances=2, core=2
    ),
}


def execute(name, trace, seed=0):
    return worker.execute(
        mv, SMALL[name], seed, time.time(), 0.0, seconds=0, trace=trace
    )


def test_registry_lists_every_workload():
    assert [w["name"] for w in REGISTRY["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(name, trace):
    res = execute(name, trace)
    out = run.assemble(res, [res["setup"]], trace, REGISTRY)
    listed = REGISTRY["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = out["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert {"kernel", "python", "numpy", "scipy", "nproc", "seed"} <= set(out["meta"])


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_agrees_with_untraced_and_accounts_every_query(name):
    res = execute(name, trace=1)
    # the shrunken Fisher-Z cell need not meet test_05's accuracy thresholds
    assert res["failed"] == 0, res["notes"]
    e2e, layer = res["metrics"], res["per_layer"]
    # measure() raises if a traced solve differs from its untraced one;
    # here the traced counts must also add up to the untraced totals
    assert layer["ci.queries"] == e2e["mb_tests"] + e2e["post_tests"]
    assert layer["mb.total_conditioning_queries"] == e2e["mb_tests"]
    stages = sum(
        layer[f"marvel.{s}_queries"] for s in ("neighbors", "cond1", "vpa", "cond2")
    )
    assert stages + layer["mb.update_queries"] == e2e["post_tests"]
    kernel = "graph.dsep_s" if SMALL[name].exact else "ci.pcorr_s"
    assert layer[kernel] > 0


def test_corrupted_reference_count_is_a_failure(monkeypatch):
    w = SMALL["dsep-dense"]
    clean = execute("dsep-dense", trace=0)
    assert clean["correct"] and clean["failed"] == 0
    first, _ = workloads.build_instances(mv, w, 0)
    truth = workloads.truth_cpdag(mv, first[0].dag)
    good = worker.solve(mv, w, first[0], truth, {})
    ref = {str(good.graph_seed): [good.mb_tests, good.post_tests + 1, good.digest]}
    monkeypatch.setattr(worker, "load_reference", lambda _w: ref)
    bad = execute("dsep-dense", trace=0)
    assert not bad["correct"]
    assert bad["failed"] >= 1
    assert bad["metrics"]["ok_share"] < 1.0
    assert any("drift from reference" in n for n in bad["notes"])


def test_seed_changes_only_the_drawn_instances():
    w = workloads.WORKLOADS["dsep-dense"]
    a, b = w.graph_seeds(0), w.graph_seeds(1)
    assert a[: w.core] == b[: w.core] == tuple(range(w.core))
    assert not set(a[w.core:]) & set(b[w.core:])
    assert len(set(a)) == w.instances


def test_committed_reference_matches_the_core():
    w = workloads.WORKLOADS["dsep-dense"]
    ref = workloads.load_reference(w)
    first, _ = workloads.build_instances(mv, replace(w, instances=2, core=2), 0)
    for inst in first:
        out = worker.solve(mv, w, inst, workloads.truth_cpdag(mv, inst.dag), ref)
        assert str(inst.graph_seed) in ref
        assert not out.problems, out.problems


def test_missing_traced_name_is_an_error(monkeypatch):
    monkeypatch.delattr(mv.marvel, "find_vpa")
    with pytest.raises(TraceError, match="find_vpa"):
        with Tracer(mv).installed():
            pass


def test_query_outside_every_stage_is_an_error(monkeypatch):
    learn = mv.marvel.marvel_learn

    def learn_with_stray_query(oracle, mb0, *args, **kwargs):
        oracle.query(0, 1, ())
        return learn(oracle, mb0, *args, **kwargs)

    monkeypatch.setattr(mv.marvel, "marvel_learn", learn_with_stray_query)
    with pytest.raises(TraceError, match="outside every traced stage"):
        execute("dsep-dense", trace=1)


def test_tracer_restores_patched_names():
    before = mv.marvel.find_neighbors, mv.ci.CiOracle.query, mv.ci.d_separated
    with Tracer(mv).installed():
        assert mv.marvel.find_neighbors is not before[0]
    assert (mv.marvel.find_neighbors, mv.ci.CiOracle.query, mv.ci.d_separated) == before


def test_shd_counts_mark_differences():
    a = mv.Pdag(3, directed=[(0, 1)], undirected=[(1, 2)])
    b = mv.Pdag(3, directed=[(1, 0), (1, 2)])
    assert workloads.shd(a, a) == (0, 2)
    assert workloads.shd(a, b) == (2, 2)
    assert workloads.shd(a, mv.Pdag(3)) == (2, 2)


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dsep-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not any(json.loads(l).get("metrics") for l in proc.stdout.splitlines() if l.startswith("{"))
