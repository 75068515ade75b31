"""One benchmark process: set up a workload's instances, then measure.

Started by run.py, once per set-up sample and once for the measured run:

  python3 perfbench/worker.py --workload NAME --seed N --launch T --setup-only
  python3 perfbench/worker.py --workload NAME --seed N --launch T --seconds S --trace 0|1

``--launch`` is the wall-clock time at which the parent started this
process, so the reported ``setup_s`` covers interpreter start, ``import
marvel``, graph generation, data simulation and oracle construction. The
last line of standard output is one JSON object for the parent.

Passes solve every instance (``total_conditioning`` then ``marvel_learn``,
timed together) until the next pass would overrun ``--seconds``; there is
always at least one. With ``--trace 1`` each instance is also solved traced,
right after its untraced solve; the traced solves must reproduce the
untraced outputs and counts exactly, and give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from tracing import FINALIZE, STAGES, TraceError, Tracer
from workloads import (
    TEST05_MIN_F1,
    TEST05_MIN_RECALL,
    WORKLOADS,
    Outcome,
    build_instances,
    load_reference,
    score,
    truth_cpdag,
)

ROOT = Path(__file__).resolve().parent.parent


def import_marvel():
    """Import the package from this checkout's ``src``, never another copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import marvel

    if not Path(marvel.__file__).resolve().is_relative_to(src):
        raise ImportError(f"marvel imported from {marvel.__file__}, not {src}")
    return marvel


def solve(mv, w, inst, truth, reference, tracer=None) -> Outcome:
    """Learn one instance; failures become problems, never exceptions.

    A TraceError is the exception: it means the measurement itself is wrong.
    """
    oracle = inst.oracle
    out = Outcome(inst.index, inst.graph_seed)
    try:
        if tracer is None:
            res = _learn(mv, oracle, out)
        else:
            with tracer.instance(inst.index, oracle) as root:
                res = _learn(mv, oracle, out)
            tracer.check_instance(
                root, w.oracle, out.degenerate_mb + out.degenerate_post
            )
        score(mv, w, inst, res, truth, out, reference)
    except TraceError:
        raise
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        out.problems.append(f"{type(exc).__name__}: {exc}")
    return out


def _learn(mv, oracle, out: Outcome):
    deg0 = getattr(oracle, "n_degenerate", 0)
    t0 = perf_counter()
    mb0 = mv.mb.total_conditioning(oracle)
    mid = oracle.stats()
    deg1 = getattr(oracle, "n_degenerate", 0)
    res = mv.marvel.marvel_learn(oracle, mb0)
    out.seconds = perf_counter() - t0
    end = oracle.stats()
    out.mb_tests = mid.n_tests
    out.post_tests = end.n_tests - mid.n_tests
    out.cond_sum = end.sum_cond_size
    out.degenerate_mb = deg1 - deg0
    out.degenerate_post = getattr(oracle, "n_degenerate", 0) - deg1
    return res


def run_passes(mv, w, seed, seconds, truths, reference, first, tracer=None):
    """Whole passes over the instance set until the next would overrun.

    Returns the untraced passes and the traced ones. With a tracer, every
    instance is solved untraced and then, on a fresh copy, traced, back to
    back, so that the host's drift cancels out of the tracing overhead.
    """
    passes, traced = [], []
    start = perf_counter()
    while True:
        insts = first if first is not None else build_instances(mv, w, seed)[0]
        first = None
        twins = build_instances(mv, w, seed)[0] if tracer is not None else []
        passes.append([])
        if tracer is not None:
            traced.append([])
        for inst in insts:
            passes[-1].append(solve(mv, w, inst, truths[inst.index], reference))
            if tracer is not None:
                twin = twins[inst.index]
                with tracer.installed():
                    traced[-1].append(
                        solve(mv, w, twin, truths[twin.index], reference, tracer)
                    )
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, traced


def check_repeats(passes, base) -> None:
    """Every solve of an instance must reproduce the first pass exactly."""
    for outs in passes:
        for o, b in zip(outs, base):
            if not o.failed and not b.failed and o.key() != b.key():
                o.problems.append(f"instance {o.index} differs from its first solve")


def solve_time(passes, outs) -> float:
    """Sum over ``outs`` of each instance's median solve time across passes."""
    return sum(statistics.median(p[o.index].seconds for p in passes) for o in outs)


def end_to_end(passes) -> dict:
    base = passes[0]
    ok = [o for o in base if not o.failed]
    solves = [o for p in passes for o in p]
    shd = sum(o.shd for o in ok)
    pairs = sum(o.pairs for o in ok)
    return {
        "graphs_per_s": len(ok) / solve_time(passes, ok) if ok else 0.0,
        "mb_tests": sum(o.mb_tests for o in base),
        "post_tests": sum(o.post_tests for o in base),
        "cpdag_match": 1.0 - shd / pairs if pairs else 0.0,
        "skeleton_f1": statistics.fmean(o.f1 for o in base),
        "ok_share": sum(not o.failed for o in solves) / len(solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spans, outs) -> dict:
    """Per-layer metrics of one traced pass."""
    agg = tracing.summarize(spans)
    queries = sum(s.queries for s in spans)
    query_s = sum(s.query_s for s in spans)
    dsep_calls = sum(s.dsep_calls for s in spans)
    dsep_s = sum(s.dsep_s for s in spans)
    pcorr_calls = sum(s.pcorr_calls for s in spans)
    pcorr_s = sum(s.pcorr_s for s in spans)
    tests = sum(o.mb_tests + o.post_tests for o in outs)
    nb = agg["marvel.neighbors"]
    if nb["calls"] == 0:
        raise TraceError("marvel.neighbors was never called")
    m = {
        "mb.total_conditioning_s": agg["mb.total_conditioning"]["s"],
        "mb.total_conditioning_queries": agg["mb.total_conditioning"]["tests"],
        "graph.dsep_s": dsep_s,
        "graph.dsep_us": 1e6 * dsep_s / dsep_calls if dsep_calls else 0.0,
        "ci.pcorr_s": pcorr_s,
        "ci.pcorr_us": 1e6 * pcorr_s / pcorr_calls if pcorr_calls else 0.0,
        "ci.queries": queries,
        "ci.query_s": query_s,
        "ci.asc": sum(o.cond_sum for o in outs) / tests if tests else 0.0,
        "ci.overhead_s": query_s - dsep_s - pcorr_s,
        "ci.degenerate_mb": sum(o.degenerate_mb for o in outs),
        "ci.degenerate_post": sum(o.degenerate_post for o in outs),
        "marvel.battery_calls": nb["calls"],
        "marvel.battery_self_s": sum(agg[s]["self_s"] for s in STAGES),
        "marvel.scan_hit_ratio": sum(o.rounds for o in outs) / nb["calls"],
        "marvel.neighbors_cache_hit_ratio": nb["idle_calls"] / nb["calls"],
        "marvel.forced_rounds": sum(o.forced_rounds for o in outs),
        "mb.update_s": agg["mb.update"]["s"],
        "mb.update_queries": agg["mb.update"]["tests"],
        "marvel.finalize_s": sum(agg[s]["s"] for s in FINALIZE),
        "marvel.learn_s": agg["marvel.learn"]["s"],
        "marvel.self_s": agg["marvel.learn"]["self_s"],
    }
    for stage in STAGES:
        m[f"{stage}_s"] = agg[stage]["s"]
        m[f"{stage}_queries"] = agg[stage]["tests"]
    return m


def _median_dict(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def notes_for(w, base, reference) -> list[str]:
    lines = []
    budget = sum(o.budget for o in base)
    post = sum(o.post_tests for o in base)
    within = sum(o.post_tests <= o.budget for o in base)
    lines.append(
        f"post_tests {post} vs ci_budget_bound sum {budget} "
        f"({post / max(budget, 1):.2f}x); {within}/{len(base)} instances within bound"
    )
    if w.exact:
        checked = sum(str(o.graph_seed) in reference for o in base)
        lines.append(
            f"exact gate: truth CPDAG and budget on {len(base)} instances, "
            f"committed counts and digest on {checked}"
        )
    else:
        lines.append(
            f"forced_rounds {sum(o.forced_rounds for o in base)}, degenerate "
            f"tests mb {sum(o.degenerate_mb for o in base)} "
            f"post {sum(o.degenerate_post for o in base)}"
        )
    lines.append(
        f"cpdag_shd {sum(o.shd for o in base)}, mean skeleton recall "
        f"{statistics.fmean(o.recall for o in base):.4f}, "
        f"F1 {statistics.fmean(o.f1 for o in base):.4f}"
    )
    return lines


def measure(mv, w, seed, seconds, trace, first, trace_out=None) -> dict:
    truths = {i.index: truth_cpdag(mv, i.dag) for i in first}
    reference = load_reference(w)
    tracer = Tracer(mv) if trace else None
    passes, traced = run_passes(mv, w, seed, seconds, truths, reference, first, tracer)
    base = passes[0]
    check_repeats(passes[1:], base)
    result = {"metrics": end_to_end(passes), "notes": notes_for(w, base, reference)}
    solves = [o for p in passes for o in p]

    if trace:
        for outs in traced:
            for o, b in zip(outs, base):
                if o.key() != b.key():
                    raise TraceError(
                        f"traced solve of instance {o.index} differs from untraced"
                    )
        solves += [o for p in traced for o in p]
        starts = [
            s.id for s in tracer.spans if s.name == "solve" and s.instance == 0
        ]
        bounds = zip(starts, starts[1:] + [len(tracer.spans)])
        per_pass = [
            per_layer(tracer.spans[a:b], outs) for (a, b), outs in zip(bounds, traced)
        ]
        result["per_layer"] = _median_dict(per_pass)
        result["per_layer"]["trace.overhead"] = (
            solve_time(traced, base) / solve_time(passes, base) - 1.0
        )
        result["traced_passes"] = len(traced)
        result["spans"] = len(tracer.spans)
        if trace_out:
            Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_out)

    failed = [o for o in solves if o.failed]
    correct = not failed
    if not w.exact:
        f1 = statistics.fmean(o.f1 for o in base)
        recall = statistics.fmean(o.recall for o in base)
        ok = f1 >= TEST05_MIN_F1 and recall >= TEST05_MIN_RECALL
        result["notes"].append(
            f"test_05 thresholds: F1 {f1:.4f} >= {TEST05_MIN_F1}, recall "
            f"{recall:.4f} >= {TEST05_MIN_RECALL}: {'met' if ok else 'NOT MET'}"
        )
        correct = correct and ok
    result["notes"] += [
        f"instance {o.index} (graph seed {o.graph_seed}) failed: {o.problems[0]}"
        for o in failed[:5]
    ]
    result.update(
        correct=correct,
        attempted=len(solves),
        failed=len(failed),
        passes=len(passes),
    )
    return result


def execute(mv, w, seed, launch, import_s, seconds=None, trace=0, trace_out=None):
    """Set up ``w``; unless ``seconds`` is None, go on to measure it."""
    first, times = build_instances(mv, w, seed)
    out = {"setup": {"setup_s": time.time() - launch, "init.import_s": import_s, **times}}
    if seconds is None:
        return out
    import numpy
    import scipy

    out["meta"] = {
        "workload": w.name,
        "seed": seed,
        "graph_seeds": list(w.graph_seeds(seed)),
        "kernel": mv.kernel_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    out.update(measure(mv, w, seed, seconds, trace, first, trace_out))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    mv = import_marvel()
    import_s = perf_counter() - t0
    out = execute(
        mv, WORKLOADS[args.workload], args.seed, args.launch, import_s,
        None if args.setup_only else args.seconds, args.trace, args.trace_out,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
