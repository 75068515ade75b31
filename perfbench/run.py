"""End-to-end benchmark of the marvel learner, one workload per run.

  python3 perfbench/run.py --workload dsep-boundary --seed 0 --seconds 25 --trace 0

Run from the repository root. The run

1. builds the package in place (``setup.py build_ext --inplace``, skipped
   while the build inputs are unchanged since the last build) and
   byte-compiles ``src``;
2. starts three fresh interpreters that each import ``marvel`` from ``src``
   and build every instance's graph, data and oracle; ``setup_s`` is their
   median time from launch to ready. The last of them goes on to measure;
3. prints the run metadata, every metric by name with its unit, the
   correctness notes, and as its last line one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
   are the ``end_to_end`` list of BENCHMARK.json, with ``--trace 1`` the
   ``per_layer`` list.

Workloads, metrics and what each layer metric should move are described in
perfbench/README.md. Exit code 0 means a result was printed; it may still
say ``"correct": false``. Any other code means no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3
# per child process; a whole run must end within 180 s
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def load_registry() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def build() -> None:
    """Build the package in place once per distinct set of build inputs."""
    if not (ROOT / "src" / "marvel" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    inputs = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    inputs += sorted((ROOT / "src").rglob("*.pyx")) + sorted((ROOT / "src").rglob("*.c"))
    h = hashlib.sha256()
    for path in inputs:
        if path.is_file():
            h.update(path.name.encode() + path.read_bytes())
    stamp = BUILD_DIR / "build.stamp"
    if stamp.is_file() and stamp.read_text() == h.hexdigest():
        return
    steps = [[sys.executable, "-m", "compileall", "-q", "src"]]
    if (ROOT / "setup.py").is_file():
        steps.insert(0, [sys.executable, "setup.py", "-q", "build_ext", "--inplace"])
    for cmd in steps:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError(f"build step failed: {' '.join(cmd[1:])}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    stamp.write_text(h.hexdigest())


def run_worker(args: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--launch", repr(time.time())]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: int, trace: int, registry: dict) -> dict:
    build()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [run_worker([*common, "--setup-only"])["setup"] for _ in range(SETUP_SAMPLES - 1)]
    measure = [*common, "--seconds", str(seconds), "--trace", str(trace)]
    trace_out = None
    if trace:
        trace_out = BUILD_DIR / f"trace-{workload}-seed{seed}.jsonl"
        measure += ["--trace-out", str(trace_out)]
    res = run_worker(measure)
    return assemble(res, setups + [res["setup"]], trace, registry, trace_out)


def assemble(res: dict, setups: list[dict], trace: int, registry: dict, trace_out=None) -> dict:
    """The run's result from the measuring worker's output and every set-up
    sample; the metric names must be exactly those BENCHMARK.json lists."""
    setup = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
    if trace:
        values = {**res["per_layer"], **setup}
        values.pop("setup_s")
        listed = registry["per_layer"]
    else:
        values = {**res["metrics"], "setup_s": setup["setup_s"]}
        listed = registry["end_to_end"]
    names = {m["name"] for m in listed}
    if names != set(values):
        raise BenchError(
            f"metric names disagree with BENCHMARK.json: {sorted(names ^ set(values))}"
        )
    notes = list(res["notes"])
    notes.append(f"untraced passes {res['passes']}; setup samples {len(setups)}")
    if trace:
        where = f" to {trace_out.relative_to(ROOT)}" if trace_out else ""
        notes.append(
            f"traced passes {res['traced_passes']}, {res['spans']} spans{where}; "
            f"tracing overhead {values['trace.overhead']:.1%} of untraced solve time"
        )
    return {
        "meta": res["meta"],
        "notes": notes,
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="marvel end-to-end benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        registry = load_registry()
        if args.workload not in {w["name"] for w in registry["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        seconds = args.seconds if args.seconds is not None else registry["run_seconds"]
        result = run(args.workload, args.seed, seconds, args.trace, registry)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed} seconds {seconds} trace {args.trace}")
    print("# meta " + json.dumps(result["meta"]))
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_share':36s} {result['failed'] / result['attempted']:>16.6g} share")
    for line in result["notes"]:
        print("# " + line)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
