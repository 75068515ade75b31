"""Write reference.json: the committed counts and output digests.

  python3 perfbench/make_reference.py

For every core instance of every exact-oracle workload it records
[mb_tests, post_tests, essential-graph digest], after checking that the
learned graph equals the truth CPDAG and that post_tests is within
ci_budget_bound. The benchmark fails any run that drifts from these values,
so rerun this only when a workload's definition changes, never to make a
changed count pass.
"""

import json
import sys

import worker
from workloads import REFERENCE_PATH, WORKLOADS, build_instances, truth_cpdag


def main() -> int:
    mv = worker.import_marvel()
    out = {}
    for w in WORKLOADS.values():
        if not w.exact:
            continue
        insts, _ = build_instances(mv, w, 0)
        table = {}
        for inst in insts[: w.core]:
            o = worker.solve(mv, w, inst, truth_cpdag(mv, inst.dag), {})
            if o.problems:
                print(f"{w.name} graph seed {inst.graph_seed}: {o.problems}", file=sys.stderr)
                return 1
            table[str(inst.graph_seed)] = [o.mb_tests, o.post_tests, o.digest]
            print(w.name, inst.graph_seed, table[str(inst.graph_seed)], flush=True)
        out[w.name] = table
    lines = []
    for name, table in out.items():
        rows = [f'  "{seed}": {json.dumps(row)}' for seed, row in table.items()]
        lines.append(f' "{name}": {{\n' + ",\n".join(rows) + "\n }")
    REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
