"""Mutation gate: every listed mutant of the package must fail the suite.

    python tests/mutants.py

A mutant is one exact edit of one package file: an anchor text, which must
occur in that file exactly once, and its replacement. For each mutant the
script copies what the suite reads (``src``, ``tests``, ``perfbench``,
``pyproject.toml`` and ``README.md``) into a temporary directory, applies
the edit to the copy and runs ``python -m pytest -x -q tests`` there, so the
repository itself is never touched. It prints each mutant's first failing
test and exits 1 if any mutant survives, times out or has a stale anchor.
``tests/test_mutants.py`` checks every anchor in the tier-1 suite.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
# A killed mutant stops at its first failure; a survivor runs the whole
# suite, which takes well under a minute.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    anchor: str
    replacement: str


MARVEL = "src/marvel/marvel.py"
GRAPH = "src/marvel/graph.py"
CI = "src/marvel/ci.py"
MB = "src/marvel/mb.py"
CERT = "(px & (py | cmask[y]) | cx & py) & ~smask"

MUTANTS = (
    # The learner: collider orientation and the elimination scan.
    Mutant(
        "orient-keeps-last-head", MARVEL,
        "    if heads.setdefault(_pair(i, j), j) != j:\n",
        "    if heads.setdefault(_pair(i, j), j) != j:\n"
        "        heads[_pair(i, j)] = j\n",
    ),
    Mutant(
        "heap-no-push-back", MARVEL,
        "            if entry[1] != x:\n                heappush(scan, entry)\n",
        "            pass\n",
    ),
    Mutant(
        "heap-no-stale-skip", MARVEL,
        "            if key != len(m.mb[x]):\n                continue\n",
        "",
    ),
    Mutant(
        "heap-no-fresh-entry", MARVEL,
        "        for v in touched:\n            heappush(scan, (len(m.mb[v]), v))\n",
        "",
    ),
    Mutant(
        "forced-collider-kept-after-its-child", MARVEL,
        "        or pos[c] < min(pos[a], pos[b])\n",
        "        or pos[c] > min(pos[a], pos[b])\n",
    ),
    Mutant(
        "neighbor-search-tries-the-full-pool", MARVEL,
        "sizes=range(len(mb_x) - 1)",
        "sizes=range(len(mb_x))",
    ),
    # The no-separator memory is keyed by the battery's vertex.
    Mutant(
        "cond1-key-without-x", MARVEL,
        "        key = (x, z, w)\n",
        "        key = (z, w)\n",
    ),
    Mutant(
        "cond2-key-without-x", MARVEL,
        "            key = (x, y, z, t)\n",
        "            key = (y, z, t)\n",
    ),
    # Boundary updates.
    Mutant(
        "update-conditions-on-the-larger-boundary", MB,
        "        if (len(m.mb[y]), y) <= (len(m.mb[z]), z):\n",
        "        if (len(m.mb[y]), y) > (len(m.mb[z]), z):\n",
    ),
    # The exact kernel: short-path certificates, moral rows, the memo key.
    Mutant("certificate-without-smask", GRAPH, CERT, "(px & (py | cmask[y]) | cx & py)"),
    Mutant("certificate-without-chains", GRAPH, CERT, "(px & py) & ~smask"),
    Mutant(
        "certificate-without-dmask", GRAPH,
        "if ((1 << w) | dmask[w]) & smask:",
        "if (1 << w) & smask:",
    ),
    Mutant(
        "collider-certificate-reads-cx-py", GRAPH,
        "    c = cx & cmask[y]\n",
        "    c = cx & py\n",
    ),
    Mutant(
        "moral-row-without-coparents", GRAPH,
        "                m |= self._pmask[c]\n",
        "                pass\n",
    ),
    Mutant(
        "ancestral-set-seeded-without-y", GRAPH,
        "    f = xbit | ybit | smask\n",
        "    f = xbit | smask\n",
    ),
    Mutant(
        "memo-key-without-y", GRAPH,
        "    key = (xbit | ybit) << g.p | smask\n",
        "    key = xbit << g.p | smask\n",
    ),
    Mutant(
        "memo-key-without-s", GRAPH,
        "    key = (xbit | ybit) << g.p | smask\n",
        "    key = (xbit | ybit) << g.p\n",
    ),
    # The oracles: counting and the Fisher-Z kernel.
    Mutant(
        "rest-counted-at-p-minus-3", CI,
        "        return self.p - 2 if s is REST else len(s)\n",
        "        return self.p - 3 if s is REST else len(s)\n",
    ),
    Mutant(
        "fisherz-unsorted-s", CI,
        "        idx = sorted(s)\n",
        "        idx = sorted(s, reverse=True)\n",
    ),
    Mutant(
        "fisherz-wrong-trailing-entry", CI,
        "        b = float(c[-1, -1])\n",
        "        b = float(c[-2, -2])\n",
    ),
    Mutant(
        "fisherz-df-n-minus-k-minus-2", CI,
        "        z = sqrt(n - k - 3) * atanh(r)\n",
        "        z = sqrt(n - k - 2) * atanh(r)\n",
    ),
    Mutant(
        "query-counts-before-decide", CI,
        "        answer = self._decide(x, y, s)\n"
        "        # Counted only once answered, so a query that raises leaves no trace.\n"
        "        k = self._size(s)\n"
        "        self._by_size[k] = self._by_size.get(k, 0) + 1\n",
        "        k = self._size(s)\n"
        "        self._by_size[k] = self._by_size.get(k, 0) + 1\n"
        "        answer = self._decide(x, y, s)\n",
    ),
    Mutant(
        "degenerate-counts-before-validating", CI,
        "            check_query(self.p, x, y, s)\n"
        "            for v in (x, y, *(() if s is REST else s)):\n"
        "                index(v)\n"
        "            self.n_degenerate += 1\n",
        "            self.n_degenerate += 1\n"
        "            check_query(self.p, x, y, s)\n"
        "            for v in (x, y, *(() if s is REST else s)):\n"
        "                index(v)\n",
    ),
    Mutant(
        "z-threshold-one-sided", CI,
        "ndtri(1.0 - alpha / 2.0)",
        "ndtri(1.0 - alpha)",
    ),
    # The removability battery and the test budget.
    Mutant(
        "condition2-always-passes", MARVEL,
        "    for y, t in sorted(vpa):\n        for z in sorted(neighbors - {y}):\n",
        "    return True\n"
        "    for y, t in sorted(vpa):\n        for z in sorted(neighbors - {y}):\n",
    ),
    # Zeroed rather than cut, so that comb stays in use and the kill is
    # not the unused-import rule's.
    Mutant(
        "budget-without-update-term", MARVEL,
        "        Fraction(p) * comb(delta_in, 2)\n",
        "        0 * comb(delta_in, 2)\n",
    ),
    Mutant(
        "budget-divided-by-10", MARVEL,
        "    return ceil(total)\n",
        "    return ceil(total / 10)\n",
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Apply the mutant to the tree at root; its anchor must occur once."""
    path = root / mutant.path
    text = path.read_text()
    found = text.count(mutant.anchor)
    if found != 1:
        raise ValueError(
            f"{mutant.name}: anchor occurs {found} times in {mutant.path}"
        )
    path.write_text(text.replace(mutant.anchor, mutant.replacement))


def run(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail): killed with its first failing test, survived, or
    timeout."""
    with tempfile.TemporaryDirectory(prefix="marvel-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(
                    src, root / name, ignore=shutil.ignore_patterns("__pycache__")
                )
            else:
                shutil.copy2(src, root / name)
        apply(mutant, root)
        # The anchor check would fail on the copy by construction.
        cmd = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--ignore=tests/test_mutants.py", "tests",
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "timeout", f"no verdict in {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived", proc.stdout.strip().splitlines()[-1]
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"exit {proc.returncode}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        try:
            verdict, detail = run(mutant)
        except ValueError as exc:
            verdict, detail = "stale", str(exc)
        bad += verdict != "killed"
        secs = time.perf_counter() - t0
        print(f"{mutant.name}: {verdict} ({secs:.0f} s): {detail}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
