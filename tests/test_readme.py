"""README.md's library quickstart, run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_quickstart_blocks_run_and_match_their_comments():
    exact, finite = quickstart_blocks()
    ns = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(exact, "README.md", "exec"), ns)
    result, oracle = ns["result"], ns["oracle"]
    assert result.essential.directed == {(0, 2), (1, 2)}
    assert result.elimination_order == (0, 1, 2)
    # boundary discovery asks C(3, 2) = 3 tests before the learner's own
    assert oracle.stats().n_tests == result.metrics.n_tests + 3

    exec(compile(finite, "README.md", "exec"), ns)
    assert ns["data"].n == 5000
    assert ns["oracle"].alpha == 2 / 3**2
    assert ns["result"].essential.p == 3
