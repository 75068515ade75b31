"""README.md's library quickstart, run as written, and the names it cites."""

import contextlib
import importlib
import io
import pkgutil
import re
from dataclasses import fields
from functools import reduce
from pathlib import Path

import pytest

import marvel
from marvel import bench, cli
from marvel.bench import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"

# Third-party names are not checked, nor are file names such as BENCHMARK.json.
SKIPPED_HEADS = ("np", "scipy")
FILE_SUFFIXES = ("csv", "edges", "json", "md", "py", "toml", "txt")


def quickstart_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def command_lines():
    """Each ``marvel`` line of the Command line section's sh block, with
    its backslash continuations joined, as an argument list."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("marvel ")]


def run_exact_quickstart():
    exact, _ = quickstart_blocks()
    ns = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(exact, "README.md", "exec"), ns)
    return ns


def dotted_names():
    """Every dotted name inside a backticked span outside the code blocks;
    a name that continues a path, such as run.py in perfbench/run.py, is
    left out."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    for span in re.findall(r"`([^`]+)`", text):
        yield from re.findall(r"(?<![\w./-])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)


def test_quickstart_blocks_run_and_match_their_comments():
    _, finite = quickstart_blocks()
    ns = run_exact_quickstart()
    result, oracle = ns["result"], ns["oracle"]
    assert result.essential.directed == {(0, 2), (1, 2)}
    assert result.elimination_order == (0, 1, 2)
    # boundary discovery asks C(3, 2) = 3 tests before the learner's own
    assert oracle.stats().n_tests == result.stats.n_tests + 3

    exec(compile(finite, "README.md", "exec"), ns)
    assert ns["data"].n == 5000
    assert ns["oracle"].alpha == 2 / 3**2
    assert ns["result"].essential.p == 3


def test_cited_names_resolve():
    # marvel.… against the package; result.… and oracle.… on the exact
    # quickstart's objects; a package module such as cli, imported by
    # name, so the answer does not hang on what other tests imported; any
    # other head, a class such as CiOracle, against the package's namespace.
    ns = run_exact_quickstart()
    roots = {
        module.name: importlib.import_module(f"marvel.{module.name}")
        for module in pkgutil.iter_modules(marvel.__path__)
    }
    roots.update(marvel=marvel, result=ns["result"], oracle=ns["oracle"])
    names = list(dotted_names())
    assert "result.warnings" in names
    unresolved = []
    for name in names:
        head, *attrs = name.split(".")
        if head in SKIPPED_HEADS or attrs[-1] in FILE_SUFFIXES:
            continue
        obj, path = (roots[head], attrs) if head in roots else (marvel, [head, *attrs])
        try:
            reduce(getattr, path, obj)
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []


def test_command_lines_parse():
    argvs = command_lines()
    assert {argv[0] for argv in argvs} == {
        "generate", "learn", "bench", "oracle-check"
    }
    parser = cli._build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: marvel {' '.join(argv)}")


def test_example_config_parses():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Experiment config files", 1)[1]
    example = section.split("Example:", 1)[1].split("```", 2)[1]
    cfg = parse_config(example)
    assert (cfg.p, cfg.n_samples, cfg.seeds) == (50, 2500, tuple(range(10)))


def test_csv_columns_block_matches_the_code():
    text = README.read_text(encoding="utf-8")
    block = text.split("Output CSV columns:", 1)[1].split("```", 2)[1]
    assert block.strip() == ",".join(bench.CSV_COLUMNS)


def test_config_key_table_lists_the_config_fields():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Experiment config files", 1)[1].split("Example:", 1)[0]
    keys = re.findall(r"^\| `(\w+)` +\|", section, flags=re.M)
    # each field once; the table orders them for reading
    assert sorted(keys) == sorted(f.name for f in fields(bench.ExperimentConfig))
