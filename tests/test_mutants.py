"""The mutation gate's list stays in step with the package: every mutant in
``tests/mutants.py`` names an anchor that occurs exactly once in its file,
and its edited file still compiles, so a syntax error cannot pass for a
killed mutant. The gate itself, one suite run per mutant, is run by hand
with ``python tests/mutants.py``."""

import pytest

import mutants
from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_anchor_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor
    compile(text.replace(mutant.anchor, mutant.replacement), mutant.path, "exec")


def test_unknown_name_exits_1_before_any_run(monkeypatch, capsys):
    def run(mutant):
        raise AssertionError(f"ran {mutant.name}")

    monkeypatch.setattr(mutants, "run", run)
    assert mutants.main([MUTANTS[0].name, "no-such-mutant"]) == 1
    assert "no-such-mutant" in capsys.readouterr().err
