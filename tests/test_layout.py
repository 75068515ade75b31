"""Architecture rules checked on the package source.

Every subset search goes through ``CiOracle.search``, the one place that
knows the enumeration order, so an oracle can answer a whole candidate
family at once by overriding it. Only boundary discovery and the boundary
update in ``mb.py`` ask single queries; any other ``.query`` reference in
the package would bypass the family seam.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "marvel"
ALLOWED_SCOPES = {("ci.py", "CiOracle.search")}
ALLOWED_FILES = {"mb.py"}


def query_references(tree):
    """(qualified scope, line) of every ``<expr>.query`` in the tree."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr == "query":
                found.append((scope, child.lineno))
            walk(child, inner)

    walk(tree, "")
    return found


def test_query_is_called_only_from_mb_and_search():
    stray = []
    seen_in_search = False
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, line in query_references(tree):
            if path.name in ALLOWED_FILES:
                continue
            if (path.name, scope) in ALLOWED_SCOPES:
                seen_in_search = True
                continue
            stray.append(f"{path.name}:{line} in {scope or '<module>'}")
    assert stray == []
    assert seen_in_search


def test_rule_catches_a_stray_query():
    code = (
        "class CiOracle:\n"
        "    def search(self):\n"
        "        return self.query\n"
        "def find(o):\n"
        "    return o.query(0, 1, ())\n"
    )
    assert query_references(ast.parse(code)) == [
        ("CiOracle.search", 3),
        ("find", 5),
    ]
