"""Architecture rules checked on the package source.

Every subset search goes through ``CiOracle.search``, the one place that
knows the enumeration order, so an oracle can answer a whole candidate
family at once by overriding it. Only boundary discovery and the boundary
update in ``mb.py`` ask single queries; any other ``.query`` reference in
the package would bypass the family seam.

A vertex is an integer: the query path indexes its tables with the vertex
as given, so a float or complex vertex raises instead of being converted.
The validator and the kernels on that path never call the builtin ``int``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "marvel"
ALLOWED_SCOPES = {("ci.py", "CiOracle.search")}
ALLOWED_FILES = {"mb.py"}
NO_INT_SCOPES = {
    ("graph.py", "check_query"),
    ("graph.py", "d_separated"),
    ("ci.py", "partial_correlation_from_corr"),
    ("ci.py", "FisherZOracle._decide"),
}


def scoped_nodes(tree):
    """(qualified scope, node) of every node in the tree; a class or
    function node itself belongs to the scope that defines it."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield scope, child
            yield from walk(child, inner)

    return walk(tree, "")


def query_references(tree):
    """(qualified scope, line) of every ``<expr>.query`` in the tree."""
    return [
        (scope, node.lineno)
        for scope, node in scoped_nodes(tree)
        if isinstance(node, ast.Attribute) and node.attr == "query"
    ]


def int_calls(tree):
    """(qualified scope, line) of every call of the name ``int``."""
    return [
        (scope, node.lineno)
        for scope, node in scoped_nodes(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
    ]


def defined_scopes(tree):
    return {
        f"{scope}.{node.name}" if scope else node.name
        for scope, node in scoped_nodes(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


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


def test_query_path_never_calls_int():
    found = []
    for name in sorted({name for name, _ in NO_INT_SCOPES}):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        guarded = {scope for file, scope in NO_INT_SCOPES if file == name}
        # A renamed function must not slip out of the rule unnoticed.
        assert guarded <= defined_scopes(tree)
        for scope, line in int_calls(tree):
            if any(scope == g or scope.startswith(g + ".") for g in guarded):
                found.append(f"{name}:{line} in {scope}")
    assert found == []


def test_rule_catches_an_int_call():
    code = (
        "def d_separated(g, x: int, y):\n"
        "    x = int(x)\n"
        "    def inner(v):\n"
        "        return int(v)\n"
        "    return map(int, y)\n"
        "class FisherZOracle:\n"
        "    def _decide(self, x):\n"
        "        return int(x)\n"
        "n = int('3')\n"
    )
    tree = ast.parse(code)
    assert int_calls(tree) == [
        ("d_separated", 2),
        ("d_separated.inner", 4),
        ("FisherZOracle._decide", 8),
        ("", 9),
    ]
    assert {"d_separated", "FisherZOracle._decide"} <= defined_scopes(tree)
