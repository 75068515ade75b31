"""Architecture rules checked on the package source.

Every subset search goes through ``CiOracle.search``, the one place that
knows the enumeration order, so an oracle can answer a whole candidate
family at once by overriding it. Only boundary discovery and the boundary
update in ``mb.py`` ask single queries; any other ``.query`` reference in
the package would bypass the family seam.

A vertex is an integer: the query path indexes its tables with the vertex
as given, so a float or complex vertex raises instead of being converted.
The validator and the kernels on that path never call the builtin ``int``.

No module imports a name it never reads, and neither does the test suite's
``reference.py``. The harness (``bench.py`` and ``cli.py``) imports no
underscore-prefixed name of another package module: the learners' edge
record and frame stay private to ``marvel.py``.

The package holds only what a learner run, the command line or the
benchmark needs: every module-level function or class of a package module
is referenced, outside its own definition, by a package module other than
``__init__.py`` or by a ``perfbench`` script. An export in ``__init__.py``
alone does not count, so a routine only the tests call, such as a
brute-force reference, belongs in ``tests/reference.py``. The same holds
for class members: every method of a package module's class is called, and
every property read, by such a module outside the member's own definition.
A call is ``<expr>.name(...)``, so a field of the same name read elsewhere
does not count. Dunders are exempt, and so is a member that overrides a
name a base class from outside the package defines, found through the
class's MRO.

Every parameter with a default, of a package function or method, is given
a value by some call in such a module or script, as a keyword or a
positional argument, outside the function's own body: a default no run
overrides is a mode no run takes, so a variant only the tests select, such
as the learner without its caches, belongs in ``tests/reference.py`` too.
A call of a class, or of a module-level alias of it such as
``fisher_z_oracle``, gives values to its ``__init__``. Only ``cli.main``'s
``argv`` is exempt: it is how the tests drive the entry point in-process.

No package class inherits from outside the package: a base such as
``argparse.ArgumentParser``, ``collections.abc.Set`` or ``dict`` would
bring in members, such as set algebra, that no run calls and that the
member rule cannot see.

No package module defines an exception class. Bad input raises the
builtin ``ValueError`` or ``TypeError``, which the command line maps to
exit 1, and a contradiction in a statistical oracle's answers becomes a
warning, not an exception.
"""

import ast
import builtins
from collections import Counter
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "marvel"
PERFBENCH = ROOT / "perfbench"
REFERENCE = Path(__file__).with_name("reference.py")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
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


def unused_imports(tree):
    """(line, name) of every name a module imports and never reads. A name
    counts as read when it appears as a bare name anywhere in the module or
    as a string in its ``__all__``."""
    exported = {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    found.append((node.lineno, name))
    return sorted(found)


def private_imports(tree):
    """(line, name) of every underscore-prefixed name imported from another
    module of the package, by a relative or a ``marvel.`` import."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "marvel")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in [*sorted(SRC.glob("*.py")), REFERENCE]:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in unused_imports(tree)]
    assert found == []


def test_rule_catches_an_unused_import():
    code = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .graph import Dag, Pdag\n"
        "from .ci import dsep_oracle\n"
        "__all__ = ['dsep_oracle']\n"
        "def f(g: Dag):\n"
        "    return np.zeros(g.p)\n"
    )
    assert unused_imports(ast.parse(code)) == [(2, "os"), (4, "Pdag")]


def test_harness_imports_no_private_name():
    found = []
    for name in ("bench.py", "cli.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        found += [f"{name}:{line} {alias}" for line, alias in private_imports(tree)]
    assert found == []


def test_rule_catches_a_private_import():
    code = (
        "from .graph import Dag, _pair\n"
        "from marvel.marvel import _orient as orient\n"
        "from . import _hidden\n"
        "from dataclasses import _MISSING_TYPE\n"
        "from .ci import dsep_oracle\n"
    )
    assert private_imports(ast.parse(code)) == [
        (1, "_pair"),
        (2, "_orient"),
        (3, "_hidden"),
    ]


def references(tree):
    """Every name the module refers to as a bare name, an attribute or an
    imported name, leaving out each module-level definition's references to
    itself."""
    found = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name != own:
                found.add(name)
    return found


def unreferenced_definitions(package, others):
    """(module, name) of every module-level function or class of a package
    module other than ``__init__.py`` that no such module and none of the
    ``others`` trees references; ``package`` maps a file name to its tree."""
    modules = {name: tree for name, tree in package.items() if name != "__init__.py"}
    used = set().union(*map(references, [*modules.values(), *others]))
    return [
        (name, stmt.name)
        for name, tree in sorted(modules.items())
        for stmt in tree.body
        if isinstance(stmt, DEFINITIONS) and stmt.name not in used
    ]


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_serves_a_run():
    package = {path.name: parse(path) for path in SRC.glob("*.py")}
    others = [parse(path) for path in PERFBENCH.glob("*.py")]
    assert unreferenced_definitions(package, others) == []


def test_rule_catches_an_unreferenced_definition():
    package = {
        "__init__.py": "from .graph import exported\n__all__ = ['exported']\n",
        "graph.py": (
            "def orphan():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def exported():\n"
            "    pass\n"
            "class Shared:\n"
            "    pass\n"
            "def timed():\n"
            "    pass\n"
        ),
        "mb.py": "from .graph import Shared\n",
    }
    others = ["from marvel import graph\ngraph.timed()\n"]
    assert unreferenced_definitions(
        {name: ast.parse(code) for name, code in package.items()},
        [ast.parse(code) for code in others],
    ) == [
        ("graph.py", "orphan"),
        ("graph.py", "recursive"),
        ("graph.py", "exported"),
    ]


def uses(node):
    """Counts of ("call", name) for each ``<expr>.name(...)`` in the node
    and of ("read", name) for each attribute it reads."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            found["call", n.func.attr] += 1
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found["read", n.attr] += 1
    return found


def outside_names(cls):
    """Names that a base class of ``cls`` from outside the package defines."""
    return {
        name
        for base in cls.__mro__[1:]
        if base.__module__.split(".")[0] != "marvel"
        for name in vars(base)
    }


def unserved_members(package, others, inherited):
    """(module, "Class.member") of every method of a module-level class of a
    package module other than ``__init__.py`` that no such module and none
    of the ``others`` trees calls outside the method's own body, and of
    every property none of them reads there. A call is ``<expr>.name(...)``,
    so a field or attribute of the same name does not count. Dunders are
    skipped, and so is every name in ``inherited(module, class)``, the names
    a base class outside the package defines."""
    modules = {name: tree for name, tree in package.items() if name != "__init__.py"}
    used = sum(map(uses, [*modules.values(), *others]), Counter())
    found = []
    for name, tree in sorted(modules.items()):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            outside = inherited(name, cls.name)
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name.startswith("__") and member.name.endswith("__"):
                    continue
                if member.name in outside:
                    continue
                prop = any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in member.decorator_list
                )
                key = ("read" if prop else "call", member.name)
                if used[key] <= uses(member)[key]:
                    found.append((name, f"{cls.name}.{member.name}"))
    return found


def test_every_member_serves_a_run():
    def inherited(module, name):
        return outside_names(getattr(import_module(f"marvel.{module[:-3]}"), name))

    package = {path.name: parse(path) for path in SRC.glob("*.py")}
    others = [parse(path) for path in PERFBENCH.glob("*.py")]
    assert unserved_members(package, others, inherited) == []


def test_rule_catches_an_unserved_member():
    package = {
        "__init__.py": "from .graph import Dag\nDag().exported()\n",
        "graph.py": (
            "import argparse\n"
            "from dataclasses import dataclass\n"
            "class Dag:\n"
            "    def orphan(self):\n"
            "        pass\n"
            "    def walk(self, n):\n"
            "        return self.walk(n - 1) if n else 0\n"
            "    def exported(self):\n"
            "        pass\n"
            "    def neighbors(self, v):\n"
            "        pass\n"
            "    def shared(self):\n"
            "        pass\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def __repr__(self):\n"
            "        return 'Dag()'\n"
            "@dataclass\n"
            "class Info:\n"
            "    neighbors: frozenset\n"
            "class Parser(argparse.ArgumentParser):\n"
            "    def error(self, message):\n"
            "        raise SystemExit(1)\n"
        ),
        "mb.py": (
            "def battery(g, info):\n"
            "    g.shared()\n"
            "    return info.neighbors\n"
        ),
    }
    others = ["def report(g):\n    return g.size\n"]
    namespace = {"__name__": "marvel.graph"}
    exec(package["graph.py"], namespace)
    assert unserved_members(
        {name: ast.parse(code) for name, code in package.items()},
        [ast.parse(code) for code in others],
        lambda module, name: outside_names(namespace[name]),
    ) == [
        ("graph.py", "Dag.orphan"),
        ("graph.py", "Dag.walk"),
        ("graph.py", "Dag.exported"),
        ("graph.py", "Dag.neighbors"),
    ]


def exception_classes(tree):
    """(line, name) of every class in the tree with a builtin exception
    among its bases, by name or as ``builtins.<name>``, or an exception
    class of the same tree defined before it."""
    own = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            name = getattr(base, "id", None) or getattr(base, "attr", None)
            builtin = getattr(builtins, name or "", None)
            if name in own or (
                isinstance(builtin, type) and issubclass(builtin, BaseException)
            ):
                own.add(node.name)
                found.append((node.lineno, node.name))
                break
    return found


def test_no_module_defines_an_exception():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in exception_classes(tree)]
    assert found == []


def test_rule_catches_an_exception_class():
    code = (
        "import builtins\n"
        "class GraphError(ValueError):\n"
        "    pass\n"
        "class CycleError(GraphError):\n"
        "    pass\n"
        "class Dag:\n"
        "    pass\n"
        "class Frozen(Dag, builtins.RuntimeError):\n"
        "    pass\n"
        "def f():\n"
        "    class Stop(Exception):\n"
        "        pass\n"
        "class Wrapper(Dag):\n"
        "    pass\n"
    )
    assert exception_classes(ast.parse(code)) == [
        (2, "GraphError"),
        (4, "CycleError"),
        (8, "Frozen"),
        (11, "Stop"),
    ]


def foreign_bases(classes):
    """(class, base) of every class, by qualified name, with a base class
    from outside the package other than ``object``, direct or inherited;
    the first such base in the MRO is named."""
    found = []
    for cls in classes:
        for base in cls.__mro__[1:-1]:
            if base.__module__.split(".")[0] != "marvel":
                name = f"{cls.__module__}.{cls.__qualname__}"
                found.append((name, f"{base.__module__}.{base.__qualname__}"))
                break
    return found


def test_no_class_inherits_from_outside_the_package():
    classes = []
    for path in sorted(SRC.glob("*.py")):
        module = import_module(f"marvel.{path.stem}")
        classes += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
    assert foreign_bases(classes) == []


def test_rule_catches_a_foreign_base():
    from marvel.ci import DsepOracle

    namespace = {"__name__": "marvel.graph"}
    exec(
        "from collections.abc import Set\n"
        "class Tokens(Set):\n"
        "    pass\n"
        "class Table(dict):\n"
        "    pass\n"
        "class Wrapper(Tokens):\n"
        "    pass\n",
        namespace,
    )
    classes = [namespace[n] for n in ("Tokens", "Table", "Wrapper")]
    assert foreign_bases([*classes, DsepOracle]) == [
        ("marvel.graph.Tokens", "collections.abc.Set"),
        ("marvel.graph.Table", "builtins.dict"),
        ("marvel.graph.Wrapper", "collections.abc.Set"),
    ]


PARAMETER_EXEMPT = {"cli.main(argv)"}


def defaulted_parameters(func, bound):
    """(name, position) of every parameter of ``func`` with a default;
    position is its index among a call's positional arguments, one less
    for a ``bound`` method, whose first parameter the call does not pass,
    and None for a keyword-only parameter."""
    args = func.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    start = len(positional) - len(args.defaults)
    return [
        (name, i - bound) for i, name in enumerate(positional) if i >= start
    ] + [
        (a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def gives(call, name, position):
    """True iff the call passes the parameter, by keyword, by position or
    through a ``*`` or ``**`` argument."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return position < len(call.args) or any(
        isinstance(a, ast.Starred) for a in call.args
    )


def unserved_parameters(package, others):
    """"module.function(parameter)" of every parameter with a default, of a
    module-level function or a method of a module-level class of a package
    module other than ``__init__.py``, that no call in such a module or in
    the ``others`` trees gives a value, outside the function's own body.
    A call names its function as ``name(...)`` or ``<expr>.name(...)``; a
    call of a class calls its ``__init__``, and a module-level alias such
    as ``fisher_z_oracle = FisherZOracle`` resolves to its target.
    ``PARAMETER_EXEMPT`` is skipped."""
    modules = {name: tree for name, tree in package.items() if name != "__init__.py"}
    aliases = {
        stmt.targets[0].id: stmt.value.id
        for tree in modules.values()
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Name)
        and [type(t) for t in stmt.targets] == [ast.Name]
    }
    calls = []
    for tree in [*modules.values(), *others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.append((aliases.get(callee, callee), node))
    found = []
    for module, tree in sorted(modules.items()):
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
            for func in stmt.body if owner else [stmt]:
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                callee = owner if func.name == "__init__" else func.name
                own = set(map(id, ast.walk(func)))
                prefix = f"{module[:-3]}.{owner}." if owner else f"{module[:-3]}."
                for name, position in defaulted_parameters(func, owner is not None):
                    served = any(
                        target == callee
                        and id(call) not in own
                        and gives(call, name, position)
                        for target, call in calls
                    )
                    key = f"{prefix}{func.name}({name})"
                    if not served and key not in PARAMETER_EXEMPT:
                        found.append(key)
    return found


def test_every_parameter_serves_a_run():
    package = {path.name: parse(path) for path in SRC.glob("*.py")}
    others = [parse(path) for path in PERFBENCH.glob("*.py")]
    assert unserved_parameters(package, others) == []


def test_rule_catches_an_unserved_parameter():
    package = {
        "__init__.py": "from .graph import solve\nsolve(None, 'pc', True)\n",
        "graph.py": (
            "class Dag:\n"
            "    def __init__(self, p, edges=()):\n"
            "        self.p = p\n"
            "    def walk(self, v, depth=0):\n"
            "        return self.walk(v, depth=depth + 1)\n"
            "    def scaled(self, scale=1.0):\n"
            "        return self.p * scale\n"
            "new_dag = Dag\n"
            "def solve(oracle, algo='marvel', record=False):\n"
            "    pass\n"
            "def load(path, *, strict=True, lenient=False):\n"
            "    pass\n"
            "def timed(fn, repeat=1):\n"
            "    pass\n"
            "def main(argv=None):\n"
            "    pass\n"
        ),
        "mb.py": (
            "from .graph import load, new_dag, solve, timed\n"
            "def run(opts, job):\n"
            "    solve(new_dag(3, [(0, 1)]), 'pc')\n"
            "    load('x', **opts)\n"
            "    timed(*job)\n"
        ),
        "cli.py": "def main(argv=None):\n    pass\n",
    }
    others = ["def report(g):\n    return g.scaled(scale=2.0)\n"]
    assert unserved_parameters(
        {name: ast.parse(code) for name, code in package.items()},
        [ast.parse(code) for code in others],
    ) == [
        "graph.Dag.walk(depth)",
        "graph.solve(record)",
        "graph.main(argv)",
    ]
