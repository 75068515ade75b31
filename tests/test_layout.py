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
``fisher_z_oracle``, gives values to its ``__init__``. A call of a name
bound outside the package gives none: ``worker.solve(...)``, on a module
imported from outside it, or a perfbench script's call of its own
``solve``. Only ``cli.main``'s ``argv`` is exempt: it is how the tests
drive the entry point in-process.

No package class inherits from outside the package: a base such as
``argparse.ArgumentParser``, ``collections.abc.Set`` or ``dict`` would
bring in members, such as set algebra, that no run calls and that the
member rule cannot see.

No package module defines an exception class. Bad input raises the
builtin ``ValueError`` or ``TypeError``, which the command line maps to
exit 1, and a contradiction in a statistical oracle's answers becomes a
warning, not an exception.

Every rule is a query over one index: ``scoped_nodes`` walks each package
module and ``perfbench`` script, parsed once per session, into (module,
qualified scope, node) entries, and "outside its own definition" is one
predicate, ``inside``. Each self-test indexes its own snippet. No exemption
outlives what it names: each ``ALLOWED_FILES`` file holds a ``.query`` and
each ``PARAMETER_EXEMPT`` entry is a defaulted parameter.
"""

import ast
import builtins
from collections import defaultdict
from functools import cache, partial
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
PARAMETER_EXEMPT = {"cli.main(argv)"}
# The package trees by file name and the perfbench trees, parsed once.
PACKAGE = {path.name: ast.parse(path.read_text(), path) for path in SRC.glob("*.py")}
OTHERS = [ast.parse(path.read_text(), path) for path in PERFBENCH.glob("*.py")]


@cache
def scoped_nodes(tree):
    """(qualified scope, node) of every node in the tree, in source order; a
    class or function node itself belongs to the scope that defines it, and
    its decorators, defaults and body to its own. The file's one walker."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, DEFINITIONS):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield scope, child
            yield from walk(child, inner)

    return tuple(walk(tree, ""))


def index(package, others=()):
    """The entries of the ``package`` trees, by file name, but ``__init__.py``,
    whose exports are no use, then of the ``others`` trees, module None."""
    trees = [(m, t) for m, t in sorted(package.items()) if m != "__init__.py"]
    trees += [(None, tree) for tree in others]
    return [(m, s, node) for m, tree in trees for s, node in scoped_nodes(tree)]


def inside(entry, module, scope):
    """True iff the (module, scope, ...) entry lies in the definition
    ``scope`` of ``module``: in its decorators, its defaults or its body."""
    return entry[0] == module and f"{entry[1]}.".startswith(f"{scope}.")


def definitions(entries):
    """(module, class, scope, node) of each module-level definition of a
    package module, class None, and of each one in a module-level class."""
    classes = {(m, n.name) for m, s, n in entries if not s and type(n) is ast.ClassDef}
    return [
        (m, s or None, f"{s}.{n.name}" if s else n.name, n)
        for m, s, n in entries
        if m and isinstance(n, DEFINITIONS) and (not s or (m, s) in classes)
    ]


def unserved(entries, key, wanted):
    """Each finding of ``wanted``, (finding, module, scope, k, serves), that
    no entry with ``key(node) == k`` and ``serves(node)`` true, ``bool`` for
    any, serves from outside the definition ``scope`` of ``module``."""
    groups = defaultdict(list)
    for entry in entries:
        groups[key(entry[2])].append(entry)
    return [
        finding
        for finding, module, scope, k, serves in wanted
        if not any(serves(e[2]) and not inside(e, module, scope) for e in groups[k])
    ]


def query_references(tree):
    """(qualified scope, line) of every ``<expr>.query`` in the tree."""
    nodes = scoped_nodes(tree)
    return [(s, n.lineno) for s, n in nodes if getattr(n, "attr", None) == "query"]


def int_calls(tree):
    """(qualified scope, line) of every call of the name ``int``."""
    calls = [(s, n) for s, n in scoped_nodes(tree) if isinstance(n, ast.Call)]
    return [(s, n.lineno) for s, n in calls if getattr(n.func, "id", None) == "int"]


def defined_scopes(tree):
    return {
        f"{scope}.{node.name}" if scope else node.name
        for scope, node in scoped_nodes(tree)
        if isinstance(node, DEFINITIONS)
    }


def test_query_is_called_only_from_mb_and_search():
    found = [(n, *r) for n, t in sorted(PACKAGE.items()) for r in query_references(t)]
    allowed = [f for f in found if f[0] in ALLOWED_FILES or f[:2] in ALLOWED_SCOPES]
    assert [f for f in found if f not in allowed] == []
    assert any(f[:2] in ALLOWED_SCOPES for f in allowed)


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
    for name, guarded in sorted(NO_INT_SCOPES):
        # A renamed function must not slip out of the rule unnoticed.
        assert guarded in defined_scopes(PACKAGE[name])
        calls = [(name, scope, line) for scope, line in int_calls(PACKAGE[name])]
        found += [call for call in calls if inside(call, name, guarded)]
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
    as a string in the literal list of its ``__all__``."""
    nodes = [node for _, node in scoped_nodes(tree)]
    read = {node.id for node in nodes if isinstance(node, ast.Name)}
    for node in nodes:
        if "__all__" in [getattr(t, "id", None) for t in getattr(node, "targets", ())]:
            read.update(ast.literal_eval(node.value))
    return sorted(
        (node.lineno, name)
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for name in [alias.asname or alias.name.split(".")[0]]
        if name not in read
    )


def private_imports(tree):
    """(line, name) of every underscore-prefixed name imported from another
    module of the package, by a relative or a ``marvel.`` import."""
    return [
        (node.lineno, alias.name)
        for _, node in scoped_nodes(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "marvel")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_name_it_never_uses():
    trees = {**PACKAGE, REFERENCE.name: ast.parse(REFERENCE.read_text())}
    assert [(n, f) for n, t in sorted(trees.items()) for f in unused_imports(t)] == []


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
    harness = ("bench.py", "cli.py")
    assert [(n, f) for n in harness for f in private_imports(PACKAGE[n])] == []


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


def referenced_name(node):
    """The name a bare name, an attribute or an imported name refers to."""
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return getattr(node, "id", None) or getattr(node, "attr", None)


def unreferenced_definitions(package, others):
    """(module, name) of every module-level function or class of a package
    module that no package module but ``__init__.py`` and no ``others``
    tree refers to outside a definition of that name in the referrer."""
    entries = index(package, others)
    named = [(referenced_name(entry[2]), entry) for entry in entries]
    used = {name for name, entry in named if name and not inside(entry, entry[0], name)}
    tops = [(m, scope) for m, owner, scope, _ in definitions(entries) if owner is None]
    return [top for top in tops if top[1] not in used]


def test_every_definition_serves_a_run():
    assert unreferenced_definitions(PACKAGE, OTHERS) == []


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


def member_use(node):
    """("call", name) for a call ``<expr>.name(...)``, ("read", name) for a
    read of the attribute ``name``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return "call", node.func.attr
    loaded = isinstance(getattr(node, "ctx", None), ast.Load)
    return ("read", node.attr) if loaded and isinstance(node, ast.Attribute) else None


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
    package module that no call, or property that no read, serves; dunders
    and the names in ``inherited(module, class)`` are skipped."""
    entries = index(package, others)
    wanted = []
    for m, owner, scope, node in definitions(entries):
        name = node.name
        if not owner or isinstance(node, ast.ClassDef) or name in inherited(m, owner):
            continue
        if not (name.startswith("__") and name.endswith("__")):
            decorators = [getattr(d, "id", None) for d in node.decorator_list]
            use = ("read" if "property" in decorators else "call", name)
            wanted.append(((m, scope), m, scope, use, bool))
    return unserved(entries, member_use, wanted)


def test_every_member_serves_a_run():
    def inherited(module, name):
        return outside_names(getattr(import_module(f"marvel.{module[:-3]}"), name))

    assert unserved_members(PACKAGE, OTHERS, inherited) == []


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
    found = {}
    for _, node in scoped_nodes(tree):
        for base in node.bases if isinstance(node, ast.ClassDef) else ():
            name = getattr(base, "id", None) or getattr(base, "attr", None)
            builtin = getattr(builtins, name or "", None)
            error = isinstance(builtin, type) and issubclass(builtin, BaseException)
            if error or name in found.values():
                found[node.lineno] = node.name
                break
    return list(found.items())


def test_no_module_defines_an_exception():
    found = [(n, f) for n, t in sorted(PACKAGE.items()) for f in exception_classes(t)]
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
    modules = [import_module(f"marvel.{name[:-3]}") for name in sorted(PACKAGE)]
    pairs = [(m, c) for m in modules for c in vars(m).values() if isinstance(c, type)]
    assert foreign_bases([c for m, c in pairs if c.__module__ == m.__name__]) == []


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


def gives(call, name, position):
    """True iff the call passes the parameter, by keyword, by position or
    through a ``*`` or ``**`` argument."""
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    at = position is not None and (position < len(call.args) or starred)
    return at or any(k.arg in (name, None) for k in call.keywords)


def defaults(entries):
    """("module.function(parameter)", module, scope, callee, serves) of each
    parameter with a default of a package function or method: ``serves``
    is ``gives`` bound to it, and an ``__init__``'s callee is its class."""
    found = []
    for m, owner, scope, func in definitions(entries):
        if isinstance(func, ast.ClassDef):
            continue
        args = func.args
        # A call of a method does not pass its first parameter.
        params = [*args.posonlyargs, *args.args]
        named = [(a.arg, i - bool(owner)) for i, a in enumerate(params)]
        named = named[len(named) - len(args.defaults):]
        named += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        callee = owner if func.name == "__init__" else func.name
        for a, i in named:
            serves = partial(gives, name=a, position=i)
            found.append((f"{m[:-3]}.{scope}({a})", m, scope, callee, serves))
    return found


def outside_calls(tree, own):
    """Every call ``f(...)`` or ``f.g(...)`` in the tree whose f names no
    package code: a name the tree imports from outside the package or,
    where ``own`` is true (a perfbench script such as ``worker``), a name
    the tree itself defines."""
    nodes = [node for _, node in scoped_nodes(tree)]
    outside = {
        alias.asname or alias.name.split(".")[0]
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not getattr(node, "level", 0)
        for alias in node.names
        if (getattr(node, "module", None) or alias.name).split(".")[0] != "marvel"
    }
    if own:
        outside |= {node.name for node in nodes if isinstance(node, DEFINITIONS)}
    return {
        node
        for node in nodes
        if isinstance(node, ast.Call)
        and getattr(getattr(node.func, "value", node.func), "id", None) in outside
    }


def unserved_parameters(package, others):
    """"module.function(parameter)" of every defaulted parameter that no call
    ``name(...)`` or ``<expr>.name(...)`` gives a value; a module-level
    alias such as ``fisher_z_oracle = FisherZOracle`` resolves to its
    target. A call that ``outside_calls`` finds serves nothing.
    ``PARAMETER_EXEMPT`` is skipped."""
    entries = index(package, others)
    aliases = {
        node.targets[0].id: node.value.id
        for m, s, node in entries
        if m and not s and isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Name)
        and [type(t) for t in node.targets] == [ast.Name]
    }
    outside = set().union(
        *(outside_calls(tree, False) for tree in package.values()),
        *(outside_calls(tree, True) for tree in others),
    )

    def callee(node):
        if isinstance(node, ast.Call) and node not in outside:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            return aliases.get(name, name)
        return None

    wanted = [d for d in defaults(entries) if d[0] not in PARAMETER_EXEMPT]
    return unserved(entries, callee, wanted)


def test_every_parameter_serves_a_run():
    assert unserved_parameters(PACKAGE, OTHERS) == []


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
    others = [
        "def report(g):\n    return g.scaled(scale=2.0)\n",
        "import worker\nworker.solve(None, 'pc', True)\n",
        "def solve(mv, algo, record):\n    pass\nsolve(None, 'pc', True)\n",
    ]
    assert unserved_parameters(
        {name: ast.parse(code) for name, code in package.items()},
        [ast.parse(code) for code in others],
    ) == [
        "graph.Dag.walk(depth)",
        "graph.solve(record)",
        "graph.main(argv)",
    ]


def dead_exemptions(package, files, parameters):
    """The exemptions that name nothing: each of the ``files`` with no
    ``<expr>.query`` reference, and each of the ``parameters`` that is no
    defaulted parameter of a package function or method."""
    entries = index(package)
    live = {m for m, _, node in entries if getattr(node, "attr", None) == "query"}
    return sorted((files | parameters) - live - {d[0] for d in defaults(entries)})


def test_every_exemption_names_something():
    assert dead_exemptions(PACKAGE, ALLOWED_FILES, PARAMETER_EXEMPT) == []


def test_rule_catches_a_dead_exemption():
    package = {
        "mb.py": "def update(o):\n    return o.query(0, 1, ())\n",
        "ci.py": "class CiOracle:\n    def search(self, x, base=()):\n        pass\n",
        "cli.py": "def main(argv):\n    pass\n",
    }
    assert dead_exemptions(
        {name: ast.parse(code) for name, code in package.items()},
        {"mb.py", "bench.py"},
        {"ci.CiOracle.search(base)", "cli.main(argv)", "cli.run(argv)"},
    ) == ["bench.py", "cli.main(argv)", "cli.run(argv)"]
