"""Span tracing around the package's public names, for the traced run.

The tracer patches module-level names of the installed package for the
duration of a ``with tracer.installed():`` block and restores them after.
Layer calls (boundary discovery, the four battery stages, the boundary
update, the finalizer pieces and the learner itself) become spans: name,
start, end, parent span and instance id. CI queries and the decision
kernels under them are too many to keep one span each (over a million per
Fisher-Z pass), so they are aggregated into counters on the innermost open
span. Every span also records how far ``oracle.stats().n_tests`` moved
while it was open, which lets ``check_instance`` prove that every query the
oracle counted went through ``CiOracle.query`` inside some stage.

Anything the tracer cannot account for is a ``TraceError``: a wrapped name
that no longer exists, queries outside any stage, queries that bypass
``CiOracle.query``, or a decision kernel that saw no calls while the oracle
answered queries.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# (module attribute of the package, name, span name). The four battery
# stages, the boundary update and the finalizer pieces are looked up by
# marvel_learn through the globals of marvel.marvel, so that is where they
# are patched.
SPAN_TARGETS = (
    ("mb", "total_conditioning", "mb.total_conditioning"),
    ("marvel", "marvel_learn", "marvel.learn"),
    ("marvel", "find_neighbors", "marvel.neighbors"),
    ("marvel", "check_condition1", "marvel.cond1"),
    ("marvel", "find_vpa", "marvel.vpa"),
    ("marvel", "check_condition2", "marvel.cond2"),
    ("marvel", "update_after_removal", "mb.update"),
    ("marvel", "v_structures", "marvel.finalize.colliders"),
    ("marvel", "pdag_from_skeleton_and_vstructs", "marvel.finalize.skeleton"),
    ("marvel", "apply_meek_rules", "marvel.finalize.meek"),
)

# Decision kernels called once per query by the oracles in marvel.ci.
KERNEL_TARGETS = (
    ("ci", "d_separated", "dsep"),
    ("ci", "partial_correlation_from_corr", "pcorr"),
)

STAGES = ("marvel.neighbors", "marvel.cond1", "marvel.vpa", "marvel.cond2")
FINALIZE = (
    "marvel.finalize.colliders",
    "marvel.finalize.skeleton",
    "marvel.finalize.meek",
)


class TraceError(RuntimeError):
    """The trace cannot account for the work the program did."""


class Span:
    __slots__ = (
        "id", "name", "parent", "instance", "start", "end", "tests0", "tests",
        "child_s", "queries", "query_s", "dsep_calls", "dsep_s",
        "pcorr_calls", "pcorr_s",
    )

    def __init__(self, sid, name, parent, instance, tests0):
        self.id = sid
        self.name = name
        self.parent = parent
        self.instance = instance
        self.tests0 = tests0
        self.tests = 0
        self.child_s = 0.0
        self.queries = 0
        self.query_s = 0.0
        self.dsep_calls = 0
        self.dsep_s = 0.0
        self.pcorr_calls = 0
        self.pcorr_s = 0.0
        self.start = perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus child spans and the aggregated queries under it."""
        return self.duration - self.child_s - self.query_s

    def record(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "tests0"}


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._oracle = None
        self._instance = None

    # -- span bookkeeping -------------------------------------------------

    def _tests(self) -> int:
        return self._oracle.stats().n_tests if self._oracle is not None else 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._instance, self._tests())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        span.tests = self._tests() - span.tests0
        if self._stack.pop() is not span:
            raise TraceError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    @contextmanager
    def instance(self, instance_id, oracle):
        """Root span of one solve; queries are diffed against ``oracle``."""
        self._oracle, self._instance = oracle, instance_id
        try:
            with self.span("solve") as root:
                yield root
        finally:
            self._oracle = self._instance = None

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(s)

        return traced

    def _query_wrapper(self, fn):
        stack = self._stack

        def traced(oracle, *args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(oracle, *args, **kwargs)
            finally:
                if not stack:
                    raise TraceError("CI query outside any traced span")
                top = stack[-1]
                top.queries += 1
                top.query_s += perf_counter() - t0

        return traced

    def _kernel_wrapper(self, fn, kind):
        stack = self._stack
        dsep = kind == "dsep"

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    top = stack[-1]
                    if dsep:
                        top.dsep_calls += 1
                        top.dsep_s += perf_counter() - t0
                    else:
                        top.pcorr_calls += 1
                        top.pcorr_s += perf_counter() - t0

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name; restore the originals on exit."""
        patches = []
        for mod_name, attr, span_name in SPAN_TARGETS:
            mod = self._module(mod_name)
            patches.append((mod, attr, self._span_wrapper(_lookup(mod, attr), span_name)))
        for mod_name, attr, kind in KERNEL_TARGETS:
            mod = self._module(mod_name)
            patches.append((mod, attr, self._kernel_wrapper(_lookup(mod, attr), kind)))
        oracle_cls = _lookup(self._module("ci"), "CiOracle")
        patches.append(
            (oracle_cls, "query", self._query_wrapper(_lookup(oracle_cls, "query")))
        )
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapper in patches:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)

    def _module(self, name):
        mod = getattr(self.pkg, name, None)
        if mod is None:
            raise TraceError(f"module marvel.{name} is missing")
        return mod

    # -- checks and output ------------------------------------------------

    def check_instance(self, root: Span, oracle_kind: str, degenerate: int) -> None:
        """Every query the oracle counted must sit inside a traced stage.

        ``root`` is the instance's ``solve`` span; its spans are the
        contiguous tail of ``self.spans`` that starts there.
        """
        subtree = self.spans[root.id:]
        below = {s.id: s.queries for s in subtree}
        for s in reversed(subtree):
            if s is not root:
                below[s.parent] += below[s.id]
        for s in subtree:
            if s.tests != below[s.id]:
                raise TraceError(
                    f"{s.name}: oracle counted {s.tests} tests but "
                    f"CiOracle.query saw {below[s.id]}"
                )
            if s.queries and s.name in ("solve", "marvel.learn"):
                raise TraceError(
                    f"{s.queries} queries in {s.name} outside every traced stage"
                )
        if oracle_kind == "dsep":
            kernel = sum(s.dsep_calls for s in subtree)
            expected = below[root.id]
        else:
            kernel = sum(s.pcorr_calls for s in subtree)
            expected = below[root.id] - degenerate
        if kernel != expected:
            raise TraceError(
                f"{oracle_kind} kernel saw {kernel} calls for {expected} "
                "decided queries"
            )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.record()) + "\n")


def _lookup(obj, attr):
    fn = getattr(obj, attr, None)
    if not callable(fn):
        raise TraceError(f"traced name {getattr(obj, '__name__', obj)}.{attr} is missing")
    return fn


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, tests, and calls that
    issued no test. Every traced name appears, with zeros if never called."""
    out = {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0, "tests": 0, "idle_calls": 0}
        for name in ("solve", *(t[2] for t in SPAN_TARGETS))
    }
    for s in spans:
        agg = out[s.name]
        agg["calls"] += 1
        agg["s"] += s.duration
        agg["self_s"] += s.self_s
        agg["tests"] += s.tests
        agg["idle_calls"] += s.tests == 0
    return out
