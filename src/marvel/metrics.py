"""Per-run metric record shared by the learner and the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RunMetrics:
    """CI-test accounting for one learner run, plus its wall time and the
    number of warnings it recorded. Skeleton accuracy against a truth graph
    is scored separately by ``bench.skeleton_metrics``."""

    n_tests: int = 0
    asc: float = 0.0
    max_cond: int = 0
    wall_ms: float = 0.0
    warnings: int = 0
