"""Experiment harness: seeded runs of both learners with flat CSV output.

One experiment is a generator regime, a learner, an oracle kind, and a list
of seeds. Each seed gets its own graph, oracle, and boundary discovery;
boundary-phase and post-boundary test counts are reported separately. Rows
come out in seed order followed by one aggregate row of means, and a config
run twice yields byte-identical CSV.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ci import CiOracle, Dataset, dsep_oracle, fisher_z_oracle
from .graph import Dag, Pdag, _pair
from .marvel import LearnResult, _as_pdag, _orient, marvel_learn, run_learner
from .mb import MbMap, total_conditioning
from .synth import (
    cluster_adversarial_dag,
    erdos_renyi_dag,
    fixed_indegree_dag,
    random_scm,
    sample,
)

GENERATORS = ("erdos_renyi", "fixed_indegree", "cluster")
ORACLES = ("dsep", "fisher_z")

CSV_COLUMNS = (
    "algo",
    "seed",
    "p",
    "delta_in",
    "m",
    "n_samples",
    "mb_tests",
    "post_tests",
    "asc",
    "max_cond",
    "precision",
    "recall",
    "f1",
    "wall_ms",
    "warnings",
)


def skeleton_metrics(learned: Pdag, truth: Dag) -> tuple[float, float, float]:
    """Precision, recall, and F1 of the learned skeleton against the truth.

    Both graphs are read as undirected adjacency sets. An empty learned
    skeleton scores precision 1 against an empty truth and 0 otherwise;
    F1 is 0 whenever either component is 0.
    """
    if learned.p != truth.p:
        raise ValueError("graphs disagree on p")
    l_edges = learned.skeleton_pairs()
    t_edges = truth.skeleton_pairs()
    hit = len(l_edges & t_edges)
    precision = hit / len(l_edges) if l_edges else (1.0 if not t_edges else 0.0)
    recall = hit / len(t_edges) if t_edges else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision > 0 and recall > 0
        else 0.0
    )
    return precision, recall, f1


def pc_baseline(oracle: CiOracle, mb0: MbMap) -> LearnResult:
    """PC-style edge removal started from the boundary map's moral graph.

    Conditioning sets of size 0, 1, 2, ... are drawn from the current
    adjacency of each endpoint (adjacencies shrink as edges fall during the
    sweep). Separating sets are recorded and drive the collider rule; Meek
    rules finish the orientation. Vertices are processed in ascending index
    at every step.
    """
    return run_learner(oracle, mb0, _pc_sweep)


def _pc_sweep(
    oracle: CiOracle, mb0: MbMap, warnings: list[str]
) -> tuple[Pdag, tuple[int, ...]]:
    p = oracle.p
    adj: list[set[int]] = [set(mb0.mb[x]) for x in range(p)]
    sepsets: dict[tuple[int, int], frozenset[int]] = {}
    level = 0
    while any(len(adj[x]) - 1 >= level for x in range(p)):
        for x in range(p):
            for y in sorted(adj[x]):
                if y not in adj[x]:
                    continue
                s = oracle.search(x, y, adj[x] - {y}, sizes=(level,))
                if s is not None:
                    adj[x].discard(y)
                    adj[y].discard(x)
                    sepsets[_pair(x, y)] = s
        level += 1

    heads: dict[tuple[int, int], int] = {}
    for c in range(p):
        for a, b in combinations(sorted(adj[c]), 2):
            key = (a, b)
            if b in adj[a] or key not in sepsets or c in sepsets[key]:
                continue
            # keep-first when noisy answers demand both directions of an edge
            _orient(heads, a, c, warnings)
            _orient(heads, b, c, warnings)
    pairs = [(x, y) for x in range(p) for y in adj[x] if x < y]
    return _as_pdag(p, pairs, heads), tuple(range(p))


LEARNERS = {"marvel": marvel_learn, "pc": pc_baseline}
ALGOS = tuple(LEARNERS)


def solve(oracle: CiOracle, algo: str) -> tuple[int, LearnResult]:
    """Boundary discovery by total conditioning, then the named learner.

    Returns the boundary-phase test count, which leaves out any query the
    oracle answered before, and the learner's result.
    """
    before = oracle.stats()
    mb0 = total_conditioning(oracle)
    mb_tests = (oracle.stats() - before).n_tests
    return mb_tests, LEARNERS[algo](oracle, mb0)


@dataclass(frozen=True)
class ExperimentConfig:
    """One seeded experiment grid cell.

    generator picks the graph family (m for erdos_renyi, delta_in for
    fixed_indegree and cluster). oracle "dsep" answers from the true graph;
    "fisher_z" simulates n_samples rows of linear-Gaussian data per seed.
    wall_ms is zeroed in rows unless record_wall is set, keeping CSV output
    reproducible byte for byte.
    """

    generator: str
    p: int
    algo: str
    oracle: str
    seeds: tuple[int, ...]
    m: int | None = None
    delta_in: int | None = None
    n_samples: int | None = None
    alpha: float | None = None
    record_wall: bool = False

    def __post_init__(self) -> None:
        _check_generator(self.generator, self.m, self.delta_in)
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algo {self.algo!r}")
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.oracle == "fisher_z":
            if self.n_samples is None:
                raise ValueError("fisher_z needs n_samples")
        else:
            if self.n_samples is not None:
                raise ValueError("dsep runs take no n_samples")
            if self.alpha is not None:
                raise ValueError("dsep runs take no alpha")


def simulate_dataset(g: Dag, n_samples: int, seed: int) -> Dataset:
    """Draw a linear-Gaussian model for g and sample rows from it.

    Edge weights come from ±synth.COEFF_RANGE and noise sds from
    synth.SD_RANGE, the ranges every simulated dataset uses.

    The model seed and the noise seed are both derived from the one seed
    given, so a (graph, seed) pair pins down the dataset exactly.
    """
    scm_seed, data_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(2)
    )
    return sample(random_scm(g, seed=scm_seed), n_samples, seed=data_seed)


def _check_generator(generator: str, m: int | None, delta_in: int | None) -> None:
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    if generator == "erdos_renyi" and m is None:
        raise ValueError("erdos_renyi needs m")
    if generator != "erdos_renyi" and delta_in is None:
        raise ValueError(f"{generator} needs delta_in")


def generate_dag(
    generator: str,
    p: int,
    seed: int,
    m: int | None = None,
    delta_in: int | None = None,
) -> Dag:
    """A DAG from one of the GENERATORS families.

    erdos_renyi takes the edge count m; fixed_indegree and cluster take
    delta_in. The cluster family is deterministic and ignores the seed.
    """
    _check_generator(generator, m, delta_in)
    if generator == "erdos_renyi":
        return erdos_renyi_dag(p, m, seed)
    if generator == "fixed_indegree":
        return fixed_indegree_dag(p, delta_in, seed)
    return cluster_adversarial_dag(p, delta_in)


def _build_oracle(cfg: ExperimentConfig, g: Dag, seed: int) -> CiOracle:
    if cfg.oracle == "dsep":
        return dsep_oracle(g)
    data = simulate_dataset(g, cfg.n_samples, seed)
    return fisher_z_oracle(data, cfg.alpha)


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """One row per seed plus a final mean row (seed column "mean")."""
    rows = []
    for seed in cfg.seeds:
        try:
            g = generate_dag(cfg.generator, cfg.p, seed, cfg.m, cfg.delta_in)
            oracle = _build_oracle(cfg, g, seed)
        except ValueError as exc:
            raise ValueError(f"seed {seed}: {exc}") from exc
        mb_tests, res = solve(oracle, cfg.algo)
        precision, recall, f1 = skeleton_metrics(res.essential, g)
        rows.append(
            {
                "algo": cfg.algo,
                "seed": seed,
                "p": cfg.p,
                "delta_in": (
                    cfg.delta_in
                    if cfg.delta_in is not None
                    else g.max_in_degree()
                ),
                "m": g.n_edges,
                "n_samples": cfg.n_samples if cfg.n_samples else 0,
                "mb_tests": mb_tests,
                "post_tests": res.stats.n_tests,
                "asc": res.stats.asc,
                "max_cond": res.stats.max_cond_size,
                "precision": precision,
                "recall": recall,
                "f1": f1,
                "wall_ms": res.wall_ms if cfg.record_wall else 0.0,
                "warnings": len(res.warnings),
            }
        )
    mean = {"algo": cfg.algo, "seed": "mean"}
    for col in CSV_COLUMNS[2:]:
        mean[col] = sum(r[col] for r in rows) / len(rows)
    return rows + [mean]


_CONFIG_INT_KEYS = ("p", "m", "delta_in", "n_samples")
_CONFIG_FLOAT_KEYS = ("alpha",)
_CONFIG_STR_KEYS = ("generator", "algo", "oracle")


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Comma-separated integers; "a..b" expands to the inclusive range."""
    seeds: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo_text, _, hi_text = token.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty seed range {token!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(token))
    return tuple(seeds)


def parse_config(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from flat "key = value" lines.

    Keys are the ExperimentConfig field names; seeds take a comma list with
    optional "a..b" ranges; record_wall takes true or false. Each key may
    appear once. '#' starts a comment and blank lines are skipped.
    """
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in kv:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        kv[key] = value.strip()

    fields: dict = {}
    for key, value in kv.items():
        try:
            if key in _CONFIG_STR_KEYS:
                fields[key] = value
            elif key in _CONFIG_INT_KEYS:
                fields[key] = int(value)
            elif key in _CONFIG_FLOAT_KEYS:
                fields[key] = float(value)
            elif key == "seeds":
                fields[key] = _parse_seeds(value)
            elif key == "record_wall":
                if value not in ("true", "false"):
                    raise ValueError("expected true or false")
                fields[key] = value == "true"
            else:
                raise ValueError("unknown key")
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    for required in ("generator", "p", "algo", "oracle", "seeds"):
        if required not in fields:
            raise ValueError(f"config is missing {required!r}")
    return ExperimentConfig(**fields)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(_format_cell(row[c]) for c in CSV_COLUMNS) + "\n")
    return out.getvalue()
