"""Experiment harness: seeded runs of both learners with flat CSV output.

One experiment is a generator regime, a learner, a list of seeds and, for
Fisher-Z tests on simulated data, a sample size. Each seed gets its own
graph, oracle, and boundary discovery; boundary-phase and post-boundary test
counts are reported separately. Rows come out in seed order followed by one
aggregate row of means, and a config run twice yields byte-identical CSV.
"""

from __future__ import annotations

import io
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .ci import CiOracle, Dataset, checked_alpha, dsep_oracle, fisher_z_oracle
from .graph import Dag, Pdag
from .marvel import LearnResult, ci_budget_bound, marvel_learn, pc_baseline
from .mb import total_conditioning
from .synth import (
    cluster_adversarial_dag,
    erdos_renyi_dag,
    fixed_indegree_dag,
    random_scm,
    sample,
)

GENERATORS = ("erdos_renyi", "fixed_indegree", "cluster")

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
    "warnings",
    "budget",
    "within_budget",
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


def run_metrics(mb_tests: int, res: LearnResult, truth: Dag | None) -> dict:
    """One learner run's metrics in report order, skeleton precision, recall
    and F1 only given the truth: the CSV row and the learn line use it."""
    st = res.stats
    out = {
        "mb_tests": mb_tests,
        "post_tests": st.n_tests,
        "asc": st.asc,
        "max_cond": st.max_cond_size,
    }
    if truth is not None:
        out["precision"], out["recall"], out["f1"] = skeleton_metrics(
            res.essential, truth
        )
    out["warnings"] = len(res.warnings)
    return out


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
    fixed_indegree and cluster). Without n_samples the oracle answers from
    the true graph; with it, Fisher-Z tests at alpha run on n_samples rows
    of linear-Gaussian data simulated per seed.
    """

    generator: str
    p: int
    algo: str
    seeds: tuple[int, ...]
    m: int | None = None
    delta_in: int | None = None
    n_samples: int | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        _check_generator(self.generator, self.m, self.delta_in)
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algo {self.algo!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, got {min(self.seeds)}")
        seen: set[int] = set()
        for seed in self.seeds:
            if seed in seen:
                raise ValueError(f"seed {seed} is repeated")
            seen.add(seed)
        if self.p < 1:
            raise ValueError("p must be positive")
        # Checked here so that no seed's graph or data is made first.
        if self.n_samples is None:
            if self.alpha is not None:
                raise ValueError("alpha applies to the fisher_z oracle only")
        elif self.n_samples < 2:
            raise ValueError("need at least two samples for a correlation matrix")
        else:
            checked_alpha(self.alpha, self.p)


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
    if generator == "erdos_renyi":
        if m is None:
            raise ValueError("erdos_renyi needs m")
        if delta_in is not None:
            raise ValueError("erdos_renyi takes no delta_in")
    else:
        if delta_in is None:
            raise ValueError(f"{generator} needs delta_in")
        if m is not None:
            raise ValueError(f"{generator} takes no m")


def generate_dag(
    generator: str,
    p: int,
    seed: int,
    m: int | None = None,
    delta_in: int | None = None,
) -> Dag:
    """A DAG from one of the GENERATORS families.

    erdos_renyi takes the edge count m; fixed_indegree and cluster take
    delta_in, and each rejects the other's. The cluster family is
    deterministic and ignores the seed.
    """
    _check_generator(generator, m, delta_in)
    if generator == "erdos_renyi":
        return erdos_renyi_dag(p, m, seed)
    if generator == "fixed_indegree":
        return fixed_indegree_dag(p, delta_in, seed)
    return cluster_adversarial_dag(p, delta_in)


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """One row per seed plus a final mean row (seed column "mean").

    A row's ``delta_in`` is its graph's largest in-degree Δ, which the
    fixed_indegree and cluster families reach exactly. Each row ends with
    ``budget``, ``ci_budget_bound`` at p and Δ, and ``within_budget``, 1
    when ``post_tests`` is at most that budget and 0 otherwise; the mean
    row's ``within_budget`` is the share of runs within budget.
    """
    rows = []
    for seed in cfg.seeds:
        try:
            g = generate_dag(cfg.generator, cfg.p, seed, cfg.m, cfg.delta_in)
            if cfg.n_samples is None:
                oracle = dsep_oracle(g)
            else:
                data = simulate_dataset(g, cfg.n_samples, seed)
                oracle = fisher_z_oracle(data, cfg.alpha)
        except ValueError as exc:
            raise ValueError(f"seed {seed}: {exc}") from exc
        mb_tests, res = solve(oracle, cfg.algo)
        delta_in = g.max_in_degree()
        budget = ci_budget_bound(cfg.p, delta_in)
        rows.append(
            {
                "algo": cfg.algo,
                "seed": seed,
                "p": cfg.p,
                "delta_in": delta_in,
                "m": g.n_edges,
                "n_samples": cfg.n_samples if cfg.n_samples else 0,
                **run_metrics(mb_tests, res, g),
                "budget": budget,
                "within_budget": int(res.stats.n_tests <= budget),
            }
        )
    mean = {"algo": cfg.algo, "seed": "mean"}
    for col in CSV_COLUMNS[2:]:
        mean[col] = sum(r[col] for r in rows) / len(rows)
    return rows + [mean]


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


# Each config key, an ExperimentConfig field, and the parser of its value.
_CONFIG_PARSERS = {
    "generator": str,
    "p": int,
    "algo": str,
    "seeds": _parse_seeds,
    "m": int,
    "delta_in": int,
    "n_samples": int,
    "alpha": float,
}
_CONFIG_REQUIRED = tuple(
    f.name
    for f in fields(ExperimentConfig)
    if f.default is MISSING and f.default_factory is MISSING
)


def parse_config(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from flat "key = value" lines.

    Keys are the ExperimentConfig field names; seeds take a comma list with
    optional "a..b" ranges. Each key may appear once. '#' starts a comment
    and blank lines are skipped.
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

    values: dict = {}
    for key, value in kv.items():
        try:
            if key not in _CONFIG_PARSERS:
                raise ValueError("unknown key")
            values[key] = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    for required in _CONFIG_REQUIRED:
        if required not in values:
            raise ValueError(f"config is missing {required!r}")
    return ExperimentConfig(**values)


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
