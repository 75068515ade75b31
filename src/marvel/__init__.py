"""Causal structure learning by recursive Markov-boundary variable elimination.

Recovers the essential graph (CPDAG) of a causal DAG from conditional
independence information, either an exact d-separation oracle or Fisher-Z
tests on Gaussian data, while accounting for every CI test performed.
"""

from .bench import (
    ExperimentConfig,
    load_config,
    parse_config,
    rows_to_csv,
    run_experiment,
    simulate_dataset,
    skeleton_metrics,
)
from .ci import (
    CiOracle,
    CiStats,
    Dataset,
    DsepOracle,
    FisherZOracle,
    default_alpha,
    dsep_oracle,
    fisher_z_oracle,
    load_dataset,
    partial_correlation_from_corr,
    save_dataset,
)
from .graph import (
    Dag,
    Pdag,
    apply_meek_rules,
    d_separated,
    kernel_name,
    load_dag,
    load_pdag,
    markov_equivalent,
    pdag_from_skeleton_and_vstructs,
    save_dag,
    save_pdag,
    skeleton,
    v_structures,
)
from .marvel import (
    LearnResult,
    ci_budget_bound,
    is_removable_ci,
    marvel_learn,
    pc_baseline,
)
from .mb import MbMap, total_conditioning, update_after_removal
from .synth import (
    ScmSpec,
    cluster_adversarial_dag,
    erdos_renyi_dag,
    fixed_indegree_dag,
    random_scm,
    sample,
)

__all__ = [
    "CiOracle",
    "CiStats",
    "Dag",
    "Dataset",
    "DsepOracle",
    "ExperimentConfig",
    "FisherZOracle",
    "LearnResult",
    "MbMap",
    "Pdag",
    "ScmSpec",
    "apply_meek_rules",
    "ci_budget_bound",
    "cluster_adversarial_dag",
    "d_separated",
    "default_alpha",
    "dsep_oracle",
    "erdos_renyi_dag",
    "fisher_z_oracle",
    "fixed_indegree_dag",
    "is_removable_ci",
    "kernel_name",
    "load_config",
    "load_dag",
    "load_dataset",
    "load_pdag",
    "markov_equivalent",
    "marvel_learn",
    "parse_config",
    "partial_correlation_from_corr",
    "pc_baseline",
    "pdag_from_skeleton_and_vstructs",
    "random_scm",
    "rows_to_csv",
    "run_experiment",
    "sample",
    "save_dag",
    "save_dataset",
    "save_pdag",
    "simulate_dataset",
    "skeleton",
    "skeleton_metrics",
    "total_conditioning",
    "update_after_removal",
    "v_structures",
]

__version__ = "0.1.0"
