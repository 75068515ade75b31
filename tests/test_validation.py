"""The exact message of each input check on the graph, boundary-map,
dataset and experiment-config constructors and helpers.

One row per raise: the call, and the whole ``ValueError`` text it must give.
"""

import re

import numpy as np
import pytest

from reference import (
    descendants,
    induced_subgraph,
    is_removable_graphical,
    markov_boundary_graphical,
)
from marvel.bench import ExperimentConfig, parse_config
from marvel.ci import Dataset, dsep_oracle
from marvel.graph import (
    Dag,
    Pdag,
    parse_dag,
    parse_pdag,
    pdag_from_skeleton_and_vstructs,
)
from marvel.mb import MbMap, update_after_removal

CHAIN = Dag(3, [(0, 1), (1, 2)])


def fisher_z_config(**fields):
    base = dict(
        generator="fixed_indegree", p=5, algo="marvel",
        seeds=(0,), delta_in=2, n_samples=50,
    )
    return lambda: ExperimentConfig(**{**base, **fields})


def removal(x, n_x):
    m = MbMap(3)
    m.mb = [{1}, {0, 2}, {1}]
    return lambda: update_after_removal(m, x, n_x, dsep_oracle(CHAIN))


CASES = {
    "dag_negative_p": (lambda: Dag(-1), "vertex count must be nonnegative"),
    "pdag_negative_p": (lambda: Pdag(-1), "vertex count must be nonnegative"),
    "pdag_directed_out_of_range": (
        lambda: Pdag(3, directed=[(0, 3)]),
        "edge (0, 3) out of range for p=3",
    ),
    "pdag_directed_self_loop": (
        lambda: Pdag(3, directed=[(1, 1)]),
        "self-loop at vertex 1",
    ),
    "pdag_undirected_out_of_range": (
        lambda: Pdag(3, undirected=[(-1, 2)]),
        "edge (-1, 2) out of range for p=3",
    ),
    "pdag_undirected_self_loop": (
        lambda: Pdag(3, undirected=[(2, 2)]),
        "self-loop at vertex 2",
    ),
    "induced_subgraph_out_of_range": (
        lambda: induced_subgraph(CHAIN, [0, 3]),
        "induced vertex out of range",
    ),
    "descendants_out_of_range": (
        lambda: descendants(CHAIN, 3),
        "vertex 3 out of range for p=3",
    ),
    "is_removable_graphical_out_of_range": (
        lambda: is_removable_graphical(CHAIN, -1),
        "vertex -1 out of range for p=3",
    ),
    "markov_boundary_graphical_out_of_range": (
        lambda: markov_boundary_graphical(CHAIN, 5),
        "vertex 5 out of range for p=3",
    ),
    "collider_edge_missing": (
        lambda: pdag_from_skeleton_and_vstructs(3, [(0, 2)], [(0, 2, 1)]),
        "collider edge missing from skeleton",
    ),
    "parse_dag_empty": (lambda: parse_dag("# nothing\n"), "missing vertex count"),
    "parse_dag_header": (
        lambda: parse_dag("3 1\n0 1\n"),
        "first data row must hold the vertex count alone",
    ),
    "parse_pdag_empty": (lambda: parse_pdag(""), "missing vertex count"),
    "parse_pdag_header": (
        lambda: parse_pdag("3 0 1\n"),
        "first data row must hold the vertex count alone",
    ),
    "mbmap_negative_p": (lambda: MbMap(-1), "vertex count must be nonnegative"),
    "removal_x_out_of_range": (
        removal(3, [1]),
        "vertex 3 out of range for p=3",
    ),
    "removal_self_neighbor": (
        removal(1, [0, 1]),
        "a vertex cannot neighbor itself",
    ),
    "dataset_1d": (
        lambda: Dataset(np.arange(5.0)),
        "dataset must be a 2-d matrix",
    ),
    "config_too_few_samples": (
        fisher_z_config(n_samples=-5),
        "need at least two samples for a correlation matrix",
    ),
    "config_alpha_out_of_range": (
        fisher_z_config(alpha=2.0),
        "alpha must be in (0, 1), got 2.0",
    ),
    "config_default_alpha_one_vertex": (
        fisher_z_config(p=1, delta_in=0),
        "alpha default needs p >= 2",
    ),
    "config_seeds_of_empty_tokens_only": (
        lambda: parse_config(
            "generator = erdos_renyi\np = 4\nm = 2\nalgo = pc\n"
            "seeds = ,\n"
        ),
        "need at least one seed",
    ),
    "config_first_repeated_seed": (
        fisher_z_config(seeds=(0, 2, 1, 2, 1)),
        "seed 2 is repeated",
    ),
    "config_alpha_without_n_samples": (
        fisher_z_config(n_samples=None, alpha=0.05),
        "alpha applies to the fisher_z oracle only",
    ),
    "config_oracle_key": (
        lambda: parse_config(
            "generator = erdos_renyi\np = 4\nm = 2\nalgo = pc\n"
            "oracle = dsep\nseeds = 0\n"
        ),
        "config key 'oracle': unknown key",
    ),
    "config_record_wall_key": (
        lambda: parse_config(
            "generator = erdos_renyi\np = 4\nm = 2\nalgo = pc\n"
            "seeds = 0\nrecord_wall = true\n"
        ),
        "config key 'record_wall': unknown key",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=list(CASES))
def test_value_error_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
