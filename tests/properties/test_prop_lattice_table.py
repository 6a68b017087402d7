"""Property: every solver fills the same feasibility table.

``feasibility_table`` fills the ``2^m`` lattice by one Gray walk with
two-sided pruning; warm-start solvers (Dinic, Edmonds–Karp, capacity
scaling) repair flow across the walk and push–relabel solves cold.
Whatever the solver or pruning, the table must equal the brute-force
reference (``tests/reference_tables.py``: one cold oracle query per
mask, no walk) bit for bit.
"""

import numpy as np
import pytest

from repro.core.demand import FlowDemand
from repro.core.naive import feasibility_table, naive_reliability
from repro.graph.builders import fujita_fig4
from repro.graph.generators import bottlenecked_network, random_network
from tests.reference_tables import reference_feasibility_table

SOLVERS = ["dinic", "edmonds_karp", "capacity_scaling", "push_relabel"]
SEEDS = [0, 1, 7, 23]


def _instances():
    yield "fig4", fujita_fig4()
    for seed in SEEDS:
        yield f"bottlenecked-{seed}", bottlenecked_network(
            source_side_links=4, sink_side_links=3, num_bottlenecks=2, demand=2,
            seed=seed,
        )
        yield f"random-{seed}", random_network(5, 9, seed=seed)


INSTANCES = dict(_instances())


@pytest.mark.parametrize("rate", [1, 2, 3])
@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_table_matches_reference(name, solver, prune, rate):
    net = INSTANCES[name]
    demand = FlowDemand("s", "t", rate)
    table, oracle = feasibility_table(net, demand, solver=solver, prune=prune)
    assert oracle.incremental is (solver != "push_relabel")
    np.testing.assert_array_equal(table, reference_feasibility_table(net, demand))


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_value_identical_across_solvers(name, prune):
    net = INSTANCES[name]
    demand = FlowDemand("s", "t", 2)
    values = {
        naive_reliability(net, demand, solver=solver, prune=prune).value
        for solver in SOLVERS
    }
    assert len(values) == 1
