"""Property: the lattice walk fills the same feasibility table warm or cold.

``feasibility_table`` fills the ``2^m`` lattice by one Gray walk with
two-sided pruning (``repro.core.naive._lattice_table``), repairing flow
across the walk; an oracle built with ``incremental=False`` walks the
same lattice with cold solves.  Either way, with or without pruning,
the table must equal the brute-force reference
(``tests/reference_tables.py``: one cold oracle query per mask, no walk)
bit for bit.
"""

import numpy as np
import pytest

from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.naive import _lattice_table, naive_reliability
from repro.graph.builders import fujita_fig4
from repro.graph.generators import bottlenecked_network, random_network
from repro.probability.enumeration import configuration_probabilities
from tests.reference_tables import reference_feasibility_table

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


#: Up to the largest full max flow of any instance (4, the bottlenecked
#: nets) and past it, where every configuration is infeasible and the
#: walk must settle the whole lattice without a wrong bit.
RATES = [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("incremental", [True, False])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_table_matches_reference(name, incremental, prune, rate):
    net = INSTANCES[name]
    demand = FlowDemand("s", "t", rate)
    oracle = FeasibilityOracle(net, "s", "t", rate, incremental=incremental)
    table = _lattice_table(oracle, net.num_links, prune=prune)
    np.testing.assert_array_equal(table, reference_feasibility_table(net, demand))


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_value_matches_cold_table(name, prune):
    net = INSTANCES[name]
    demand = FlowDemand("s", "t", 2)
    cold = reference_feasibility_table(net, demand)
    value = naive_reliability(net, demand, prune=prune).value
    assert value == float(configuration_probabilities(net)[cold].sum())
