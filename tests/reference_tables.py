"""Reference feasibility tables: the test oracle for the lattice walk.

The definition of a ``2^m`` feasibility table, computed the slow way:
one cold :meth:`~repro.core.feasibility.FeasibilityOracle.feasible`
query per mask, in mask order, with no walk, no pruning and no flow
repair.  ``repro.core.naive.feasibility_table`` must reproduce it bit
for bit, with or without pruning.
"""

from __future__ import annotations

import numpy as np

from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.graph.network import FlowNetwork


def reference_feasibility_table(net: FlowNetwork, demand: FlowDemand) -> np.ndarray:
    """``table[mask]`` = whether the links in ``mask`` carry the demand."""
    oracle = FeasibilityOracle(net, demand.source, demand.sink, demand.rate)
    return np.array(
        [oracle.feasible(mask) for mask in range(1 << net.num_links)], dtype=bool
    )
