"""Reference §III-C realization arrays: the test oracle.

This is the definition of a realization column, computed the slow way:
one cold max-flow per (configuration, assignment), with no pruning, no
flow repair and no cut certificate.  Configuration ``i`` realizes
assignment ``j`` iff the alive links of ``i`` plus one virtual port arc
of capacity ``a_l`` per bottleneck link carry ``demand`` units between
the side's terminal and a virtual terminal.  The build kernels of
``repro.core.arrays`` must reproduce these masks bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.flow.base import get_solver
from repro.flow.residual import build_template
from repro.graph.network import Node
from repro.graph.transforms import SubnetworkView

_VIRTUAL = "__reference_terminal__"


def reference_side_masks(
    side: SubnetworkView,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
    solver: str = "dinic",
) -> np.ndarray:
    """``uint64`` masks over the side lattice: bit ``j`` of entry ``i`` is
    set iff configuration ``i`` (bit ``l`` = side link ``l`` alive)
    realizes ``assignments[j]``."""
    net = side.network
    template = build_template(net, extra_nodes=[_VIRTUAL])
    virtual = template.node_index[_VIRTUAL]
    names = []
    for l, port in enumerate(ports):
        p = template.node_index[port]
        arc = (p, virtual) if role == "source" else (virtual, p)
        template.add_virtual_arc(f"port{l}", *arc, demand)
        names.append(f"port{l}")
    if role == "source":
        s, t = template.node_index[terminal], virtual
    else:
        s, t = virtual, template.node_index[terminal]
    engine = get_solver(solver)
    masks = np.zeros(1 << net.num_links, dtype=np.uint64)
    for config in range(len(masks)):
        for j, assignment in enumerate(assignments):
            caps = {name: int(a) for name, a in zip(names, assignment)}
            graph = template.configure(alive=config, virtual_capacities=caps)
            if engine.solve(graph, s, t) >= demand:
                masks[config] |= np.uint64(1) << np.uint64(j)
    return masks
