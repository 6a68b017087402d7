"""Reference §III-C realization masks: the test oracle.

This is the definition of a realization column, computed the slow way:
one cold max-flow per (configuration, load), with no pruning, no flow
repair and no cut certificate.  A *segment* has an optional real source
terminal feeding its in-ports and an optional real sink terminal fed by
its out-ports; a missing terminal is a virtual node.  Configuration
``i`` realizes load ``j`` iff the alive links of ``i`` plus one virtual
port arc per port, capped at the load's component for that port
(in-ports first, then out-ports), carry ``demand`` units from the source
terminal to the sink terminal.  ``G_s`` and ``G_t`` are segments with
one real terminal, a chain middle has none.  The build kernels of
``repro.core.arrays`` must reproduce these masks bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.flow.dinic import DinicSolver
from repro.flow.residual import build_template
from repro.graph.network import Node
from repro.graph.transforms import SubnetworkView

_VIRTUAL_IN = "__reference_in__"
_VIRTUAL_OUT = "__reference_out__"


def reference_segment_masks(
    segment: SubnetworkView,
    *,
    source: Node | None,
    sink: Node | None,
    in_ports: Sequence[Node],
    out_ports: Sequence[Node],
    loads: Sequence[Sequence[int]],
    demand: int,
) -> np.ndarray:
    """``uint64`` masks over the segment lattice: bit ``j`` of entry ``i``
    is set iff configuration ``i`` (bit ``l`` = segment link ``l`` alive)
    realizes ``loads[j]``."""
    net = segment.network
    template = build_template(net, extra_nodes=[_VIRTUAL_IN, _VIRTUAL_OUT])
    index = template.node_index
    s = index[_VIRTUAL_IN if source is None else source]
    t = index[_VIRTUAL_OUT if sink is None else sink]
    arcs = [(s, index[p]) for p in in_ports] + [(index[p], t) for p in out_ports]
    names = []
    for l, arc in enumerate(arcs):
        template.add_virtual_arc(f"port{l}", *arc, demand)
        names.append(f"port{l}")
    engine = DinicSolver()
    masks = np.zeros(1 << net.num_links, dtype=np.uint64)
    for config in range(len(masks)):
        for j, load in enumerate(loads):
            caps = {name: int(a) for name, a in zip(names, load)}
            graph = template.configure(alive=config, virtual_capacities=caps)
            if engine.solve(graph, s, t) >= demand:
                masks[config] |= np.uint64(1) << np.uint64(j)
    return masks


def reference_side_masks(
    side: SubnetworkView,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
) -> np.ndarray:
    """The oracle for ``G_s`` (``role="source"``: ``terminal -> ports``)
    or ``G_t`` (``role="sink"``: ``ports -> terminal``)."""
    if role == "source":
        segment = dict(source=terminal, sink=None, in_ports=(), out_ports=ports)
    else:
        segment = dict(source=None, sink=terminal, in_ports=ports, out_ports=())
    return reference_segment_masks(
        side, **segment, loads=assignments, demand=demand
    )
