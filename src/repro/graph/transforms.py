"""Network transforms: alive-subgraphs, side splits, restrictions.

The bottleneck algorithm never materialises per-configuration
subnetworks (it masks links inside the max-flow solver instead), but
the naive reference implementation, the test oracles and the P2P
tooling all want honest subgraph objects, built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.exceptions import DecompositionError, ReproValueError
from repro.graph.connectivity import connected_components
from repro.graph.network import FlowNetwork, Link, Node

__all__ = [
    "SubnetworkView",
    "alive_subnetwork",
    "induced_subnetwork",
    "SideSplit",
    "check_forward_cut",
    "split_on_cut",
]


@dataclass(frozen=True)
class SubnetworkView:
    """A subnetwork together with the index mapping back to its parent.

    ``network`` is a standalone :class:`FlowNetwork`; ``link_map[i]`` is
    the parent index of the subnetwork's link ``i``.
    """

    network: FlowNetwork
    link_map: tuple[int, ...]

    def parent_index(self, sub_index: int) -> int:
        """Parent link index for a subnetwork link index."""
        return self.link_map[sub_index]


def alive_subnetwork(net: FlowNetwork, alive: Iterable[int]) -> SubnetworkView:
    """The subnetwork keeping all nodes but only the ``alive`` links."""
    alive_sorted = sorted(set(alive))
    sub = FlowNetwork(name=f"{net.name}|alive")
    sub.add_nodes(net.nodes())
    link_map: list[int] = []
    for index in alive_sorted:
        link = net.link(index)
        sub.add_link(
            link.tail, link.head, link.capacity, link.failure_probability, directed=link.directed
        )
        link_map.append(index)
    return SubnetworkView(network=sub, link_map=tuple(link_map))


def induced_subnetwork(net: FlowNetwork, nodes: Iterable[Node]) -> SubnetworkView:
    """The subnetwork induced by ``nodes``: those nodes plus every link
    with both endpoints among them."""
    node_set = set(nodes)
    sub = FlowNetwork(name=f"{net.name}|induced")
    for node in net.nodes():
        if node in node_set:
            sub.add_node(node)
    link_map: list[int] = []
    for link in net.links():
        if link.tail in node_set and link.head in node_set:
            sub.add_link(
                link.tail, link.head, link.capacity, link.failure_probability, directed=link.directed
            )
            link_map.append(link.index)
    return SubnetworkView(network=sub, link_map=tuple(link_map))


@dataclass(frozen=True)
class SideSplit:
    """The result of splitting a network on a bottleneck link set.

    Attributes
    ----------
    cut:
        The bottleneck link indices, in the order supplied by the
        caller.  Assignment tuples index into this order.
    source_side, sink_side:
        :class:`SubnetworkView` for ``G_s`` and ``G_t``.
    source_ports:
        For each cut link, its endpoint inside ``G_s`` (the paper's
        ``x_i``).
    sink_ports:
        For each cut link, its endpoint inside ``G_t`` (the ``y_i``).
    """

    cut: tuple[int, ...]
    source_side: SubnetworkView
    sink_side: SubnetworkView
    source_ports: tuple[Node, ...]
    sink_ports: tuple[Node, ...]

    @property
    def alpha(self) -> float:
        """The achieved split ratio ``max(|E_s|, |E_t|) / |E|``.

        ``|E|`` counts all links of the parent network including the cut
        links themselves, matching the paper's ``alpha |E|`` bound.
        """
        total = (
            len(self.source_side.link_map)
            + len(self.sink_side.link_map)
            + len(self.cut)
        )
        if total == 0:
            return 0.0
        return max(len(self.source_side.link_map), len(self.sink_side.link_map)) / total


def check_forward_cut(net: FlowNetwork, cut: Sequence[int]) -> None:
    """Refuse a cut whose flow the forward assignment model can miss.

    §III-B routes every sub-stream forward across the cut.  Split into
    unit paths, a flow crosses each cut link at most once, so on a cut
    of at most two links no link carries net flow backwards; from three
    links on, an undirected cut link can (the model note in
    :mod:`repro.core.bottleneck`).  Raises :class:`ReproValueError` for
    a cut of three or more links with an undirected one.
    """
    if len(cut) < 3:
        return
    undirected = [index for index in cut if not net.link(index).directed]
    if undirected:
        raise ReproValueError(
            f"cut {tuple(cut)} has {len(cut)} links and undirected link(s) "
            f"{undirected}: the forward assignment model is exact only on cuts "
            "of at most two links or of directed links (see the model note in "
            "repro.core.bottleneck)"
        )


def split_on_cut(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    cut: Sequence[int],
) -> SideSplit:
    """Split ``net`` into ``G_s`` / ``G_t`` on the given cut links.

    Verifies the structural requirements of the paper's Section III-A:
    removing the cut must separate ``source`` from ``sink`` and leave
    **exactly two** connected components, one holding each terminal
    (isolated leftover nodes with no remaining links are tolerated and
    assigned to neither side — they cannot carry flow).  Each cut link
    must join the two sides.  Raises :class:`DecompositionError`
    otherwise, and :class:`ReproValueError` for a cut the assignment
    model cannot count exactly (:func:`check_forward_cut`).
    """
    cut_set = set(cut)
    if len(cut_set) != len(cut):
        raise DecompositionError("cut contains duplicate link indices")
    check_forward_cut(net, cut)
    alive = [link.index for link in net.links() if link.index not in cut_set]
    components = connected_components(net, alive)
    nonsingleton = [c for c in components if len(c) > 1]

    s_comp = next((c for c in components if source in c), None)
    t_comp = next((c for c in components if sink in c), None)
    if s_comp is None or t_comp is None:
        raise DecompositionError("terminals missing from the network")
    if s_comp is t_comp:
        raise DecompositionError("removing the cut does not separate the terminals")
    meaningful = [c for c in nonsingleton if c not in (s_comp, t_comp)]
    if meaningful:
        raise DecompositionError(
            "removing the cut leaves more than two non-trivial components; "
            "a minimal bottleneck set would leave exactly two"
        )

    source_ports: list[Node] = []
    sink_ports: list[Node] = []
    for index in cut:
        link = net.link(index)
        if link.tail in s_comp and link.head in t_comp:
            source_ports.append(link.tail)
            sink_ports.append(link.head)
        elif link.tail in t_comp and link.head in s_comp:
            if link.directed:
                raise DecompositionError(
                    f"cut link {index} is directed from the sink side to the "
                    "source side and can never carry demand flow"
                )
            source_ports.append(link.head)
            sink_ports.append(link.tail)
        else:
            raise DecompositionError(
                f"cut link {index} does not join the two sides (not minimal?)"
            )

    return SideSplit(
        cut=tuple(cut),
        source_side=induced_subnetwork(net, s_comp),
        sink_side=induced_subnetwork(net, t_comp),
        source_ports=tuple(source_ports),
        sink_ports=tuple(sink_ports),
    )
