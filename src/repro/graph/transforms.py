"""Network transforms: alive-subgraphs, cut splits, restrictions.

The bottleneck algorithm never materialises per-configuration
subnetworks (it masks links inside the max-flow solver instead), but
the naive reference implementation, the test oracles and the P2P
tooling all want honest subgraph objects, built here.

:func:`split_on_cuts` is the one cut validator: it splits a network on
an ordered cut sequence into a :class:`SideSplit` of segments and
ports.  The paper's ``G_s`` / ``G_t`` split is its one-cut call
(:func:`split_on_cut`, which the cut search runs per candidate); a
chain of ``r`` cuts is the same type with ``r + 1`` segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
    "split_on_cuts",
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
    """A network split on an ordered sequence of bottleneck cuts.

    Removing ``r`` cuts leaves ``r + 1`` segments, the source's first
    and the sink's last, cut ``j`` joining segment ``j`` to segment
    ``j + 1``.  The paper's split is the one-cut case: ``G_s`` and
    ``G_t`` are the only two segments.

    Attributes
    ----------
    cuts:
        The cut link indices, in the order supplied by the caller.
        Assignment tuples of cut ``j`` index into ``cuts[j]``.
    segments:
        :class:`SubnetworkView` per segment, source side first.
    out_ports, in_ports:
        ``out_ports[j][i]`` / ``in_ports[j][i]`` are the endpoints of
        cut ``j``'s ``i``-th link in segment ``j`` / ``j + 1`` (the
        paper's ``x_i`` / ``y_i`` for the one cut).
    side_digests:
        The source and sink sides' cache digests
        (:func:`repro.core.sweep.side_fingerprint`), set on a split a
        cache memoizes so no later query re-serializes the sides;
        ``None`` otherwise.
    """

    cuts: tuple[tuple[int, ...], ...]
    segments: tuple[SubnetworkView, ...]
    out_ports: tuple[tuple[Node, ...], ...]
    in_ports: tuple[tuple[Node, ...], ...]
    side_digests: tuple[str, str] | None = field(default=None, compare=False)

    @property
    def cut(self) -> tuple[int, ...]:
        """The cut Eq. 2/3 closes: the one cut, or a chain's last."""
        return self.cuts[-1]

    @property
    def source_side(self) -> SubnetworkView:
        """``G_s``: the segment holding the source."""
        return self.segments[0]

    @property
    def sink_side(self) -> SubnetworkView:
        """``G_t``: the segment holding the sink."""
        return self.segments[-1]

    @property
    def source_ports(self) -> tuple[Node, ...]:
        """For each link of the first cut, its endpoint inside ``G_s``."""
        return self.out_ports[0]

    @property
    def sink_ports(self) -> tuple[Node, ...]:
        """For each link of :attr:`cut`, its endpoint inside ``G_t``."""
        return self.in_ports[-1]

    @property
    def num_links(self) -> int:
        """Links of the parent network: every segment's and every cut's."""
        return sum(len(seg.link_map) for seg in self.segments) + sum(
            len(cut) for cut in self.cuts
        )

    @property
    def alpha(self) -> float:
        """The achieved split ratio: the largest segment over ``|E|``.

        ``|E|`` counts all links of the parent network including the cut
        links themselves, matching the paper's ``alpha |E|`` bound
        (``max(|E_s|, |E_t|) / |E|`` for one cut).
        """
        total = self.num_links
        if total == 0:
            return 0.0
        return max(len(seg.link_map) for seg in self.segments) / total


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


def split_on_cuts(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    cuts: Sequence[Sequence[int]],
) -> SideSplit:
    """Split ``net`` into its segments on an ordered cut sequence.

    Verifies the structural requirements of the paper's Section III-A,
    per cut: removing every cut must leave one connected component per
    segment, the source's first and the sink's last (isolated leftover
    nodes with no remaining links are tolerated and assigned to no
    segment — they cannot carry flow), and every link of cut ``j`` must
    join segment ``j`` to segment ``j + 1``, directed ones forward.
    Raises :class:`DecompositionError` when the cuts are empty or
    overlap, are out of order, point backwards, land in different
    components or leave an extra non-trivial component, and
    :class:`ReproValueError` for a cut the assignment model cannot
    count exactly (:func:`check_forward_cut`).
    """
    if not cuts or any(len(cut) == 0 for cut in cuts):
        raise DecompositionError("need at least one cut, each of at least one link")
    flat = [index for cut in cuts for index in cut]
    cut_set = set(flat)
    if len(cut_set) != len(flat):
        raise DecompositionError("cuts contain duplicate link indices")
    for cut in cuts:
        check_forward_cut(net, cut)
    alive = [link.index for link in net.links() if link.index not in cut_set]
    components = connected_components(net, alive)

    s_comp = next((c for c in components if source in c), None)
    t_comp = next((c for c in components if sink in c), None)
    if s_comp is None or t_comp is None:
        raise DecompositionError("terminals missing from the network")
    if s_comp is t_comp:
        raise DecompositionError("removing the cut does not separate the terminals")

    chain = [s_comp]
    out_ports: list[tuple[Node, ...]] = []
    in_ports: list[tuple[Node, ...]] = []
    for j, cut in enumerate(cuts):
        previous = chain[-1]
        outs: list[Node] = []
        ins: list[Node] = []
        for index in cut:
            link = net.link(index)
            tail_in, head_in = link.tail in previous, link.head in previous
            if tail_in and not head_in:
                outs.append(link.tail)
                ins.append(link.head)
            elif head_in and not tail_in:
                if link.directed:
                    raise DecompositionError(
                        f"cut {j} link {index} is directed from the sink side "
                        "to the source side and can never carry demand flow"
                    )
                outs.append(link.head)
                ins.append(link.tail)
            else:
                raise DecompositionError(
                    f"cut {j} link {index} does not leave segment {j} (not minimal?)"
                )
        following = next(c for c in components if ins[0] in c)
        if any(node not in following for node in ins):
            raise DecompositionError(f"cut {j} links land in different components")
        chain.append(following)
        out_ports.append(tuple(outs))
        in_ports.append(tuple(ins))

    if chain[-1] is not t_comp:
        raise DecompositionError(
            "the sink is not in the last segment; cuts are mis-ordered or not separating"
        )
    chained = {id(c) for c in chain}
    if len(chained) != len(chain):
        raise DecompositionError("a segment repeats; cuts are not a series chain")
    if any(len(c) > 1 and id(c) not in chained for c in components):
        raise DecompositionError(
            "removing the cuts leaves a non-trivial component outside the "
            "segments; a minimal bottleneck set would leave none"
        )

    return SideSplit(
        cuts=tuple(tuple(cut) for cut in cuts),
        segments=tuple(induced_subnetwork(net, nodes) for nodes in chain),
        out_ports=tuple(out_ports),
        in_ports=tuple(in_ports),
    )


def split_on_cut(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    cut: Sequence[int],
) -> SideSplit:
    """Split ``net`` into ``G_s`` / ``G_t`` on one cut: the paper's
    split, :func:`split_on_cuts` with one cut."""
    return split_on_cuts(net, source, sink, [cut])
