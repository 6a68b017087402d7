"""Undirected cut links and the forward assignment model.

§III-B routes every sub-stream forward across the cut.  Split into unit
paths, a flow crosses each cut link at most once, so on a cut of at most
two links (or of directed links) the assignments count every routing;
from three links on an undirected cut link can carry flow backwards.
Such a cut is refused where it becomes a split: ``auto`` and the cut
search move on (``auto`` stays equal to naive), and an explicitly given
one raises :class:`ReproValueError` naming the model note.
"""

import pytest

from repro.core.api import compute_reliability
from repro.core.bottleneck import bottleneck_reliability
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.core.sweep import SweepSpec, compute_reliability_sweep
from repro.exceptions import ReproValueError
from repro.graph.generators import bottlenecked_network, random_network
from repro.graph.network import FlowNetwork
from repro.graph.transforms import check_forward_cut

SEEDS = range(12)


def undirected(net: FlowNetwork) -> FlowNetwork:
    """``net`` with every link undirected, same indices."""
    out = FlowNetwork(name=f"{net.name}-undirected")
    for link in net.links():
        out.add_link(
            link.tail, link.head, link.capacity, link.failure_probability,
            directed=False,
        )
    return out


def undirected_grid(rows: int, cols: int, p: float = 0.1) -> FlowNetwork:
    """Undirected ``rows x cols`` grid with corner terminals (bench X4's)."""
    net = FlowNetwork(name=f"ugrid-{rows}x{cols}")

    def name(r, c):
        if (r, c) == (0, 0):
            return "s"
        return "t" if (r, c) == (rows - 1, cols - 1) else f"n{r}_{c}"

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                net.add_link(name(r, c), name(r, c + 1), 1, p, directed=False)
            if r + 1 < rows:
                net.add_link(name(r, c), name(r + 1, c), 1, p, directed=False)
    return net


def three_cut_net(seed: int, directed: bool = False) -> FlowNetwork:
    net = bottlenecked_network(
        source_side_links=6, sink_side_links=6, num_bottlenecks=3, seed=seed
    )
    return net if directed else undirected(net)


def _assert_auto_is_naive(net: FlowNetwork, rate: int) -> None:
    demand = FlowDemand("s", "t", rate)
    auto = compute_reliability(net, demand=demand)
    assert auto.value == pytest.approx(
        naive_reliability(net, demand).value, abs=1e-12
    )


class TestAutoMatchesNaive:
    def test_undirected_grid(self):
        """At the parent commit ``auto`` took cut (2, 9, 15) here and
        returned 0.972517964852323, 7.5e-5 below naive."""
        net = undirected_grid(3, 4)
        demand = FlowDemand("s", "t", 1)
        auto = compute_reliability(net, demand=demand)
        assert len(auto.details.get("cut", ())) <= 2
        assert auto.value == pytest.approx(0.9725932518933129, abs=1e-12)
        _assert_auto_is_naive(net, 1)

    @pytest.mark.parametrize("rate", [1, 2])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_undirected_random_networks(self, seed, rate):
        _assert_auto_is_naive(undirected(random_network(8, 14, seed=seed)), rate)

    @pytest.mark.parametrize("rate", [1, 2])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_undirected_three_link_cut_networks(self, seed, rate):
        _assert_auto_is_naive(three_cut_net(seed), rate)


class TestCheckForwardCut:
    def test_undirected_three_link_cut_refused(self):
        with pytest.raises(ReproValueError, match="model note"):
            check_forward_cut(three_cut_net(0), [0, 1, 2])

    def test_one_undirected_link_is_enough(self):
        net = three_cut_net(0, directed=True)
        mixed = FlowNetwork()
        for link in net.links():
            mixed.add_link(
                link.tail, link.head, link.capacity, link.failure_probability,
                directed=link.index != 1,
            )
        with pytest.raises(ReproValueError, match=r"undirected link\(s\) \[1\]"):
            check_forward_cut(mixed, [0, 1, 2])

    def test_directed_and_small_cuts_pass(self):
        check_forward_cut(three_cut_net(0, directed=True), [0, 1, 2])
        check_forward_cut(three_cut_net(0), [0, 1])
        check_forward_cut(three_cut_net(0), [0])


class TestGivenCutsRefused:
    def test_bottleneck(self):
        net = three_cut_net(0)
        with pytest.raises(ReproValueError, match="model note"):
            bottleneck_reliability(net, FlowDemand("s", "t", 2), cut=[0, 1, 2])

    def test_method_bottleneck_on_the_grid_cut(self):
        net = undirected_grid(3, 4)
        with pytest.raises(ReproValueError, match="model note"):
            compute_reliability(net, "s", "t", 1, method="bottleneck", cut=[2, 9, 15])

    def test_sweep(self):
        with pytest.raises(ReproValueError, match="model note"):
            compute_reliability_sweep(
                three_cut_net(0),
                FlowDemand("s", "t", 2),
                sweep=SweepSpec.availability([0.9, 0.99]),
                cut=[0, 1, 2],
            )

    def test_chain(self):
        with pytest.raises(ReproValueError, match="model note"):
            chain_reliability(three_cut_net(0), FlowDemand("s", "t", 2), [[0, 1, 2]])


class TestUnchangedCuts:
    @pytest.mark.parametrize("seed", range(4))
    def test_directed_three_link_cut_is_exact(self, seed):
        net = three_cut_net(seed, directed=True)
        demand = FlowDemand("s", "t", 2)
        value = bottleneck_reliability(net, demand, cut=[0, 1, 2]).value
        assert value == pytest.approx(naive_reliability(net, demand).value, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_undirected_two_link_cut_is_exact(self, seed):
        net = undirected(
            bottlenecked_network(
                source_side_links=6, sink_side_links=6, num_bottlenecks=2, seed=seed
            )
        )
        demand = FlowDemand("s", "t", 2)
        value = bottleneck_reliability(net, demand, cut=[0, 1]).value
        assert value == pytest.approx(naive_reliability(net, demand).value, abs=1e-12)
