"""Unit-demand (d = 1) reliability on series-parallel shapes with closed forms.

Every surviving exact d = 1 engine is held to the same hand-derived
values: pure series and parallel compositions, nested compositions,
undirected and mixed-direction links, and the shapes that trip
path-based methods up (wrong direction, dead branches, zero-capacity
links, cycles).  The Wheatstone bridge is the one non-series-parallel
shape; its reference comes from naive enumeration.
"""

import pytest

from repro.core.api import compute_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.graph.builders import diamond, parallel_links, series_chain, two_paths
from repro.graph.network import FlowNetwork

UNIT = FlowDemand("s", "t", 1)

ENGINES = ["factoring", "frontier-directed", "auto"]


def _nested_sp() -> FlowNetwork:
    net = FlowNetwork()
    net.add_link("s", "a", 1, 0.1)
    net.add_link("a", "t", 1, 0.15)
    net.add_link("s", "b", 1, 0.2)
    net.add_link("b", "c", 1, 0.25)
    net.add_link("c", "t", 1, 0.3)
    net.add_link("b", "c", 1, 0.35)  # parallel inside the lower path
    return net


def _undirected_sp() -> FlowNetwork:
    net = FlowNetwork()
    net.add_link("s", "a", 1, 0.1, directed=False)
    net.add_link("a", "t", 1, 0.1, directed=False)
    net.add_link("s", "t", 1, 0.3, directed=False)
    return net


def _wrong_direction() -> FlowNetwork:
    net = FlowNetwork()
    net.add_link("t", "s", 1, 0.1)
    return net


def _reversed_undirected() -> FlowNetwork:
    net = FlowNetwork()
    net.add_link("t", "s", 1, 0.25, directed=False)
    return net


def _dead_branch() -> FlowNetwork:
    net = series_chain(2, 1, 0.1)
    net.add_link("v1", "dead_end", 1, 0.5)
    return net


def _zero_capacity_parallel() -> FlowNetwork:
    net = FlowNetwork()
    net.add_link("s", "t", 0, 0.0)
    net.add_link("s", "t", 1, 0.2)
    return net


def _cycle() -> FlowNetwork:
    net = FlowNetwork()
    net.add_link("s", "a", 1, 0.1)
    net.add_link("a", "b", 1, 0.2)
    net.add_link("b", "a", 1, 0.2)  # a cycle off the only s-t path
    net.add_link("a", "t", 1, 0.3)
    return net


def _mixed_direction_parallels() -> FlowNetwork:
    net = FlowNetwork()
    net.add_link("s", "t", 1, 0.5)
    net.add_link("s", "t", 1, 0.5, directed=False)
    return net


_LOWER = 0.8 * (1 - 0.25 * 0.35) * 0.7

#: (name, network factory, closed-form reliability or None for naive)
SHAPES = [
    ("series", lambda: series_chain(4, 1, 0.1), 0.9**4),
    ("parallel", lambda: parallel_links(3, 1, 0.2), 1 - 0.2**3),
    ("diamond", diamond, 1 - (1 - 0.81) ** 2),
    ("two-paths", lambda: two_paths(2, 1, 0.1), 1 - (1 - 0.81) ** 2),
    ("nested-sp", _nested_sp, 1 - (1 - 0.9 * 0.85) * (1 - _LOWER)),
    ("undirected-sp", _undirected_sp, 1 - (1 - 0.81) * 0.3),
    ("wrong-direction", _wrong_direction, 0.0),
    ("reversed-undirected", _reversed_undirected, 0.75),
    ("dead-branch", _dead_branch, 0.81),
    ("zero-capacity", _zero_capacity_parallel, 0.8),
    ("cycle", _cycle, 0.9 * 0.7),
    ("mixed-direction", _mixed_direction_parallels, 0.75),
    ("wheatstone", lambda: diamond(cross_link=True), None),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "name,factory,expected", SHAPES, ids=[shape[0] for shape in SHAPES]
)
def test_engine_matches_closed_form(engine, name, factory, expected):
    net = factory()
    if expected is None:
        expected = naive_reliability(net, UNIT).value
    value = compute_reliability(net, demand=UNIT, method=engine).value
    assert value == pytest.approx(expected, abs=1e-12), (engine, name)
