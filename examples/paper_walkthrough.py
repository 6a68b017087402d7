#!/usr/bin/env python
"""Walk through every worked example of the paper, printing what the
paper prints (Fujita, IPDPSW 2017).

Run:  python examples/paper_walkthrough.py
"""

from repro import FlowDemand
from repro.core import (
    accumulate,
    bottleneck_reliability,
    bridge_reliability,
    build_side_array,
    classify_by_support,
    describe_assignment,
    enumerate_assignments,
    naive_reliability,
    pattern_probability,
)
from repro.graph import fujita_fig2_bridge, fujita_fig4, split_on_cut


def section(title: str) -> None:
    print(f"\n{'=' * 68}\n{title}\n{'=' * 68}")


def example_1() -> None:
    section("Example 1 (SIII-B): assignments for d=5, E*={e1,e2,e3}, c=3 each")
    assignments = enumerate_assignments([3, 3, 3], 5)
    print(f"|D| = {len(assignments)}")
    for a in assignments:
        print(f"  {describe_assignment(a)}")


def figure_2() -> None:
    section("Fig. 2 + Eq. (1): graph with a bridge")
    net = fujita_fig2_bridge()
    demand = FlowDemand("s", "t", 2)
    result = bridge_reliability(net, demand)
    bridge = result.details["bridge"]
    split = split_on_cut(net, "s", "t", [bridge])
    x, y = split.source_ports[0], split.sink_ports[0]
    r_s = naive_reliability(split.source_side.network, FlowDemand("s", x, 2)).value
    r_t = naive_reliability(split.sink_side.network, FlowDemand(y, "t", 2)).value
    availability = net.link(bridge).availability
    print(f"bridge link: e{bridge + 1} (paper's e9)")
    print(f"r(G_s) = {r_s:.6f}  (naive on the source side)")
    print(f"1-p(e') = {availability:.6f}")
    print(f"r(G_t) = {r_t:.6f}  (naive on the sink side)")
    print(f"Eq.(1) product  r = {r_s * availability * r_t:.6f}")
    print(f"bridge method   r = {result.value:.6f}")
    print(f"naive reference r = {naive_reliability(net, demand).value:.6f}")


def figures_4_and_5() -> None:
    section("Fig. 4 / Fig. 5 / Example 3: two bottleneck links, d = 2")
    net = fujita_fig4()
    demand = FlowDemand("s", "t", 2)
    split = split_on_cut(net, "s", "t", [0, 1])
    assignments = enumerate_assignments([2, 2], 2)
    print(f"assignment set D = {assignments}")

    array = build_side_array(
        split.source_side,
        role="source",
        terminal="s",
        ports=split.source_ports,
        assignments=assignments,
        demand=2,
    )
    label = {0b1101: "Fig 5(a): e4 failed",
             0b0101: "Fig 5(b): e4, e6 failed",
             0b1111: "Fig 5(c): all alive"}
    for mask, name in label.items():
        realized = [assignments[i] for i in array.realized_indices(mask)]
        print(f"  {name:<26} realizes {realized}")

    exact = bottleneck_reliability(net, demand, cut=[0, 1])
    print(f"\nbottleneck algorithm r = {exact.value:.6f} "
          f"({exact.flow_calls} max-flow calls)")
    ref = naive_reliability(net, demand)
    print(f"naive reference      r = {ref.value:.6f} "
          f"({ref.flow_calls} max-flow calls)")


def example_5() -> None:
    section("Example 5 (SIV-A): classification by supporting subset")
    assignments = [(1, 2, 0), (2, 1, 0), (1, 1, 1), (0, 2, 1), (2, 0, 1)]
    table = classify_by_support(assignments, 3)
    names = {
        0b111: "{e1,e2,e3}", 0b011: "{e1,e2}", 0b110: "{e2,e3}",
        0b101: "{e1,e3}", 0b001: "{e1}", 0b010: "{e2}", 0b100: "{e3}", 0: "{}",
    }
    for mask in (0b111, 0b011, 0b110, 0b101, 0b001, 0b010, 0b100, 0):
        members = [assignments[i] for i in table[mask]]
        print(f"  D_{names[mask]:<10} = {members}")


def example_6() -> None:
    section("Example 6 / Table I (SIV-B): ACCUMULATION by inclusion-exclusion")
    import numpy as np

    from repro.core import RealizationArray

    s_masks = np.array([0b01, 0b10, 0b11, 0b10], dtype=np.uint64)
    t_masks = np.array([0b11, 0b10, 0b01, 0b00], dtype=np.uint64)
    quarter = np.full(4, 0.25)
    source = RealizationArray(s_masks, quarter, 2, 0)
    sink = RealizationArray(t_masks, quarter, 2, 0)
    print("Table I realized sets (c1..c4 source side, c5..c8 sink side):")
    print("  c1:{b1}  c2:{b2}  c3:{b1,b2}  c4:{b2}")
    print("  c5:{b1,b2}  c6:{b2}  c7:{b1}  c8:{}")
    p_b1 = (0.25 + 0.25) * (0.25 + 0.25)
    p_b2 = (0.25 * 3) * (0.25 * 2)
    p_b12 = 0.25 * 0.25
    print(f"p_(b1)      = {p_b1:.6f}")
    print(f"p_(b2)      = {p_b2:.6f}")
    print(f"p_(b1,b2)   = {p_b12:.6f}")
    print(f"r_E' = p_b1 + p_b2 - p_b1b2 = {p_b1 + p_b2 - p_b12:.6f}")
    print(f"ACCUMULATION (library)      = {accumulate(source, sink, [0, 1]):.6f}")


def equations_2_and_3() -> None:
    section("Eq. (2)/(3): bottleneck survival pattern mixture on Fig. 4")
    net = fujita_fig4()
    for pattern, name in ((0b11, "{e1,e2}"), (0b01, "{e1}"), (0b10, "{e2}"), (0, "{}")):
        print(f"  p_{name:<8} = {pattern_probability(net, (0, 1), pattern):.6f}")


def main() -> None:
    example_1()
    figure_2()
    figures_4_and_5()
    example_5()
    example_6()
    equations_2_and_3()
    print()


if __name__ == "__main__":
    main()
