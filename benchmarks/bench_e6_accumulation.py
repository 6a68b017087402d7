"""E6 — Example 6 / Table I: the ACCUMULATION procedure.

Regenerates: p_{b1}, p_{b2}, p_{b1,b2} and the inclusion-exclusion sum
of the worked example, through the library's ACCUMULATION kernel
(joint_rows)."""

import numpy as np

from repro.core.accumulate import joint_rows

S_MASKS = np.array([0b01, 0b10, 0b11, 0b10], dtype=np.uint64)  # c1..c4
T_MASKS = np.array([0b11, 0b10, 0b01, 0b00], dtype=np.uint64)  # c5..c8


def side(masks):
    """Distinct masks and their weights, each configuration 1/4."""
    distinct, inverse = np.unique(masks, return_inverse=True)
    return distinct, np.bincount(inverse, weights=np.full(len(masks), 0.25))[None, :]


def test_e6_table1_accumulation(benchmark, show):
    source, sink = side(S_MASKS), side(T_MASKS)
    value = benchmark(lambda: joint_rows(*source, *sink, 0b11)[0])
    p_b1 = (0.25 + 0.25) * (0.25 + 0.25)
    p_b2 = (0.25 * 3) * (0.25 * 2)
    p_b12 = 0.25 * 0.25
    expected = p_b1 + p_b2 - p_b12
    show(
        ["term", "value"],
        [
            ["p_{b1} = (p(c1)+p(c3)) (p(c5)+p(c7))", p_b1],
            ["p_{b2} = (p(c2)+p(c3)+p(c4)) (p(c5)+p(c6))", p_b2],
            ["p_{b1,b2} = p(c3) p(c5)", p_b12],
            ["r_E' = p_b1 + p_b2 - p_b1b2", expected],
            ["ACCUMULATION", value],
        ],
        title="E6: Example 6 / Table I",
    )
    assert abs(value - expected) < 1e-12
