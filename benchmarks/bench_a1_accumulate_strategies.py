"""A1 — ACCUMULATION: the one Eq. 3 kernel against the paper's signed sum.

repro.core.accumulate evaluates r_{E'} as a pair sum over the two
sides' distinct realization masks.  The paper writes the same quantity
as inclusion–exclusion over assignment subsets,
Σ_{∅≠X⊆D_{E'}} (−1)^{|X|+1} P_s(X) P_t(X).  This bench times both on
the two side shapes of benchmarks/suite (exact-cold: 14 + 14 side
links; sweep-warm: 12 + 12; k = 2 bottleneck links, d = 2), for every
class the survival patterns support, and asserts equal values.  "pair
sum" is the per-class step on sides weighed once (what the pipeline
pays per class); "one-shot" weighs both side covers and then sums.
The oracle reads each cover's expanded 2^m array.  A second table
times the corner cases on synthetic sides given configuration by
configuration ("one-shot" groups them by distinct mask first): the
inputs the retired zeta / pairs ablation used, a small class on a side
with many distinct full masks, and chain's closing pair sum at the
chain's 16-assignment limit.  The zeta and pairs kernels are gone;
their last timings sit beside these in docs/PERFORMANCE.md.

Run with ``python -m pytest benchmarks/bench_a1_accumulate_strategies.py
--benchmark-only`` from the repo root (the oracle is imported from
``tests``)."""

import numpy as np
import pytest

from repro.bench.harness import time_call
from repro.core.accumulate import joint_rows
from repro.core.arrays import build_side_cover
from repro.core.assignments import classify_by_support, enumerate_assignments
from repro.graph.cuts import find_bottleneck
from repro.graph.generators import bottlenecked_network
from repro.probability.bitset import mask_from_indices
from repro.probability.enumeration import configuration_probabilities
from tests.reference_accumulate import group_side
from tests.reference_accumulate import inclusion_exclusion as reference_inclusion_exclusion

#: (suite workload, side links per side)
SHAPES = [("exact-cold", 14), ("sweep-warm", 12)]
DEMAND = 2


def side_covers(side_links: int, seed: int = 0):
    """Both §III-C side covers of a bottlenecked net, each with its
    failure row and its expanded ``(masks, probabilities)``, and the
    supported classes."""
    net = bottlenecked_network(
        source_side_links=side_links,
        sink_side_links=side_links,
        demand=DEMAND,
        seed=seed,
    )
    split = find_bottleneck(net, "s", "t")
    assert split is not None
    assignments = enumerate_assignments(
        [net.link(i).capacity for i in split.cut], DEMAND
    )
    sides = []
    for side, role, terminal, ports in [
        (split.source_side, "source", "s", split.source_ports),
        (split.sink_side, "sink", "t", split.sink_ports),
    ]:
        cover = build_side_cover(
            side,
            role=role,
            terminal=terminal,
            ports=ports,
            assignments=assignments,
            demand=DEMAND,
        )
        row = np.asarray([side.network.failure_probabilities()])
        expanded = (cover.expand(), configuration_probabilities(side.network))
        sides.append((cover, row, expanded))
    supported = classify_by_support(assignments, len(split.cut)).values()
    return sides[0], sides[1], sorted({c for c in supported if c})


def inclusion_exclusion(source, sink, indices) -> float:
    """The paper's signed sum on two sides given configuration by configuration."""
    return reference_inclusion_exclusion(*source, *sink, indices)


def accumulate(source, sink, indices) -> float:
    """``r_{E'}`` of one class, both sides grouped by distinct mask first."""
    return float(
        joint_rows(*group_side(*source), *group_side(*sink), mask_from_indices(indices))[0]
    )


def one_shot(source, sink, within) -> float:
    """Weigh both side covers under their failure rows, then the pair sum."""
    (s_cover, s_row), (t_cover, t_row) = source, sink
    return float(
        joint_rows(
            s_cover.distinct, s_cover.weights(s_row),
            t_cover.distinct, t_cover.weights(t_row),
            within,
        )[0]
    )


def _kernel_rows():
    rows = []
    for name, links in SHAPES:
        (s_cover, s_row, s_config), (t_cover, t_row, t_config), classes = side_covers(links)
        ms, ws = s_cover.distinct, s_cover.weights(s_row)
        mt, wt = t_cover.distinct, t_cover.weights(t_row)
        for indices in classes:
            within = mask_from_indices(indices)
            pair_sum = time_call(joint_rows, ms, ws, mt, wt, within)
            weighed = time_call(one_shot, (s_cover, s_row), (t_cover, t_row), within)
            oracle = time_call(inclusion_exclusion, s_config, t_config, indices)
            assert weighed.value == pair_sum.value[0]
            assert weighed.value == pytest.approx(oracle.value, abs=1e-12)
            rows.append(
                [
                    f"{name} ({links} + {links})",
                    len(indices),
                    f"{len(ms)} / {len(mt)}",
                    f"{pair_sum.seconds * 1e3:.3f}",
                    f"{weighed.seconds * 1e3:.3f}",
                    f"{oracle.seconds * 1e3:.3f}",
                ]
            )
    return rows


def test_a1_kernel_table(benchmark, show):
    rows = benchmark.pedantic(_kernel_rows, rounds=1, iterations=1)
    show(
        [
            "side shape",
            "|D_E'|",
            "distinct masks s / t",
            "pair sum ms",
            "one-shot ms",
            "IE ms",
        ],
        rows,
        title="A1: Eq. 3 pair sum vs inclusion-exclusion (equal values)",
    )


#: (case, |D|, side bits, distinct full masks a side, class size)
SYNTHETIC = [
    ("small |D|, many masks", 4, 10, 12, 4),
    ("large |D|, few masks", 14, 10, 6, 14),
    ("large |D|, many masks", 14, 10, 200, 14),
    ("large |D|, many masks, class of 2", 20, 14, 4000, 2),
]

#: Distinct sink masks of the synthetic chain closings (q = 16).
CLOSING_SINK_MASKS = [50, 1000, 8000]


def synthetic_side(num_assignments, side_bits, seed, distinct):
    """``(masks, probabilities)`` of a side with a controlled number of
    distinct realized masks."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << num_assignments, size=distinct, dtype=np.uint64)
    masks = pool[rng.integers(0, distinct, size=1 << side_bits)]
    probabilities = rng.random(1 << side_bits)
    probabilities /= probabilities.sum()
    return masks, probabilities


def chain_closing(dist, sink, q):
    """Chain's closing pair sum for its last cut's widest class (every
    cut link alive): ``Σ_R dist[R] · P(sink meets R)``."""
    states = np.flatnonzero(dist)
    return joint_rows(
        states.astype(np.uint64), dist[states][None, :], *group_side(*sink), (1 << q) - 1
    )[0]


def closing_by_misses(dist, sink):
    """The same sum through ``1 − P(sink misses R)``, one sink mask at a time."""
    states = np.flatnonzero(dist).astype(np.uint64)
    mt, weights = group_side(*sink)
    miss = np.zeros(len(states))
    for mask, weight in zip(mt, weights[0]):
        miss += weight * ((states & mask) == 0)
    return float(dist[states.astype(np.intp)] @ (1.0 - miss))


def _corner_rows():
    rows = []
    for name, q, bits, distinct, size in SYNTHETIC:
        source = synthetic_side(q, bits, 1, distinct)
        sink = synthetic_side(q, bits, 2, distinct)
        indices = list(range(size))
        one_call = time_call(accumulate, source, sink, indices)
        oracle = time_call(inclusion_exclusion, source, sink, indices, repeats=1)
        assert one_call.value == pytest.approx(oracle.value, abs=1e-12)
        rows.append(
            [name, q, size, distinct, f"{one_call.seconds * 1e3:.3f}",
             f"{oracle.seconds * 1e3:.1f}"]
        )
    q = 16
    dist = np.random.default_rng(3).random(1 << q)
    dist /= dist.sum()
    for distinct in CLOSING_SINK_MASKS:
        sink = synthetic_side(q, 14, 4, distinct)
        closing = time_call(chain_closing, dist, sink, q)
        reference = time_call(closing_by_misses, dist, sink, repeats=1)
        assert closing.value == pytest.approx(reference.value, abs=1e-12)
        rows.append(
            [f"chain closing, {1 << q} states", q, q, distinct,
             f"{closing.seconds * 1e3:.3f}", f"{reference.seconds * 1e3:.1f}"]
        )
    return rows


def test_a1_corner_cases(benchmark, show):
    rows = benchmark.pedantic(_corner_rows, rounds=1, iterations=1)
    show(
        ["case", "|D|", "class", "distinct masks a side", "one-shot ms",
         "oracle ms"],
        rows,
        title="A1: Eq. 3 corner cases on synthetic arrays (equal values)",
    )


@pytest.fixture(scope="module")
def exact_cold_sides():
    return side_covers(dict(SHAPES)["exact-cold"])


def test_a1_pair_sum(benchmark, exact_cold_sides):
    (s_cover, s_row, s_config), (t_cover, t_row, t_config), classes = exact_cold_sides
    within = mask_from_indices(classes[-1])
    value = benchmark(one_shot, (s_cover, s_row), (t_cover, t_row), within)
    expected = inclusion_exclusion(s_config, t_config, classes[-1])
    assert value == pytest.approx(expected, abs=1e-12)


def test_a1_inclusion_exclusion(benchmark, exact_cold_sides):
    _source, _sink, classes = exact_cold_sides
    value = benchmark(inclusion_exclusion, _source[2], _sink[2], classes[-1])
    assert 0.0 <= value <= 1.0
