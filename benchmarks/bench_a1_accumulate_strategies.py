"""A1 — ablation: ACCUMULATION kernels (zeta-IE vs distinct-mask pairs).

Both are exact; their cost profiles differ.  zeta scales with 2^|D_E'|
(the inclusion–exclusion lattice), pairs with the number of *distinct*
realized masks per side.  The crossover this table shows motivates the
class-size rule in repro.core.accumulate (zeta up to 12 assignments,
pairs beyond), so the ablation calls the two private row kernels
directly: no public entry point lets a caller choose."""

import numpy as np
import pytest

from repro.bench.harness import time_call
from repro.core import RealizationArray
from repro.core.accumulate import _pairs_rows, _zeta_rows


def synthetic_arrays(num_assignments: int, side_bits: int, seed: int, distinct: int):
    """Arrays with a controlled number of distinct realized masks."""
    rng = np.random.default_rng(seed)
    size = 1 << side_bits
    pool = rng.integers(0, 1 << num_assignments, size=distinct, dtype=np.uint64)
    masks = pool[rng.integers(0, distinct, size=size)]
    probs = rng.random(size)
    probs /= probs.sum()
    return RealizationArray(masks.astype(np.uint64), probs, num_assignments, 0)


def run_kernel(kernel, src, snk, idx):
    """One row kernel on the two arrays' own configuration probabilities."""
    return float(
        kernel(
            src.masks,
            snk.masks,
            src.probabilities[None, :],
            snk.probabilities[None, :],
            idx,
        )[0]
    )


CASES = [
    ("small |D|, many masks", 4, 10, 12),
    ("large |D|, few masks", 14, 10, 6),
    ("large |D|, many masks", 14, 10, 200),
]


def _kernel_rows():
    rows = []
    for name, q, bits, distinct in CASES:
        src = synthetic_arrays(q, bits, 1, distinct)
        snk = synthetic_arrays(q, bits, 2, distinct)
        idx = list(range(q))
        zeta = time_call(run_kernel, _zeta_rows, src, snk, idx)
        pairs = time_call(run_kernel, _pairs_rows, src, snk, idx)
        assert zeta.value == pytest.approx(pairs.value, abs=1e-10)
        rows.append(
            [name, q, distinct, f"{zeta.seconds * 1e3:.3f}", f"{pairs.seconds * 1e3:.3f}"]
        )
    return rows


def test_a1_kernel_table(benchmark, show):
    rows = benchmark.pedantic(_kernel_rows, rounds=1, iterations=1)
    show(
        ["case", "|D|", "distinct masks", "zeta ms", "pairs ms"],
        rows,
        title="A1: accumulation kernels (both exact)",
    )


def test_a1_zeta(benchmark):
    src = synthetic_arrays(4, 12, 1, 12)
    snk = synthetic_arrays(4, 12, 2, 12)
    value = benchmark(run_kernel, _zeta_rows, src, snk, [0, 1, 2, 3])
    assert 0 <= value <= 1


def test_a1_pairs(benchmark):
    src = synthetic_arrays(4, 12, 1, 12)
    snk = synthetic_arrays(4, 12, 2, 12)
    value = benchmark(run_kernel, _pairs_rows, src, snk, [0, 1, 2, 3])
    assert 0 <= value <= 1
