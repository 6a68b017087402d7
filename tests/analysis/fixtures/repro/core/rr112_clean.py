"""RR112 clean fixture: mask arrays consumed array-at-a-time.

A realistic accumulation module: every mask-array consumer below goes
through the vectorized bitset vocabulary or whole-array numpy; the only
Python loops run over *bits* or over derived scalar tables.
"""

import numpy as np


def class_probabilities(realization, weights):
    counts = np.bitwise_count(realization.masks)
    return weights[counts]


def gather_columns(realization, support, table):
    restricted = realization.masks & support
    realized = (restricted >> np.uint64(0)) & np.uint64(1)
    return table * realized.astype(np.float64)


def transpose_to_planes(masks, n_bits):
    planes = np.empty((n_bits, len(masks)), dtype=np.uint64)
    for bit in range(n_bits):
        planes[bit] = (masks >> np.uint64(bit)) & np.uint64(1)
    return planes


def sample_hit_rate(rng, probabilities, num_samples, threshold):
    alive = sample_alive_masks(rng, probabilities, num_samples)
    hits = np.bitwise_count(alive) >= threshold
    return float(hits.mean())


def weight_table(n_bits, probability):
    weights = []
    for popcount in range(n_bits + 1):
        weights.append(probability**popcount)
    return np.asarray(weights, dtype=np.float64)
