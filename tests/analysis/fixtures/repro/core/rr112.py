"""RR112 fixture: per-element loops over uint64 mask arrays — positives,
negatives, noqa."""

import numpy as np


def bad_direct_loop(realization, probabilities):
    masks = realization.masks
    total = 0.0
    for mask in masks:
        total += probabilities[int(mask) & 1]
    return total


def bad_enumerate_loop(planes, n_bits, realized):
    packed = pack_bitplanes(planes, n_bits)
    for j, mask in enumerate(packed):
        realized[j] = int(mask).bit_count()
    return realized


def bad_index_loop(rng, probabilities, num_samples):
    alive = sample_alive_masks(rng, probabilities, num_samples)
    hits = 0
    for i in range(len(alive)):
        hits += int(alive[i]).bit_count()
    return hits


def bad_comprehension(realization, support):
    restricted = realization.masks & support
    return [int(mask).bit_count() for mask in restricted]


def bad_cast_loop(values):
    words = np.asarray(values).astype(np.uint64)
    weights = []
    for word in words >> np.uint64(1):
        weights.append(float(word))
    return weights


def ok_vectorized(realization, weights):
    counts = np.bitwise_count(realization.masks)
    return float(weights[counts].sum())


def ok_per_bit_loop(masks, n_bits):
    planes = []
    for bit in range(n_bits):
        planes.append((masks >> np.uint64(bit)) & np.uint64(1))
    return planes


def ok_rebound_name(realization, labels):
    masks = realization.masks
    realized = int(np.bitwise_count(masks).sum())
    masks = [label for label in labels if label]
    for label in masks:
        realized += len(label)
    return realized


def ok_derived_scalars(realization, support):
    counts = np.bitwise_count(realization.masks & support)
    total = 0
    for count in counts.tolist():
        total += count
    return total


def suppressed(realization):
    total = 0
    for mask in realization.masks:  # repro: noqa[RR112] doctest-sized array
        total += int(mask)
    return total
