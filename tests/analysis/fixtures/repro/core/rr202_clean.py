"""RR202 clean fixture: cache-owned arrays used read-only or copied."""

import numpy as np


def accumulate_from_hits(cache, keys, links, assignments):
    total = np.zeros((0, 3), dtype=np.uint64)
    for key in keys:
        cubes = cache.get(key, links, assignments)
        if cubes is not None:
            total = np.concatenate([total, cubes])
    return total


def private_writable_copy(cache, key, links, assignments):
    cubes = cache.get(key, links, assignments)
    scratch = cubes.copy()
    scratch[0] = 0
    return scratch


def weights_from_table(n_bits):
    counts = popcount_array(n_bits)
    return np.float64(2.0) ** counts
