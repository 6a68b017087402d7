"""RR202 fixture: in-place mutation of cache-owned arrays — positives,
negatives, noqa."""

import numpy as np


def bad_store_into_hit(cache, key, links, assignments):
    cubes = cache.get(key, links, assignments)
    cubes[0] = 0
    return cubes


def bad_mutation_through_view(n_bits):
    counts = popcount_array(n_bits)
    view = counts[1:]
    view += 1
    return counts


def bad_inplace_sort(cache, key, links, assignments):
    data = cache.get(key, links, assignments)
    data.sort()
    return data


def bad_out_kwarg(cache, key, links, assignments, other):
    hit = cache.get(key, links, assignments)
    np.logical_and(hit, other, out=hit)
    return hit


def bad_cached_side_cover_fill(split, point_cache):
    arr = cached_side_cover(split.source_side, cache=point_cache)
    arr.fill(0)
    return arr


def ok_copy_then_mutate(cache, key, links, assignments):
    cubes = cache.get(key, links, assignments).copy()
    cubes[0] = 0
    return cubes


def ok_fresh_derived_array(n_bits):
    signs = -popcount_array(n_bits).astype(np.float64)
    signs[0] = 0.0
    return signs


def ok_read_only_use(cache, key, links, assignments, realized, j):
    cubes = cache.get(key, links, assignments)
    realized[:, j] = cubes
    return realized


def suppressed(cache, key, links, assignments):
    cubes = cache.get(key, links, assignments)
    cubes[0] = 0  # repro: noqa[RR202] cache instance private to this scope
    return cubes
