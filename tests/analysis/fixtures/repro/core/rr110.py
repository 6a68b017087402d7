"""RR110 fixture: realization-array rebuilds in loops — positives, negatives, noqa."""


def bad_rebuild_per_point(split, points):
    arrays = []
    for _point in points:
        arrays.append(build_side_array(split.source_side, role="source"))
    return arrays


def bad_while_rebuild(split, queue):
    results = []
    while queue:
        queue.pop()
        results.append(build_side_array(split.sink_side, role="sink"))
    return results


def bad_comprehension_rebuild(side, xs):
    return [build_side_array(side) for _x in xs]


def ok_single_build(split):
    source = build_side_array(split.source_side, role="source")
    sink = build_side_array(split.sink_side, role="sink")
    return source, sink


def ok_cached_in_loop(split, points, cache):
    curves = []
    for _point in points:
        curves.append(cached_side_array(split.source_side, cache=cache))
    return curves


def suppressed(split, segments):
    relations = []
    for segment in segments:
        # Each segment is a different subnetwork: the rebuild is real work.
        relations.append(build_side_array(segment))  # repro: noqa[RR110] per-segment topology
    return relations
