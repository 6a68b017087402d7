"""RR111 fixture — dynamically built / uncatalogued metric names."""

from repro.obs import count, gauge, span
from repro.obs.progress import progress_ticker


def bad_fstring_span(side):
    with span(f"engine.{side}_array", links=3):
        return None


def bad_concat_count(kind):
    count("flow_" + kind, 2)


def bad_format_gauge(i):
    gauge("queue.{}".format(i), 1.0)


def bad_percent_ticker(role):
    with progress_ticker("arrays.%s" % role, total=10) as ticker:
        ticker.tick()


def bad_unknown_span_literal():
    with span("engine.quantum_array"):
        return None


def bad_unknown_ticker_label():
    with progress_ticker("warp.items", total=3) as ticker:
        ticker.tick()


def bad_recorder_attribute_fstring(recorder, name):
    recorder.count(f"solver.{name}.solves")


def ok_literal_span():
    with span("bottleneck.source_array", links=4, assignments=3):
        return None


def ok_catalogued_count():
    count("flow_solves", 3)


def ok_bound_metric_name(recorder, solver):
    # The sanctioned dynamic-family shape: the name was formatted once
    # at construction; the call site passes the bound attribute.
    recorder.count(solver._metric_solves)


def ok_unrelated_count_methods(mask, xs):
    return bin(mask).count("1") + xs.count(0)


def suppressed(side):
    with span(f"engine.{side}_array"):  # repro: noqa[RR111] exercised by the suppression test
        return None
