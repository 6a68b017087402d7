"""Benchmark-owned spans for the layered replay (``--trace 1``).

Every span has a name, the layer its self time is charged to, start and
end stamps (``time.perf_counter``, the clock ``repro.obs`` uses too),
the id of the span that caused it, and the id of the request it serves.
Spans stay in memory and are written out only when asked (``--spans``).

The program is not changed to produce them.  The replay wraps each call
into a layer in a span of its own; a call made under
:meth:`Tracer.call` also runs inside ``repro.obs.record()``, and the
spans and counters the program already records there are copied in as
children of the wrapping span.  ``PROGRAM_LAYERS`` names the layer of
each program span; a program span it does not list belongs to the layer
of its parent.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Collection, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.obs.recorder import SpanRecord, record

#: Layer of each program span the replay can meet.
PROGRAM_LAYERS = {
    "bottleneck.cut_search": "cuts",
    "sweep.cut_search": "cuts",
    "bottleneck.assignments": "assignments",
    "sweep.assignments": "assignments",
    "bottleneck.source_array": "arrays",
    "bottleneck.sink_array": "arrays",
    "bottleneck.arrays": "arrays",
    "sweep.arrays": "arrays",
    "bottleneck.accumulate": "accumulate",
    "sweep.accumulate": "accumulate",
}


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    #: Program counters counted while this span was the innermost one.
    counters: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Collects spans and sums self time and counters per layer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        #: Counters of untimed calls (:meth:`count`), per layer.
        self._counted: dict[str, dict[str, float]] = {}

    def _open(self, name: str, layer: str, request: int | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent is not None else None,
            request=request if parent is None else parent.request,
            name=name,
            layer=layer,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, request: int, name: str) -> Iterator[Span]:
        """The root span of one request; every other span nests under one."""
        if self._stack:
            raise RuntimeError("requests do not nest")
        span = self._open(name, "request", request)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        if not self._stack:
            raise RuntimeError("a layer span needs an open request span")
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def call(self, name: str, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` in a span, with the program's own spans copied in."""
        with self.span(name, layer) as outer:
            with record() as recorder:
                result = fn(*args, **kwargs)
        outer.counters = dict(recorder.root.counters)
        for child in recorder.root.children:
            self._adopt(child, outer)
        return result

    def count(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Run ``fn`` under ``repro.obs.record()`` outside any span and
        charge the counters it records to ``layer``.

        For calls whose recorder cost would distort their timed span.
        """
        with record() as recorder:
            fn(*args, **kwargs)
        counted = self._counted.setdefault(layer, {})
        for key, value in recorder.counter_totals().items():
            counted[key] = counted.get(key, 0) + value

    def _adopt(self, program: SpanRecord, parent: Span) -> None:
        span = Span(
            id=len(self.spans),
            parent=parent.id,
            request=parent.request,
            name=program.name,
            layer=PROGRAM_LAYERS.get(program.name, parent.layer),
            start=program.start,
            end=program.end if program.end is not None else program.start,
            counters=dict(program.counters),
        )
        self.spans.append(span)
        for child in program.children:
            self._adopt(child, span)

    # -- aggregation -------------------------------------------------------

    def self_seconds_by_request(self) -> dict[int, dict[str, float]]:
        """Self time per request and layer: duration minus the children's."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.end - span.start
        out: dict[int, dict[str, float]] = {}
        for span in self.spans:
            own = span.end - span.start - children.get(span.id, 0.0)
            layers = out.setdefault(span.request, {})
            layers[span.layer] = layers.get(span.layer, 0.0) + own
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over every request."""
        out: dict[str, float] = {}
        for layers in self.self_seconds_by_request().values():
            for layer, seconds in layers.items():
                out[layer] = out.get(layer, 0.0) + seconds
        return out

    def counters(
        self, *, layers: Collection[str] | None = None, exclude: Collection[str] = ()
    ) -> dict[str, float]:
        """Summed program counters over the spans of ``layers`` (default:
        every layer) that are not in ``exclude``."""
        sources = [(span.layer, span.counters) for span in self.spans]
        sources += list(self._counted.items())
        out: dict[str, float] = {}
        for layer, counters in sources:
            if (layers is None or layer in layers) and layer not in exclude:
                for key, value in counters.items():
                    out[key] = out.get(key, 0) + value
        return out

    def span_count(self, layer: str) -> int:
        return sum(1 for span in self.spans if span.layer == layer)

    def to_json(self) -> list[dict[str, Any]]:
        return [asdict(span) for span in self.spans]
