"""Exception hierarchy for :mod:`repro`.

Every error deliberately raised by the library derives from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ReproValueError(ReproError, ValueError):
    """An invalid argument value passed to a :mod:`repro` API.

    Derives from both :class:`ReproError` (so library callers catching
    the hierarchy see it) and :class:`ValueError` (so argument
    validation keeps its conventional builtin type for generic
    callers).  All ``raise ValueError`` sites in the library use this
    class — enforced by lint rule RR104.
    """


class AnalysisError(ReproError):
    """The static-analysis engine was misused or a file failed to parse
    (unknown rule code, malformed selector, unreadable path, ...)."""


class GraphError(ReproError):
    """A structural problem with a :class:`~repro.graph.FlowNetwork`."""


class NodeNotFoundError(GraphError):
    """A referenced node does not exist in the network."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the network")
        self.node = node


class LinkNotFoundError(GraphError):
    """A referenced link index does not exist in the network."""

    def __init__(self, link: object) -> None:
        super().__init__(f"link {link!r} is not in the network")
        self.link = link


class ValidationError(GraphError):
    """A network failed validation (bad capacity, probability, ...)."""


class DemandError(ReproError):
    """A flow demand is malformed (unknown terminals, negative rate, ...)."""


class DecompositionError(ReproError):
    """A bottleneck / chain decomposition could not be constructed.

    Raised e.g. when a supplied link set is not a minimal s-t
    disconnecting set, or when its removal does not split the network
    into exactly two connected components.
    """


class SolverError(ReproError):
    """A max-flow solve was misused (bad terminals or limit) or a flow
    repair or certificate failed its check."""


class IntractableError(ReproError):
    """An exact computation was refused because it would exceed the
    configured state-space budget (e.g. enumerating ``2^m`` failure
    configurations for very large ``m``)."""

    def __init__(self, message: str, required: int | None = None, limit: int | None = None) -> None:
        super().__init__(message)
        self.required = required
        self.limit = limit


class EstimationError(ReproError):
    """A Monte-Carlo estimation was misconfigured."""


class OverlayError(ReproError):
    """A P2P overlay could not be constructed as requested."""
