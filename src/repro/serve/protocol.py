"""The wire protocol of the reliability daemon: ``repro.serve/query/v1``.

One JSON object per line (newline-delimited, UTF-8).  A query carries a
full network (the :mod:`repro.graph.io` dict format), a demand and at
most one probability axis:

.. code-block:: json

    {"schema": "repro.serve/query/v1", "op": "query", "id": 7,
     "network": {"name": "fig4", "nodes": ["s", "..."], "links": ["..."]},
     "source": "s", "sink": "t", "rate": 2,
     "availability": [0.9, 0.95, 0.99]}

Axes — mutually exclusive, all optional (no axis means "one point at
the network's own failure probabilities"):

``availability``
    Scalar or list: every link's failure probability becomes
    ``1 - value`` per point.
``failure_scale``
    Scalar or list of factors on the base failure probabilities.
``overrides``
    ``{"<link index>": p}`` map or list of maps patched onto the base
    probabilities per point.

Responses (``repro.serve/response/v1``) echo ``id`` and carry one
``{"x": ..., "reliability": ...}`` pair per point, the max-flow solves
the answering batch spent (``flow_calls``), whether every realization
column came from the warm array cache (``"warm": true`` — the batch
missed nothing; cold columns built by the cut-certificate kernel cost
no solves, so ``flow_calls`` alone cannot tell) and the batch shape
(``{"queries": n, "points": p}``).
Encoding is canonical (sorted keys, compact separators), so identical
queries produce byte-identical response lines — an invariant the
property suite pins.

Errors are per-line, never connection-fatal except ``oversized``:
``bad-json``, ``unsupported-schema``, ``bad-request``, ``oversized``,
``compute-error``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.api import available_methods
from repro.core.demand import FlowDemand
from repro.core.sweep import SweepSpec
from repro.exceptions import ReproError
from repro.graph.io import from_dict
from repro.graph.network import FlowNetwork

__all__ = [
    "ERROR_BAD_JSON",
    "ERROR_BAD_REQUEST",
    "ERROR_BAD_VERSION",
    "ERROR_COMPUTE",
    "ERROR_OVERSIZED",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "Query",
    "QUERY_SCHEMA",
    "RESPONSE_SCHEMA",
    "control_payload",
    "decode_query",
    "encode_line",
    "error_payload",
    "response_payload",
]

QUERY_SCHEMA = "repro.serve/query/v1"
RESPONSE_SCHEMA = "repro.serve/response/v1"

#: Hard cap on one request line; a connection exceeding it without a
#: newline gets an ``oversized`` error and is closed (the only
#: connection-fatal protocol error).
MAX_LINE_BYTES = 4 * 1024 * 1024

ERROR_BAD_JSON = "bad-json"
ERROR_BAD_VERSION = "unsupported-schema"
ERROR_BAD_REQUEST = "bad-request"
ERROR_OVERSIZED = "oversized"
ERROR_COMPUTE = "compute-error"


class ProtocolError(ReproError):
    """A request line that cannot become a :class:`Query`.

    ``code`` is the stable error vocabulary above; it lands verbatim in
    the error response so clients can switch on it.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Query:
    """One decoded request line.

    ``op`` is ``"query"`` (the payload fields are set), ``"ping"`` or
    ``"shutdown"`` (control ops; payload fields are ``None``).
    """

    op: str
    qid: Any = None
    net: FlowNetwork | None = None
    demand: FlowDemand | None = None
    spec: SweepSpec | None = None
    method: str | None = None


def _require_mapping(data: Any) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ProtocolError(ERROR_BAD_REQUEST, "request must be a JSON object")
    return data


def _decode_axis(data: Mapping[str, Any]) -> SweepSpec:
    axes = [k for k in ("availability", "failure_scale", "overrides") if k in data]
    if len(axes) > 1:
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"at most one probability axis allowed, got {axes}"
        )
    try:
        if "availability" in data:
            raw = data["availability"]
            values = raw if isinstance(raw, list) else [raw]
            return SweepSpec.availability([float(v) for v in values])
        if "failure_scale" in data:
            raw = data["failure_scale"]
            values = raw if isinstance(raw, list) else [raw]
            return SweepSpec.failure_scale([float(v) for v in values])
        if "overrides" in data:
            raw = data["overrides"]
            maps = raw if isinstance(raw, list) else [raw]
            points = []
            for entry in maps:
                entry = _require_mapping(entry)
                points.append({int(k): float(v) for k, v in entry.items()})
            return SweepSpec.overrides(points)
        # No axis: one point at the network's own failure probabilities.
        return SweepSpec.overrides([{}])
    except ProtocolError:
        raise
    except (ReproError, TypeError, ValueError) as exc:
        raise ProtocolError(ERROR_BAD_REQUEST, f"bad probability axis: {exc}") from exc


def decode_query(line: bytes) -> Query:
    """Parse one request line into a :class:`Query`.

    Raises :class:`ProtocolError` with the appropriate error code on
    every malformed input; never raises anything else for untrusted
    bytes.
    """
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(ERROR_BAD_JSON, f"request is not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(ERROR_BAD_JSON, f"request is not JSON: {exc}") from exc
    data = _require_mapping(data)
    schema = data.get("schema")
    if schema != QUERY_SCHEMA:
        raise ProtocolError(
            ERROR_BAD_VERSION,
            f"unsupported schema {schema!r}; this daemon speaks {QUERY_SCHEMA}",
        )
    qid = data.get("id")
    op = data.get("op", "query")
    if op in ("ping", "shutdown"):
        return Query(op=op, qid=qid)
    if op != "query":
        raise ProtocolError(ERROR_BAD_REQUEST, f"unknown op {op!r}")
    if "network" not in data:
        raise ProtocolError(ERROR_BAD_REQUEST, "query is missing 'network'")
    try:
        net = from_dict(_require_mapping(data["network"]))
    except ProtocolError:
        raise
    except (ReproError, TypeError, KeyError, ValueError) as exc:
        raise ProtocolError(ERROR_BAD_REQUEST, f"bad network: {exc}") from exc
    missing = [k for k in ("source", "sink", "rate") if k not in data]
    if missing:
        raise ProtocolError(ERROR_BAD_REQUEST, f"query is missing {missing}")
    try:
        demand = FlowDemand(data["source"], data["sink"], int(data["rate"]))
        demand.validate_against(net)
    except (ReproError, TypeError, ValueError) as exc:
        raise ProtocolError(ERROR_BAD_REQUEST, f"bad demand: {exc}") from exc
    method = data.get("method")
    if method is not None and method not in available_methods():
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"unknown method {method!r}; available: {available_methods()}",
        )
    spec = _decode_axis(data)
    return Query(op="query", qid=qid, net=net, demand=demand, spec=spec, method=method)


def _axis_label(spec: SweepSpec, index: int) -> Any:
    value = spec.values[index]
    if spec.kind == "overrides":
        return {str(k): v for k, v in value.items()}
    return value


def response_payload(
    query: Query,
    values: list[float],
    *,
    flow_calls: int,
    warm: bool,
    batch_queries: int,
    batch_points: int,
    method: str,
) -> dict[str, Any]:
    """The success response for one answered query.

    ``warm`` says the answering plan missed no array-cache column.
    """
    spec = query.spec
    assert spec is not None
    points = [
        {"x": _axis_label(spec, i), "reliability": value}
        for i, value in enumerate(values)
    ]
    return {
        "schema": RESPONSE_SCHEMA,
        "id": query.qid,
        "ok": True,
        "kind": spec.kind,
        "method": method,
        "points": points,
        "flow_calls": int(flow_calls),
        "warm": bool(warm),
        "batch": {"queries": int(batch_queries), "points": int(batch_points)},
    }


def control_payload(op: str, qid: Any = None) -> dict[str, Any]:
    """The acknowledgement for a ``ping`` / ``shutdown`` op."""
    return {"schema": RESPONSE_SCHEMA, "id": qid, "ok": True, "op": op}


def error_payload(code: str, message: str, qid: Any = None) -> dict[str, Any]:
    """The error response for one failed line."""
    return {
        "schema": RESPONSE_SCHEMA,
        "id": qid,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """Canonical one-line encoding: sorted keys, compact separators.

    Canonicalisation is what makes "byte-identical responses for
    identical queries" a testable invariant rather than a dict-order
    accident.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        + b"\n"
    )
