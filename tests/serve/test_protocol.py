"""Wire-protocol unit tests: decode paths, error vocabulary, canonical
encoding."""

import json

import pytest

from repro.core.api import REMOVED_METHODS, REMOVED_POINTER
from repro.graph.builders import fujita_fig4
from repro.graph.io import to_dict
from repro.serve.protocol import (
    ERROR_BAD_JSON,
    ERROR_BAD_REQUEST,
    ERROR_BAD_VERSION,
    QUERY_SCHEMA,
    RESPONSE_SCHEMA,
    ProtocolError,
    decode_query,
    encode_line,
    error_payload,
    response_payload,
)


def _query_payload(**extra):
    payload = {
        "schema": QUERY_SCHEMA,
        "op": "query",
        "network": to_dict(fujita_fig4()),
        "source": "s",
        "sink": "t",
        "rate": 2,
    }
    payload.update(extra)
    return payload


def _encode(payload):
    return json.dumps(payload).encode("utf-8")


class TestDecodeQuery:
    def test_minimal_query_decodes(self):
        query = decode_query(_encode(_query_payload(id=7)))
        assert query.op == "query"
        assert query.qid == 7
        assert query.demand.rate == 2
        # No axis: one point at the network's own probabilities.
        assert query.spec.kind == "overrides"
        assert len(query.spec) == 1

    def test_availability_scalar_and_list(self):
        scalar = decode_query(_encode(_query_payload(availability=0.9)))
        assert scalar.spec.kind == "availability"
        assert len(scalar.spec) == 1
        grid = decode_query(_encode(_query_payload(availability=[0.9, 0.95])))
        assert len(grid.spec) == 2

    def test_overrides_keys_are_link_indices(self):
        query = decode_query(_encode(_query_payload(overrides={"0": 0.5})))
        assert query.spec.kind == "overrides"
        assert query.spec.values[0] == {0: 0.5}

    def test_ping_and_shutdown_skip_payload_validation(self):
        for op in ("ping", "shutdown"):
            query = decode_query(_encode({"schema": QUERY_SCHEMA, "op": op}))
            assert query.op == op
            assert query.net is None


class TestDecodeErrors:
    def _code(self, raw: bytes) -> str:
        with pytest.raises(ProtocolError) as excinfo:
            decode_query(raw)
        return excinfo.value.code

    def test_not_utf8(self):
        assert self._code(b"\xff\xfe{}") == ERROR_BAD_JSON

    def test_not_json(self):
        assert self._code(b"{truncated") == ERROR_BAD_JSON

    def test_not_an_object(self):
        assert self._code(b"[1, 2]") == ERROR_BAD_REQUEST

    def test_unknown_schema_version(self):
        payload = _query_payload()
        payload["schema"] = "repro.serve/query/v999"
        assert self._code(_encode(payload)) == ERROR_BAD_VERSION

    def test_missing_schema(self):
        payload = _query_payload()
        del payload["schema"]
        assert self._code(_encode(payload)) == ERROR_BAD_VERSION

    def test_unknown_op(self):
        assert (
            self._code(_encode({"schema": QUERY_SCHEMA, "op": "explode"}))
            == ERROR_BAD_REQUEST
        )

    def test_missing_network(self):
        payload = _query_payload()
        del payload["network"]
        assert self._code(_encode(payload)) == ERROR_BAD_REQUEST

    def test_missing_demand_fields(self):
        payload = _query_payload()
        del payload["rate"]
        assert self._code(_encode(payload)) == ERROR_BAD_REQUEST

    def test_unknown_terminal(self):
        assert self._code(_encode(_query_payload(source="nope"))) == ERROR_BAD_REQUEST

    def test_unknown_method(self):
        assert (
            self._code(_encode(_query_payload(method="quantum")))
            == ERROR_BAD_REQUEST
        )

    @pytest.mark.parametrize("method", sorted(REMOVED_METHODS))
    def test_removed_method_points_at_its_table(self, method):
        with pytest.raises(ProtocolError) as excinfo:
            decode_query(_encode(_query_payload(method=method)))
        assert excinfo.value.code == ERROR_BAD_REQUEST
        message = str(excinfo.value)
        assert f"method {method!r} was removed" in message
        assert REMOVED_METHODS[method] in message
        assert REMOVED_POINTER in message
        assert "unknown method" not in message

    def test_unhashable_method_is_a_bad_request(self):
        assert self._code(_encode(_query_payload(method=["auto"]))) == ERROR_BAD_REQUEST

    def test_two_axes_rejected(self):
        payload = _query_payload(availability=[0.9], failure_scale=[1.0])
        assert self._code(_encode(payload)) == ERROR_BAD_REQUEST

    def test_bad_axis_values(self):
        assert (
            self._code(_encode(_query_payload(availability="high")))
            == ERROR_BAD_REQUEST
        )


class TestEncoding:
    def test_encode_line_is_canonical(self):
        a = encode_line({"b": 1, "a": 2})
        b = encode_line({"a": 2, "b": 1})
        assert a == b == b'{"a":2,"b":1}\n'

    def test_response_payload_shape(self):
        query = decode_query(_encode(_query_payload(id=3, availability=[0.9, 0.95])))
        payload = response_payload(
            query, [0.5, 0.6], flow_calls=0, warm=True, batch_queries=4, batch_points=8,
            method="bottleneck",
        )
        assert payload["schema"] == RESPONSE_SCHEMA
        assert payload["id"] == 3
        assert payload["warm"] is True
        assert payload["points"] == [
            {"x": 0.9, "reliability": 0.5},
            {"x": 0.95, "reliability": 0.6},
        ]
        assert payload["batch"] == {"queries": 4, "points": 8}

    def test_cold_response_is_not_warm(self):
        query = decode_query(_encode(_query_payload()))
        payload = response_payload(
            query, [0.5], flow_calls=0, warm=False, batch_queries=1, batch_points=1,
            method="bottleneck",
        )
        # A certificate-built cold answer spends no solve and is still cold.
        assert payload["warm"] is False

    def test_error_payload_carries_code(self):
        payload = error_payload(ERROR_BAD_REQUEST, "nope", qid=9)
        assert payload["ok"] is False
        assert payload["id"] == 9
        assert payload["error"]["code"] == ERROR_BAD_REQUEST
