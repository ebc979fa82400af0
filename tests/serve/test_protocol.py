"""Unit tests for the line-delimited JSON wire protocol."""

import base64

import pytest

from repro.errors import ServeError
from repro.serve.protocol import (
    decode_message,
    elements_from_request,
    elements_to_records,
    encode_message,
    error_response,
    payload_fields,
    records_to_elements,
    result_response,
)
from repro.types import deletion, insertion, timed_insertion


class TestMessageFraming:
    def test_round_trip(self):
        message = {"id": 7, "op": "ingest", "elements": [["+", 1, 2]]}
        assert decode_message(encode_message(message)) == message

    def test_encoded_lines_are_newline_terminated(self):
        line = encode_message({"op": "ping"})
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]

    def test_malformed_json_raises(self):
        with pytest.raises(ServeError, match="malformed"):
            decode_message(b"{nope\n")

    def test_non_object_raises(self):
        with pytest.raises(ServeError, match="JSON objects"):
            decode_message(b"[1, 2, 3]\n")


class TestElementRecords:
    ELEMENTS = [
        insertion("alice", "matrix"),
        deletion(3, 7),
        timed_insertion("bob", "dune", 1.5),
    ]

    def test_round_trip(self):
        records = elements_to_records(self.ELEMENTS)
        assert records_to_elements(records) == self.ELEMENTS

    def test_timed_edges_keep_their_type(self):
        (element,) = records_to_elements([["+", "u", "v", 9.0]])
        assert type(element).__name__ == "TimedEdge"
        assert element.time == 9.0

    def test_non_list_body_raises(self):
        with pytest.raises(ServeError, match="list of records"):
            records_to_elements({"u": 1})

    def test_malformed_record_raises(self):
        with pytest.raises(ServeError, match="record"):
            records_to_elements([["+", "u"]])

    def test_bad_op_symbol_raises(self):
        with pytest.raises(ServeError):
            records_to_elements([["x", "u", "v"]])

    def test_non_numeric_timestamp_raises_serve_error(self):
        # float(None) is a TypeError; the record layer must surface
        # the documented ValueError so this wraps as ServeError.
        with pytest.raises(ServeError, match="timestamp"):
            records_to_elements([["+", "u", "v", None]])
        with pytest.raises(ServeError, match="timestamp"):
            records_to_elements([["+", "u", "v", "soon"]])


class TestPackedBatches:
    ELEMENTS = [insertion("alice", "matrix"), deletion(3, 7)]

    def test_round_trip_through_a_request(self):
        request = {"op": "ingest", **payload_fields(self.ELEMENTS)}
        assert elements_from_request(request) == self.ELEMENTS

    def test_a_request_without_payload_reads_its_records(self):
        request = {"elements": elements_to_records(self.ELEMENTS)}
        assert elements_from_request(request) == self.ELEMENTS

    def test_both_encodings_in_one_request_are_refused(self):
        request = {
            "elements": elements_to_records(self.ELEMENTS),
            **payload_fields(self.ELEMENTS),
        }
        with pytest.raises(ServeError, match="exactly one"):
            elements_from_request(request)

    @pytest.mark.parametrize("codec_id", (None, 1, 3, "2"))
    def test_an_unsupported_codec_is_refused(self, codec_id):
        fields = payload_fields(self.ELEMENTS)
        request = {"codec": codec_id, "payload": fields["payload"]}
        with pytest.raises(ServeError, match="unsupported batch codec"):
            elements_from_request(request)

    @pytest.mark.parametrize("payload", (None, 42, b"AAAA", ["AAAA"]))
    def test_a_payload_that_is_not_a_string_is_refused(self, payload):
        with pytest.raises(ServeError, match="base64 string"):
            elements_from_request({"codec": 2, "payload": payload})

    @pytest.mark.parametrize("payload", ("not base64!", "AAA", "A==A"))
    def test_a_payload_that_is_not_base64_is_refused(self, payload):
        with pytest.raises(ServeError, match="not valid base64"):
            elements_from_request({"codec": 2, "payload": payload})

    @pytest.mark.parametrize(
        "mangle",
        (
            pytest.param(lambda raw: b"", id="empty"),
            pytest.param(lambda raw: raw[:-3], id="truncated"),
            pytest.param(lambda raw: b"\xff" * len(raw), id="garbage"),
        ),
    )
    def test_a_payload_that_fails_to_decode_is_refused(self, mangle):
        fields = payload_fields(self.ELEMENTS)
        raw = mangle(base64.b64decode(fields["payload"]))
        payload = base64.b64encode(raw).decode("ascii")
        with pytest.raises(ServeError, match="failed to decode"):
            elements_from_request({"codec": 2, "payload": payload})


class TestResponses:
    def test_result_shape(self):
        response = result_response(3, {"estimate": 1.0})
        assert response == {
            "id": 3,
            "ok": True,
            "result": {"estimate": 1.0},
        }

    def test_error_shape(self):
        response = error_response(None, "SpecError", "boom")
        assert response["ok"] is False
        assert response["error"] == {
            "type": "SpecError",
            "message": "boom",
        }
