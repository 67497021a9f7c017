"""The NDJSON serve wire protocol: parsing, validation, shapes."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ServeRequestError
from repro.serve import protocol

# Whatever JSON a client may send as its ``id`` is echoed verbatim —
# including text that looks like the envelope the splice cuts at.
_tricky_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"result":', ',"result":null}', '"served":"hit"',
                     'a"b', "back\\slash", "\\\"",
                     "caf\u00e9 \u2603 \U0001f600",
                     "null}", "\n", "result", "served"]))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False),
              _tricky_text),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_tricky_text, children, max_size=4)),
    max_leaves=12)
_results = st.dictionaries(_tricky_text, _json, max_size=6).map(
    lambda extra: dict(extra, status="ok"))
_hashes = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)


class TestParseRequest:
    def test_bytes_line(self):
        request = protocol.parse_request(b'{"op": "ping", "id": 3}\n')
        assert request == {"op": "ping", "id": 3}

    def test_text_line(self):
        assert protocol.parse_request('{"op": "metrics"}') == {
            "op": "metrics"}

    def test_op_defaults_to_job(self):
        request = protocol.parse_request('{"job": {"program": "fib"}}')
        assert request.get("op", "job") == "job"

    def test_not_utf8(self):
        with pytest.raises(ServeRequestError) as err:
            protocol.parse_request(b"\xff\xfe{}")
        assert err.value.kind == "bad-json"

    def test_not_json(self):
        with pytest.raises(ServeRequestError) as err:
            protocol.parse_request("{nope")
        assert err.value.kind == "bad-json"

    def test_not_an_object(self):
        with pytest.raises(ServeRequestError) as err:
            protocol.parse_request("[1, 2]")
        assert err.value.kind == "bad-request"

    def test_unknown_op(self):
        with pytest.raises(ServeRequestError) as err:
            protocol.parse_request('{"op": "launch-missiles"}')
        assert err.value.kind == "bad-request"


class TestJobFromSpec:
    def test_named_workload_form(self):
        job = protocol.job_from_spec({
            "program": "fib", "system": "APRIL", "processors": 2,
            "args": [8]})
        assert job.config.num_processors == 2
        assert job.args == (8,)

    def test_source_form(self):
        job = protocol.job_from_spec({
            "source": "(define (main) 42)", "processors": 1})
        assert job.source == "(define (main) 42)"

    def test_spec_must_be_object(self):
        with pytest.raises(ServeRequestError) as err:
            protocol.job_from_spec("fib")
        assert err.value.kind == "bad-job"

    def test_needs_program_or_source(self):
        with pytest.raises(ServeRequestError) as err:
            protocol.job_from_spec({"args": [1]})
        assert err.value.kind == "bad-job"

    def test_unknown_program(self):
        with pytest.raises(ServeRequestError) as err:
            protocol.job_from_spec({"program": "doom"})
        assert err.value.kind == "bad-job"

    def test_unknown_source_key(self):
        with pytest.raises(ServeRequestError) as err:
            protocol.job_from_spec({"source": "(define (main) 1)",
                                    "procesors": 2})
        assert "procesors" in str(err.value)

    def test_empty_source(self):
        with pytest.raises(ServeRequestError):
            protocol.job_from_spec({"source": "   "})

    def test_bad_mode(self):
        with pytest.raises(ServeRequestError):
            protocol.job_from_spec({"source": "(define (main) 1)",
                                    "mode": "yolo"})

    def test_bad_args(self):
        with pytest.raises(ServeRequestError):
            protocol.job_from_spec({"source": "(define (main) 1)",
                                    "args": ["eight"]})

    def test_bad_processors(self):
        for bad in (0, -1, "two"):
            with pytest.raises(ServeRequestError):
                protocol.job_from_spec({"source": "(define (main) 1)",
                                        "processors": bad})

    def test_bad_config(self):
        with pytest.raises(ServeRequestError):
            protocol.job_from_spec({"source": "(define (main) 1)",
                                    "config": [1]})


class TestCompileJob:
    def test_triple(self):
        job = protocol.job_from_spec({"source": "(define (main) 42)"})
        content_hash, payload, cacheable = protocol.compile_job(job)
        assert len(content_hash) == 64
        assert payload["kind"] == "mult"
        assert cacheable is True

    def test_same_spec_same_hash(self):
        spec = {"program": "fib", "processors": 1, "args": [6]}
        first = protocol.compile_job(protocol.job_from_spec(spec))
        second = protocol.compile_job(protocol.job_from_spec(spec))
        assert first[0] == second[0]

    def test_compile_error_is_typed(self):
        job = protocol.job_from_spec({"source": "(define (main) (((("})
        with pytest.raises(ServeRequestError) as err:
            protocol.compile_job(job)
        assert err.value.kind == "bad-job"


class TestResponses:
    def test_encode_is_one_json_line(self):
        data = protocol.encode({"id": 1, "status": "ok"})
        assert data.endswith(b"\n")
        assert json.loads(data) == {"id": 1, "status": "ok"}

    def test_ok_response(self):
        response = protocol.ok_response(9, "h" * 64, {"status": "ok"},
                                        served="hit")
        assert response == {"id": 9, "status": "ok", "hash": "h" * 64,
                            "served": "hit", "result": {"status": "ok"}}

    def test_failed_response_carries_kind(self):
        response = protocol.failed_response(
            1, "h", {"status": "failed", "kind": "timeout",
                     "message": "too slow", "context": {"at": 5}},
            served="executed")
        assert response["status"] == "failed"
        assert response["kind"] == "timeout"
        assert response["context"] == {"at": 5}

    def test_rejected_response(self):
        response = protocol.rejected_response(2, "overloaded", "full")
        assert response["status"] == "rejected"
        assert response["kind"] == "overloaded"

    def test_error_response_reads_exception_kind(self):
        exc = ServeRequestError("nope", kind="bad-job")
        response = protocol.error_response(None, exc)
        assert response == {"id": None, "status": "error",
                            "kind": "bad-job", "message": "nope"}


class TestEncodeOk:
    """The spliced ``ok`` line is ``encode``'s line, byte for byte."""

    @given(request_id=_json, content_hash=_hashes, result=_results,
           served=st.sampled_from(["hit", "executed", "deduped"]),
           latency_us=st.integers(min_value=0, max_value=10 ** 9),
           trace=st.one_of(st.none(), st.integers(min_value=1)))
    def test_equals_encode_of_the_whole_response(
            self, request_id, content_hash, result, served, latency_us,
            trace):
        whole = protocol.ok_response(request_id, content_hash, result,
                                     served)
        envelope = protocol.ok_response(request_id, content_hash, None,
                                        served)
        # The server adds these two after the ladder, trace id first.
        for response in (whole, envelope):
            if trace is not None:
                response["trace"] = trace
            response["latency_us"] = latency_us
        line = protocol.encode_ok(envelope, protocol.encode_result(result))
        assert line == protocol.encode(whole)
        assert json.loads(line) == whole

    def test_bare_envelope(self):
        # No latency, no trace: head and tail are at their smallest.
        line = protocol.encode_ok(
            protocol.ok_response(None, "h", None, "hit"),
            protocol.encode_result({"status": "ok", "value": 1}))
        assert line == (b'{"hash":"h","id":null,"result":{"status":"ok",'
                        b'"value":1},"served":"hit","status":"ok"}\n')

    def test_encode_result_is_the_canonical_form(self):
        result = {"status": "ok", "b": [1, 2.5, "caf\u00e9"], "a": {"z": 0}}
        assert protocol.encode_result(result) == protocol.encode(
            result)[:-1]
