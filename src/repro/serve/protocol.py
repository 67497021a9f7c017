"""The serve wire protocol: newline-delimited JSON, one object per line.

Requests
--------

Every request is a single JSON object on one line.  ``op`` selects the
request type (default ``"job"``); ``id`` is an arbitrary client token
echoed verbatim on the response so pipelined requests can be matched
out of order::

    {"op": "job", "id": 7, "job": {"program": "fib", "system": "APRIL",
                                   "processors": 2, "args": [8]}}
    {"op": "job", "id": 8, "job": {"source": "(define (main) 42)"}}
    {"op": "metrics", "id": 9}
    {"op": "ping"}
    {"op": "trace", "id": 10, "last": 5}
    {"op": "trace", "id": 11, "trace_id": 42}
    {"op": "trace", "id": 12, "slowest": 3}

The ``trace`` op reads the request flight recorder
(:mod:`repro.serve.trace`): ``last`` N completed traces (default 10),
``slowest`` K by service latency, or one exact trace by ``trace_id``
(the ``trace`` field every job response carries).  The response always
includes the in-flight table and the recorder's counters; pulling a
completed trace twice yields byte-identical JSON.

Job specs come in two forms of one vocabulary, :mod:`repro.exp.spec`,
which holds every check on them.  The **named-workload form** (key
``program``) is one cell of a sweep grid — program, system row,
variant, processor count, args, config overrides — and becomes a job
through :func:`~repro.exp.spec.cell_to_job`, the path every ``april
sweep`` grid point takes.  The **source form** (key ``source``)
carries inline Mul-T source plus compile/run knobs and becomes a job
through :func:`~repro.exp.spec.source_to_job`.  This module only picks
the form (:func:`job_from_spec`) and turns the spec module's
:class:`~repro.errors.SweepSpecError` into a ``bad-job`` error.

Responses
---------

One JSON object per line, always carrying the echoed ``id`` and a
``status``:

* ``"ok"`` — the job finished; ``result`` is the full worker payload,
  ``hash`` the content hash, ``served`` how it was satisfied
  (``"hit"`` from cache, ``"executed"`` as the single-flight leader,
  ``"deduped"`` as a follower of a concurrent identical request).
* ``"failed"`` — the job ran and failed; ``kind``/``message`` carry
  the typed worker failure (same vocabulary as sweep cells).
* ``"rejected"`` — admission control said no *before* running
  anything: ``kind`` is ``"overloaded"`` (queue full),
  ``"rate-limited"`` (token bucket empty), or ``"draining"``
  (SIGTERM received).  The 429 of this protocol: clients should back
  off and retry.
* ``"error"`` — the request itself was malformed (bad JSON, unknown
  op, invalid job spec); ``kind``/``message`` say why.

How a line is assembled
-----------------------

:func:`encode` defines the wire form: the response as canonical JSON
(keys sorted, no spaces, ASCII) plus a newline.  Every response is
built as a dict and passed through it — except the one that matters
for throughput.  An ``ok`` job response is a ~100-byte envelope around
a 2–16 KB ``result``, and the same result is sent again on every hit,
so the server serialises a result once (:func:`encode_result`, when it
is executed; a disk hit brings the bytes the cache stored) and
:func:`encode_ok` writes the line as *encoded keys before
``"result"``* + *those bytes* + *encoded keys after it*.
Because canonical JSON sorts keys, that concatenation is exactly what
:func:`encode` would have produced from the whole dict; the tests hold
the two equal byte for byte.
"""

import asyncio
import json

from repro.errors import (
    ReproError, ServeError, ServeRequestError, SweepSpecError,
)
from repro.exp.job import canonical_json
from repro.exp.spec import cell_to_job, source_to_job

#: Protocol tag echoed by ``ping`` and ``metrics`` responses.
PROTOCOL = "april-serve/1"

#: Longest accepted request line, its newline not counted; a longer one
#: gets a typed ``error`` and the connection is closed.
MAX_LINE_BYTES = 1 << 20

#: Request types the server understands.
OPS = ("job", "metrics", "ping", "trace")


def parse_request(line):
    """One wire line -> request dict; raises :class:`ServeRequestError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServeRequestError("request is not UTF-8: %s" % exc,
                                    kind="bad-json")
    try:
        request = json.loads(line)
    except ValueError as exc:
        raise ServeRequestError("request is not valid JSON: %s" % exc,
                                kind="bad-json")
    if not isinstance(request, dict):
        raise ServeRequestError("request must be a JSON object",
                                kind="bad-request")
    op = request.get("op", "job")
    if op not in OPS:
        raise ServeRequestError(
            "unknown op %r (have: %s)" % (op, ", ".join(OPS)),
            kind="bad-request")
    return request


def job_from_spec(spec):
    """A checked :class:`~repro.exp.job.Job` from a wire job spec: the
    named-workload form if it has ``program``, else the source form.
    Every problem :mod:`repro.exp.spec` finds becomes a
    :class:`ServeRequestError` (kind ``"bad-job"``) so the server can
    answer with a typed error and move on.
    """
    try:
        if isinstance(spec, dict) and "program" in spec:
            return cell_to_job(spec)
        return source_to_job(spec)
    except SweepSpecError as exc:
        raise ServeRequestError(str(exc), kind="bad-job") from None


def compile_job(job):
    """The ``(content_hash, worker_payload, cacheable)`` triple for a
    job, compiling its source; compile problems become typed
    bad-job errors rather than server crashes."""
    try:
        return job.content_hash(), job.payload(), job.cacheable
    except ReproError as exc:
        raise ServeRequestError(
            "job does not compile: %s" % exc, kind="bad-job")


def encode(response):
    """One response dict as a canonical wire line (bytes)."""
    return (canonical_json(response) + "\n").encode("utf-8")


def encode_result(result):
    """An ``ok`` result payload as canonical JSON bytes: the form the
    server's hot LRU holds, :func:`encode_ok` splices into a line, and
    the disk cache stores."""
    return canonical_json(result).encode("utf-8")


def encode_ok(response, result):
    """``encode(response)`` for an :func:`ok_response` whose result is
    the :func:`encode_result` bytes ``result`` — without decoding or
    re-encoding them.

    Canonical JSON sorts an object's keys, so the line is the encoding
    of the keys before ``"result"`` (``hash``, ``id``, ``latency_us``),
    the result, and the encoding of the keys after it (``served``,
    ``status``, ``trace``).  Both halves come from
    :func:`~repro.exp.job.canonical_json`; the head is encoded with a
    ``null`` result whose place the bytes take.
    """
    head = {key: value for key, value in response.items() if key < "result"}
    head["result"] = None
    tail = {key: value for key, value in response.items() if key > "result"}
    return b"".join((
        canonical_json(head)[:-len("null}")].encode("utf-8"), result,
        b",", canonical_json(tail)[1:].encode("utf-8"), b"\n"))


# -- endpoints -------------------------------------------------------------


def parse_tcp(text):
    """A ``--tcp HOST:PORT`` value as ``(host, port)``; the host may
    be empty (the listener's or the opener's default)."""
    host, _, port_text = text.rpartition(":")
    try:
        return host, int(port_text)
    except ValueError:
        raise ServeError("--tcp wants HOST:PORT, got %r" % text) from None


async def open_connection(socket_path=None, host=None, port=None):
    """``(reader, writer)`` to a server: its unix socket if
    ``socket_path`` is given, else TCP (host 127.0.0.1 by default)."""
    if socket_path:
        return await asyncio.open_unix_connection(socket_path)
    return await asyncio.open_connection(host or "127.0.0.1", port)


# -- response shapes -------------------------------------------------------


def ok_response(request_id, content_hash, result, served):
    """An ``ok`` job response.  The server passes ``result=None`` and
    carries the encoded result beside the envelope (:func:`encode_ok`).
    """
    return {"id": request_id, "status": "ok", "hash": content_hash,
            "served": served, "result": result}


def failed_response(request_id, content_hash, result, served):
    response = {"id": request_id, "status": "failed",
                "hash": content_hash, "served": served,
                "kind": result.get("kind", "exception"),
                "message": result.get("message", "")}
    if result.get("context"):
        response["context"] = result["context"]
    return response


def rejected_response(request_id, kind, message):
    return {"id": request_id, "status": "rejected", "kind": kind,
            "message": message}


def error_response(request_id, exc):
    kind = getattr(exc, "kind", "bad-request")
    return {"id": request_id, "status": "error", "kind": kind,
            "message": str(exc)}
