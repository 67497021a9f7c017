"""Shared plumbing for the serve end-to-end tests.

No pytest-asyncio here: every test drives its own event loop through
``run()`` (an ``asyncio.run`` with a global deadline so a hung server
fails the test instead of wedging the suite).  Servers run in thread
mode — the simulator is pure, so thread workers are exact and cost no
fork/spawn — and tests that need deterministic concurrency use
:class:`GatedDispatcher`, which parks every execution on an
:class:`asyncio.Event` until the test has observed the queue shape it
wants.
"""

import asyncio
import collections
import json
import socket
import time

from repro.serve.dispatch import Dispatcher

#: Global per-test deadline: generous on CI, instant death on hangs.
DEADLINE_S = 30.0


def run(coroutine):
    """``asyncio.run`` with the suite's hang guard."""
    async def guarded():
        return await asyncio.wait_for(coroutine, DEADLINE_S)
    return asyncio.run(guarded())


class GatedDispatcher(Dispatcher):
    """A thread-mode dispatcher that parks executions on a gate.

    ``calls`` counts executions *started* (leaders that reached the
    pool), which together with the gate lets a test freeze the moment
    one flight is open, assert on queue state, then release.
    """

    def __init__(self, workers=2, timeout_s=None):
        super().__init__(workers=workers, timeout_s=timeout_s,
                         mode="thread")
        self.gate = asyncio.Event()
        self.calls = 0

    async def execute(self, payload, spans=False):
        self.calls += 1
        await self.gate.wait()
        return await super().execute(payload, spans=spans)


def make_server(socket_path, **overrides):
    """A cacheless thread-mode server, unless ``overrides`` say more."""
    from repro.serve.server import SweepServer
    overrides.setdefault("cache", None)
    overrides.setdefault("dispatcher", Dispatcher(workers=2, mode="thread"))
    return SweepServer(socket_path=socket_path, **overrides)


async def serving(server, scenario):
    """Start ``server``, run ``scenario()``, always stop cleanly."""
    await server.start()
    try:
        return await scenario()
    finally:
        await server.stop(drain_timeout_s=2.0)


async def connect(socket_path):
    return await asyncio.open_unix_connection(socket_path)


async def request(reader, writer, payload):
    """One request/response round-trip on an open connection."""
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


async def one_shot(socket_path, payload):
    """Connect, ask once, disconnect."""
    reader, writer = await connect(socket_path)
    try:
        return await request(reader, writer, payload)
    finally:
        writer.close()


def raw_request(socket_path, payload, results, index):
    """Blocking AF_UNIX round-trip — the thread-client side of the
    mixed threads+asyncio single-flight test."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.connect(socket_path)
        sock.sendall((json.dumps(payload) + "\n").encode())
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
        results[index] = json.loads(buffer)
    finally:
        sock.close()


async def eventually(predicate, timeout_s=10.0, poll_s=0.005):
    """Await ``predicate()`` turning truthy; False on timeout."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(poll_s)
    return True


def cold_source_spec(tag):
    """A source-form job spec whose content hash is unique per tag."""
    return {"source": "(define (main) (+ 40 %d))" % tag,
            "processors": 1}


def job_line(request_id, spec):
    """One ``job`` request as its wire bytes."""
    return (json.dumps({"op": "job", "id": request_id, "job": spec})
            + "\n").encode()


def accounted_jobs(server):
    """The right-hand side of the service's conservation law: every
    admitted job request was answered from a cache, answered by a
    flight (as its leader or a follower), rejected, refused for its
    spec, or abandoned by a disconnecting client — and nothing else.
    Read off the existing counters and the trace store (so only for
    tests small enough that no trace ring has wrapped)::

        jobs == accounted_jobs(server)
    """
    counts = server.metrics.counts
    traces = collections.Counter(
        trace.served if trace.status in ("ok", "failed") else trace.status
        for trace in server.traces.completed())
    return (counts["hit_hot"] + counts["hit_disk"]
            + traces["executed"] + traces["deduped"]
            + counts["rejected_draining"] + counts["rejected_ratelimit"]
            + counts["rejected_overload"]
            + traces["error"] + traces["cancelled"])


def spin(seconds):
    """A ``call`` job that outlives any timeout under test, in slices
    short enough for a worker's ``SIGALRM`` to land between them."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        time.sleep(0.01)
    return seconds
