"""The connection layer: framing, the one read buffer, no task per hit.

``_Connection`` is an :class:`asyncio.BufferedProtocol` that splits
request lines out of one reused bytearray and serves them inside the
read callback.  The wire tests drive it through a real unix socket
(thread-mode server on the client's own event loop, each write
awaited into the server before the next); the property test feeds the
protocol object directly, because only that fixes where the chunk
boundaries fall.
"""

import asyncio
import json
import re
import socket
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.serve import protocol, server as server_module
from repro.serve.dispatch import Dispatcher
from repro.serve.server import READ_BUFFER, SweepServer, _Connection

from tests.serve import harness


def padded_job_line(request_id, spec, size):
    """A valid job line of ``size`` bytes before its newline."""
    line = harness.job_line(request_id, spec)[:-1]
    assert len(line) <= size
    return line + b" " * (size - len(line)) + b"\n"


def conversation(socket_path, writes, expect):
    """Prime ``SPEC`` hot, then send ``writes`` on a fresh connection,
    each one read by the server before the next is written, and read
    ``expect`` response lines.  Returns ``(lines, reads, server)``
    with ``reads`` the size of every server read."""

    async def scenario():
        server = harness.make_server(socket_path)

        async def client():
            await harness.one_shot(
                socket_path, {"op": "job", "id": "prime", "job": SPEC})
            reader, writer = await harness.connect(socket_path)
            await harness.request(reader, writer, {"op": "ping"})
            conn, = server._connections
            reads = []
            updated = conn.buffer_updated
            conn.buffer_updated = lambda n: (reads.append(n), updated(n))
            sent = 0
            for data in writes:
                writer.write(data)
                sent += len(data)
                while sum(reads) < sent:        # the server has it all
                    await asyncio.sleep(0)
            lines = [await reader.readline() for _ in range(expect)]
            writer.close()
            return lines, reads, server

        return await harness.serving(server, client)

    return harness.run(scenario())


SPEC = harness.cold_source_spec(60)


class TestFraming:
    def test_one_byte_at_a_time(self, tmp_path):
        line = harness.job_line(7, SPEC)
        lines, reads, server = conversation(
            str(tmp_path / "s"), [bytes([byte]) for byte in line], 1)
        response = json.loads(lines[0])
        assert (response["id"], response["served"]) == (7, "hit")
        assert reads == [1] * len(line)
        assert server.metrics.counts["bad_requests"] == 0

    def test_three_requests_in_one_write(self, tmp_path):
        data = b"".join(harness.job_line(index, SPEC) for index in range(3))
        lines, reads, _ = conversation(str(tmp_path / "s"), [data], 3)
        assert [json.loads(line)["id"] for line in lines] == [0, 1, 2]
        assert reads == [len(data)]

    def test_line_longer_than_the_buffer_spills(self, tmp_path):
        long = padded_job_line("long", SPEC, READ_BUFFER + 1)
        longest = padded_job_line("max", SPEC, protocol.MAX_LINE_BYTES)
        lines, reads, server = conversation(
            str(tmp_path / "s"),
            [long, harness.job_line("after", SPEC), longest], 3)
        assert [(json.loads(line)["id"], json.loads(line)["status"])
                for line in lines] == [
            ("long", "ok"), ("after", "ok"), ("max", "ok")]
        assert max(reads) <= READ_BUFFER
        assert server.metrics.counts["bad_requests"] == 0

    def test_one_byte_over_the_limit_is_refused_unparsed(self, tmp_path):
        socket_path = str(tmp_path / "s")
        line = padded_job_line("big", SPEC, protocol.MAX_LINE_BYTES + 1)

        async def scenario():
            server = harness.make_server(socket_path)

            async def client():
                reader, writer = await harness.connect(socket_path)
                writer.write(line + harness.job_line("never", SPEC))
                received = await reader.read()      # to the server's close
                writer.close()
                return received, server

            return await harness.serving(server, client)

        received, server = harness.run(scenario())
        response, = [json.loads(text) for text in received.splitlines()]
        assert response["status"] == "error"
        assert response["id"] is None
        assert "exceeds %d bytes" % protocol.MAX_LINE_BYTES \
            in response["message"]
        counts = server.metrics.counts
        assert counts["bad_requests"] == 1
        assert counts["requests"] == counts["jobs"] == 0
        assert not server._connections

    def test_blank_and_crlf_lines(self, tmp_path):
        data = (b"\n\r\n   \n" + harness.job_line("a", SPEC)[:-1] + b"\r\n"
                + b"\n" + b'{"op":"ping","id":"b"}\r\n')
        lines, _, server = conversation(str(tmp_path / "s"), [data], 2)
        assert [json.loads(line)["id"] for line in lines] == ["a", "b"]
        # ping (set-up), a, b — and the prime: blank lines are not requests.
        assert server.metrics.counts["requests"] == 4
        assert server.metrics.counts["bad_requests"] == 0

    def test_half_sent_line_then_disconnect(self, tmp_path):
        socket_path = str(tmp_path / "s")

        async def scenario():
            server = harness.make_server(socket_path)

            async def client():
                reader, writer = await harness.connect(socket_path)
                await harness.request(reader, writer, {"op": "ping"})
                conn, = server._connections
                writer.write(harness.job_line("half", SPEC)[:-9])
                await writer.drain()
                assert await harness.eventually(lambda: conn._end > 0)
                writer.close()
                assert await harness.eventually(
                    lambda: not server._connections)
                rest = await reader.read()
                return rest, conn, server, server.metrics_snapshot()

            return await harness.serving(server, client)

        rest, conn, server, snapshot = harness.run(scenario())
        assert rest == b""
        assert conn.closed and not conn.tasks
        assert server.traces.inflight == {}
        assert snapshot["connections"]["open"] == 0
        assert snapshot["counters"]["requests"] == 1       # the ping
        assert snapshot["counters"]["jobs"] == 0


class TestAdmissionInOneRead:
    def test_a_burst_in_one_read_cannot_pass_the_queue_limit(self, tmp_path):
        """The lines of one read are served before any of their flight
        tasks runs, so each sees an empty flight table: admission is
        asked again where the flight is joined."""
        socket_path = str(tmp_path / "s")
        same = harness.cold_source_spec(61)

        async def scenario():
            dispatcher = harness.GatedDispatcher()
            server = harness.make_server(socket_path, queue_limit=1,
                                         dispatcher=dispatcher)

            async def client():
                reader, writer = await harness.connect(socket_path)
                writer.write(
                    harness.job_line("lead", same)
                    + harness.job_line("other", harness.cold_source_spec(62))
                    + harness.job_line("follow", same)
                    + harness.job_line("another",
                                       harness.cold_source_spec(63)))
                shed = [json.loads(await reader.readline())
                        for _ in range(2)]
                assert dispatcher.calls == 1 and len(server.flights) == 1
                dispatcher.gate.set()
                landed = [json.loads(await reader.readline())
                          for _ in range(2)]
                writer.close()
                return shed, landed, server

            return await harness.serving(server, client)

        shed, landed, server = harness.run(scenario())
        assert [(r["id"], r["status"], r["kind"]) for r in shed] == [
            ("other", "rejected", "overloaded"),
            ("another", "rejected", "overloaded")]
        assert sorted((r["id"], r["served"]) for r in landed) == [
            ("follow", "deduped"), ("lead", "executed")]
        assert server.metrics.counts["rejected_overload"] == 2
        assert server.metrics.counts["jobs"] == harness.accounted_jobs(server)


# -- any chunking is one stream ---------------------------------------------


class FakeTransport:
    """What ``_Connection`` asks of a transport, with the writes kept."""

    def __init__(self):
        self.written = []
        self.closed = False

    def write(self, data):
        self.written.append(data)

    def close(self):
        self.closed = True


def hot_server():
    """An unstarted server with two results already in its hot LRU."""
    server = SweepServer(socket_path="unused", cache=None,
                         dispatcher=Dispatcher(workers=1, mode="thread"))
    specs = [harness.cold_source_spec(70), harness.cold_source_spec(71)]
    for index, spec in enumerate(specs):
        content_hash, _, _ = server.specs.resolve(spec)
        server.hot.put(content_hash, protocol.encode_result(
            {"status": "ok", "value": 110 + index}))
    return server, specs


def forty_requests(specs):
    """A fixed stream of 40 requests that cannot block — hits on two
    specs, pings, unparsable and invalid lines — with blank lines and
    both line endings mixed in."""
    parts = []
    for index in range(40):
        kind = index % 8
        if kind < 4:
            line = harness.job_line(index, specs[kind % 2])
        elif kind == 4:
            line = b'{"op": "ping", "id": %d}\n' % index
        elif kind == 5:
            line = b'{"id": %d, nope\n' % index
        elif kind == 6:
            line = b'{"op": "job", "id": %d, "job": {"program": "doom"}}\n' \
                % index
        else:
            line = b'{"op": "launch", "id": %d}\n' % index
        if index % 5 == 0:
            line = line[:-1] + b"\r\n"
        if index % 7 == 0:
            line = b"\n" + line
        parts.append(line)
    return b"".join(parts)


def feed(server, chunks):
    """The response lines one fresh connection writes when the loop
    hands it ``chunks`` one read at a time."""
    conn = _Connection(server)
    transport = FakeTransport()
    conn.connection_made(transport)
    for chunk in chunks:
        while chunk:
            view = conn.get_buffer(-1)
            n = min(len(view), len(chunk))
            view[:n] = chunk[:n]
            conn.buffer_updated(n)
            chunk = chunk[n:]
    assert not conn.tasks and not transport.closed
    conn.connection_lost(None)
    return b"".join(transport.written).splitlines(keepends=True)


def timeless(line):
    """A response line without the two members that differ run to run."""
    return re.sub(rb',"(latency_us|trace)":\d+', b"", line)


SERVER, SPECS = hot_server()
STREAM = forty_requests(SPECS)
WHOLE = [timeless(line) for line in feed(SERVER, [STREAM])]


class TestAnySplitIsOneStream:
    def test_the_whole_stream_answers_every_request(self):
        statuses = [json.loads(line)["status"] for line in WHOLE]
        assert len(statuses) == 40
        assert statuses.count("ok") == 25 and statuses.count("error") == 15
        assert [json.loads(line)["id"] for line in WHOLE
                if json.loads(line)["status"] == "ok"] == [
            index for index in range(40) if index % 8 < 5]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, len(STREAM) - 1), max_size=30,
                    unique=True))
    def test_any_split_yields_the_same_lines(self, cuts):
        edges = [0] + sorted(cuts) + [len(STREAM)]
        chunks = [STREAM[a:b] for a, b in zip(edges, edges[1:])]
        assert [timeless(line) for line in feed(SERVER, chunks)] == WHOLE

    def test_every_byte_its_own_read(self):
        chunks = [STREAM[i:i + 1] for i in range(len(STREAM))]
        assert [timeless(line) for line in feed(SERVER, chunks)] == WHOLE


# -- the mechanism -----------------------------------------------------------


class TestConnectionIds:
    def test_each_server_numbers_its_connections_from_one(self):
        # The ids name a connection in traces and Perfetto lanes, so a
        # server's first client is conn 1 whatever ran in the process.
        for _ in range(2):
            server, _ = hot_server()
            assert [_Connection(server).id for _ in range(2)] == [1, 2]


class TestOneBufferPerConnection:
    def test_connection_is_a_buffered_protocol(self):
        assert issubclass(_Connection, asyncio.BufferedProtocol)
        with open(server_module.__file__) as handle:
            source = handle.read()
        for gone in ("start_unix_server", "start_server", "readline",
                     "asyncio.Lock"):
            assert gone not in source

    def test_hot_hits_allocate_no_read_buffer(self, tmp_path):
        """200 hits on one connection: the buffer object is the one
        the connection was made with, and traced memory never rises by
        a read buffer's worth — the stream reader asked ``recv`` for
        256 KiB of fresh bytes per read."""
        socket_path = str(tmp_path / "s")
        line = harness.job_line("hit", SPEC)

        async def scenario():
            server = harness.make_server(socket_path, trace_ring=0)

            async def client():
                loop = asyncio.get_running_loop()
                await harness.one_shot(
                    socket_path, {"op": "job", "id": "prime", "job": SPEC})
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.setblocking(False)

                async def hits(n):
                    for _ in range(n):
                        await loop.sock_sendall(sock, line)
                        reply = b""
                        while not reply.endswith(b"\n"):
                            reply += await loop.sock_recv(sock, 16384)
                        assert b'"served":"hit"' in reply

                try:
                    await loop.sock_connect(sock, socket_path)
                    await hits(50)              # histograms, caches: warm
                    conn, = server._connections
                    buffer = conn.buffer
                    tracemalloc.start()
                    try:
                        before, _ = tracemalloc.get_traced_memory()
                        tracemalloc.reset_peak()
                        await hits(200)
                        _, peak = tracemalloc.get_traced_memory()
                    finally:
                        tracemalloc.stop()
                    return conn.buffer is buffer, len(buffer), peak - before
                finally:
                    sock.close()

            return await harness.serving(server, client)

        same_buffer, size, growth = harness.run(scenario())
        assert same_buffer and size == READ_BUFFER
        assert growth < READ_BUFFER
