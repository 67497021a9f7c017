"""End-to-end ``SweepServer`` tests over a real unix socket.

Every test runs the real asyncio server with a thread-mode dispatcher
(the simulator is pure, so thread workers are exact) and talks the
real NDJSON protocol through a client connection — the ladder, the
guardrails, and the lifecycle are all exercised from the wire in.
"""

import asyncio
import json
import os
import socket

import pytest

from repro.errors import ServeRequestError
from repro.exp.cache import ResultCache
from repro.serve import protocol
from repro.serve.dispatch import Dispatcher
from repro.serve.server import SpecIndex, SweepServer

from tests.serve import harness


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t


def make_server(socket_path, **overrides):
    overrides.setdefault("cache", None)
    overrides.setdefault(
        "dispatcher", Dispatcher(workers=2, mode="thread"))
    return SweepServer(socket_path=socket_path, **overrides)


class TestOps:
    def test_ping(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = make_server(socket_path)
            return await harness.serving(
                server,
                lambda: harness.one_shot(socket_path,
                                         {"op": "ping", "id": "p1"}))

        response = harness.run(scenario())
        assert response["status"] == "ok"
        assert response["id"] == "p1"
        assert response["protocol"] == protocol.PROTOCOL

    def test_metrics_op_reports_counters(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = make_server(socket_path)

            async def client():
                reader, writer = await harness.connect(socket_path)
                await harness.request(
                    reader, writer,
                    {"op": "job", "id": 1,
                     "job": harness.cold_source_spec(1)})
                response = await harness.request(
                    reader, writer, {"op": "metrics", "id": 2})
                writer.close()
                return response

            return await harness.serving(server, client)

        response = harness.run(scenario())
        metrics = response["metrics"]
        assert metrics["counters"]["executed"] == 1
        assert metrics["counters"]["requests"] == 2
        assert metrics["queue"] == {"depth": 0, "limit": 64}
        compiles = metrics["compile_cache"]
        assert sorted(compiles) == ["hits", "misses", "size"]
        assert compiles["size"] >= 1    # the front end hashed the spec
        assert metrics["workers"]["mode"] == "thread"
        assert metrics["latency_by_served"]["executed"]["count"] == 1


class TestLadder:
    def test_execute_then_hot_hit(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = make_server(socket_path)

            async def client():
                reader, writer = await harness.connect(socket_path)
                spec = harness.cold_source_spec(2)
                first = await harness.request(
                    reader, writer, {"op": "job", "id": 1, "job": spec})
                second = await harness.request(
                    reader, writer, {"op": "job", "id": 2, "job": spec})
                writer.close()
                return first, second, server

            return await harness.serving(server, client)

        first, second, server = harness.run(scenario())
        assert (first["status"], first["served"]) == ("ok", "executed")
        assert (second["status"], second["served"]) == ("ok", "hit")
        assert first["result"] == second["result"]
        assert first["hash"] == second["hash"]
        assert server.metrics.counts["hit_hot"] == 1
        # The spec memo compiled the job once, not twice.
        assert server.specs.builds == 1
        assert server.specs.hits == 1

    def test_hot_entries_zero_caches_nothing(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = make_server(socket_path, hot_entries=0)

            async def client():
                reader, writer = await harness.connect(socket_path)
                spec = harness.cold_source_spec(3)
                served = []
                for request_id in (1, 2):
                    response = await harness.request(
                        reader, writer,
                        {"op": "job", "id": request_id, "job": spec})
                    served.append(response["served"])
                metrics = await harness.request(
                    reader, writer, {"op": "metrics"})
                writer.close()
                return served, metrics["metrics"]

            return await harness.serving(server, client)

        served, metrics = harness.run(scenario())
        assert served == ["executed", "executed"]
        assert metrics["cache"]["hot_entries"] == 0
        assert metrics["cache"]["hot_capacity"] == 0
        assert metrics["spec_index"] == {"hits": 1, "builds": 1}

    def test_a_spec_that_fails_validation_is_no_build(self):
        specs = SpecIndex(4)
        for _ in range(2):
            with pytest.raises(ServeRequestError):
                specs.resolve({"program": "nope"})
        assert (specs.hits, specs.builds, len(specs)) == (0, 0, 0)

    def test_disk_cache_survives_restart(self, tmp_path):
        """A restarted server resumes warm from the shared disk cache."""
        socket_path = str(tmp_path / "april.sock")
        cache_root = str(tmp_path / "cache")
        spec = harness.cold_source_spec(3)

        async def scenario():
            first_server = make_server(socket_path,
                                       cache=ResultCache(cache_root))
            first = await harness.serving(
                first_server,
                lambda: harness.one_shot(
                    socket_path, {"op": "job", "id": 1, "job": spec}))
            second_server = make_server(socket_path,
                                        cache=ResultCache(cache_root))
            second = await harness.serving(
                second_server,
                lambda: harness.one_shot(
                    socket_path, {"op": "job", "id": 2, "job": spec}))
            return first, second, second_server

        first, second, second_server = harness.run(scenario())
        assert first["served"] == "executed"
        assert second["served"] == "hit"
        assert second["result"] == first["result"]
        assert second_server.metrics.counts["hit_disk"] == 1
        assert second_server.metrics.counts["executed"] == 0


async def request_line(reader, writer, payload):
    """One round trip that keeps the response line's bytes."""
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    return await reader.readline()


def result_bytes(line):
    """The ``result`` member of an ``ok`` line, as sent (test ids and
    results hold neither marker)."""
    start = line.index(b',"result":') + len(b',"result":')
    return line[start:line.rindex(b',"served":')]


class CountingCodec:
    """Counts the places a result payload can be serialised: the
    protocol's ``encode_result``, the disk cache's own encoder, and a
    whole-response ``encode`` that carries a result.  The cache's
    encoder also writes each entry's head (a payload's ``status``,
    ``cycles`` and ``value``): those calls count apart, as
    ``head_encodes``, and are no payload encode."""

    def __init__(self, monkeypatch):
        import repro.exp.cache as cache_module
        self.result_encodes = 0
        self.cache_encodes = 0
        self.whole_encodes = 0
        self.head_encodes = 0
        encode_result = protocol.encode_result
        canonical_json = cache_module.canonical_json
        encode = protocol.encode

        def counting_encode_result(result):
            self.result_encodes += 1
            return encode_result(result)

        def counting_canonical_json(payload):
            if set(payload) <= set(cache_module.HEAD_KEYS):
                self.head_encodes += 1
            else:
                self.cache_encodes += 1
            return canonical_json(payload)

        def counting_encode(response):
            if response.get("result") is not None:
                self.whole_encodes += 1
            return encode(response)

        monkeypatch.setattr(protocol, "encode_result",
                            counting_encode_result)
        monkeypatch.setattr(cache_module, "canonical_json",
                            counting_canonical_json)
        monkeypatch.setattr(protocol, "encode", counting_encode)

    def total(self):
        return self.result_encodes + self.cache_encodes + self.whole_encodes


class TestEncodedOnce:
    """A result is serialised when it enters the hot LRU and never
    again; every response line is still ``protocol.encode``'s."""

    def test_every_route_sends_the_same_result_bytes(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")
        cache_root = str(tmp_path / "cache")
        spec = harness.cold_source_spec(21)

        async def scenario():
            dispatcher = harness.GatedDispatcher()
            server = make_server(socket_path, dispatcher=dispatcher,
                                 cache=ResultCache(cache_root))

            async def first_life():
                reader, writer = await harness.connect(socket_path)
                for request_id in ("leader", "follower"):
                    writer.write((json.dumps(
                        {"op": "job", "id": request_id, "job": spec})
                        + "\n").encode())
                    await writer.drain()
                assert await harness.eventually(
                    lambda: server.flights.deduped == 1)
                dispatcher.gate.set()
                lines = [await reader.readline() for _ in range(2)]
                lines.append(await request_line(
                    reader, writer, {"op": "job", "id": "hot", "job": spec}))
                writer.close()
                return lines

            lines = await harness.serving(server, first_life)
            restarted = make_server(socket_path,
                                    cache=ResultCache(cache_root))

            async def second_life():
                reader, writer = await harness.connect(socket_path)
                line = await request_line(
                    reader, writer, {"op": "job", "id": "disk", "job": spec})
                writer.close()
                return line

            lines.append(await harness.serving(restarted, second_life))
            return lines, server, restarted

        lines, server, restarted = harness.run(scenario())
        by_id = {json.loads(line)["id"]: line for line in lines}
        assert {request_id: json.loads(line)["served"]
                for request_id, line in by_id.items()} == {
            "leader": "executed", "follower": "deduped", "hot": "hit",
            "disk": "hit"}
        assert restarted.metrics.counts["hit_disk"] == 1
        sent = {result_bytes(line) for line in lines}
        assert len(sent) == 1
        encoded, = sent
        content_hash = json.loads(lines[0])["hash"]
        # The entry is a head line, then the sent bytes as its payload
        # line; the disk hit sent that line as it was stored.
        with open(ResultCache(cache_root).path_for(content_hash),
                  "rb") as handle:
            head, payload_line, end = handle.read().split(b"\n")
        assert (payload_line, end) == (encoded, b"")
        assert json.loads(head) == dict(
            {key: json.loads(encoded)[key]
             for key in ("cycles", "status", "value")},
            crc=json.loads(head)["crc"])
        # What the LRU holds is those bytes, not a decoded dict.
        assert server.hot.get(content_hash) == encoded
        assert type(restarted.hot.get(content_hash)) is bytes
        for line in lines:
            # Canonical: what ``encode`` makes of the parsed response.
            assert line == protocol.encode(json.loads(line))
            assert json.loads(line)["result"] == json.loads(encoded)

    def test_one_encode_per_cold_request_none_per_hit(self, tmp_path,
                                                      monkeypatch):
        codec = CountingCodec(monkeypatch)
        socket_path = str(tmp_path / "april.sock")
        cache_root = str(tmp_path / "cache")
        specs = [harness.cold_source_spec(30 + i) for i in range(3)]

        async def burst(server, rounds):
            async def client():
                reader, writer = await harness.connect(socket_path)
                counts = []
                for request_id in range(rounds * len(specs)):
                    response = await harness.request(
                        reader, writer,
                        {"op": "job", "id": request_id,
                         "job": specs[request_id % len(specs)]})
                    assert response["status"] == "ok"
                    counts.append((response["served"], codec.total()))
                writer.close()
                return counts

            return await harness.serving(server, client)

        async def scenario():
            cold = await burst(make_server(
                socket_path, cache=ResultCache(cache_root)), rounds=5)
            warm = await burst(make_server(
                socket_path, cache=ResultCache(cache_root)), rounds=5)
            return cold, warm

        cold, warm = harness.run(scenario())
        # Cold server: one encode per execution (it used to be two: the
        # response line and the cache file), then a hot burst at zero.
        assert cold[:3] == [("executed", 1), ("executed", 2),
                            ("executed", 3)]
        assert cold[3:] == [("hit", 3)] * 12
        # Restarted server: a disk hit sends the stored payload line, so
        # it encodes nothing (it used to re-encode the decoded entry).
        assert warm == [("hit", 3)] * 15
        # Each stored entry also encoded its head, once.
        assert (codec.result_encodes, codec.cache_encodes,
                codec.whole_encodes, codec.head_encodes) == (3, 0, 0, 3)

    def test_other_responses_are_encoded_whole(self, tmp_path, monkeypatch):
        """Failed, error, rejected and ping lines are ``encode``'s, as
        before."""
        codec = CountingCodec(monkeypatch)
        socket_path = str(tmp_path / "april.sock")
        failing = dict(harness.cold_source_spec(40), expect=-1)

        async def scenario():
            server = make_server(socket_path, rate=1000.0, burst=4)

            async def client():
                reader, writer = await harness.connect(socket_path)
                lines = [
                    await request_line(reader, writer, payload)
                    for payload in (
                        {"op": "job", "id": "f1", "job": failing},
                        {"op": "job", "id": "f2", "job": failing},
                        {"op": "job", "id": "bad", "job": {"nope": 1}},
                        {"op": "ping", "id": "p"},
                    )]
                server.begin_drain()
                lines.append(await request_line(
                    reader, writer,
                    {"op": "job", "id": "late",
                     "job": harness.cold_source_spec(41)}))
                writer.close()
                return lines, server

            return await harness.serving(server, client)

        lines, server = harness.run(scenario())
        responses = [json.loads(line) for line in lines]
        assert [r["status"] for r in responses] == [
            "failed", "failed", "error", "ok", "rejected"]
        # Failures are never cached: the second one executed again.
        assert [r["served"] for r in responses[:2]] == ["executed"] * 2
        assert len(server.hot) == 0
        assert all("result" not in r for r in responses)
        assert lines[3] == (b'{"id":"p","op":"ping","protocol":"%s",'
                            b'"status":"ok"}\n'
                            % protocol.PROTOCOL.encode())
        for line, response in zip(lines, responses):
            assert line == protocol.encode(response)
        assert codec.total() == 0


class TestBadRequests:
    def test_bad_json_line(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = make_server(socket_path)

            async def client():
                reader, writer = await harness.connect(socket_path)
                writer.write(b"{nope\n")
                response = json.loads(await reader.readline())
                writer.close()
                return response, server

            return await harness.serving(server, client)

        response, server = harness.run(scenario())
        assert response["status"] == "error"
        assert response["kind"] == "bad-json"
        assert server.metrics.counts["bad_requests"] == 1

    def test_bad_job_spec(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = make_server(socket_path)
            return await harness.serving(
                server,
                lambda: harness.one_shot(
                    socket_path,
                    {"op": "job", "id": 4, "job": {"program": "doom"}}))

        response = harness.run(scenario())
        assert response["status"] == "error"
        assert response["kind"] == "bad-job"
        assert response["id"] == 4

    def test_bool_for_an_int_is_a_bad_job(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")
        specs = [{"program": "fib", "max_cycles": True},
                 {"program": "fib", "processors": True},
                 {"source": "(define (main n) n)", "args": [True]}]

        async def scenario():
            server = make_server(socket_path)

            async def client():
                responses = []
                for number, spec in enumerate(specs):
                    responses.append(await harness.one_shot(
                        socket_path,
                        {"op": "job", "id": number, "job": spec}))
                return responses
            return await harness.serving(server, client)

        for number, response in enumerate(harness.run(scenario())):
            assert response["status"] == "error"
            assert response["kind"] == "bad-job"
            assert response["id"] == number

    def test_oversized_line_is_refused(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = make_server(socket_path)

            async def client():
                reader, writer = await harness.connect(socket_path)
                writer.write(b"x" * (protocol.MAX_LINE_BYTES + 64)
                             + b"\n")
                # No drain: the server stops reading once over the
                # limit, so the transport flushes what it can while we
                # read the error response concurrently.
                response = json.loads(await reader.readline())
                writer.close()
                return response

            return await harness.serving(server, client)

        response = harness.run(scenario())
        assert response["status"] == "error"
        assert "exceeds" in response["message"]


class TestGuardrails:
    def test_draining_rejects_new_jobs(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = make_server(socket_path)

            async def client():
                reader, writer = await harness.connect(socket_path)
                # Round-trip once so the server has *accepted* this
                # connection before the listener closes.
                await harness.request(reader, writer, {"op": "ping"})
                server.begin_drain()
                response = await harness.request(
                    reader, writer,
                    {"op": "job", "id": 1,
                     "job": harness.cold_source_spec(4)})
                writer.close()
                return response, server

            return await harness.serving(server, client)

        response, server = harness.run(scenario())
        assert response["status"] == "rejected"
        assert response["kind"] == "draining"
        assert server.metrics.counts["rejected_draining"] == 1

    def test_queue_limit_rejects_new_leaders_not_followers(
            self, tmp_path):
        """At the admission limit, a *new* job is shed but a request
        joining an open flight rides along free."""
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            dispatcher = harness.GatedDispatcher()
            server = make_server(socket_path, queue_limit=1,
                                 dispatcher=dispatcher)

            async def client():
                reader, writer = await harness.connect(socket_path)
                spec_a = harness.cold_source_spec(5)
                writer.write((json.dumps(
                    {"op": "job", "id": "a1", "job": spec_a})
                    + "\n").encode())
                await writer.drain()
                assert await harness.eventually(
                    lambda: dispatcher.calls == 1)
                # Queue is now full: a different job is shed fast...
                shed = await harness.request(
                    reader, writer,
                    {"op": "job", "id": "b",
                     "job": harness.cold_source_spec(6)})
                # ...but the same job joins the open flight.
                writer.write((json.dumps(
                    {"op": "job", "id": "a2", "job": spec_a})
                    + "\n").encode())
                await writer.drain()
                assert await harness.eventually(
                    lambda: server.flights.deduped == 1)
                dispatcher.gate.set()
                by_id = {}
                for _ in range(2):
                    response = json.loads(await reader.readline())
                    by_id[response["id"]] = response
                writer.close()
                return shed, by_id, server

            return await harness.serving(server, client)

        shed, by_id, server = harness.run(scenario())
        assert shed["status"] == "rejected"
        assert shed["kind"] == "overloaded"
        assert server.metrics.counts["rejected_overload"] == 1
        assert by_id["a1"]["served"] == "executed"
        assert by_id["a2"]["served"] == "deduped"

    def test_token_bucket_sheds_then_refills(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")
        clock = FakeClock()

        async def scenario():
            server = make_server(socket_path, rate=2.0, burst=2,
                                 clock=clock)

            async def client():
                reader, writer = await harness.connect(socket_path)
                spec = harness.cold_source_spec(8)
                responses = []
                for index in range(3):
                    responses.append(await harness.request(
                        reader, writer,
                        {"op": "job", "id": index, "job": spec}))
                clock.t += 1.0              # refills 2 tokens
                responses.append(await harness.request(
                    reader, writer,
                    {"op": "job", "id": 3, "job": spec}))
                writer.close()
                return responses, server

            return await harness.serving(server, client)

        responses, server = harness.run(scenario())
        assert [r["status"] for r in responses] == [
            "ok", "ok", "rejected", "ok"]
        assert responses[2]["kind"] == "rate-limited"
        assert [r["served"] for r in responses
                if r["status"] == "ok"] == ["executed", "hit", "hit"]
        assert server.metrics.counts["rejected_ratelimit"] == 1

    def test_disconnect_cancels_abandoned_flight(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            dispatcher = harness.GatedDispatcher()
            server = make_server(socket_path, dispatcher=dispatcher)

            async def client():
                reader, writer = await harness.connect(socket_path)
                writer.write((json.dumps(
                    {"op": "job", "id": 1,
                     "job": harness.cold_source_spec(9)})
                    + "\n").encode())
                await writer.drain()
                assert await harness.eventually(
                    lambda: dispatcher.calls == 1)
                writer.close()              # walk away mid-execution
                assert await harness.eventually(
                    lambda: server.flights.cancelled == 1
                    and len(server.flights) == 0)
                return server

            return await harness.serving(server, client)

        server = harness.run(scenario())
        assert server.flights.cancelled == 1
        assert server.metrics_snapshot()["counters"]["cancelled"] == 1


class TestLifecycle:
    def test_stop_drains_clean_and_unlinks_socket(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = make_server(socket_path)
            await server.start()
            assert os.path.exists(socket_path)
            response = await harness.one_shot(
                socket_path,
                {"op": "job", "id": 1,
                 "job": harness.cold_source_spec(10)})
            leftover = await server.stop(drain_timeout_s=2.0)
            return response, leftover

        response, leftover = harness.run(scenario())
        assert response["status"] == "ok"
        assert leftover == 0
        assert not os.path.exists(socket_path)

    def test_start_replaces_stale_socket_file(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            with open(socket_path, "w") as handle:
                handle.write("")            # crashed predecessor's sock
            server = make_server(socket_path)
            return await harness.serving(
                server,
                lambda: harness.one_shot(socket_path, {"op": "ping"}))

        assert harness.run(scenario())["status"] == "ok"


class TestBackPressure:
    def test_pipelining_without_reading_is_bounded(self, tmp_path):
        """A client that pipelines and does not read is held by the
        transport's flow control — it used to park one task, and one
        response, in the server for every line it sent."""
        socket_path = str(tmp_path / "april.sock")
        spec = harness.cold_source_spec(50)
        count = 5000

        async def scenario():
            server = make_server(socket_path)

            async def client():
                loop = asyncio.get_running_loop()
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                received = bytearray()

                async def read_lines(n):
                    while received.count(b"\n") < n:
                        chunk = await loop.sock_recv(sock, 65536)
                        assert chunk, "server hung up"
                        received.extend(chunk)
                        bounded()

                def bounded():
                    high = conn.transport.get_write_buffer_limits()[1]
                    assert len(conn.tasks) == 0
                    assert (conn.transport.get_write_buffer_size()
                            < high + line_bytes)

                try:
                    await loop.sock_connect(sock, socket_path)
                    await loop.sock_sendall(
                        sock, harness.job_line("prime", spec))
                    while b"\n" not in received:
                        received.extend(await loop.sock_recv(sock, 65536))
                    conn, = server._connections
                    line_bytes = len(received) + 16     # ids, trace ids
                    del received[:]
                    sender = asyncio.ensure_future(loop.sock_sendall(
                        sock, b"".join(harness.job_line(index, spec)
                                       for index in range(count))))
                    # Read nothing: the server fills the socket, then
                    # its write buffer, then stops serving and reading.
                    assert await harness.eventually(
                        lambda: not conn.transport.is_reading())
                    for _ in range(100):
                        await asyncio.sleep(0)
                        bounded()
                    assert not conn.transport.is_reading()
                    assert not sender.done()    # held in the client
                    await read_lines(count)
                    await sender
                finally:
                    sock.close()
                return bytes(received), server

            return await harness.serving(server, client)

        received, server = harness.run(scenario())
        responses = [json.loads(line) for line in received.splitlines()]
        assert [r["id"] for r in responses] == list(range(count))
        assert {(r["status"], r["served"]) for r in responses} == {
            ("ok", "hit")}
        counts = server.metrics.counts
        assert counts["requests"] == counts["jobs"] == count + 1
        assert counts["hit_hot"] == count
