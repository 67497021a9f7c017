"""End-to-end ``SweepServer`` tests over a real unix socket.

Every test runs the real asyncio server with a thread-mode dispatcher
(the simulator is pure, so thread workers are exact) and talks the
real NDJSON protocol through a client connection — the ladder, the
guardrails, and the lifecycle are all exercised from the wire in.
"""

import asyncio
import json
import os

from repro.exp.cache import ResultCache
from repro.serve import protocol
from repro.serve.dispatch import Dispatcher
from repro.serve.server import SweepServer

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
