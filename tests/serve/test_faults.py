"""Faults at the connection layer: disconnects mid-flight, shutdown
with a flight open, a malformed named spec, a damaged or unwritable
disk cache — each answered without a leaked flight, task or trace,
and each balancing the service's conservation law
(:func:`tests.serve.harness.accounted_jobs`).
"""

import asyncio
import json
import os

import pytest

from repro.exp.cache import ResultCache
from repro.exp.job import canonical_json
from tests.serve import harness


def assert_conserved(server):
    assert server.metrics.counts["jobs"] == harness.accounted_jobs(server)
    assert server.traces.inflight == {}
    assert len(server.flights) == 0


class TestDisconnectMidFlight:
    def test_leader_leaves_follower_still_served(self, tmp_path):
        """The connection that started an execution hangs up; a
        follower on another connection still gets the result."""
        socket_path = str(tmp_path / "april.sock")
        spec = harness.cold_source_spec(80)

        async def scenario():
            dispatcher = harness.GatedDispatcher()
            server = harness.make_server(socket_path, dispatcher=dispatcher)

            async def clients():
                _, leader = await harness.connect(socket_path)
                leader.write(harness.job_line("leader", spec))
                assert await harness.eventually(
                    lambda: dispatcher.calls == 1)
                reader, follower = await harness.connect(socket_path)
                follower.write(harness.job_line("follower", spec))
                assert await harness.eventually(
                    lambda: server.flights.deduped == 1)
                leader.close()
                assert await harness.eventually(
                    lambda: len(server._connections) == 1)
                assert len(server.flights) == 1     # still wanted
                dispatcher.gate.set()
                response = json.loads(await reader.readline())
                follower.close()
                return response, server

            return await harness.serving(server, clients)

        response, server = harness.run(scenario())
        assert (response["id"], response["status"], response["served"]) == (
            "follower", "ok", "deduped")
        assert response["result"]["status"] == "ok"
        assert server.flights.cancelled == 0
        assert server.metrics.counts["executed"] == 1
        statuses = sorted(trace.status
                          for trace in server.traces.completed())
        assert statuses == ["cancelled", "ok"]
        assert_conserved(server)

    def test_last_waiter_leaves_flight_cancelled(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")
        spec = harness.cold_source_spec(81)

        async def scenario():
            dispatcher = harness.GatedDispatcher()
            server = harness.make_server(socket_path, dispatcher=dispatcher)

            async def clients():
                writers = []
                for request_id in ("first", "second"):
                    _, writer = await harness.connect(socket_path)
                    writer.write(harness.job_line(request_id, spec))
                    writers.append(writer)
                assert await harness.eventually(
                    lambda: dispatcher.calls == 1
                    and server.flights.deduped == 1)
                writers[0].close()
                assert await harness.eventually(
                    lambda: len(server._connections) == 1)
                assert server.flights.cancelled == 0
                writers[1].close()
                assert await harness.eventually(
                    lambda: server.flights.cancelled == 1
                    and len(server.flights) == 0)
                return server

            return await harness.serving(server, clients)

        server = harness.run(scenario())
        assert server.flights.cancelled == 1
        traces = server.traces.completed()
        assert [trace.status for trace in traces] == ["cancelled"] * 2
        assert all(trace.to_dict()["status"] == "cancelled"
                   for trace in traces)
        assert not server._connections and not server.traces.rings
        assert_conserved(server)


class TestStopWithAFlightOpen:
    def test_drains_the_flight_then_drops_every_connection(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            dispatcher = harness.GatedDispatcher()
            server = harness.make_server(socket_path, dispatcher=dispatcher)
            await server.start()
            reader, writer = await harness.connect(socket_path)
            idle_reader, idle_writer = await harness.connect(socket_path)
            await harness.request(idle_reader, idle_writer, {"op": "ping"})
            writer.write(
                harness.job_line("open", harness.cold_source_spec(82)))
            assert await harness.eventually(lambda: dispatcher.calls == 1)
            connections = list(server._connections)
            asyncio.get_running_loop().call_later(0.05, dispatcher.gate.set)
            leftover = await server.stop(drain_timeout_s=5.0)
            response = json.loads(await reader.readline())
            idle_rest = await idle_reader.read()
            writer.close()
            idle_writer.close()
            return leftover, response, idle_rest, connections, server

        leftover, response, idle_rest, connections, server = harness.run(
            scenario())
        assert leftover == 0
        assert (response["status"], response["served"]) == ("ok", "executed")
        assert idle_rest == b""                 # hung up on, nothing sent
        assert not os.path.exists(socket_path)
        assert len(connections) == 2
        assert all(conn.closed and not conn.tasks for conn in connections)
        assert not server._connections
        assert_conserved(server)


class TestMalformedNamedSpec:
    """A named-form spec whose config cannot build a machine is a
    typed ``bad-job`` error; the connection lives on and answers what
    was pipelined behind it."""

    @pytest.mark.parametrize("config, fragment", [
        ({"bogus": 1}, "bogus"),
        ({"num_task_frames": 0}, "task frame"),
        ({"num_processors": 2}, "config.num_processors"),
    ], ids=["unknown-knob", "no-task-frames", "num-processors"])
    def test_bad_job_then_ping_on_the_same_connection(self, tmp_path,
                                                      config, fragment):
        socket_path = str(tmp_path / "april.sock")
        spec = {"program": "fib", "args": [5], "config": config}

        async def scenario():
            server = harness.make_server(socket_path)

            async def clients():
                reader, writer = await harness.connect(socket_path)
                writer.write(harness.job_line("bad", spec)
                             + b'{"op": "ping", "id": "after"}\n')
                responses = [json.loads(await reader.readline())
                             for _ in range(2)]
                writer.close()
                return responses, server

            return await harness.serving(server, clients)

        (error, pong), server = harness.run(scenario())
        assert (error["id"], error["status"], error["kind"]) == (
            "bad", "error", "bad-job")
        assert fragment in error["message"]
        assert (pong["id"], pong["status"]) == ("after", "ok")
        assert server.metrics.counts["bad_requests"] == 1
        assert server.specs.builds == 0
        assert_conserved(server)


def _truncate(data):
    return data[:len(data) // 2]


def _flip_cycles(data):
    """The entry with a digit of its payload's ``cycles`` changed: as
    long as before and still JSON."""
    lines = data.split(b"\n")
    payload = json.loads(lines[-2])
    lines[-2] = canonical_json(
        dict(payload, cycles=payload["cycles"] ^ 1)).encode("utf-8")
    return b"\n".join(lines)


class TestDamagedDiskEntry:
    """A disk entry that is cut short, or changed in place and still
    parses, is a disk miss: unlinked, executed again, answered with the
    right value and stored whole."""

    @pytest.mark.parametrize("damage", [_truncate, _flip_cycles],
                             ids=["truncated", "flipped-cycles"])
    def test_is_a_miss_then_executed_again(self, tmp_path, damage):
        socket_path = str(tmp_path / "april.sock")
        cache_root = str(tmp_path / "cache")
        spec = harness.cold_source_spec(90)         # (+ 40 90)

        async def ask(server, request_id):
            return await harness.serving(server, lambda: harness.one_shot(
                socket_path, {"op": "job", "id": request_id, "job": spec}))

        async def scenario():
            first = await ask(harness.make_server(
                socket_path, cache=ResultCache(cache_root)), "first")
            path = ResultCache(cache_root).path_for(first["hash"])
            with open(path, "rb") as handle:
                data = handle.read()
            damaged = damage(data)
            assert damaged != data
            with open(path, "wb") as handle:
                handle.write(damaged)
            server = harness.make_server(socket_path,
                                         cache=ResultCache(cache_root))
            return first, await ask(server, "again"), server

        first, again, server = harness.run(scenario())
        assert (first["status"], first["served"]) == ("ok", "executed")
        assert (again["id"], again["status"], again["served"]) == (
            "again", "ok", "executed")
        assert again["result"]["value"] == 130
        assert again["result"] == first["result"]
        assert server.cache.counters() == {"hits": 0, "misses": 1,
                                           "writes": 1, "dropped": 1,
                                           "write_errors": 0}
        counts = server.metrics.counts
        assert (counts["hit_disk"], counts["executed"]) == (0, 1)
        assert ResultCache(cache_root).get(first["hash"]) == first["result"]
        assert_conserved(server)


class TestUnwritableCache:
    def test_a_cold_job_is_answered_though_its_result_is_not_stored(
            self, tmp_path):
        """A disk cache that cannot be written (its root is a file, as a
        read-only or full directory would refuse the write too): the
        leader still gets its ``ok`` result, the write failure is
        counted, and no flight stays open."""
        socket_path = str(tmp_path / "april.sock")
        root = tmp_path / "cache"
        root.write_text("")
        spec = harness.cold_source_spec(91)         # (+ 40 91)

        async def scenario():
            server = harness.make_server(socket_path,
                                         cache=ResultCache(str(root)))
            ask = harness.one_shot(socket_path, {"op": "job", "id": "cold",
                                                 "job": spec})
            response = await harness.serving(
                server, lambda: asyncio.wait_for(ask, 10.0))
            return response, server

        response, server = harness.run(scenario())
        assert (response["id"], response["status"], response["served"]) == (
            "cold", "ok", "executed")
        assert response["result"]["value"] == 131
        assert server.cache.counters() == {"hits": 0, "misses": 1,
                                           "writes": 0, "dropped": 0,
                                           "write_errors": 1}
        assert root.read_text() == ""
        assert_conserved(server)
