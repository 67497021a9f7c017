"""Faults at the connection layer: disconnects mid-flight, shutdown
with a flight open, a malformed named spec — each answered without a leaked flight, task or
trace, and each balancing the service's conservation law
(:func:`tests.serve.harness.accounted_jobs`).
"""

import asyncio
import json
import os

import pytest

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
