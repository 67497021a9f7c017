"""``april top`` rendering (pure, offline) and its live poll loop."""

import json

from repro.serve import protocol
from repro.serve.dispatch import Dispatcher
from repro.serve.server import SweepServer
from repro.serve.top import poll, render_frame, run_top

from tests.serve import harness


def sample(requests=100, jobs=80, uptime=10.0):
    hist = {"count": 5, "p50": 120, "p90": 500, "p99": 900, "max": 1000}
    empty = {"count": 0, "p50": None, "p90": None, "p99": None,
             "max": None}
    return {
        "metrics": {
            "uptime_s": uptime,
            "protocol": "april-serve/1",
            "draining": False,
            "counters": {"requests": requests, "jobs": jobs,
                         "cache_hits": 40, "deduped": 10,
                         "rejected_overload": 0, "rejected_ratelimit": 0,
                         "rejected_draining": 0},
            "queue": {"depth": 3, "limit": 64},
            "workers": {"workers": 2, "busy": 1, "busy_fraction": 0.25},
            "connections": {"open": 4},
            "latency_by_served": {"hit": hist, "executed": hist,
                                  "deduped": empty, "failed": empty,
                                  "rejected": empty},
        },
        "trace": {
            "enabled": True,
            "stats": {"inflight": 1, "stored": 12, "recorded": 12,
                      "evicted": 0},
            "inflight": [{"id": 99, "conn": 2, "age_us": 1500,
                          "inflight": True,
                          "spans": [{"name": "parse", "start_us": 0,
                                     "dur_us": 10}]}],
            "traces": [{"id": 42, "conn": 1, "served": "executed",
                        "status": "ok", "latency_us": 2000,
                        "spans": [{"name": "execute", "start_us": 0,
                                   "dur_us": 2000}]}],
        },
    }


class TestRenderFrame:
    def test_frame_shows_the_essentials(self):
        frame = render_frame(sample())
        assert "10.0 req/s" in frame              # lifetime average
        assert "hit 50%" in frame                 # 40/80 jobs
        assert "queue: 3/64" in frame
        assert "1/2 busy" in frame
        assert "hit" in frame and "executed" in frame
        assert "#42" in frame and "execute=2000us" in frame
        assert "#99" in frame and "age" in frame

    def test_rates_use_counter_deltas_between_samples(self):
        previous = sample(requests=100, jobs=80)
        current = sample(requests=160, jobs=120, uptime=12.0)
        frame = render_frame(current, previous, interval_s=2.0)
        assert "30.0 req/s (20.0 jobs/s)" in frame

    def test_no_metrics(self):
        assert "no metrics" in render_frame({"metrics": None})

    def test_tracing_disabled(self):
        disabled = sample()
        disabled["trace"] = {"enabled": False, "traces": [],
                             "inflight": []}
        assert "tracing disabled" in render_frame(disabled)

    def test_no_completed_traces_yet(self):
        empty = sample()
        empty["trace"]["traces"] = []
        assert "(none recorded yet)" in render_frame(empty)


class TestLive:
    def test_poll_and_run_top_against_real_server(self, tmp_path):
        socket_path = str(tmp_path / "april.sock")

        async def scenario():
            server = SweepServer(
                socket_path=socket_path, cache=None,
                dispatcher=Dispatcher(workers=2, mode="thread"))

            async def client():
                reader, writer = await harness.connect(socket_path)
                await harness.request(
                    reader, writer,
                    {"op": "job", "id": 1,
                     "job": harness.cold_source_spec(60)})
                writer.close()
                frames = []
                rendered = await run_top(
                    socket_path=socket_path, interval_s=0.01, count=2,
                    plain=True, out=frames.append)
                one = await poll(socket_path=socket_path)
                return rendered, frames, one

            return await harness.serving(server, client)

        rendered, frames, one = harness.run(scenario())
        assert rendered == 2
        assert len(frames) == 2
        assert "april serve" in frames[0]
        assert "req/s" in frames[1]
        assert one["metrics"]["counters"]["executed"] == 1
        assert one["trace"]["enabled"] is True
        assert one["trace"]["stats"]["recorded"] == 1

    def test_ping_and_poll_over_tcp(self):
        """TCP only, through the shared opener: port 0 binds a free
        port, read back off the listener."""
        async def scenario():
            server = SweepServer(
                host="127.0.0.1", port=0, cache=None,
                dispatcher=Dispatcher(workers=2, mode="thread"))

            async def client():
                listener, = server._servers
                port = listener.sockets[0].getsockname()[1]
                reader, writer = await protocol.open_connection(
                    host="127.0.0.1", port=port)
                pong = await harness.request(
                    reader, writer, {"op": "ping", "id": "tcp"})
                writer.close()
                return pong, await poll(port=port)

            return await harness.serving(server, client)

        pong, sample = harness.run(scenario())
        assert (pong["status"], pong["id"]) == ("ok", "tcp")
        assert pong["protocol"] == protocol.PROTOCOL
        # The ping and the poll's own metrics request.
        assert sample["metrics"]["counters"]["requests"] == 2
        assert sample["trace"]["enabled"] is True

    def test_run_top_reports_unreachable_server(self, tmp_path):
        out = []

        async def scenario():
            return await run_top(
                socket_path=str(tmp_path / "nope.sock"), count=1,
                plain=True, out=out.append)

        assert harness.run(scenario()) == 0
        assert "cannot reach server" in out[0]

    def test_frames_are_json_free_text(self):
        frame = render_frame(sample())
        try:
            json.loads(frame)
        except ValueError:
            return
        raise AssertionError("frame rendered as JSON, not a dashboard")
