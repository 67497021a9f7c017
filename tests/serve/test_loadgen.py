"""``april loadgen``'s latency clock.

A paced request is timed from when it was due, so a stalled server
shows up in the latencies of the requests it held back, not only in
the one it sat on (no coordinated omission).  Without a rate there is
no schedule and a request is timed from its send.
"""

import asyncio
import json

from repro.serve import loadgen

from tests.serve import harness

#: How long the stub server sits on its first request.
STALL_S = 0.3


async def stalled_server(socket_path):
    """A stub server that answers every job line with a hit, holding
    its first answer back for :data:`STALL_S`."""
    answered = []

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            if not answered:
                await asyncio.sleep(STALL_S)
            answered.append(request["id"])
            writer.write((json.dumps({"id": request["id"], "status": "ok",
                                      "served": "hit"}) + "\n").encode())
            await writer.drain()
        writer.close()

    return await asyncio.start_unix_server(handle, path=socket_path)


def run_against_stall(socket_path, rate, requests=6):
    async def scenario():
        server = await stalled_server(socket_path)
        try:
            return await loadgen.run_loadgen(
                socket_path, rate=rate, requests=requests, connections=1,
                hot_ratio=1.0, fetch_metrics=False)
        finally:
            server.close()
            await server.wait_closed()
    return harness.run(scenario())


class TestLatencyClock:
    def test_paced_requests_report_their_queueing_delay(self, tmp_path,
                                                        monkeypatch):
        # One request in flight per connection: while the server sits
        # on request 0, requests 1-5 fall due every 20 ms but cannot be
        # sent.  Each then waited at least STALL_S - 5/50 s = 200 ms.
        monkeypatch.setattr(loadgen, "MAX_OUTSTANDING", 1)
        report = run_against_stall(str(tmp_path / "s"), rate=50.0)
        latency = report["latency_us"]
        assert report["statuses"]["ok"] == latency["count"] == 6
        assert latency["min"] >= 150_000
        assert latency["max"] >= STALL_S * 1_000_000

    def test_unpaced_requests_are_timed_from_their_send(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(loadgen, "MAX_OUTSTANDING", 1)
        report = run_against_stall(str(tmp_path / "s"), rate=0)
        latency = report["latency_us"]
        assert report["statuses"]["ok"] == latency["count"] == 6
        assert latency["max"] >= STALL_S * 1_000_000
        assert latency["min"] < 100_000
