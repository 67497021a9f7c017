"""``april loadgen`` — the traffic harness for ``april serve``.

An asyncio client that sprays a configurable mix of **hot** job specs
(a small rotating set, cached after first touch — the
millions-of-users-asking-the-same-questions shape) and **cold** specs
(unique content hashes, each a real simulator execution) at a target
aggregate rate over N connections, then reports what the service
actually delivered: achieved requests/s, hit/dedupe ratios, and the
client-observed latency histogram.  Latency memory is O(1) per
connection: each read worker records into its own
:class:`~repro.obs.hist.Log2Histogram`, and the report merges them
bucket-wise — an *exact* merge, so the rolled-up percentiles equal
those of the concatenated streams (the same discipline the server
applies to its per-connection histograms).

Pacing is open-loop: request *k* of the run is scheduled at
``t0 + k/rate`` on a shared ticket counter, whichever connection is
free takes the next ticket, and a slow response delays nothing but
its own connection's pipeline — so the measured rate is what the
service sustained, not what a lock-step client allowed it.  A paced
request's latency is timed from when it was *due*, not from when it
was sent: a request held back by a full pipeline window waited on the
service, and timing it from its late send would leave that wait out
(coordinated omission).  Without a rate there is no schedule, and a
request is timed from its send.

``--dedupe-burst N`` appends the single-flight proof: N identical
never-seen-before requests written back-to-back on one connection,
asserting exactly one execution, N-1 deduped followers, and
byte-identical result payloads.
"""

import asyncio
import itertools
import json
import random
import time

from repro.exp.job import canonical_json
from repro.obs.hist import Log2Histogram
from repro.serve.protocol import open_connection

#: Upper bound on pipelined-but-unanswered requests per connection.
MAX_OUTSTANDING = 512

#: Cold specs land max_cycles in this band so they can never collide
#: with a hot spec (hot specs use the sweep default 500M).
COLD_MAX_CYCLES_BASE = 400_000_000


def hot_specs(program="fib", args=8, count=4):
    """The rotating hot set: ``count`` distinct cached-mostly specs."""
    specs = []
    for index in range(count):
        specs.append({
            "program": program,
            "system": "Apr-lazy" if index % 2 else "APRIL",
            "processors": 1 + (index // 2),
            "args": [args],
        })
    return specs


def cold_spec(nonce, index, program="fib", args=6):
    """A spec whose content hash no one has ever requested: the nonce
    and index land in ``max_cycles``, which is part of the job's
    content hash but (for a run this small) not of its behavior."""
    return {
        "program": program,
        "processors": 1,
        "args": [args],
        "max_cycles": COLD_MAX_CYCLES_BASE + (nonce % 10_000_000) * 8
        + index,
    }


class _Conn:
    """One loadgen connection and its pipeline bookkeeping."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.sent = 0
        self.received = 0
        self.hist = Log2Histogram()        # this connection's latencies
        self.window = asyncio.Semaphore(MAX_OUTSTANDING)


class LoadGenerator:
    """The run state shared by every connection worker."""

    def __init__(self, *, rate, requests, hot_ratio, seed, nonce,
                 program, hot_args, cold_args, hot_count=4):
        self.rate = rate
        self.requests = requests
        self.hot_ratio = hot_ratio
        self.rng = random.Random(seed)
        self.nonce = nonce
        self.hot = hot_specs(program, hot_args, count=hot_count)
        self.program = program
        self.cold_args = cold_args
        self.tickets = itertools.count()
        self.pending = {}                  # id -> due (paced) or send time
        self.hist = Log2Histogram()
        self.statuses = {"ok": 0, "failed": 0, "rejected": 0, "error": 0}
        self.served = {"hit": 0, "executed": 0, "deduped": 0}
        self.rejected = {}
        self.started_at = None
        self.finished_at = None

    def next_spec(self, ticket):
        if self.rng.random() < self.hot_ratio:
            return self.rng.choice(self.hot)
        return cold_spec(self.nonce, ticket, program=self.program,
                         args=self.cold_args)

    def tally(self, response, latency_us, hist=None):
        status = response.get("status", "error")
        if status not in self.statuses:
            status = "error"
        self.statuses[status] += 1
        if status == "rejected":
            kind = response.get("kind", "?")
            self.rejected[kind] = self.rejected.get(kind, 0) + 1
        served = response.get("served")
        if status == "ok" and served in self.served:
            self.served[served] += 1
        (hist if hist is not None else self.hist).record(latency_us)

    def merge_hists(self, conns):
        """Fold every connection's histogram into the run rollup —
        exact bucket-wise merge, identical percentiles to a single
        shared histogram."""
        for conn in conns:
            self.hist.merge(conn.hist)


async def _send_worker(gen, conn, clock):
    t0 = gen.started_at
    while True:
        ticket = next(gen.tickets)
        if ticket >= gen.requests:
            break
        due = None
        if gen.rate and gen.rate > 0:
            due = t0 + ticket / gen.rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
        await conn.window.acquire()
        spec = gen.next_spec(ticket)
        gen.pending[ticket] = clock() if due is None else due
        conn.writer.write(
            (json.dumps({"op": "job", "id": ticket, "job": spec})
             + "\n").encode())
        conn.sent += 1
        await conn.writer.drain()
    while conn.received < conn.sent:
        await asyncio.sleep(0.005)


async def _read_worker(gen, conn, clock):
    while True:
        line = await conn.reader.readline()
        if not line:
            break
        response = json.loads(line)
        since = gen.pending.pop(response.get("id"), None)
        latency_us = (int((clock() - since) * 1_000_000)
                      if since is not None else 0)
        gen.tally(response, latency_us, hist=conn.hist)
        conn.received += 1
        conn.window.release()


async def _request(reader, writer, payload):
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    return json.loads(line)


async def dedupe_burst(socket_path, host, port, nonce, count,
                       program="fib", args=7, clock=time.monotonic):
    """Fire ``count`` identical never-seen cold requests back-to-back
    on one connection; returns the single-flight scorecard."""
    spec = cold_spec(nonce, 7_999_993, program=program, args=args)
    reader, writer = await open_connection(socket_path, host, port)
    start = clock()
    lines = b"".join(
        (json.dumps({"op": "job", "id": "burst-%d" % index, "job": spec})
         + "\n").encode()
        for index in range(count))
    writer.write(lines)
    await writer.drain()
    served = {"hit": 0, "executed": 0, "deduped": 0}
    statuses = {}
    payloads = set()
    for _ in range(count):
        response = json.loads(await reader.readline())
        statuses[response["status"]] = statuses.get(
            response["status"], 0) + 1
        if response.get("served") in served:
            served[response["served"]] += 1
        if response["status"] == "ok":
            payloads.add(canonical_json(response["result"]))
    writer.close()
    return {
        "requests": count,
        "wall_s": round(clock() - start, 3),
        "statuses": statuses,
        "served": served,
        "identical_payloads": len(payloads) <= 1,
    }


async def run_loadgen(socket_path=None, host=None, port=None, *,
                      rate=500.0, requests=2000, connections=4,
                      hot_ratio=0.9, seed=1234, nonce=None,
                      program="fib", hot_args=8, cold_args=6,
                      burst=0, fetch_metrics=True,
                      clock=time.monotonic):
    """Run the full load scenario; returns the JSON-ready report."""
    if nonce is None:
        nonce = time.time_ns() % 1_000_000
    gen = LoadGenerator(rate=rate, requests=requests, hot_ratio=hot_ratio,
                        seed=seed, nonce=nonce, program=program,
                        hot_args=hot_args, cold_args=cold_args)
    conns = []
    for _ in range(max(1, connections)):
        reader, writer = await open_connection(socket_path, host, port)
        conns.append(_Conn(reader, writer))
    readers = [asyncio.ensure_future(_read_worker(gen, conn, clock))
               for conn in conns]
    gen.started_at = clock()
    await asyncio.gather(*(_send_worker(gen, conn, clock)
                           for conn in conns))
    gen.finished_at = clock()
    for task in readers:
        task.cancel()
    for conn in conns:
        conn.writer.close()
    gen.merge_hists(conns)

    wall_s = max(gen.finished_at - gen.started_at, 1e-9)
    completed = sum(gen.statuses.values())
    ok = gen.statuses["ok"]
    report = {
        "requests": requests,
        "connections": len(conns),
        "completed": completed,
        "wall_s": round(wall_s, 3),
        "offered_rps": rate,
        "achieved_rps": round(completed / wall_s, 1),
        "statuses": gen.statuses,
        "served": gen.served,
        "rejected": gen.rejected,
        "hit_ratio": round(gen.served["hit"] / ok, 4) if ok else None,
        "dedupe_ratio": (round(gen.served["deduped"] / ok, 4)
                         if ok else None),
        "latency_us": gen.hist.to_dict(),
    }
    if burst:
        report["dedupe_burst"] = await dedupe_burst(
            socket_path, host, port, nonce, burst, program=program,
            clock=clock)
    if fetch_metrics:
        reader, writer = await open_connection(socket_path, host, port)
        response = await _request(reader, writer,
                                  {"op": "metrics", "id": "loadgen"})
        writer.close()
        report["server_metrics"] = response.get("metrics")
    return report


def render_report(report):
    """The human-readable loadgen summary."""
    latency = report["latency_us"]
    lines = [
        "loadgen: %d requests over %d conns in %.2fs -> %.1f req/s "
        "(offered %.0f)" % (report["requests"],
                            report.get("connections", 0) or 0,
                            report["wall_s"], report["achieved_rps"],
                            report["offered_rps"] or 0),
        "statuses: ok %(ok)d   failed %(failed)d   rejected %(rejected)d"
        "   error %(error)d" % report["statuses"],
        "served:   hit %(hit)d   executed %(executed)d   "
        "deduped %(deduped)d" % report["served"],
        "ratios:   hit %s   deduped %s"
        % (report["hit_ratio"], report["dedupe_ratio"]),
        "latency:  p50 %sus   p90 %sus   p99 %sus   max %sus"
        % (latency["p50"], latency["p90"], latency["p99"],
           latency["max"]),
    ]
    burst = report.get("dedupe_burst")
    if burst:
        lines.append(
            "dedupe-burst: %d identical cold requests -> %d executed, "
            "%d deduped, payloads identical: %s"
            % (burst["requests"], burst["served"]["executed"],
               burst["served"]["deduped"], burst["identical_payloads"]))
    return "\n".join(lines)
