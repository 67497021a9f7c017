"""The two ``april serve`` workloads: a real server subprocess driven by
closed-loop callers.

The service's callers are sweep scripts that wait for each reply
before sending the next request, so the load is a **closed loop**: two
caller threads (one connection each, one request outstanding each) in
this one process.  A round is a fixed list of requests per caller; the
callers start a round together and the round ends when both are done.

Every response is checked: status ``ok``, the reference value, and —
for responses that share a content hash — a byte-identical ``result``.
"""

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import common

NAMES = ("serve-hot", "serve-mixed")
CALLERS = 2
HOT_ARG = 8
COLD_ARG = 6
#: Pull the server's flight recorder this often (requests per caller);
#: its per-connection ring holds 64 completed traces.
PULL_EVERY = 32

RUNGS = ("parse", "admit", "validate", "hot", "disk", "flight", "queue",
         "execute", "respond")
WORKER_SPANS = ("compile", "run", "store")


class Server:
    """One ``python -m repro.cli serve`` subprocess on a unix socket
    with a fresh result cache, both under ``perf/out``."""

    def __init__(self, tmp):
        self.dir = tempfile.mkdtemp(prefix="srv-", dir=tmp)
        self.socket_path = common.short_path(os.path.join(self.dir, "s"))
        self.log = open(os.path.join(self.dir, "server.log"), "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket_path, "--workers", "1"],
            env=common.child_env(
                REPRO_CACHE_DIR=os.path.join(self.dir, "cache")),
            stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 30
        while True:
            # The socket file appears at bind(), before listen(): only
            # an accepted connection says the server is up.
            try:
                self.connect().close()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if self.process.poll() is not None:
                raise RuntimeError("april serve exited with %s at boot"
                                   % self.stop())
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("april serve did not accept a connection")
            time.sleep(0.005)

    def connect(self):
        return Connection(self.socket_path)

    def peak_rss_mb(self):
        """``VmHWM`` of the server plus its worker processes."""
        pid = self.process.pid
        return (common.pid_peak_rss_mb(pid)
                + sum(common.pid_peak_rss_mb(child)
                      for child in common.child_pids(pid)))

    def stop(self):
        """SIGTERM, wait for the drain; kill if it does not come."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                # A killed server cannot stop its worker pool.
                for worker in common.child_pids(process.pid):
                    try:
                        os.kill(worker, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                process.kill()
                process.wait()
        self.log.close()
        code = process.returncode
        shutil.rmtree(self.dir, ignore_errors=True)
        return code


class Connection:
    """A blocking NDJSON connection: one request, one reply."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def roundtrip(self, line):
        """Send one request line; returns ``(reply bytes, latency ns)``
        as the caller sees it: write to last reply byte."""
        start = time.perf_counter_ns()
        self.sock.sendall(line)
        reply = self.reader.readline()
        return reply, time.perf_counter_ns() - start

    def ask(self, payload):
        reply, _ = self.roundtrip((json.dumps(payload) + "\n").encode())
        return json.loads(reply)

    def close(self):
        self.reader.close()
        self.sock.close()


class Tally:
    """One caller's record of a run (merged after the threads join)."""

    def __init__(self):
        self.lat_ns = []
        self.cycles = 0
        self.served = {"hit": 0, "executed": 0, "deduped": 0}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.by_hash = {}
        self.trace_ids = []
        self.traces = {}

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _result_bytes(reply):
    """The raw ``result`` member of a canonical (sorted-key) reply."""
    start = reply.find(b'"result":')
    end = reply.rfind(b',"served":')
    return reply[start:end] if 0 <= start < end else None


def job_line(request_id, spec_json):
    return ('{"op":"job","id":%d,"job":%s}\n'
            % (request_id, spec_json)).encode()


def run_caller(conn, requests, tally, first_id, record, pull):
    """Send ``requests`` (``(spec json, expected value)`` pairs) one at
    a time, checking each reply."""
    since_pull = 0
    for offset, (spec_json, expected) in enumerate(requests):
        reply, latency = conn.roundtrip(job_line(first_id + offset,
                                                 spec_json))
        tally.attempted += 1
        try:
            response = json.loads(reply)
        except ValueError:
            tally.fail("unparseable reply %r" % reply[:80])
            continue
        if response.get("status") != "ok":
            tally.fail("request %s: %s %s" % (response.get("id"),
                                              response.get("status"),
                                              response.get("kind")))
            continue
        if response["result"].get("value") != expected:
            tally.fail("request %s returned %r, reference %r"
                       % (response["id"], response["result"].get("value"),
                          expected))
            continue
        body = _result_bytes(reply)
        known = tally.by_hash.setdefault(response["hash"], body)
        if body is None or body != known:
            tally.fail("hash %s served two different payloads"
                       % response["hash"][:12])
            continue
        if record:
            tally.lat_ns.append(latency)
            tally.cycles += response["result"]["cycles"]
            tally.served[response["served"]] += 1
        if pull:
            tally.trace_ids.append((response.get("trace"), latency))
            since_pull += 1
            if since_pull >= PULL_EVERY:
                pull_traces(conn, tally)
                since_pull = 0
    if pull and since_pull:
        pull_traces(conn, tally)


def pull_traces(conn, tally):
    """Read the flight recorder through the public ``trace`` op."""
    response = conn.ask({"op": "trace", "id": "pull",
                         "last": 2 * CALLERS * PULL_EVERY})
    for trace in response.get("traces", ()):
        tally.traces[trace["id"]] = trace


class ServeRun:
    """Boot, prime, measure, stop."""

    def __init__(self, name, seed, quick):
        from repro import workloads
        from repro.serve.loadgen import cold_spec, hot_specs
        self.rng = random.Random(seed)
        self.nonce = self.rng.randrange(10_000_000)
        self.cold_spec = cold_spec
        fib = workloads.get("fib")
        self.hot = [(json.dumps(spec), fib.reference(HOT_ARG))
                    for spec in hot_specs("fib", HOT_ARG)]
        self.cold_value = fib.reference(COLD_ARG)
        self.cold_index = 0
        if name == "serve-hot":
            self.per_caller, self.cold_per_caller = (100, 0) if quick \
                else (500, 0)
        else:
            self.per_caller, self.cold_per_caller = (10, 1) if quick \
                else (40, 4)
        self.next_id = 0
        self.server = None
        self.conns = []
        self.tmp = None

    # -- set-up --------------------------------------------------------

    def boot_and_prime(self):
        """One set-up sample: server up and the hot set cached."""
        start = time.perf_counter()
        server = Server(self.tmp)
        try:
            conn = server.connect()
            for index, (spec_json, expected) in enumerate(self.hot):
                response = json.loads(
                    conn.roundtrip(job_line(index, spec_json))[0])
                if (response.get("status") != "ok"
                        or response["result"]["value"] != expected):
                    raise RuntimeError("priming failed: %r"
                                       % {k: response.get(k) for k in
                                          ("status", "kind", "message")})
            conn.close()
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - start

    def setup(self, samples):
        """``samples`` boots, each returned as ``(seconds, calib ms
        around it)``; the last server stays up for the load."""
        os.makedirs(common.OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=common.OUT_DIR)
        times = []
        after = common.calib_ms()
        for index in range(samples):
            before = after
            server, elapsed = self.boot_and_prime()
            after = common.calib_ms()
            times.append((elapsed, (before + after) / 2))
            if index + 1 < samples:
                server.stop()
            else:
                self.server = server
        self.conns = [self.server.connect() for _ in range(CALLERS)]
        # The callers' first requests pay connection and loop warm-up.
        self.round(record=False)
        return times

    def close(self):
        for conn in self.conns:
            conn.close()
        code = self.server.stop() if self.server is not None else 0
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)
        return code

    # -- load ----------------------------------------------------------

    def requests_for_round(self):
        """Per caller: the hot specs in equal numbers and a fixed count
        of never-seen cold specs, in seeded order — every seed sends
        the same work in another sequence."""
        plans = []
        for _ in range(CALLERS):
            hot = self.per_caller - self.cold_per_caller
            plan = [self.hot[index % len(self.hot)] for index in range(hot)]
            for _ in range(self.cold_per_caller):
                self.cold_index += 1
                spec = self.cold_spec(self.nonce, self.cold_index,
                                      program="fib", args=COLD_ARG)
                plan.append((json.dumps(spec), self.cold_value))
            self.rng.shuffle(plan)
            plans.append(plan)
        return plans

    def round(self, record=True, pull=False):
        """One round; returns ``(wall ns, the callers' merged tally)``."""
        plans = self.requests_for_round()
        tallies = [Tally() for _ in range(CALLERS)]
        threads = []
        for conn, plan, tally in zip(self.conns, plans, tallies):
            threads.append(threading.Thread(
                target=run_caller,
                args=(conn, plan, tally, self.next_id, record, pull)))
            self.next_id += len(plan)
        start = time.perf_counter_ns()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter_ns() - start
        total = merge(tallies)
        if not record and total.failed:
            raise RuntimeError("warm-up round failed: %s" % total.errors[:3])
        return wall, total

    @property
    def requests_per_round(self):
        return CALLERS * self.per_caller


def merge(tallies):
    total = Tally()
    for tally in tallies:
        total.lat_ns.extend(tally.lat_ns)
        total.cycles += tally.cycles
        for key, value in tally.served.items():
            total.served[key] += value
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.errors.extend(tally.errors)
        total.trace_ids.extend(tally.trace_ids)
        total.traces.update(tally.traces)
        for content_hash, body in tally.by_hash.items():
            known = total.by_hash.setdefault(content_hash, body)
            if known != body:
                total.fail("hash %s served two different payloads"
                           % content_hash[:12])
    return total


def ledger(tally):
    """Tile the callers' request time with the server's own spans.

    Every traced request's client-observed latency splits into the
    server's rungs (which sum to its service latency exactly — the
    server's invariant, re-checked here) and ``client``: socket, flush,
    and the callers' own encode/decode.  All in integer microseconds,
    so the parts add up to the request time with nothing left over.
    """
    rungs = dict.fromkeys(RUNGS, 0)
    counts = dict.fromkeys(RUNGS, 0)
    workers = dict.fromkeys(WORKER_SPANS, 0)
    worker_counts = dict.fromkeys(WORKER_SPANS, 0)
    flush_us = []
    request_us = service_us = 0
    missing = 0
    for trace_id, latency_ns in tally.trace_ids:
        trace = tally.traces.get(trace_id)
        if trace is None or "latency_us" not in trace:
            missing += 1
            continue
        spans_us = 0
        for span in trace["spans"]:
            rungs[span["name"]] = rungs.get(span["name"], 0) + span["dur_us"]
            counts[span["name"]] = counts.get(span["name"], 0) + 1
            spans_us += span["dur_us"]
        if spans_us != trace["latency_us"]:
            tally.fail("trace %s: spans sum %d != latency %d"
                       % (trace_id, spans_us, trace["latency_us"]))
        for child in trace.get("children", ()):
            if child["name"] in workers:
                workers[child["name"]] += child["dur_us"]
                worker_counts[child["name"]] += 1
        if trace.get("flush_us") is not None:
            flush_us.append(trace["flush_us"])
        service_us += trace["latency_us"]
        request_us += max(round(latency_ns / 1e3), trace["latency_us"])
    if missing:
        tally.fail("%d traced requests missing from the flight recorder"
                   % missing)
    return {
        "request_us": request_us,
        "client_us": request_us - service_us,
        "rungs_us": rungs,
        "rung_counts": counts,
        "worker_us": workers,
        "worker_counts": worker_counts,
        "flush_us": flush_us,
        "traced_requests": len(tally.trace_ids) - missing,
    }


def protocol_costs(iterations):
    """Direct calls into the wire codec: µs per parse and per encode."""
    from repro.serve import protocol
    line = job_line(1, json.dumps({"program": "fib", "system": "APRIL",
                                   "processors": 2, "args": [HOT_ARG]}))
    start = time.perf_counter_ns()
    for _ in range(iterations):
        protocol.parse_request(line)
    parse_us = (time.perf_counter_ns() - start) / iterations / 1e3
    response = protocol.ok_response(
        1, "0" * 64, {"status": "ok", "value": 21, "cycles": 12345,
                      "stats": {"instructions": 1000, "per_cpu": []}},
        served="hit")
    start = time.perf_counter_ns()
    for _ in range(iterations):
        protocol.encode(response)
    encode_us = (time.perf_counter_ns() - start) / iterations / 1e3
    return parse_us, encode_us
