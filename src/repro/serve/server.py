"""The asyncio sweep server behind ``april serve``.

One :class:`SweepServer` listens on a unix socket (and optionally TCP),
speaks the :mod:`repro.serve.protocol` NDJSON protocol, and serves job
results through a four-level ladder — each level orders of magnitude
cheaper than the next:

1. **hot LRU** — recent results by content hash, in memory, held as
   their canonical JSON bytes (:func:`protocol.encode_result`): a
   result is serialised once, when it is executed, and every response
   that carries it splices those bytes into its envelope
   (:func:`protocol.encode_ok`) — a hit encodes no result at all;
2. **disk cache** — the shared content-addressed
   :class:`~repro.exp.cache.ResultCache` the sweep commands also use,
   so a restarted server (or a sweep that ran yesterday) resumes warm;
   a disk hit sends the entry's stored payload line as it is, neither
   decoded nor encoded;
3. **single-flight join** — an identical request is already executing:
   await its result (``deduped``) instead of running it again;
4. **execution** — dispatch to the persistent worker pool, then write
   the result through levels 1 and 2.

Admission control happens before level 4 ever gets work: a draining
server refuses new jobs, a connection over its token-bucket rate gets
a fast ``rate-limited`` rejection, and when the number of in-flight
*executions* (open flights, not requests — followers ride along free)
reaches ``queue_limit``, new work is fast-failed ``overloaded``
instead of buffered into unbounded latency.

The front end is one :class:`_Connection` per client, an
:class:`asyncio.BufferedProtocol`: the event loop reads straight into
one ``READ_BUFFER``-byte bytearray the connection owns for life, and
every complete line in it is served *inside the read callback*
(:meth:`SweepServer._serve_line`).  What cannot block — a hot or disk
hit, a rejection, a malformed line, ``ping``/``metrics``/``trace`` — is
answered there and written to the transport at once: no ``Task``, no
lock, no future.  Only a request that has to wait for an execution (a
would-be leader or follower of a flight) becomes a task, held in the
connection's ``tasks`` until it has answered.  So responses that
cannot block leave in arrival order and overtake flights; flights
answer when they land.  Responses carry the client's ``id``, which is
how a pipelining client matches them.

Back-pressure is the transport's own flow control.  When a client
reads slower than it asks, the transport's write buffer passes its
high-water mark and calls ``pause_writing``: the connection stops
serving lines and stops *reading* (requests wait in the kernel, then
in the client), and a landed flight waits at the same point before it
writes.  ``resume_writing`` serves what was already read, then reads
again.  A connection therefore holds at most its read buffer, the
transport's high-water mark plus one response, and its open flights —
however much the client pipelines.

Clients that disconnect abandon their outstanding requests: each
pending flight task is cancelled (its trace recorded as ``cancelled``),
and an in-flight execution is cancelled as soon as its last waiter is
gone.  A client must keep its connection open until it has read every
response it cares about.
"""

import asyncio
import functools
import itertools
import os
import time

from repro.errors import ServeError, ServeRequestError
from repro.exp.cache import ResultCache
from repro.exp.job import canonical_json
from repro.lang.compiler import COMPILE_CACHE
from repro.lru import LRU
from repro.serve import protocol
from repro.serve.dispatch import Dispatcher
from repro.serve.flight import SingleFlight
from repro.serve.metrics import ServerMetrics
from repro.serve.ratelimit import TokenBucket
from repro.serve.trace import SlowLog, TraceStore


#: Bytes of the one read buffer a connection owns for life.  A request
#: line is ~100 bytes, so one read takes in hundreds; a longer line
#: spills (up to ``protocol.MAX_LINE_BYTES``).
READ_BUFFER = 64 * 1024


def _no_mark(name):
    """Span sink for untraced requests (``--trace-ring 0``)."""


class SpecIndex(LRU):
    """LRU memo: canonical job-spec JSON -> (hash, payload, cacheable).

    Resolving a spec means building the Job and *compiling* its
    program (the content hash covers compiled words) — milliseconds.
    Hot traffic repeats a handful of specs, so this memo turns the
    per-request cost into one dict lookup.  ``builds`` counts the
    misses that resolved: a spec that fails validation is none.
    """

    __slots__ = ("builds",)

    def __init__(self, capacity=512):
        super().__init__(capacity)
        self.builds = 0

    def resolve(self, spec):
        key = canonical_json(spec)
        entry = self.get(key)
        if entry is None:
            entry = protocol.compile_job(protocol.job_from_spec(spec))
            self.put(key, entry)
            self.builds += 1
        return entry


class _Connection(asyncio.BufferedProtocol):
    """One client connection: its read buffer, bucket and the flights
    it is waiting on.

    The loop fills ``buffer`` through :meth:`get_buffer`;
    :meth:`buffer_updated` serves every complete line and keeps a
    partial one at the head of the buffer for the next read.  A line
    longer than the buffer spills into ``_spill`` until its newline
    arrives or it passes ``protocol.MAX_LINE_BYTES``.
    """

    def __init__(self, server):
        self.id = next(server._conn_ids)
        self.server = server
        self.bucket = (TokenBucket(server.rate, server.burst,
                                   clock=server._clock)
                       if server.rate and server.rate > 0 else None)
        self.tasks = {}                 # flight task -> its trace (or None)
        self.transport = None
        self.closed = False
        self.buffer = bytearray(READ_BUFFER)
        self._view = memoryview(self.buffer)
        self._end = 0                   # buffer[:_end] is unserved input
        self._scanned = 0               # buffer[:_scanned] has no newline
        self._spill = bytearray()
        self._writable = asyncio.Event()
        self._writable.set()

    # -- transport callbacks -----------------------------------------------

    def connection_made(self, transport):
        self.transport = transport
        self.server._connections.add(self)
        self.server.metrics.bump("connections")

    def get_buffer(self, sizehint):
        return self._view[self._end:]

    def buffer_updated(self, nbytes):
        self._end += nbytes
        self._serve_lines()

    def eof_received(self):
        # A half-sent line dies with its sender; so do open flights.
        self.close()

    def connection_lost(self, exc):
        self.close()

    def pause_writing(self):
        """The client reads slower than it asks: stop serving it."""
        self._writable.clear()
        self.transport.pause_reading()

    def resume_writing(self):
        self._writable.set()
        self._serve_lines()             # what was read before the pause
        if self._writable.is_set():
            self.transport.resume_reading()

    # -- framing -----------------------------------------------------------

    def _serve_lines(self):
        """Serve the complete lines in the buffer, in order, until they
        run out or the transport stops taking responses; what is left
        moves to the head of the buffer."""
        buffer, view = self.buffer, self._view
        serve = self.server._serve_line
        writable = self._writable.is_set
        start, scan, end = 0, self._scanned, self._end
        while writable() and not self.closed:
            newline = buffer.find(b"\n", scan, end)
            if newline < 0:
                scan = end
                break
            line = view[start:newline + 1].tobytes()
            start = scan = newline + 1
            if self._spill:
                line = bytes(self._spill) + line
                del self._spill[:]
                if len(line) - 1 > protocol.MAX_LINE_BYTES:
                    return self._refuse_oversized()
            if not line.isspace():
                serve(self, line)
        if start:
            if start < end:
                buffer[:end - start] = buffer[start:end]
            scan -= start
            end -= start
        if end == READ_BUFFER and scan == end:
            # One line fills the buffer and is not over yet.
            self._spill += buffer
            scan = end = 0
            if len(self._spill) > protocol.MAX_LINE_BYTES:
                return self._refuse_oversized()
        self._scanned, self._end = scan, end

    def _refuse_oversized(self):
        self.server.metrics.bump("bad_requests")
        self.write(protocol.encode(protocol.error_response(
            None, ServeRequestError("request line exceeds %d bytes"
                                    % protocol.MAX_LINE_BYTES))))
        self.close()

    # -- responses ---------------------------------------------------------

    def write(self, data):
        """Hand one encoded response line to the transport."""
        if not self.closed:
            self.transport.write(data)

    async def writable(self):
        """Wait until the transport takes responses again — the one
        point where a landed flight meets a slow reader."""
        while not self._writable.is_set():
            await self._writable.wait()

    def close(self):
        """Abandon the connection: cancel its flights, fold its traces
        into the server's, close the transport (which still flushes
        what it was already handed)."""
        if self.closed:
            return
        self.closed = True
        server = self.server
        for task, trace in self.tasks.items():
            if task.cancel() and trace is not None:
                # A no-op for a response that was ready but not sent.
                trace.finish("cancelled")
                server.traces.record(trace)
        self.transport.close()
        server._connections.discard(self)
        if server.traces is not None:
            server.traces.retire_conn(self.id)


class SweepServer:
    """The sweep service: cache ladder + single-flight + guardrails."""

    def __init__(self, socket_path=None, host=None, port=None, *,
                 workers=2, worker_mode="process", queue_limit=64,
                 rate=0.0, burst=None, timeout_s=None, cache=None,
                 hot_entries=512, spec_entries=512, dispatcher=None,
                 trace_ring=512, slow_log=None, slow_ms=1000.0,
                 clock=time.monotonic):
        if socket_path is None and port is None:
            raise ServeError("serve needs a unix socket path or a TCP port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.queue_limit = max(1, int(queue_limit))
        self.rate = rate
        self.burst = burst
        self.cache = cache
        self.hot = LRU(hot_entries)
        self.specs = SpecIndex(spec_entries)
        self.flights = SingleFlight()
        self.dispatcher = dispatcher or Dispatcher(
            workers=workers, timeout_s=timeout_s, mode=worker_mode,
            clock=clock)
        self.metrics = ServerMetrics(clock=clock)
        self.traces = (TraceStore(retired=trace_ring, clock=clock)
                       if trace_ring and trace_ring > 0 else None)
        self.slow = SlowLog(slow_log, slow_ms) if slow_log else None
        self.draining = False
        self._clock = clock
        self._connections = set()
        self._conn_ids = itertools.count(1)     # trace `conn` ids
        self._servers = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Bind the listeners; returns self (usable as a handle)."""
        loop = asyncio.get_running_loop()
        connection = functools.partial(_Connection, self)
        if self.socket_path:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)      # stale socket from a crash
            self._servers.append(await loop.create_unix_server(
                connection, path=self.socket_path))
        if self.port is not None:
            self._servers.append(await loop.create_server(
                connection, self.host or "127.0.0.1", self.port))
        return self

    def begin_drain(self):
        """Stop accepting; new job requests get ``draining`` rejections."""
        self.draining = True
        for server in self._servers:
            server.close()

    async def stop(self, drain_timeout_s=10.0):
        """Graceful shutdown: drain in-flight executions (bounded),
        then drop connections and the pool.  Returns the number of
        flights abandoned (0 = clean drain)."""
        self.begin_drain()
        loop = asyncio.get_running_loop()
        leftover = await self.flights.drain(
            deadline=loop.time() + max(0.0, drain_timeout_s))
        for conn in list(self._connections):
            conn.close()
        await asyncio.sleep(0)                  # let handlers unwind
        self.dispatcher.shutdown(wait=(leftover == 0))
        if self.slow is not None:
            self.slow.close()
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        return leftover

    # -- request handling --------------------------------------------------

    def _serve_line(self, conn, line):
        """One request line, served inside the read callback: answered
        here unless it has to wait for an execution."""
        # Trace id is assigned at line-parse time: even a request that
        # turns out malformed (or a ping) briefly owns one.
        start = self._clock()
        trace = self.traces.begin(conn.id) if self.traces else None
        try:
            request = protocol.parse_request(line)
        except ServeRequestError as exc:
            if trace is not None:
                self.traces.discard(trace)
            self.metrics.bump("bad_requests")
            conn.write(protocol.encode(protocol.error_response(None, exc)))
            return
        self.metrics.bump("requests")
        op = request.get("op", "job")
        request_id = request.get("id")
        if op != "job":
            # Introspection ops are not themselves traced: a polling
            # `april top` must not wash real requests out of the rings.
            if trace is not None:
                self.traces.discard(trace)
            if op == "ping":
                response = {"id": request_id, "status": "ok", "op": "ping",
                            "protocol": protocol.PROTOCOL}
            elif op == "metrics":
                response = {"id": request_id, "status": "ok",
                            "op": "metrics",
                            "metrics": self.metrics_snapshot()}
            else:
                response = self._trace_response(request)
            conn.write(protocol.encode(response))
            return
        if trace is not None:
            trace.request_id = request_id
            trace.mark("parse")
        response, result, flight = self._handle_job(conn, request, trace)
        if flight is None:
            self._send(conn, response, result, trace,
                       self._seal(response, trace, start))
            return
        task = asyncio.ensure_future(
            self._fly(conn, request_id, trace, start, *flight))
        conn.tasks[task] = trace
        task.add_done_callback(conn.tasks.pop)

    def _seal(self, response, trace, start):
        """Close a job request's books: the trace frozen, its latency
        observed and stamped on the response.  Returns the clock at
        which the response became ready — where ``flush_us`` starts."""
        axis = self._served_axis(response)
        if trace is not None:
            trace.finish(response["status"], served=axis)
            latency_us = trace.latency_us
            response["trace"] = trace.id
        else:
            latency_us = int((self._clock() - start) * 1_000_000)
        self.metrics.observe(axis, latency_us)
        response["latency_us"] = latency_us
        return self._clock()

    def _send(self, conn, response, result, trace, ready):
        """Encode a sealed job response and hand it to the transport;
        ``result`` is the already-encoded result of an ``ok`` response
        (see ``_handle_job``)."""
        conn.write(protocol.encode(response) if result is None
                   else protocol.encode_ok(response, result))
        if trace is not None:
            # Socket-write time is the client's read speed, not service
            # latency: recorded beside the spans, never inside them.
            trace.flush_us = int((self._clock() - ready) * 1_000_000)
            self.traces.record(trace)
            if self.slow is not None:
                self.slow.maybe_log(trace)

    @staticmethod
    def _served_axis(response):
        """Which latency histogram a job response lands in."""
        if response["status"] in ("ok", "failed"):
            return response.get("served", response["status"])
        return response["status"]               # "rejected" / "error"

    # -- the job ladder ----------------------------------------------------

    def _handle_job(self, conn, request, trace=None):
        """One job request down the rungs that cannot block.  Returns
        ``(response, result, None)`` for a request answered here — for
        an ``ok`` response ``result`` is the canonical result bytes and
        the envelope's own ``result`` is ``None``; every other response
        is complete and ``result`` is ``None`` — or ``(None, None,
        (content_hash, payload, cacheable))`` for one that needs a
        flight (see ``_fly``)."""
        request_id = request.get("id")
        mark = trace.mark if trace is not None else _no_mark
        self.metrics.bump("jobs")
        if self.draining:
            mark("admit")
            self.metrics.bump("rejected_draining")
            return protocol.rejected_response(
                request_id, "draining",
                "server is draining for shutdown"), None, None
        if conn.bucket is not None and not conn.bucket.try_acquire():
            mark("admit")
            self.metrics.bump("rejected_ratelimit")
            return protocol.rejected_response(
                request_id, "rate-limited",
                "connection exceeds %g requests/s" % self.rate), None, None
        mark("admit")
        try:
            content_hash, payload, cacheable = self.specs.resolve(
                request.get("job"))
        except ServeRequestError as exc:
            mark("validate")
            self.metrics.bump("bad_requests")
            return protocol.error_response(request_id, exc), None, None
        mark("validate")

        # Level 1+2: already computed, by anyone, ever.
        encoded = self.hot.get(content_hash) if cacheable else None
        mark("hot")
        if encoded is not None:
            self.metrics.bump("hit_hot")
        elif cacheable and self.cache is not None:
            result = self.cache.get(content_hash)
            mark("disk")
            if result is not None and result.get("status") == "ok":
                # The stored payload line is the canonical encoding:
                # sent as it is, never decoded here.
                encoded = result.encoded
                self.hot.put(content_hash, encoded)
                self.metrics.bump("hit_disk")
        if encoded is not None:
            return protocol.ok_response(request_id, content_hash, None,
                                        served="hit"), encoded, None
        shed = self._shed(request_id, content_hash)
        if shed is not None:
            return shed, None, None
        return None, None, (content_hash, payload, cacheable)

    def _shed(self, request_id, content_hash):
        """The ``overloaded`` rejection if this request would open a
        flight past ``queue_limit``, else ``None`` — backpressure
        applies only to new work (followers ride free)."""
        if (self.flights.leading(content_hash)
                and len(self.flights) >= self.queue_limit):
            self.metrics.bump("rejected_overload")
            return protocol.rejected_response(
                request_id, "overloaded",
                "admission queue full (%d executions in flight)"
                % len(self.flights))
        return None

    async def _fly(self, conn, request_id, trace, start, content_hash,
                   payload, cacheable):
        """Level 3+4, the one task a request can cost: join the open
        flight or become its leader, then answer.  Cancelled by
        ``conn.close()``, which also records the trace."""
        # Asked again: the lines served by one read callback all saw
        # the flight table as it was before any of their tasks ran.
        response = self._shed(request_id, content_hash)
        result = None
        if response is None:
            # No awaits between here and flights.run, so a follower
            # reliably reads its leader's trace id off the flight.
            leader_trace = self.flights.flight_meta(content_hash)
            (result, failure), leader = await self.flights.run(
                content_hash,
                lambda: self._execute_and_store(content_hash, payload,
                                                cacheable, trace),
                meta=trace.id if trace is not None else None)
            if trace is not None and not leader:
                # The follower's whole wait is one span, linked to the
                # leader's trace where the queue/execute detail lives.
                trace.link_to(leader_trace)
                trace.mark("flight")
            served = "executed" if leader else "deduped"
            if failure is None:
                response = protocol.ok_response(request_id, content_hash,
                                                None, served=served)
            else:
                self.metrics.bump("failed")
                response = protocol.failed_response(
                    request_id, content_hash, failure, served=served)
        ready = self._seal(response, trace, start)
        await conn.writable()
        self._send(conn, response, result, trace, ready)

    async def _execute_and_store(self, content_hash, payload, cacheable,
                                 trace=None):
        """Level 4, run only by a flight's leader: dispatch, then write
        through the hot LRU and the disk cache.

        The leader's trace is marked *here* (this coroutine runs as the
        flight task on the same loop and clock): the segment since the
        disk probe splits into pool-queue wait and worker execution at
        the worker's self-reported wall time, and the worker's
        compile/run/store sub-spans nest under the execute span.  The
        ``"spans"`` key is popped before the payload is cached or
        returned, so stored results and response bodies keep the exact
        PR 8 shape.

        Returns ``(encoded, failure)`` — what every waiter of the
        flight receives: an ``ok`` result as its canonical bytes
        (encoded here, once, for the leader, its followers, the hot
        LRU and the disk cache alike) and ``None``, or ``None`` and the
        typed failure payload.
        """
        result = await self.dispatcher.execute(payload,
                                               spans=trace is not None)
        self.metrics.bump("executed")
        worker_spans = (result.pop("spans", None)
                        if isinstance(result, dict) else None)
        if trace is not None:
            worker_us = (sum(duration for _, duration in worker_spans)
                         if worker_spans else None)
            trace.mark_split("queue", "execute", worker_us)
            for name, duration in worker_spans or ():
                trace.child("execute", name, duration)
        if result.get("status") != "ok":
            return None, result
        encoded = protocol.encode_result(result)
        if cacheable:
            self.hot.put(content_hash, encoded)
            if self.cache is not None:
                self.cache.put(content_hash, result, encoded=encoded)
        return encoded, None

    # -- introspection -----------------------------------------------------

    def _trace_response(self, request):
        """The ``trace`` op: read the flight recorder.

        Selectors: ``trace_id`` for one exact trace (completed or
        in-flight), ``slowest`` for the K worst by service latency,
        ``last`` for the N most recent (default 10).  The in-flight
        table and recorder counters ride along on every response.
        """
        request_id = request.get("id")
        if self.traces is None:
            return {"id": request_id, "status": "ok", "op": "trace",
                    "enabled": False, "traces": [], "inflight": []}
        response = {"id": request_id, "status": "ok", "op": "trace",
                    "enabled": True, "stats": self.traces.stats(),
                    "inflight": self.traces.inflight_view()}
        if "trace_id" in request:
            trace = self.traces.find(request["trace_id"])
            response["traces"] = [trace.to_dict()] if trace is not None \
                else []
        elif "slowest" in request:
            response["traces"] = [trace.to_dict() for trace
                                  in self.traces.slowest(request["slowest"])]
        else:
            response["traces"] = [trace.to_dict() for trace
                                  in self.traces.last(request.get("last",
                                                                  10))]
        return response

    def trace_perfetto(self):
        """A Perfetto/Chrome trace of every stored request (see
        :func:`repro.obs.perfetto.server_perfetto_trace`); ``None``
        when tracing is disabled."""
        if self.traces is None:
            return None
        from repro.obs.perfetto import server_perfetto_trace
        return server_perfetto_trace(
            [trace.to_dict() for trace in self.traces.completed()])

    def metrics_snapshot(self):
        """The JSON-ready ``metrics`` response body.

        ``compile_cache`` is this process's: the programs the front
        end compiled to hash specs (pool workers keep their own)."""
        counters_patch = {
            "deduped": self.flights.deduped,
            "cancelled": self.flights.cancelled,
            "timeouts": self.dispatcher.timeouts,
        }
        snapshot = self.metrics.snapshot(
            protocol=protocol.PROTOCOL,
            draining=self.draining,
            queue={"depth": len(self.flights), "limit": self.queue_limit},
            workers=self.dispatcher.utilization(),
            connections={"open": len(self._connections),
                         "total": self.metrics.counts["connections"]},
            cache=self._cache_section(),
            spec_index={"hits": self.specs.hits,
                        "builds": self.specs.builds},
            compile_cache=COMPILE_CACHE.counters(),
        )
        snapshot["counters"].update(counters_patch)
        if self.traces is not None:
            snapshot["trace"] = self.traces.stats()
        if self.slow is not None:
            snapshot["slow_log"] = {"path": self.slow.path,
                                    "threshold_us": self.slow.threshold_us,
                                    "logged": self.slow.logged}
        return snapshot

    def _cache_section(self):
        section = {"hot_entries": len(self.hot),
                   "hot_capacity": self.hot.capacity}
        if self.cache is not None:
            section["disk"] = self.cache.counters()
            section["root"] = self.cache.root
        return section


def build_server(args, clock=time.monotonic):
    """A :class:`SweepServer` from ``april serve`` CLI args."""
    host, port = (protocol.parse_tcp(args.tcp) if getattr(args, "tcp", None)
                  else (None, None))
    cache = None
    if not getattr(args, "no_cache", False):
        from repro.exp.cache import default_cache
        cache = (ResultCache(args.cache_dir) if args.cache_dir
                 else default_cache())
    return SweepServer(
        socket_path=args.socket, host=host or None, port=port,
        workers=args.workers, queue_limit=args.queue_limit,
        rate=args.rate, burst=args.burst, timeout_s=args.timeout,
        cache=cache, hot_entries=args.hot_entries,
        trace_ring=getattr(args, "trace_ring", 512),
        slow_log=getattr(args, "slow_log", None),
        slow_ms=getattr(args, "slow_ms", 1000.0), clock=clock)
