"""Chrome/Perfetto trace export.

Converts an :class:`~repro.obs.events.EventLog` stream into the Chrome
Trace Event JSON format (the legacy format Perfetto still ingests):
open the written file in ``ui.perfetto.dev`` or ``chrome://tracing``.

Mapping:

* each ALEWIFE node is a *process* (``pid`` = node id);
* each hardware task frame is a *thread* (``tid`` = frame index), so
  the four-frame structure of the APRIL processor is visible directly;
* a thread residing in a frame (THREAD_LOAD .. THREAD_UNLOAD/EXIT) is a
  complete slice ("X") named after the virtual thread;
* traps, steals, and future events are instant events ("i");
* sampler windows become per-node "utilization" counter tracks ("C");
* coherence transactions (when a :class:`TransactionTracer` observed
  the run) are *async* events ("b"/"e", cat ``txn``) on the issuing
  node — the transaction envelope with its request/service/coherence/
  response phases nested inside — plus *flow* events ("s"/"t"/"f", cat
  ``txn-flow``) stitching the issue, every switch-spin re-trap, and the
  completion together, so a slow remote miss is clickable end-to-end;
* blocked-on-future waits (when a :class:`LifetimeAccountant` observed
  the run) are *flow* events ("s"/"f", cat ``block-flow``) from the
  resolver's frame at the resolve cycle to the waiter's frame at its
  reload — each wait is a clickable arrow in ui.perfetto.dev.

Simulated cycles are written one-to-one as trace microseconds.

:func:`server_perfetto_trace` reuses the same format for a different
timeline: the ``april serve`` request traces recorded by
:mod:`repro.serve.trace`.  There the mapping is

* process 1 (*connections*): one thread per client connection, each
  request an enclosing slice with its ladder spans (parse/admit/
  validate/hot/disk/flight or queue+execute/respond) nested inside;
* process 2 (*workers*): execute spans packed onto worker lanes by
  greedy interval assignment — the recorder stores no worker identity,
  so the lanes approximate pool concurrency (an execute span's end is
  marked when the leader coroutine resumes, which a saturated event
  loop delays past the worker's actual finish) — with the
  worker-reported compile/run/store sub-spans nested inside;
* flow arrows ("s"/"f", cat ``dedupe``) from the end of a leader's
  execute span to the end of each deduped follower's flight span —
  every dedupe is a clickable arrow from the work to its free riders.

Span offsets are real microseconds (monotonic clock), so the
``displayTimeUnit`` stays honest.
"""

from repro.obs.events import EventKind

_INSTANT_KINDS = {
    EventKind.TRAP_ENTER: "trap",
    EventKind.THREAD_STEAL: "steal",
    EventKind.FUTURE_CREATE: "future-create",
    EventKind.FUTURE_RESOLVE: "future-resolve",
    EventKind.REMOTE_MISS: "remote-miss",
}


def _metadata(pid, tid, name, kind):
    record = {"ph": "M", "pid": pid, "name": kind, "args": {"name": name}}
    if tid is not None:
        record["tid"] = tid
    return record


def _transaction_events(transactions, end_cycle):
    """Async + flow trace events for every finished transaction."""
    trace_events = []
    for record in transactions.finished:
        ident = "0x%x" % record.txn_id
        pid, tid = record.node, record.frame or 0
        end = record.ready if record.ready is not None else end_cycle
        args = {"block": "0x%x" % record.block, "home": record.home,
                "hops": record.hops, "retries": record.retries,
                "latency": record.latency}
        trace_events.append({
            "ph": "b", "cat": "txn", "id": ident, "pid": pid, "tid": tid,
            "ts": record.issue, "name": record.kind, "args": args,
        })
        for name, start, stop in record.phases:
            trace_events.append({"ph": "b", "cat": "txn", "id": ident,
                                 "pid": pid, "tid": tid, "ts": start,
                                 "name": name})
            trace_events.append({"ph": "e", "cat": "txn", "id": ident,
                                 "pid": pid, "tid": tid, "ts": stop,
                                 "name": name})
        trace_events.append({"ph": "e", "cat": "txn", "id": ident,
                             "pid": pid, "tid": tid, "ts": end,
                             "name": record.kind})
        trace_events.append({"ph": "s", "cat": "txn-flow", "id": ident,
                             "pid": pid, "tid": tid, "ts": record.issue,
                             "name": record.kind})
        for trap in record.traps:
            frame = trap.get("to_frame")
            trace_events.append({"ph": "t", "cat": "txn-flow", "id": ident,
                                 "pid": pid,
                                 "tid": frame if frame is not None else tid,
                                 "ts": trap["cycle"], "name": record.kind})
        trace_events.append({"ph": "f", "bp": "e", "cat": "txn-flow",
                             "id": ident, "pid": pid, "tid": tid, "ts": end,
                             "name": record.kind})
    return trace_events


def _lifetime_flows(lifetime):
    """Flow events for every blocked-on-future wait with a known waker.

    Each arrow starts where the producer resolved the future (its
    loaded episode at the wake cycle) and ends where the blocked
    consumer resumed (its next loaded episode).
    """

    def located(ledger, cycle):
        """The thread's last loaded episode at or before ``cycle``.

        A producer that resolves at its own exit has already left its
        frame when the wake lands, so "covering" is too strict — the
        arrow starts from wherever the producer last ran.
        """
        best = None
        for seg in ledger.segments:
            if seg.kind == "loaded" and seg.start <= cycle:
                best = seg
            elif seg.start > cycle:
                break
        return best

    trace_events = []
    serial = 0
    for tid in lifetime.order:
        ledger = lifetime.threads[tid]
        for index, seg in enumerate(ledger.segments):
            if seg.kind != "blocked" or seg.waker is None:
                continue
            waker = lifetime.threads.get(seg.waker)
            if waker is None:
                continue
            src = located(waker, seg.end)
            dst = next((s for s in ledger.segments[index + 1:]
                        if s.kind == "loaded"), None)
            if src is None or dst is None:
                continue
            serial += 1
            ident = "block-%d-%d" % (tid, serial)
            name = "future-wake"
            trace_events.append({
                "ph": "s", "cat": "block-flow", "id": ident,
                "pid": src.node, "tid": src.frame or 0, "ts": seg.end,
                "name": name,
                "args": {"waiter": tid, "waker": seg.waker,
                         "blocked_cycles": seg.length},
            })
            trace_events.append({
                "ph": "f", "bp": "e", "cat": "block-flow", "id": ident,
                "pid": dst.node, "tid": dst.frame or 0, "ts": dst.start,
                "name": name,
            })
    return trace_events


def perfetto_trace(bus, num_nodes, end_cycle, sampler=None,
                   transactions=None, lifetime=None):
    """Build the Chrome trace dict for an event stream.

    Args:
        bus: the :class:`EventLog` (its ring is consumed read-only).
        num_nodes: machine size, for the process metadata.
        end_cycle: run end; closes slices still open at the end.
        sampler: optional :class:`IntervalSampler` for counter tracks.
        transactions: optional :class:`TransactionTracer` whose finished
            records become async/flow events.
        lifetime: optional finalized :class:`LifetimeAccountant` whose
            blocked-on-future waits become flow arrows.
    """
    trace_events = []
    for node in range(num_nodes):
        trace_events.append(
            _metadata(node, None, "node %d" % node, "process_name"))

    open_slices = {}       # (node, frame) -> (start cycle, thread name)
    seen_frames = set()

    def close_slice(key, end):
        start, name = open_slices.pop(key)
        node, frame = key
        trace_events.append({
            "ph": "X", "pid": node, "tid": frame, "ts": start,
            "dur": max(end - start, 0), "cat": "thread", "name": name,
        })

    for event in bus:
        node = event.node
        frame = event.data.get("frame", 0)
        key = (node, frame)
        if key not in seen_frames and frame is not None:
            seen_frames.add(key)
            trace_events.append(
                _metadata(node, frame, "frame %d" % frame, "thread_name"))

        if event.kind is EventKind.THREAD_LOAD:
            if key in open_slices:           # defensive: reload over a slice
                close_slice(key, event.cycle)
            open_slices[key] = (event.cycle, event.data.get("thread",
                                                            "thread"))
        elif event.kind in (EventKind.THREAD_UNLOAD, EventKind.THREAD_EXIT):
            if key in open_slices:
                close_slice(key, event.cycle)
        elif event.kind in _INSTANT_KINDS:
            name = _INSTANT_KINDS[event.kind]
            if event.kind is EventKind.TRAP_ENTER:
                name = "trap:%s" % event.data.get("trap", "?")
            trace_events.append({
                "ph": "i", "pid": node, "tid": frame, "ts": event.cycle,
                "cat": "event", "name": name, "s": "t",
                "args": {k: v for k, v in event.data.items()
                         if k != "frame"},
            })

    # Threads still resident at run end: emit their slices with
    # dur = end_cycle - start (sorted keys keep the output byte-stable).
    for key in sorted(open_slices):
        close_slice(key, end_cycle)

    if transactions is not None:
        trace_events.extend(_transaction_events(transactions, end_cycle))

    if lifetime is not None:
        trace_events.extend(_lifetime_flows(lifetime))

    if sampler is not None:
        start = 0               # the flush window is narrower than `window`
        for end, deltas in sampler.windows:
            for node, row in enumerate(deltas):
                total = sum(row.values())
                trace_events.append({
                    "ph": "C", "pid": node, "ts": start,
                    "name": "utilization",
                    "args": {"useful": (100 * row["useful"] // total)
                             if total else 0},
                })
            start = end

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs (APRIL/ALEWIFE simulator)",
            "nodes": num_nodes,
            "end_cycle": end_cycle,
            "events_recorded": len(bus),
            "events_dropped": bus.dropped,
        },
    }


# -- server timelines ------------------------------------------------------

_CONN_PID = 1
_WORKER_PID = 2


def _pack_lanes(intervals):
    """Greedily assign ``(start, end, payload)`` intervals to the
    first free lane; returns ``(lane, payload)`` pairs.  Deterministic:
    intervals are processed sorted by ``(start, end)``."""
    lane_free_at = []
    assigned = []
    for start, end, payload in sorted(intervals,
                                      key=lambda item: item[:2]):
        for lane, free_at in enumerate(lane_free_at):
            if free_at <= start:
                lane_free_at[lane] = end
                break
        else:
            lane = len(lane_free_at)
            lane_free_at.append(end)
        assigned.append((lane, payload))
    return assigned


def server_perfetto_trace(traces):
    """Build the Chrome trace dict for ``april serve`` request traces.

    Args:
        traces: completed trace dicts (:meth:`RequestTrace.to_dict`
            shapes, as served by the ``trace`` op), any order.

    One slice lane per connection, execute spans re-packed onto worker
    lanes, and a flow arrow per dedupe from the leader's execute span
    to the follower's flight span.  Purely a function of its input —
    identical traces yield byte-identical JSON.
    """
    traces = sorted((trace for trace in traces
                     if not trace.get("inflight")),
                    key=lambda trace: trace["id"])
    trace_events = [
        _metadata(_CONN_PID, None, "connections", "process_name"),
        _metadata(_WORKER_PID, None, "workers", "process_name"),
    ]

    span_end = {}          # (trace id, span name) -> absolute end us
    executions = []        # (start, end, trace) for worker-lane packing
    for trace in traces:
        conn = trace["conn"]
        base = trace["start_us"]
        trace_events.append(_metadata(_CONN_PID, conn, "conn %d" % conn,
                                      "thread_name"))
        trace_events.append({
            "ph": "X", "pid": _CONN_PID, "tid": conn, "ts": base,
            "dur": trace.get("latency_us", 0), "cat": "request",
            "name": "req %s" % trace["id"],
            "args": {"trace": trace["id"],
                     "request_id": trace.get("request_id"),
                     "status": trace.get("status"),
                     "served": trace.get("served")},
        })
        for span in trace["spans"]:
            start = base + span["start_us"]
            trace_events.append({
                "ph": "X", "pid": _CONN_PID, "tid": conn, "ts": start,
                "dur": span["dur_us"], "cat": "span", "name": span["name"],
            })
            span_end[(trace["id"], span["name"])] = start + span["dur_us"]
            if span["name"] == "execute":
                executions.append((start, start + span["dur_us"], trace))

    seen_lanes = set()
    for lane, trace in _pack_lanes(executions):
        if lane not in seen_lanes:
            seen_lanes.add(lane)
            trace_events.append(_metadata(_WORKER_PID, lane,
                                          "worker lane %d" % lane,
                                          "thread_name"))
        base = trace["start_us"]
        span = next(s for s in trace["spans"] if s["name"] == "execute")
        start = base + span["start_us"]
        trace_events.append({
            "ph": "X", "pid": _WORKER_PID, "tid": lane, "ts": start,
            "dur": span["dur_us"], "cat": "execute",
            "name": "req %s" % trace["id"],
            "args": {"trace": trace["id"]},
        })
        # Worker-reported sub-spans (own clock): laid out sequentially
        # from the execute start, clipped to the execute span.
        cursor = start
        for child in trace.get("children", ()):
            if child["parent"] != "execute":
                continue
            duration = min(child["dur_us"],
                           start + span["dur_us"] - cursor)
            if duration < 0:
                break
            trace_events.append({
                "ph": "X", "pid": _WORKER_PID, "tid": lane, "ts": cursor,
                "dur": duration, "cat": "worker", "name": child["name"],
            })
            cursor += duration

    # Dedupe arrows: leader's execute -> follower's flight wait.
    for trace in traces:
        leader_id = trace.get("link")
        if leader_id is None:
            continue
        follower_end = span_end.get((trace["id"], "flight"))
        leader_end = span_end.get((leader_id, "execute"))
        if follower_end is None or leader_end is None:
            continue
        leader_conn = next(t["conn"] for t in traces
                           if t["id"] == leader_id)
        ident = "dedupe-%s" % trace["id"]
        trace_events.append({
            "ph": "s", "cat": "dedupe", "id": ident, "pid": _CONN_PID,
            "tid": leader_conn, "ts": leader_end, "name": "dedupe",
            "args": {"leader": leader_id, "follower": trace["id"]},
        })
        trace_events.append({
            "ph": "f", "bp": "e", "cat": "dedupe", "id": ident,
            "pid": _CONN_PID, "tid": trace["conn"], "ts": follower_end,
            "name": "dedupe",
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.serve (april serve request traces)",
            "requests": len(traces),
        },
    }
