"""``april top`` — the live terminal dashboard for ``april serve``.

Polls a running server's ``metrics`` and ``trace`` ops on an interval
and renders one compact frame per poll: request rate (exact, from
counter deltas between polls), hit/dedupe ratios, queue depth, worker
utilization, p50/p99 service latency per served axis (the stable
five-axis ``latency_by_served`` schema), the slowest in-flight
requests with their ages, and the slowest completed traces with their
span breakdowns.

Rendering is a pure function of two samples (:func:`render_frame`), so
the display logic is tested entirely offline; only :func:`run_top`
touches a socket or the clock.  Works against a tracing-disabled
server too (``--trace-ring 0``): the trace panes say so instead of
failing.
"""

import asyncio
import json
import time

from repro.serve.protocol import open_connection

#: Served axes shown in the latency pane, in display order.
_AXES = ("hit", "executed", "deduped", "failed", "rejected")

#: ANSI "clear screen, cursor home" prefix for live mode.
CLEAR = "\x1b[2J\x1b[H"


async def poll(socket_path=None, host=None, port=None, slowest=5):
    """One sample: the server's metrics snapshot plus a ``trace`` pull
    (slowest-K completed + the in-flight table) on a fresh connection."""
    reader, writer = await open_connection(socket_path, host, port)
    try:
        writer.write(json.dumps({"op": "metrics", "id": "top-m"}).encode()
                     + b"\n")
        writer.write(json.dumps({"op": "trace", "id": "top-t",
                                 "slowest": slowest}).encode() + b"\n")
        await writer.drain()
        responses = {}
        for _ in range(2):
            line = await reader.readline()
            if not line:
                break
            response = json.loads(line)
            responses[response.get("id")] = response
    finally:
        writer.close()
    return {"metrics": responses.get("top-m", {}).get("metrics"),
            "trace": responses.get("top-t")}


def _rate(current, previous, name, interval_s):
    """Counter delta per second between two samples (lifetime average
    when there is no previous sample yet)."""
    counters = current["counters"]
    if previous is not None and interval_s:
        return (counters[name] - previous["counters"][name]) / interval_s
    uptime = current.get("uptime_s") or 0
    return counters[name] / uptime if uptime else 0.0


def _ratio(counters, name, base="jobs"):
    return (counters[name] / counters[base]) if counters[base] else 0.0


def _spans_line(trace):
    return " ".join("%s=%dus" % (span["name"], span["dur_us"])
                    for span in trace.get("spans", ()))


def render_frame(sample, previous=None, interval_s=None):
    """One dashboard frame (a string) from the current sample, the
    previous sample (for exact counter-delta rates), and the seconds
    between them.  Pure: no clock, no socket."""
    metrics = sample.get("metrics")
    if not metrics:
        return "april top: no metrics (is the server up?)"
    prev_metrics = previous.get("metrics") if previous else None
    counters = metrics["counters"]
    queue = metrics.get("queue", {})
    workers = metrics.get("workers", {})
    lines = [
        "april serve  up %.0fs  %sdraining: %s"
        % (metrics.get("uptime_s", 0),
           "protocol %s  " % metrics["protocol"]
           if "protocol" in metrics else "",
           metrics.get("draining", False)),
        "rate: %.1f req/s (%.1f jobs/s)   hit %.0f%%   dedupe %.0f%%   "
        "reject %.0f%%"
        % (_rate(metrics, prev_metrics, "requests", interval_s),
           _rate(metrics, prev_metrics, "jobs", interval_s),
           100 * _ratio(counters, "cache_hits"),
           100 * _ratio(counters, "deduped"),
           100 * _ratio(counters, "rejected_overload")
           + 100 * _ratio(counters, "rejected_ratelimit")
           + 100 * _ratio(counters, "rejected_draining")),
        "queue: %d/%s   workers: %d/%d busy (%.0f%% lifetime)   "
        "conns: %s open"
        % (queue.get("depth", 0), queue.get("limit", "?"),
           workers.get("busy", 0), workers.get("workers", 0),
           100 * workers.get("busy_fraction", 0.0),
           metrics.get("connections", {}).get("open", "?")),
        "",
        "latency (us)       count       p50       p99       max",
    ]
    by_served = metrics.get("latency_by_served", {})
    for axis in _AXES:
        hist = by_served.get(axis)
        if hist is None:
            continue
        lines.append("  %-12s %9d %9s %9s %9s"
                     % (axis, hist.get("count", 0), hist.get("p50"),
                        hist.get("p99"), hist.get("max")))

    trace = sample.get("trace")
    lines.append("")
    if not trace or not trace.get("enabled", False):
        lines.append("tracing disabled (--trace-ring 0)")
        return "\n".join(lines)

    inflight = trace.get("inflight", [])
    stats = trace.get("stats", {})
    lines.append("in-flight: %d  (recorded %d, stored %d, evicted %d)"
                 % (len(inflight), stats.get("recorded", 0),
                    stats.get("stored", 0), stats.get("evicted", 0)))
    for entry in inflight[:5]:
        lines.append("  #%-6d conn %-4d age %8dus  %s"
                     % (entry["id"], entry["conn"],
                        entry.get("age_us", 0), _spans_line(entry)))

    slowest = trace.get("traces", [])
    lines.append("slowest completed:")
    if not slowest:
        lines.append("  (none recorded yet)")
    for entry in slowest:
        lines.append("  #%-6d %-9s %-8s %8dus  %s"
                     % (entry["id"], entry.get("served") or "-",
                        entry.get("status", "?"),
                        entry.get("latency_us", 0), _spans_line(entry)))
    return "\n".join(lines)


async def run_top(socket_path=None, host=None, port=None, *,
                  interval_s=2.0, count=None, plain=False, slowest=5,
                  clock=time.monotonic, out=print):
    """The poll/render loop.  ``count`` bounds the frames (None = until
    interrupted); ``plain`` appends frames instead of redrawing.
    Returns the number of frames rendered."""
    previous = None
    previous_at = None
    frames = 0
    while count is None or frames < count:
        try:
            sample = await poll(socket_path, host, port, slowest=slowest)
        except (ConnectionRefusedError, ConnectionResetError,
                FileNotFoundError, OSError) as exc:
            out("april top: cannot reach server: %s" % exc)
            return frames
        now = clock()
        frame = render_frame(
            sample, previous,
            (now - previous_at) if previous_at is not None else None)
        out(frame if plain else CLEAR + frame)
        previous, previous_at = sample, now
        frames += 1
        if count is not None and frames >= count:
            break
        await asyncio.sleep(interval_s)
    return frames
