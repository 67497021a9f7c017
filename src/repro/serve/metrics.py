"""Server-side counters and latency rollups for the ``metrics`` op.

Latency is tracked as **streaming log2 histograms**
(:class:`repro.obs.hist.Log2Histogram`, microseconds) — O(1) memory
per axis, exact merge.  Each request lands in one histogram keyed by
how it was served (``hit`` / ``executed`` / ``deduped`` / ``failed`` /
``rejected``), which is the number that makes the caching story
visible: hits are microseconds, executions are
milliseconds-to-seconds.  The overall rollup merges those histograms
via :meth:`~repro.obs.hist.Log2Histogram.merge`; because merge is
exact (bucket-wise addition), its percentiles equal those of the one
concatenated stream of every request — no averaging-of-percentiles
fallacy.  All five :data:`SERVED_AXES` appear in every snapshot —
empty histograms and all — so dashboards and ``april top`` bind to a
stable schema instead of key-probing; axes outside the standard five
(``error``) still appear lazily once observed.
"""

import time

from repro.obs.hist import Log2Histogram

#: Counter names, all starting at zero; ``snapshot`` emits every one
#: even when untouched so dashboards see a stable schema.
COUNTER_NAMES = (
    "connections",           # accepted, lifetime
    "requests",              # lines parsed OK, any op
    "jobs",                  # op=job requests admitted to handling
    "executed",              # single-flight leaders that ran a job
    "hit_hot",               # served from the in-memory LRU
    "hit_disk",              # served from the on-disk ResultCache
    "deduped",               # followers collapsed onto a flight
    "failed",                # job responses with status=failed
    "rejected_overload",     # queue-depth backpressure fast-fails
    "rejected_ratelimit",    # token-bucket fast-fails
    "rejected_draining",     # refused because SIGTERM drain started
    "bad_requests",          # malformed lines / specs
    "cancelled",             # flights cancelled: every waiter left
    "timeouts",              # pool-side job timeouts
)

#: Served axes every snapshot's ``latency_by_served`` always carries.
SERVED_AXES = ("hit", "executed", "deduped", "failed", "rejected")


class ServerMetrics:
    """Counters + latency histograms; the ``metrics`` op's backing."""

    def __init__(self, clock=time.monotonic):
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.by_served = {axis: Log2Histogram() for axis in SERVED_AXES}
        self.started_at = clock()
        self._clock = clock

    def bump(self, name, n=1):
        self.counts[name] += n

    def observe(self, served, latency_us):
        """Record one finished request's service latency."""
        hist = self.by_served.get(served)
        if hist is None:
            hist = self.by_served[served] = Log2Histogram()
        hist.record(latency_us)

    def rollup(self):
        """The merged service-latency histogram over every served axis."""
        merged = Log2Histogram()
        for hist in self.by_served.values():
            merged.merge(hist)
        return merged

    def snapshot(self, **sections):
        """The JSON-ready metrics dict; extra keyword sections (queue,
        workers, cache, ...) are spliced in verbatim."""
        rollup = self.rollup()
        counters = dict(self.counts)
        counters["cache_hits"] = (counters["hit_hot"]
                                  + counters["hit_disk"])
        data = {
            "uptime_s": round(self._clock() - self.started_at, 3),
            "counters": counters,
            "latency_us": rollup.to_dict(),
            "latency_by_served": {
                served: hist.to_dict()
                for served, hist in sorted(self.by_served.items())
            },
        }
        data.update(sections)
        return data
