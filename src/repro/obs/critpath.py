"""Causal critical-path analysis over the lifetime ledgers.

The question Table 3 leaves open is *why* speedup is sublinear.  This
module answers it by walking the causal DAG the
:class:`~repro.obs.lifetime.LifetimeAccountant` recorded:

* **spawn edges** — a thread's first cycle depends on its parent at the
  spawn cycle;
* **future edges** — a blocked consumer's resume depends on the
  producer thread at the resolve cycle (the ``THREAD_WAKE`` waker);
* **scheduler load edges** — a queued thread's load depends on the
  thread that freed the task frame it was loaded into (full/empty
  producer→consumer waits surface here too: a full/empty yield re-queues
  the consumer, whose reload then depends on a frame freed by another
  thread).

Starting from the thread exit that ended the run, a backward
*last-arrival* walk tiles the interval ``[0, T_end]`` with segments of
whichever thread the binding dependency runs through: at a blocked
segment it jumps into the resolver; at a queue segment whose frame
freed *after* the thread became ready it jumps into the frame's
previous occupant; otherwise it consumes the segment and keeps walking
the same thread.  The result is one contiguous chain whose length is
the run's makespan — by construction ``<= machine.time`` and (for any
run that ends with the root exit) far above ``machine.time / nodes``.

Two exact decompositions of the same path are reported:

* **what** — the covering segment's activity (running, trap,
  switch-spin, memory stall, loaded-wait, queue-wait, ...): what the
  machine was doing along the path;
* **why** — while the walk is *inside* a future edge (covering time the
  downstream consumer spent blocked), cycles are attributed to the
  consumer's touch site.  "41% of critical path is blocked-on-future at
  line 7" means: 41% of the makespan was spent computing values some
  path-side consumer was blocked on at that line.

Both decompositions tile the path exactly (integer pro-rata split with
largest-remainder rounding inside loaded episodes).
"""

from bisect import bisect_left

from repro.obs.lifetime import Segment

#: Path "what" classes in fixed report order.
WHAT_KEYS = ("running", "trap", "switch_spin", "blocked_memory",
             "loaded_wait", "queue_wait", "runnable_unloaded",
             "blocked_future", "idle", "skew")

_WAIT_WHAT = {"queue": "queue_wait", "ready": "runnable_unloaded",
              "blocked": "blocked_future"}

#: Walk-step budget: far above any real chain, guards malformed data.
MAX_STEPS = 2_000_000


class PathStep:
    """One consumed interval of the critical path."""

    __slots__ = ("start", "end", "tid", "what", "site")

    def __init__(self, start, end, tid, what, site):
        self.start = start
        self.end = end
        self.tid = tid
        self.what = what          # {class: cycles} tiling end - start
        self.site = site          # blocking touch pc in effect, or None


class CriticalPath:
    """The computed path plus its two decompositions."""

    def __init__(self, accountant, anchor_tid, anchor_cycle, steps,
                 what_totals, why_totals, truncated):
        self.accountant = accountant
        self.anchor_tid = anchor_tid
        self.anchor_cycle = anchor_cycle
        self.steps = steps        # chronological PathSteps
        self.what = what_totals   # {class: cycles}
        self.why = why_totals     # {pc or None: cycles}
        self.truncated = truncated
        #: The steps tile the path, and ``what`` sums their tilings.
        self.length = sum(what_totals.values())

    def ranked_why(self, source_map=None, top=None):
        """The "why not linear" ranking, largest cause first."""
        length = self.length or 1
        entries = []
        for pc, cycles in self.why.items():
            entry = {"cycles": cycles,
                     "share": round(cycles / length, 4)}
            if pc is None:
                entry["cause"] = "critical-chain-compute"
            else:
                entry["cause"] = "blocked-on-future"
                entry["pc"] = pc
                if source_map is not None and pc in source_map:
                    line, text = source_map[pc]
                    entry["line"] = line
                    entry["text"] = text
            entries.append(entry)
        entries.sort(key=lambda e: (-e["cycles"], e.get("pc", -1)))
        return entries[:top] if top is not None else entries

    def to_dict(self, source_map=None, top=None):
        return {
            "anchor": {"tid": self.anchor_tid, "cycle": self.anchor_cycle},
            "length": self.length,
            "machine_cycles": self.accountant.end_cycle,
            "nodes": self.accountant.nodes,
            "share_of_run": round(
                self.length / self.accountant.end_cycle, 4)
            if self.accountant.end_cycle else 0.0,
            "steps": len(self.steps),
            "truncated": self.truncated,
            "what": {k: self.what.get(k, 0) for k in WHAT_KEYS
                     if self.what.get(k, 0)},
            "why": self.ranked_why(source_map=source_map, top=top),
        }

    def dominant_blocker(self, source_map=None):
        """The largest blocked-on-future cause, or None when the chain
        is compute-bound."""
        for entry in self.ranked_why(source_map=source_map):
            if entry["cause"] == "blocked-on-future":
                return entry
        return None

    def render(self, source_map=None, top=8):
        """The ranked "why not linear" report as text."""
        data = self.to_dict(source_map=source_map, top=top)
        lines = [
            "critical path: %d cycles (%d%% of the %d-cycle run on %d "
            "nodes)%s" % (
                data["length"], round(100 * data["share_of_run"]),
                data["machine_cycles"], data["nodes"],
                "  [truncated]" if data["truncated"] else ""),
            "",
            "why not linear (share of critical path):",
        ]
        for entry in data["why"]:
            label = entry["cause"]
            if "line" in entry:
                label = "blocked-on-future at line %d: %s" % (
                    entry["line"], entry["text"])
            elif "pc" in entry:
                label = "blocked-on-future at pc=%#x" % entry["pc"]
            lines.append("  %5.1f%%  %10d cyc  %s"
                         % (100 * entry["share"], entry["cycles"], label))
        lines.append("")
        lines.append("what the path was doing:")
        length = data["length"] or 1
        for key in WHAT_KEYS:
            cycles = data["what"].get(key, 0)
            if cycles:
                lines.append("  %5.1f%%  %10d cyc  %s"
                             % (100.0 * cycles / length, cycles, key))
        return "\n".join(lines)


def _split_loaded(segment, span):
    """Integer pro-rata split of ``span`` path cycles across an episode's
    activity mix (largest-remainder rounding; exact tiling)."""
    total = segment.length
    mix = dict(segment.oncpu or {})
    spent = sum(mix.values())
    if total > spent:
        mix["loaded_wait"] = total - spent
    if not mix or total <= 0:
        return {"loaded_wait": span}
    if span == total:
        return mix
    shares = {}
    remainders = []
    allocated = 0
    for key in sorted(mix):
        exact = mix[key] * span
        shares[key] = exact // total
        allocated += shares[key]
        remainders.append((-(exact % total), key))
    remainders.sort()
    for _, key in remainders[: span - allocated]:
        shares[key] += 1
    return {k: v for k, v in shares.items() if v}


def analyze(accountant, source_map=None):
    """Walk the causal DAG backward from the run-ending exit.

    The accountant must be finalized.  Returns a :class:`CriticalPath`.
    """
    threads = accountant.threads
    if accountant.last_exit is not None:
        anchor_cycle, anchor_tid = accountant.last_exit
    elif accountant.order:
        anchor_tid = max(
            accountant.order,
            key=lambda tid: threads[tid].end_cycle or 0)
        anchor_cycle = threads[anchor_tid].end_cycle or 0
    else:
        return CriticalPath(accountant, None, 0, [], {}, {}, False)
    anchor_cycle = min(anchor_cycle, accountant.end_cycle or anchor_cycle)

    starts = {}                   # tid -> its segments' starts, as visited

    steps = []
    what_totals = {}
    why_totals = {}
    wait_stack = []               # [(pc, floor)] of open future edges
    jumped = set()                # (tid, cycle) future-edge jumps taken
    tid, t = anchor_tid, anchor_cycle
    truncated = False

    def consume(a, b, owner, mix):
        site = wait_stack[-1][0] if wait_stack else None
        steps.append(PathStep(a, b, owner, mix, site))
        for key, value in mix.items():
            what_totals[key] = what_totals.get(key, 0) + value
        why_totals[site] = why_totals.get(site, 0) + (b - a)

    guard = 0
    while t > 0:
        guard += 1
        if guard > MAX_STEPS:
            truncated = True
            break
        while wait_stack and wait_stack[-1][1] >= t:
            wait_stack.pop()
        ledger = threads.get(tid)
        if ledger is None:
            truncated = True
            break
        # The walk reads the ledger's segment log (the tuples of
        # :meth:`~repro.obs.lifetime.Segment.from_entry`) and builds a
        # Segment only for an episode it splits.
        log = ledger.log
        bounds = starts.get(tid)
        if bounds is None:
            bounds = starts[tid] = [entry[1] for entry in log]
        index = bisect_left(bounds, t) - 1
        if index < 0:
            # Before the thread's first segment: follow the spawn edge.
            parent = ledger.parent
            if parent is None or parent not in threads or parent == tid:
                break
            t = min(t, ledger.spawn_cycle)
            tid = parent
            continue
        entry = log[index]
        kind, start, end = entry[0], entry[1], entry[2]
        if end < t:
            # Cross-clock skew gap between threads; keep the tiling
            # honest by booking the hole explicitly.
            consume(end, t, tid, {"skew": t - end})
            t = end
            continue
        if kind == "blocked":
            _, _, _, _, pc, waker = entry
            if (waker is not None and waker != tid and waker in threads
                    and start < t and (waker, t) not in jumped):
                # Future edge: the wait is covered by the producer chain.
                jumped.add((waker, t))
                wait_stack.append((pc, start))
                tid = waker
                continue
            consume(start, t, tid, {"blocked_future": t - start})
            t = start
            continue
        if kind != "loaded":
            prev = entry[4]
            if (prev is not None and prev[1] is not None
                    and prev[1] != tid and prev[1] in threads
                    and start < prev[0] < t):
                # Frame-limited wait: the load depended on the previous
                # occupant freeing the frame, not on our readiness.
                consume(prev[0], t, tid, {_WAIT_WHAT[kind]: t - prev[0]})
                t, tid = prev
                continue
            consume(start, t, tid, {_WAIT_WHAT[kind]: t - start})
            t = start
            continue
        # Loaded episode: split the covered span across its activity mix.
        consume(start, t, tid,
                _split_loaded(Segment.from_entry(entry), t - start))
        t = start

    steps.reverse()
    return CriticalPath(accountant, anchor_tid, anchor_cycle, steps,
                        what_totals, why_totals, truncated)


def summarize(accountant, source_map=None, top=3):
    """Compact per-cell summary for the experiment engine.

    Small and JSON-ready: cached sweep cells carry this so
    ``april speedup`` can print the dominant blocker per (program,
    nodes) cell without re-running anything.
    """
    path = analyze(accountant, source_map=source_map)
    cons = accountant.conservation()
    dominant = path.dominant_blocker(source_map=source_map)
    return {
        "length": path.length,
        "share_of_run": round(path.length / cons["machine_cycles"], 4)
        if cons["machine_cycles"] else 0.0,
        "conservation_exact": cons["exact"],
        "what": {k: path.what.get(k, 0) for k in WHAT_KEYS
                 if path.what.get(k, 0)},
        "why": path.ranked_why(source_map=source_map, top=top),
        "dominant": dominant,
    }
