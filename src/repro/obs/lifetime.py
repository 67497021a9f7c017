"""Per-virtual-thread cycle accounting with exact conservation.

The paper's Figure 5 decomposes *processor* time; this module does the
same lift for *threads*: every cycle of every virtual thread's life is
attributed to exactly one bucket, so "why is speedup sublinear" becomes
a table instead of a guess.  Two exact integer ledgers are kept:

**Node-time ledger** (conserved machine-wide), kept *by difference*.
The processor's six category counters (:class:`~repro.core.processor.
ProcessorStats`) already say what a node spent; what they do not say is
on whose behalf.  A node's *current owner* is the top of its owner
stack (pushed around work done with an empty frame: thread load/unload,
lazy-steal setup, the resolve a thread performs after its own
retirement), else the thread in the active task frame, else nobody —
per-node overhead (idle polling, IPI delivery at idle).
:meth:`LifetimeAccountant.settle` attributes the counters' growth since
the node's last settle to that owner, and runs *before every owner
change*: in :meth:`~LifetimeAccountant.push_owner` and
:meth:`~LifetimeAccountant.pop_owner`; in the scheduler's
``load_thread``/``unload_thread`` (through the push), ``retire_thread``
and ``activate_frame`` before ``frame.thread`` or ``cpu.fp`` moves; in
``INCFP``/``DECFP``/``STFP`` after their own cycle; and for every node
in :meth:`~LifetimeAccountant.finalize`.  So a thread's unsettled
cycles exist only on the node where it is the current owner, and every
load/unload/exit episode closes on exact totals.  Nothing is called per
instruction or per charge: generated blocks and run-ahead slices are
accounted with no code of their own, and a tail wound back by
``Processor.unrun_tail`` is wound back here because the counters are.
The invariant is exact, by construction::

    sum(per-thread on-cpu) + sum(per-node overhead) + sum(end skew)
        == machine.time * num_nodes

where ``end skew`` is each processor's distance from the final
``machine.time`` (the run ends when the root thread exits; other clocks
stop a few cycles short).  No float ever enters the ledger and there is
no "other" bucket.

**Per-thread wall ledger**.  The event stream (spawn / load / unload /
exit / wake) partitions each thread's life ``[spawn, end]`` into
contiguous segments: ``queue`` (ready, never run or re-queued),
``loaded`` (resident in a task frame), ``blocked`` (on a future's
waiter list).  Loaded segments subdivide into the on-cpu categories
charged during the episode plus ``loaded_wait`` (resident but a sibling
frame had the processor).  The per-thread invariant is also exact::

    queue_wait + runnable_unloaded + blocked_future + loaded
        == end_cycle - spawn_cycle

Event timestamps come from *different* local clocks, so a thread's
events can arrive with slightly decreasing cycles (a resolver whose
clock trails the blocker's).  Timestamps are clamped monotonically
per thread; the total clamped slack is reported as ``clock_slip`` so
the approximation is visible, and it never breaks either invariant.

Everything exported is byte-stable: a thread appears under its own tid
(its spawn index in the run) and name, so two runs of the same program
produce identical JSON.
"""

#: Processor charge category -> on-cpu accounting class, in the order
#: :meth:`LifetimeAccountant.settle` reads the category counters.
ONCPU_CLASS = {
    "useful": "running",
    "stall": "blocked_memory",
    "trap": "trap",
    "switch": "switch_spin",
    "spin": "switch_spin",
    "idle": "idle",
}
_CATEGORIES = tuple(ONCPU_CLASS)
_CLASSES = tuple(ONCPU_CLASS.values())
_UNSPENT = (0,) * len(_CATEGORIES)

#: On-cpu classes in fixed report order.
ONCPU_KEYS = ("running", "trap", "switch_spin", "blocked_memory", "idle")

#: Wall-clock wait classes in fixed report order.
WAIT_KEYS = ("queue_wait", "runnable_unloaded", "blocked_future",
             "loaded_wait")


class ConservationError(Exception):
    """The lifetime ledger failed an exact conservation check."""


class Segment:
    """One contiguous piece of a thread's life."""

    __slots__ = ("kind", "start", "end", "node", "frame", "cause",
                 "waker", "pc", "cell", "prev_free", "oncpu")

    def __init__(self, kind, start, end, node=None, frame=None, cause=None,
                 waker=None, pc=None, cell=None, prev_free=None, oncpu=None):
        self.kind = kind          # "queue" | "ready" | "loaded" | "blocked"
        self.start = start
        self.end = end
        self.node = node
        self.frame = frame
        self.cause = cause        # ("spawn", parent) | ("wake", waker) | ...
        self.waker = waker        # tid that resolved the future (blocked)
        self.pc = pc              # touch pc that blocked the thread
        self.cell = cell          # future cell address (blocked)
        self.prev_free = prev_free  # (cycle, tid) that freed the frame
        self.oncpu = oncpu        # {class: cycles} charged in the episode

    @property
    def length(self):
        return self.end - self.start


class ThreadLedger:
    """Both ledgers' per-thread state."""

    __slots__ = ("tid", "name", "parent", "home", "spawn_cycle", "end_cycle",
                 "done", "oncpu", "waits", "segments", "block_sites",
                 "_state", "_clock", "_episode_base", "clock_slip", "steals")

    def __init__(self, tid, name=None, parent=None, home=None, spawn_cycle=0):
        self.tid = tid
        self.name = name or ("thread-%d" % tid)
        self.parent = parent
        self.home = home
        self.spawn_cycle = spawn_cycle
        self.end_cycle = None
        self.done = False
        self.oncpu = {}           # node-time ledger: {class: cycles}
        self.waits = {}           # wall ledger: {wait class: cycles}
        self.segments = []
        self.block_sites = {}     # pc -> blocked cycles
        #: Open state: ("queue"/"ready", since, cause) or
        #: ("loaded", since, node, frame) or ("blocked", since, cell, pc).
        self._state = ("queue", spawn_cycle, ("spawn", parent))
        self._clock = spawn_cycle
        self._episode_base = None
        self.clock_slip = 0
        self.steals = 0

    def timestamp(self, cycle):
        """Clamp an event cycle monotonically for this thread."""
        if cycle < self._clock:
            self.clock_slip += self._clock - cycle
            return self._clock
        self._clock = cycle
        return cycle

    def wall_total(self):
        return sum(seg.length for seg in self.segments)


class LifetimeAccountant:
    """The per-thread lifetime accountant (see module docstring).

    Wire it through :class:`repro.obs.session.Observation` with
    ``threads=True``; it subscribes to the machine's event bus
    synchronously (so no ring capacity truncates its view), and the
    scheduler, the run-time system and the frame-pointer instructions
    call :meth:`settle` through that bus's ``lifetime`` attribute.
    """

    def __init__(self):
        self.threads = {}         # tid -> ThreadLedger
        self.order = []           # tids in first-seen order
        self.node_attr = {}       # node -> cycles attributed on that node
        self.node_overhead = {}   # node -> {category: cycles} (no thread)
        self.node_skew = {}       # node -> machine.time - cpu.cycles
        self.last_exit = None     # (cycle, tid) of the latest THREAD_EXIT
        self.end_cycle = None
        self.nodes = None
        self._owner = {}          # node -> [tid] override stack
        self._settled = {}        # node -> category counters at last settle
        self._settled_total = {}  # node -> their sum (``stats._total``)
        self._frame_free = {}     # (node, frame) -> (cycle, tid)
        self._finalized = False

    # -- wiring ----------------------------------------------------------

    def subscribe(self, bus):
        """Attach the event-stream half to a bus (synchronous); returns
        the six :class:`~repro.obs.events.Subscription` handles."""
        from repro.obs.events import EventKind
        return [bus.subscribe(callback, kind) for callback, kind in (
            (self._on_spawn, EventKind.THREAD_SPAWN),
            (self._on_load, EventKind.THREAD_LOAD),
            (self._on_unload, EventKind.THREAD_UNLOAD),
            (self._on_exit, EventKind.THREAD_EXIT),
            (self._on_wake, EventKind.THREAD_WAKE),
            (self._on_steal, EventKind.THREAD_STEAL))]

    # -- node-time ledger (by difference) --------------------------------

    def push_owner(self, cpu, tid):
        """Attribute what this node does from here on to ``tid``."""
        self.settle(cpu)
        self._owner.setdefault(cpu.node_id, []).append(tid)

    def pop_owner(self, cpu):
        self.settle(cpu)
        self._owner[cpu.node_id].pop()

    def settle(self, cpu):
        """Attribute this node's cycles since its last settle to its
        current owner.  Call before anything changes who that is."""
        node = cpu.node_id
        stats = cpu.stats
        total = stats._total
        # Only ``Processor.unrun_tail`` lowers a counter, and a node
        # holding a tail neither runs nor settles until it is taken
        # back: no counter falls below its settled value, so an
        # unmoved sum means unmoved counters.
        if total == self._settled_total.get(node, 0):
            return
        self._settled_total[node] = total
        now = (stats.useful, stats.stall, stats.trap, stats.switch,
               stats.spin, stats.idle)
        last = self._settled.get(node, _UNSPENT)
        self._settled[node] = now
        stack = self._owner.get(node)
        if stack:
            tid = stack[-1]
        else:
            thread = cpu.frames[cpu.fp].thread
            tid = thread.tid if thread is not None else None
        if tid is None:
            bucket, keys = self.node_overhead.setdefault(node, {}), _CATEGORIES
        else:
            bucket, keys = self._ledger(tid).oncpu, _CLASSES
        for key, after, before in zip(keys, now, last):
            if after != before:
                bucket[key] = bucket.get(key, 0) + after - before
        self.node_attr[node] = total

    # -- wall ledger (event stream) --------------------------------------

    def _ledger(self, tid, cycle=0, name=None, parent=None, home=None):
        ledger = self.threads.get(tid)
        if ledger is None:
            ledger = ThreadLedger(tid, name=name, parent=parent, home=home,
                                  spawn_cycle=cycle)
            self.threads[tid] = ledger
            self.order.append(tid)
        return ledger

    def _on_spawn(self, event):
        data = event.data
        self._ledger(data["tid"], cycle=event.cycle,
                     name=data.get("thread"), parent=data.get("parent"),
                     home=data.get("home"))

    def _close_wait(self, ledger, t, prev_free=None):
        """Close the open queue/ready/blocked state at ``t``."""
        kind, since = ledger._state[0], ledger._state[1]
        if kind in ("queue", "ready"):
            seg = Segment(kind, since, t, cause=ledger._state[2],
                          prev_free=prev_free)
            bucket = "queue_wait" if kind == "queue" else "runnable_unloaded"
        else:                     # blocked
            _, _, cell, pc = ledger._state
            seg = Segment("blocked", since, t, cell=cell, pc=pc)
            bucket = "blocked_future"
            if pc is not None and t > since:
                ledger.block_sites[pc] = (
                    ledger.block_sites.get(pc, 0) + (t - since))
        ledger.segments.append(seg)
        ledger.waits[bucket] = ledger.waits.get(bucket, 0) + seg.length
        return seg

    def _close_episode(self, ledger, t):
        """Close the open loaded episode at ``t``."""
        _, since, node, frame = ledger._state
        base = ledger._episode_base or {}
        delta = {}
        for key, value in ledger.oncpu.items():
            diff = value - base.get(key, 0)
            if diff:
                delta[key] = diff
        spent = sum(delta.values())
        if t < since + spent:
            # Charges overflow the clamped wall window (cross-clock
            # skew): stretch the episode so loaded_wait stays >= 0.
            ledger.clock_slip += since + spent - t
            t = since + spent
            ledger._clock = t
        seg = Segment("loaded", since, t, node=node, frame=frame,
                      oncpu=delta)
        ledger.segments.append(seg)
        ledger.waits["loaded_wait"] = (
            ledger.waits.get("loaded_wait", 0) + seg.length - spent)
        ledger._episode_base = None
        return seg, t

    def _on_load(self, event):
        data = event.data
        ledger = self._ledger(data["tid"], cycle=event.cycle,
                              name=data.get("thread"))
        t = ledger.timestamp(event.cycle)
        key = (event.node, data.get("frame"))
        self._close_wait(ledger, t, prev_free=self._frame_free.get(key))
        ledger._state = ("loaded", t, event.node, data.get("frame"))
        ledger._episode_base = dict(ledger.oncpu)

    def _on_unload(self, event):
        data = event.data
        ledger = self._ledger(data["tid"], cycle=event.cycle)
        t = ledger.timestamp(event.cycle)
        if ledger._state[0] == "loaded":
            _, t = self._close_episode(ledger, t)
        else:                     # defensive: unload without a load seen
            self._close_wait(ledger, t)
        self._frame_free[(event.node, data.get("frame"))] = (t, ledger.tid)
        if data.get("state") == "blocked":
            ledger._state = ("blocked", t, data.get("cell"), data.get("pc"))
        else:
            ledger._state = ("ready", t, ("yield", None))

    def _on_exit(self, event):
        data = event.data
        ledger = self._ledger(data["tid"], cycle=event.cycle)
        t = ledger.timestamp(event.cycle)
        if ledger._state[0] == "loaded":
            _, t = self._close_episode(ledger, t)
        else:                     # defensive: exit without a residency
            self._close_wait(ledger, t)
        self._frame_free[(event.node, data.get("frame"))] = (t, ledger.tid)
        ledger.end_cycle = t
        ledger.done = True
        ledger._state = None
        self.last_exit = (t, ledger.tid)

    def _on_wake(self, event):
        data = event.data
        ledger = self._ledger(data["tid"], cycle=event.cycle)
        if ledger._state is None or ledger._state[0] != "blocked":
            return                # defensive: wake of a non-blocked thread
        t = ledger.timestamp(event.cycle)
        seg = self._close_wait(ledger, t)
        seg.waker = data.get("waker")
        ledger._state = ("ready", t, ("wake", data.get("waker")))

    def _on_steal(self, event):
        ledger = self.threads.get(event.data.get("tid"))
        if ledger is not None:
            ledger.steals += 1

    # -- finalize + conservation -----------------------------------------

    def finalize(self, machine):
        """Close every open state at run end; idempotent."""
        if self._finalized:
            return self
        self._finalized = True
        self.end_cycle = machine.time
        self.nodes = len(machine.cpus)
        for cpu in machine.cpus:
            self.settle(cpu)
            self.node_skew[cpu.node_id] = machine.time - cpu.cycles
            self.node_attr.setdefault(cpu.node_id, 0)
        for tid in self.order:
            ledger = self.threads[tid]
            if ledger._state is None:
                continue
            t = max(machine.time, ledger._clock)
            if ledger._state[0] == "loaded":
                _, t = self._close_episode(ledger, t)
            else:
                self._close_wait(ledger, t)
            ledger.end_cycle = t
            ledger._state = None
        return self

    def conservation(self):
        """Both exact invariants as a JSON-ready dict."""
        if not self._finalized:
            raise ConservationError("finalize(machine) must run first")
        thread_cycles = sum(sum(l.oncpu.values())
                            for l in self.threads.values())
        overhead = sum(sum(b.values())
                       for b in self.node_overhead.values())
        skew = sum(self.node_skew.values())
        attributed = thread_cycles + overhead + skew
        expected = self.end_cycle * self.nodes
        node_ok = all(
            self.node_attr.get(node, 0) + self.node_skew[node]
            == self.end_cycle for node in self.node_skew)
        wall_bad = []
        slip = 0
        for tid in self.order:
            ledger = self.threads[tid]
            slip += ledger.clock_slip
            span = (ledger.end_cycle or ledger.spawn_cycle) - ledger.spawn_cycle
            if ledger.wall_total() != span:
                wall_bad.append(tid)
        return {
            "machine_cycles": self.end_cycle,
            "nodes": self.nodes,
            "cycles_x_nodes": expected,
            "attributed": attributed,
            "thread_cycles": thread_cycles,
            "node_overhead": overhead,
            "end_skew": skew,
            "exact": attributed == expected and node_ok and not wall_bad,
            "clock_slip": slip,
        }

    def check(self):
        """Raise :class:`ConservationError` unless both ledgers balance."""
        data = self.conservation()
        if not data["exact"]:
            raise ConservationError(
                "lifetime ledger out of balance: attributed %d != %d "
                "(machine %d x %d nodes)"
                % (data["attributed"], data["cycles_x_nodes"],
                   data["machine_cycles"], data["nodes"]))
        return data

    # -- byte-stable export ----------------------------------------------

    def to_dict(self, source_map=None, top=None):
        """JSON-ready accounting tables (run-stable byte-for-byte).

        With ``top``, only the ``top`` threads with the most cycles
        (on-cpu plus waits; the earlier-seen first among equals) get a
        row, in first-seen order.
        """
        order = self.order
        if top is not None and len(order) > top:
            def spent(tid):
                ledger = self.threads[tid]
                return (sum(ledger.oncpu.values())
                        + sum(ledger.waits.values()))
            kept = set(sorted(order, key=lambda tid: -spent(tid))[:top])
            order = [tid for tid in order if tid in kept]
        rows = []
        for tid in order:
            ledger = self.threads[tid]
            sites = []
            for pc, cycles in sorted(ledger.block_sites.items(),
                                     key=lambda kv: (-kv[1], kv[0])):
                site = {"pc": pc, "cycles": cycles}
                if source_map is not None and pc in source_map:
                    line, text = source_map[pc]
                    site["line"] = line
                    site["text"] = text
                sites.append(site)
            rows.append({
                "tid": tid,
                "name": ledger.name,
                "parent": ledger.parent,
                "home": ledger.home,
                "spawn": ledger.spawn_cycle,
                "end": ledger.end_cycle,
                "done": ledger.done,
                "episodes": sum(1 for s in ledger.segments
                                if s.kind == "loaded"),
                "steals": ledger.steals,
                "oncpu": {k: ledger.oncpu.get(k, 0) for k in ONCPU_KEYS
                          if ledger.oncpu.get(k, 0)},
                "waits": {k: ledger.waits.get(k, 0) for k in WAIT_KEYS
                          if ledger.waits.get(k, 0)},
                "block_sites": sites,
            })
        totals_on = {}
        totals_wait = {}
        for ledger in self.threads.values():
            for key, value in ledger.oncpu.items():
                totals_on[key] = totals_on.get(key, 0) + value
            for key, value in ledger.waits.items():
                totals_wait[key] = totals_wait.get(key, 0) + value
        return {
            "conservation": self.conservation(),
            "node_overhead": {
                str(node): dict(sorted(
                    list(self.node_overhead.get(node, {}).items())
                    + [("end_skew", self.node_skew[node])]))
                for node in sorted(self.node_skew)},
            "totals": {
                "oncpu": {k: totals_on.get(k, 0) for k in ONCPU_KEYS
                          if totals_on.get(k, 0)},
                "waits": {k: totals_wait.get(k, 0) for k in WAIT_KEYS
                          if totals_wait.get(k, 0)},
            },
            "threads": rows,
        }

    def render(self, source_map=None, top=12):
        """Human-readable per-thread table."""
        data = self.to_dict(source_map=source_map)
        cons = data["conservation"]
        lines = [
            "per-thread cycle accounting (%d threads, %d nodes, %d cycles)"
            % (len(self.order), cons["nodes"], cons["machine_cycles"]),
            "conservation: %s (%d attributed == %d x %d + skew %d)"
            % ("exact" if cons["exact"] else "BROKEN",
               cons["attributed"], cons["machine_cycles"], cons["nodes"],
               cons["end_skew"]),
            "",
            "%-5s %-18s %8s %8s %8s %8s %8s %8s %8s" % (
                "tid", "name", "run", "trap", "switch", "memstall",
                "queue", "blocked", "loadwait"),
        ]
        rows = sorted(
            data["threads"],
            key=lambda r: -(sum(r["oncpu"].values())
                            + sum(r["waits"].values())))
        for row in rows[:top]:
            on, wait = row["oncpu"], row["waits"]
            lines.append("%-5d %-18s %8d %8d %8d %8d %8d %8d %8d" % (
                row["tid"], row["name"][:18], on.get("running", 0),
                on.get("trap", 0), on.get("switch_spin", 0),
                on.get("blocked_memory", 0),
                wait.get("queue_wait", 0)
                + wait.get("runnable_unloaded", 0),
                wait.get("blocked_future", 0), wait.get("loaded_wait", 0)))
        if len(rows) > top:
            lines.append("... %d more threads" % (len(rows) - top))
        return "\n".join(lines)
