"""Per-virtual-thread cycle accounting with exact conservation.

The paper's Figure 5 decomposes *processor* time; this module does the
same lift for *threads*: every cycle of every virtual thread's life is
attributed to exactly one bucket, so "why is speedup sublinear" becomes
a table instead of a guess.  Two exact integer ledgers are kept.

The run-time system and the scheduler call the accountant directly,
once per scheduling event (spawn, load, unload, retire, wake, steal, a
lazy steal's set-up), and ``activate_frame`` and the frame-pointer
instructions call :meth:`~LifetimeAccountant.settle`.  A call appends
one tuple to a log: what it was told and, where it has a processor in
hand, that processor's counters and owner as they are now
(:func:`_stamp`).  The ledgers below are folded from the log, in order,
when somebody reads them and every :data:`_FOLD_AT` entries; the fold
is where everything described here happens.

**Node-time ledger** (conserved machine-wide), kept *by difference*.
The processor's six category counters (:class:`~repro.core.processor.
ProcessorStats`) already say what a node spent; what they do not say is
on whose behalf.  A node's *owner* is the thread in its active task
frame, else nobody — per-node overhead (idle polling, IPI delivery at
idle).  Settling attributes the counters' growth since the node's
last settle to that owner, and happens at every stamp, so *before
every owner change*: in the scheduler's ``activate_frame`` before
``cpu.fp`` moves; in ``INCFP``/``DECFP``/``STFP`` after their own
cycle; at every scheduling call with a processor; and for every node
in :meth:`~LifetimeAccountant.finalize`.  Work done with an empty
frame on a thread's behalf — its load and unload, the resolve it
performs after its own retirement, a lazy steal's set-up — is one
known charge, so the scheduling call that precedes it *books* it: the
thread is credited the cycles at once and the node's settled counters
move ahead by as much, so the charge that follows settles to nobody
(:meth:`~LifetimeAccountant.credit`).  A thread's unsettled cycles
therefore exist only on the node whose active frame holds it, and
every load/unload/exit episode closes on exact totals.  Nothing is
called per instruction or per charge: generated blocks and run-ahead
slices are accounted with no code of their own, and a tail wound back
by ``Processor.unrun_tail`` is wound back here because the counters
are.  The invariant is exact, by construction::

    sum(per-thread on-cpu) + sum(per-node overhead) + sum(end skew)
        == machine.time * num_nodes

where ``end skew`` is each processor's distance from the final
``machine.time`` (the run ends when the root thread exits; other clocks
stop a few cycles short).  No float ever enters the ledger and there is
no "other" bucket.

**Per-thread wall ledger**.  The scheduling calls (spawn / load /
unload / retire / wake) partition each thread's life ``[spawn, end]``
into contiguous segments: ``queue`` (ready, never run or re-queued),
``loaded`` (resident in a task frame), ``blocked`` (on a future's
waiter list).  Loaded segments subdivide into the on-cpu categories
charged during the episode plus ``loaded_wait`` (resident but a sibling
frame had the processor).  The per-thread invariant is also exact::

    queue_wait + runnable_unloaded + blocked_future + loaded
        == end_cycle - spawn_cycle

A closed segment is kept as one tuple (:attr:`ThreadLedger.log`) and
its length added to its class; :attr:`ThreadLedger.segments` builds
:class:`Segment` objects from those tuples when somebody reads them
(the Perfetto exporter; the critical-path walk reads the tuples).

Timestamps come from *different* local clocks, so a thread's
scheduling calls can arrive with slightly decreasing cycles (a resolver
whose clock trails the blocker's).  Timestamps are clamped monotonically
per thread; the total clamped slack is reported as ``clock_slip`` so
the approximation is visible, and it never breaks either invariant.

Everything exported is byte-stable: a thread appears under its own tid
(its spawn index in the run) and name, so two runs of the same program
produce identical JSON.
"""

from operator import sub

#: Processor charge category -> on-cpu accounting class, in the order
#: :func:`_stamp` reads the category counters.
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
#: Where a booked charge lands: its counter's index, its class.
_SWITCH = (_CATEGORIES.index("switch"), "switch_spin")
_TRAP = (_CATEGORIES.index("trap"), "trap")
_YIELD = ("yield", None)

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

    @classmethod
    def from_entry(cls, entry):
        """The segment a :attr:`ThreadLedger.log` tuple records:
        ``("queue"|"ready", start, end, cause, prev_free)``,
        ``("blocked", start, end, cell, pc, waker)`` or ``("loaded",
        start, end, node, frame, the episode's :func:`_classes`)``."""
        kind, start, end = entry[0], entry[1], entry[2]
        if kind == "loaded":
            _, _, _, node, frame, delta = entry
            oncpu = {key: cycles for key, cycles in zip(ONCPU_KEYS, delta)
                     if cycles}
            return cls(kind, start, end, node=node, frame=frame,
                       oncpu=oncpu)
        if kind == "blocked":
            _, _, _, cell, pc, waker = entry
            return cls(kind, start, end, waker=waker, pc=pc, cell=cell)
        return cls(kind, start, end, cause=entry[3], prev_free=entry[4])


def _classes(oncpu):
    """An on-cpu ledger as a tuple in :data:`ONCPU_KEYS` order."""
    get = oncpu.get
    return (get("running", 0), get("trap", 0), get("switch_spin", 0),
            get("blocked_memory", 0), get("idle", 0))


class ThreadLedger:
    """Both ledgers' per-thread state."""

    __slots__ = ("tid", "_name", "parent", "home", "spawn_cycle",
                 "end_cycle", "done", "oncpu", "spent", "queue_wait",
                 "runnable_unloaded", "blocked_future", "loaded_wait",
                 "wall", "episodes", "_sites", "log", "_segments", "_state",
                 "_clock", "clock_slip", "steals")

    def __init__(self, tid, name=None, parent=None, home=None, spawn_cycle=0):
        self.tid = tid
        self._name = name
        self.parent = parent
        self.home = home
        self.spawn_cycle = spawn_cycle
        self.end_cycle = None
        self.done = False
        self.oncpu = {}           # node-time ledger: {class: cycles}
        self.spent = 0            # sum(oncpu.values()), kept as it grows
        # The wall ledger, one counter per class of :data:`WAIT_KEYS`.
        self.queue_wait = self.runnable_unloaded = 0
        self.blocked_future = self.loaded_wait = 0
        self.wall = 0             # the closed segments' total length
        self.episodes = 0         # loaded segments closed
        self._sites = None        # pc -> blocked cycles, once blocked
        self.log = []             # closed segments, as tuples
        self._segments = None
        #: Open state: ("queue"/"ready", since, cause) or ("loaded",
        #: since, node, frame, :func:`_classes` of oncpu, spent) or
        #: ("blocked", since, cell, pc).
        self._state = ("queue", spawn_cycle, ("spawn", parent))
        self._clock = spawn_cycle
        self.clock_slip = 0
        self.steals = 0

    @property
    def name(self):
        """The name given at spawn, or ``thread-<tid>``."""
        return self._name or "thread-%d" % self.tid

    @property
    def waits(self):
        """The wall ledger: {wait class: cycles}, nonzero classes."""
        return {key: cycles for key, cycles in zip(WAIT_KEYS, (
            self.queue_wait, self.runnable_unloaded, self.blocked_future,
            self.loaded_wait)) if cycles}

    @property
    def block_sites(self):
        """pc -> cycles blocked on a future by the touch there."""
        return self._sites if self._sites is not None else {}

    @property
    def segments(self):
        """The closed segments as :class:`Segment` objects, built from
        :attr:`log` on first read."""
        segments = self._segments
        if segments is None:
            segments = self._segments = []
        if len(segments) < len(self.log):
            segments.extend(Segment.from_entry(entry)
                            for entry in self.log[len(segments):])
        return segments

    def timestamp(self, cycle):
        """Clamp an event cycle monotonically for this thread."""
        if cycle < self._clock:
            self.clock_slip += self._clock - cycle
            return self._clock
        self._clock = cycle
        return cycle

    def wall_total(self):
        return sum(seg.length for seg in self.segments)


#: Scheduling-call log entry kinds.  The first five are made with a
#: processor in hand and carry its :func:`_stamp`.
_SETTLE, _LOAD, _UNLOAD, _RETIRE, _CREDIT, _SPAWN, _WAKE, _STEAL = range(8)

#: Log entries a spawn folds at, which bounds what the log holds.
_FOLD_AT = 128


def _stamp(cpu):
    """What settling a node needs of its processor, read now: ``(node,
    owner tid or None, counter total, the six category counters,
    cycles)``."""
    stats = cpu.stats
    thread = cpu.frames[cpu.fp].thread
    return (cpu.node_id, thread.tid if thread is not None else None,
            stats._total, stats.useful, stats.stall, stats.trap,
            stats.switch, stats.spin, stats.idle, cpu.cycles)


class LifetimeAccountant:
    """The per-thread lifetime accountant (see module docstring).

    Wire it through :class:`repro.obs.session.Observation` with
    ``threads=True``, which sets it as the machine bus's ``lifetime``
    attribute.  It subscribes to nothing: the run-time system and the
    scheduler call it directly, once per scheduling event
    (:meth:`spawn`, :meth:`load`, :meth:`unload`, :meth:`retire`,
    :meth:`wake`, :meth:`steal`, :meth:`credit`), and
    ``activate_frame`` and the frame-pointer instructions call
    :meth:`settle`.  So it builds no event and no ring capacity
    truncates its view.

    A call only appends what it was told, and what it reads of the
    processor, to a log; the ledgers are folded from the log in one
    pass when somebody reads them (:attr:`threads`, :attr:`node_attr`,
    ... and :meth:`finalize`), so a run pays one tuple per scheduling
    event and the accounting runs once, at the end.
    """

    def __init__(self):
        self._log = []            # scheduling calls not folded yet
        self._threads = {}        # tid -> ThreadLedger
        self._node_attr = {}      # node -> cycles settled or booked there
        self._node_overhead = {}  # node -> {category: cycles} (no thread)
        #: node -> tid of its latest booking, which owns the node's
        #: charges while its counters total no more than ``node_attr``.
        self._owners = {}
        self._settled = {}        # node -> category counters + bookings
        self._frame_free = {}     # (node, frame) -> (cycle, tid)
        self._last_exit = None    # (cycle, tid) of the latest retirement
        self.node_skew = {}       # node -> machine.time - cpu.cycles
        self.end_cycle = None
        self.nodes = None
        self._finalized = False

    # -- the folded ledgers ----------------------------------------------

    @property
    def threads(self):
        """tid -> :class:`ThreadLedger`, in first-seen order."""
        self._fold()
        return self._threads

    @property
    def order(self):
        """tids in first-seen order."""
        return list(self.threads)

    @property
    def node_attr(self):
        """node -> cycles attributed (settled or booked) there."""
        self._fold()
        return self._node_attr

    @property
    def node_overhead(self):
        """node -> {category: cycles} its owner was nobody for."""
        self._fold()
        return self._node_overhead

    @property
    def _owner(self):
        """node -> tid of its latest booking (see :meth:`credit`)."""
        self._fold()
        return self._owners

    @property
    def last_exit(self):
        """``(cycle, tid)`` of the latest retirement."""
        self._fold()
        return self._last_exit

    # -- scheduling calls (logged) ---------------------------------------

    def settle(self, cpu):
        """Attribute this node's cycles since its last settle to its
        owner.  Call before anything changes who that is."""
        self._log.append((_SETTLE, _stamp(cpu)))

    def credit(self, cpu, tid, cycles, category):
        """Settle the node, then credit ``tid`` the ``cycles`` of
        ``category`` its caller charges the node next (a lazy steal's
        set-up: the stolen thread's start-up, not the thief's idle
        time)."""
        self._log.append((_CREDIT, _stamp(cpu), tid, cycles,
                          (_CATEGORIES.index(category),
                           ONCPU_CLASS[category])))

    def spawn(self, cycle, tid, name, parent, home):
        """Thread ``tid`` was created at ``cycle`` (``name`` None for
        the default one) by ``parent`` with home node ``home``."""
        log = self._log
        log.append((_SPAWN, cycle, tid, name, parent, home))
        if len(log) >= _FOLD_AT:
            self._fold()

    def load(self, cpu, tid, frame, cycles):
        """``tid`` is being loaded into task frame ``frame``; the
        scheduler charges the load's ``cycles`` (``"switch"``) next."""
        self._log.append((_LOAD, _stamp(cpu), tid, frame, cycles))

    def unload(self, cpu, tid, frame, cycles, blocked, cell, pc):
        """``tid`` is being saved out of ``frame``, ``blocked`` on the
        future cell ``cell`` by the touch at ``pc`` (both may be None)
        or ready again; the scheduler charges ``cycles`` (``"switch"``)
        next."""
        self._log.append((_UNLOAD, _stamp(cpu), tid, frame, cycles,
                          blocked, cell, pc))

    def retire(self, cpu, tid, frame, resolve_cycles):
        """``tid`` finished in ``frame``; when it has a future to
        resolve, its caller charges that resolve's ``resolve_cycles``
        (``"trap"``) after the frame is free, on the thread's behalf."""
        self._log.append((_RETIRE, _stamp(cpu), tid, frame,
                          resolve_cycles))

    def wake(self, cycle, tid, waker):
        """Blocked ``tid`` is ready again: ``waker`` resolved its
        future at ``cycle``."""
        self._log.append((_WAKE, cycle, tid, waker))

    def steal(self, tid):
        """Ready ``tid`` was taken from another node's queue."""
        self._log.append((_STEAL, tid))

    # -- folding ---------------------------------------------------------

    def _fold(self):
        """Apply the logged scheduling calls, in order, to the ledgers:
        settle the node each call's stamp names, book the charge the
        call announced, close and open the thread's segments."""
        log = self._log
        if not log:
            return
        self._log = []
        threads = self._threads
        node_attr = self._node_attr
        settled = self._settled
        close_wait, close_episode = self._close_wait, self._close_episode
        for entry in log:
            kind = entry[0]
            if kind < _SPAWN:
                stamp = entry[1]
                node = stamp[0]
                attributed = node_attr.get(node, 0)
                # Only ``Processor.unrun_tail`` lowers a counter, and a
                # node holding a tail neither runs nor settles until it
                # is taken back: no counter falls below its settled
                # value, so an unmoved sum means unmoved counters.
                if stamp[2] != attributed:
                    self._settle(stamp, attributed)
                if kind == _SETTLE:
                    continue
                if kind == _CREDIT:
                    _, _, tid, cycles, where = entry
                    if cycles:
                        ledger = threads.get(tid) or self._ledger(tid)
                        self._book(node, ledger, cycles, where)
                    continue
                tid, frame, cycles = entry[2], entry[3], entry[4]
                if kind == _RETIRE:
                    t = stamp[9]
                    ledger = threads.get(tid) or self._ledger(tid, t)
                else:
                    t = stamp[9] + cycles
                    ledger = threads.get(tid) or self._ledger(tid, t)
                    if cycles:
                        self._book(node, ledger, cycles, _SWITCH)
                if t < ledger._clock:
                    t = ledger.timestamp(t)
                ledger._clock = t
                if kind == _LOAD:
                    close_wait(ledger, t, self._frame_free.get((node, frame)))
                    ledger._state = ("loaded", t, node, frame,
                                     _classes(ledger.oncpu), ledger.spent)
                    continue
                if ledger._state[0] == "loaded":
                    t = close_episode(ledger, t)
                else:             # defensive: no load seen
                    close_wait(ledger, t)
                self._frame_free[(node, frame)] = (t, tid)
                if kind == _UNLOAD:
                    _, _, _, _, _, blocked, cell, pc = entry
                    ledger._state = (("blocked", t, cell, pc) if blocked
                                     else ("ready", t, _YIELD))
                    continue
                ledger.end_cycle = t
                ledger.done = True
                ledger._state = None
                self._last_exit = (t, tid)
                if cycles:        # the resolve after the retirement
                    self._book(node, ledger, cycles, _TRAP)
            elif kind == _SPAWN:
                _, cycle, tid, name, parent, home = entry
                if tid not in threads:
                    threads[tid] = ThreadLedger(tid, name, parent, home,
                                                cycle)
            elif kind == _WAKE:
                _, cycle, tid, waker = entry
                ledger = threads.get(tid) or self._ledger(tid, cycle)
                state = ledger._state
                if state is None or state[0] != "blocked":
                    continue      # defensive: wake of a non-blocked thread
                t = ledger.timestamp(cycle)
                close_wait(ledger, t, waker=waker)
                ledger._state = ("ready", t, ("wake", waker))
            else:                 # _STEAL
                ledger = threads.get(entry[1])
                if ledger is not None:
                    ledger.steals += 1

    def _settle(self, stamp, attributed):
        """Attribute a node's counters' growth since its last settle
        (``attributed`` cycles) up to ``stamp`` to the owner it names."""
        node, owner, total, *now = stamp[:9]
        self._node_attr[node] = total
        last = self._settled.get(node, _UNSPENT)
        self._settled[node] = now
        if owner is None:
            bucket = self._node_overhead.get(node)
            if bucket is None:
                bucket = self._node_overhead[node] = {}
            keys = _CATEGORIES
        else:
            ledger = self._threads.get(owner) or self._ledger(owner)
            ledger.spent += total - attributed
            bucket, keys = ledger.oncpu, _CLASSES
        # Unrolled: a settle runs once per scheduling event, and most
        # move one or two of the six counters.
        useful, stall, trap, switch, spin, idle = now
        if useful != last[0]:
            bucket[keys[0]] = bucket.get(keys[0], 0) + useful - last[0]
        if stall != last[1]:
            bucket[keys[1]] = bucket.get(keys[1], 0) + stall - last[1]
        if trap != last[2]:
            bucket[keys[2]] = bucket.get(keys[2], 0) + trap - last[2]
        if switch != last[3]:
            bucket[keys[3]] = bucket.get(keys[3], 0) + switch - last[3]
        if spin != last[4]:
            bucket[keys[4]] = bucket.get(keys[4], 0) + spin - last[4]
        if idle != last[5]:
            bucket[keys[5]] = bucket.get(keys[5], 0) + idle - last[5]

    def _book(self, node, ledger, cycles, where):
        """Credit ``ledger`` the next ``cycles`` this node is charged in
        the category ``where`` names (see :data:`_SWITCH`); the node's
        last settle is now."""
        index, key = where
        last = self._settled.get(node)
        if last is None:
            last = self._settled[node] = list(_UNSPENT)
        last[index] += cycles
        self._node_attr[node] = self._node_attr.get(node, 0) + cycles
        oncpu = ledger.oncpu
        oncpu[key] = oncpu.get(key, 0) + cycles
        ledger.spent += cycles
        self._owners[node] = ledger.tid

    def _ledger(self, tid, cycle=0):
        """The ledger of a thread first seen other than at its spawn."""
        ledger = self._threads[tid] = ThreadLedger(tid, None, None, None,
                                                   cycle)
        return ledger

    @staticmethod
    def _close_wait(ledger, t, prev_free=None, waker=None):
        """Close the open queue/ready/blocked state at ``t``."""
        state = ledger._state
        kind, since = state[0], state[1]
        length = t - since
        if kind == "blocked":
            pc = state[3]
            ledger.log.append(("blocked", since, t, state[2], pc, waker))
            ledger.blocked_future += length
            if pc is not None and length > 0:
                sites = ledger._sites
                if sites is None:
                    sites = ledger._sites = {}
                sites[pc] = sites.get(pc, 0) + length
        else:
            ledger.log.append((kind, since, t, state[2], prev_free))
            if kind == "queue":
                ledger.queue_wait += length
            else:
                ledger.runnable_unloaded += length
        ledger.wall += length

    @staticmethod
    def _close_episode(ledger, t):
        """Close the open loaded episode at ``t``; returns the end."""
        _, since, node, frame, base, base_spent = ledger._state
        spent = ledger.spent - base_spent
        if t < since + spent:
            # Charges overflow the clamped wall window (cross-clock
            # skew): stretch the episode so loaded_wait stays >= 0.
            ledger.clock_slip += since + spent - t
            t = since + spent
            ledger._clock = t
        ledger.log.append(("loaded", since, t, node, frame, tuple(
            map(sub, _classes(ledger.oncpu), base))))
        ledger.loaded_wait += t - since - spent
        ledger.wall += t - since
        ledger.episodes += 1
        return t

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
        self._fold()
        for cpu in machine.cpus:
            self._node_attr.setdefault(cpu.node_id, 0)
        for ledger in self._threads.values():
            if ledger._state is None:
                continue
            t = max(machine.time, ledger._clock)
            if ledger._state[0] == "loaded":
                t = self._close_episode(ledger, t)
            else:
                self._close_wait(ledger, t)
            ledger.end_cycle = t
            ledger._state = None
        return self

    def conservation(self):
        """Both exact invariants as a JSON-ready dict."""
        if not self._finalized:
            raise ConservationError("finalize(machine) must run first")
        threads = self.threads
        node_attr = self.node_attr
        thread_cycles = sum(sum(l.oncpu.values()) for l in threads.values())
        overhead = sum(sum(b.values())
                       for b in self.node_overhead.values())
        skew = sum(self.node_skew.values())
        attributed = thread_cycles + overhead + skew
        expected = self.end_cycle * self.nodes
        node_ok = all(
            node_attr.get(node, 0) + self.node_skew[node]
            == self.end_cycle for node in self.node_skew)
        wall_bad = []
        slip = 0
        for ledger in threads.values():
            slip += ledger.clock_slip
            span = (ledger.end_cycle or ledger.spawn_cycle) - ledger.spawn_cycle
            if ledger.wall != span:
                wall_bad.append(ledger.tid)
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
        threads = self.threads
        order = list(threads)
        if top is not None and len(order) > top:
            def spent(ledger):
                return (sum(ledger.oncpu.values()) + ledger.queue_wait
                        + ledger.runnable_unloaded + ledger.blocked_future
                        + ledger.loaded_wait)
            kept = {ledger.tid for ledger in sorted(
                threads.values(), key=lambda ledger: -spent(ledger))[:top]}
            order = [tid for tid in order if tid in kept]
        rows = []
        for tid in order:
            ledger = threads[tid]
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
                "episodes": ledger.episodes,
                "steals": ledger.steals,
                "oncpu": {k: ledger.oncpu.get(k, 0) for k in ONCPU_KEYS
                          if ledger.oncpu.get(k, 0)},
                "waits": ledger.waits,
                "block_sites": sites,
            })
        totals_on = {}
        queue = ready = blocked = loaded = 0
        for ledger in threads.values():
            for key, value in ledger.oncpu.items():
                totals_on[key] = totals_on.get(key, 0) + value
            queue += ledger.queue_wait
            ready += ledger.runnable_unloaded
            blocked += ledger.blocked_future
            loaded += ledger.loaded_wait
        totals_wait = dict(zip(WAIT_KEYS, (queue, ready, blocked, loaded)))
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
