"""Flight recorder + hang watchdog: always-on black-box observability.

Two coupled consumers designed to be cheap enough to leave attached on
every run:

* :class:`FlightRecorder` — a bounded per-node ring of the *coarse*
  event kinds (traps, context switches, scheduling, futures, network
  deliveries, memory-transaction completions), subscribed kind by kind
  to the machine's :class:`~repro.obs.events.EventBus`.  No subscriber
  selects the oracle schedule — every emission site fires outside
  generated blocks, with identical cycle stamps on the fast and reference
  paths (the lockstep harness pins this) — so it rides the fast loop.

* :class:`Watchdog` — every ``interval`` cycles it inspects the
  run-time system directly (no per-event cost): *deadlock* is every
  thread blocked on an unresolved future with nothing loaded, ready, or
  stealable; *livelock* is a spin storm — full/empty and unresolved-
  touch traps re-entering at a high rate across consecutive windows
  with zero future resolutions, zero thread exits, and almost no useful
  cycles retiring.  Either way the run stops with a typed
  :class:`~repro.errors.HangDetected` carrying a post-mortem: the
  wait-for graph over future cells (cycles named), each node's last
  events, registers/PSR, and disassembly around every blocked pc.

Threads appear under their own ids and names (a tid is the thread's
spawn index in its run, main = 0), so two identical runs export equal
records.
"""

from collections import deque

from repro.errors import HangDetected
from repro.isa import registers, tags
from repro.isa.disassembler import disassemble_around
from repro.obs.events import EventKind
from repro.runtime.thread import ThreadState

#: The event kinds the flight recorder keeps: listed explicitly so that
#: cache and directory traffic, and any kind added later, stay out of
#: the rings unless chosen.
COARSE_KINDS = (
    EventKind.TRAP_ENTER,
    EventKind.TRAP_EXIT,
    EventKind.CONTEXT_SWITCH,
    EventKind.REMOTE_MISS,
    EventKind.NET_SEND,
    EventKind.NET_DELIVER,
    EventKind.FUTURE_CREATE,
    EventKind.FUTURE_TOUCH,
    EventKind.FUTURE_RESOLVE,
    EventKind.THREAD_SPAWN,
    EventKind.THREAD_LOAD,
    EventKind.THREAD_UNLOAD,
    EventKind.THREAD_STEAL,
    EventKind.THREAD_EXIT,
    EventKind.THREAD_WAKE,
)


class FlightRecorder:
    """Last-N coarse events per node, always-on black box.

    Args:
        per_node: ring capacity per node.

    It subscribes its :data:`COARSE_KINDS` to ``machine.events`` and
    to nothing else, so it neither disturbs nor depends on whatever
    else observes the machine, and the machine keeps its fast loop
    (see :meth:`AlewifeMachine._hooks_dormant`).
    """

    def __init__(self, per_node=64):
        self.per_node = per_node
        self.rings = {}           # node -> deque of Event
        self._subscriptions = []

    # -- wiring ------------------------------------------------------------

    def attach(self, machine):
        """Subscribe the coarse kinds to the machine's bus."""
        bus = machine.events
        for kind in COARSE_KINDS:
            self._subscriptions.append(bus.subscribe(self._record, kind))
        return self

    def detach(self):
        """Cancel the subscriptions."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions = []

    def _record(self, event):
        ring = self.rings.get(event.node)
        if ring is None:
            ring = self.rings[event.node] = deque(maxlen=self.per_node)
        ring.append(event)

    # -- export ------------------------------------------------------------

    def tail(self, node):
        """The node's last events as JSON-ready dicts."""
        return [event.to_dict() for event in self.rings.get(node, ())]


class Watchdog:
    """Periodic hang detector; raises :class:`HangDetected` with a
    post-mortem instead of letting a hung run burn ``--max-cycles``.

    Args:
        interval: cycles between checks (every machine loop polls
            ``next_check_at``).
        strikes: consecutive spin-storm windows before declaring
            livelock (one window proves nothing: startup and steal
            phases legitimately spin).
        flight: a :class:`FlightRecorder` to couple (one is built when
            omitted).
        per_node: ring capacity for the built-in recorder.

    Deliberately parameterized at the constructor — not through
    :class:`~repro.machine.config.MachineConfig` — so experiment cache
    fingerprints are unaffected (the ``fastpath`` precedent).
    """

    def __init__(self, interval=2048, strikes=3, flight=None, per_node=64):
        self.interval = interval
        self.strikes = strikes
        self.flight = flight if flight is not None else FlightRecorder(
            per_node=per_node)
        self.machine = None
        self.next_check_at = interval
        self._streak = 0
        self._last = None

    # -- wiring ------------------------------------------------------------

    def attach(self, machine):
        """Couple the flight recorder and register on the machine."""
        self.flight.attach(machine)
        self.machine = machine
        machine.watchdog = self
        self.next_check_at = self.interval
        self._streak = 0
        self._last = None
        return self

    def detach(self):
        self.flight.detach()
        machine = self.machine
        if machine is not None and machine.watchdog is self:
            machine.watchdog = None
        self.machine = None

    # -- detection ---------------------------------------------------------

    def check(self, now):
        """One periodic inspection; raises :class:`HangDetected` on a hang."""
        self.next_check_at = now + self.interval
        machine = self.machine
        runtime = machine.runtime
        if runtime.done:
            return
        if runtime.stuck() and runtime.futures.waiting_count() > 0:
            raise self.hang(
                "deadlock", now,
                "every thread is blocked on an unresolved future")
        snapshot = self._snapshot(machine, now)
        last, self._last = self._last, snapshot
        if last is None:
            return
        window = snapshot["now"] - last["now"]
        if window <= 0:
            return
        spins = snapshot["spins"] - last["spins"]
        resolves = snapshot["resolved"] - last["resolved"]
        exits = snapshot["done"] - last["done"]
        useful = snapshot["useful"] - last["useful"]
        # A spin storm re-enters synchronization traps at a high rate
        # while nothing resolves, nothing exits, and almost no useful
        # cycles retire — sustained over `strikes` consecutive windows.
        storming = (spins >= max(4, window // 256)
                    and resolves == 0 and exits == 0
                    and useful * 16 <= window)
        if storming:
            self._streak += 1
            if self._streak >= self.strikes:
                raise self.hang(
                    "livelock", now,
                    "spin storm: %d full/empty+touch traps in the last %d "
                    "cycles with no future resolved and no thread exiting"
                    % (spins, window))
        else:
            self._streak = 0

    def on_deadlock(self, now, exc):
        """Convert the run-time system's idle-streak deadlock abort
        (:class:`~repro.errors.DeadlockError`) into the typed result."""
        return self.hang("deadlock", now, str(exc))

    def hang(self, kind, now, reason):
        """Build the typed :class:`HangDetected` with a full post-mortem."""
        machine = self.machine
        machine.time = max([machine.time] + [c.cycles for c in machine.cpus])
        postmortem = build_postmortem(machine, kind, machine.time, reason,
                                      flight=self.flight)
        return HangDetected(kind, machine.time, reason, postmortem)

    # -- probes ------------------------------------------------------------

    @staticmethod
    def _snapshot(machine, now):
        from repro.core.traps import TrapKind
        spins = 0
        useful = 0
        for cpu in machine.cpus:
            counts = cpu.stats.trap_counts
            spins += (counts.get(TrapKind.EMPTY_LOAD, 0)
                      + counts.get(TrapKind.FULL_STORE, 0))
            useful += cpu.stats.useful
        runtime = machine.runtime
        spins += runtime.futures.touches_unresolved
        done = sum(1 for t in runtime.threads if t.state is ThreadState.DONE)
        return {"now": now, "spins": spins, "useful": useful,
                "resolved": runtime.futures.resolved, "done": done}


# -- post-mortem -----------------------------------------------------------


def build_postmortem(machine, kind, cycle, reason, flight=None):
    """Assemble the JSON-ready post-mortem dict for a hung machine."""
    runtime = machine.runtime
    threads = []
    producers = {}     # future cell byte address -> producing thread
    for thread in runtime.threads:
        if thread.future is not None and thread.state is not ThreadState.DONE:
            producers[tags.pointer_address(thread.future)] = thread
        entry = {
            "tid": thread.tid,
            "name": thread.name,
            "state": thread.state.value,
            "home": thread.home_node,
        }
        if thread.blocked_on is not None:
            entry["blocked_cell"] = "%#x" % tags.pointer_address(
                thread.blocked_on)
        if thread.block_pc is not None:
            entry["block_pc"] = "%#x" % thread.block_pc
        if thread.spin_count:
            entry["spin_count"] = thread.spin_count
        threads.append(entry)

    edges, cycles = _wait_for(runtime, producers)
    nodes = _node_sections(machine, flight)
    disas = _blocked_disassembly(machine)
    return {
        "kind": kind,
        "cycle": cycle,
        "reason": reason,
        "threads": threads,
        "wait_for": {"edges": edges, "cycles": cycles},
        "nodes": nodes,
        "disassembly": disas,
    }


def _wait_for(runtime, producers):
    """Edges waiter -> producer over future cells, plus named cycles."""
    edges = []
    successor = {}     # waiter tid -> producer tid
    names = {t.tid: t.name for t in runtime.threads}
    for thread in runtime.threads:
        if thread.state is not ThreadState.BLOCKED or thread.blocked_on is None:
            continue
        cell = tags.pointer_address(thread.blocked_on)
        producer = producers.get(cell)
        edge = {
            "waiter": names[thread.tid],
            "cell": "%#x" % cell,
            "owner": names[producer.tid] if producer is not None else None,
        }
        if thread.block_pc is not None:
            edge["pc"] = "%#x" % thread.block_pc
        edges.append(edge)
        if producer is not None:
            successor[thread.tid] = producer.tid

    cycles = []
    seen_cycles = set()
    for start in successor:
        path = []
        index = {}
        tid = start
        while tid in successor and tid not in index:
            index[tid] = len(path)
            path.append(tid)
            tid = successor[tid]
        if tid in index:
            loop = path[index[tid]:]
            # Canonicalize: rotate the smallest tid to the front so
            # each cycle is reported once.
            pivot = loop.index(min(loop))
            loop = loop[pivot:] + loop[:pivot]
            key = tuple(loop)
            if key not in seen_cycles:
                seen_cycles.add(key)
                cycles.append([names[t] for t in loop])
    return edges, cycles


def _node_sections(machine, flight):
    sections = []
    for cpu in machine.cpus:
        frames = []
        for frame in cpu.frames:
            thread = frame.thread
            entry = {
                "index": frame.index,
                "active": frame.index == cpu.fp,
                "pc": "%#x" % frame.pc,
                "npc": "%#x" % frame.npc,
            }
            if thread is not None:
                entry["tid"] = thread.tid
                entry["thread"] = thread.name
            frames.append(entry)
        active = cpu.frames[cpu.fp]
        regs = {}
        for number in range(1, registers.NUM_FRAME_REGISTERS):
            value = active.regs[number]
            if value:
                regs[registers.register_name(number)] = "%#x" % value
        section = {
            "node": cpu.node_id,
            "cycles": cpu.cycles,
            "halted": cpu.halted,
            "fp": cpu.fp,
            "psr": repr(active.psr),
            "frames": frames,
            "registers": regs,
        }
        if flight is not None:
            section["last_events"] = flight.tail(cpu.node_id)
        sections.append(section)
    return sections


def _blocked_disassembly(machine):
    """Listings around every blocked pc and every loaded frame's pc."""
    labels = getattr(machine.program, "labels", None)
    read_word = machine.memory.read_word
    listings = []
    emitted = set()

    def add(where, pc):
        if pc is None or (where, pc) in emitted:
            return
        emitted.add((where, pc))
        listings.append({
            "where": where,
            "pc": "%#x" % pc,
            "listing": disassemble_around(read_word, pc, labels=labels),
        })

    for thread in machine.runtime.threads:
        if thread.state is ThreadState.BLOCKED:
            add("thread %s blocked" % thread.name, thread.block_pc)
    for cpu in machine.cpus:
        for frame in cpu.frames:
            if frame.thread is not None:
                add("node %d frame %d (%s)"
                    % (cpu.node_id, frame.index, frame.thread.name),
                    frame.pc)
    return listings


def render_postmortem(postmortem):
    """Human-readable post-mortem report (stable text, no wall-clock)."""
    lines = []
    out = lines.append
    out("== HANG DETECTED: %s at cycle %d =="
        % (postmortem.get("kind", "?"), postmortem.get("cycle", 0)))
    out("reason: %s" % postmortem.get("reason", ""))
    cycles = postmortem.get("wait_for", {}).get("cycles", [])
    for loop in cycles:
        out("wait-for cycle: %s" % " -> ".join(loop + [loop[0]]))
    if not cycles:
        out("wait-for cycle: none found")
    edges = postmortem.get("wait_for", {}).get("edges", [])
    if edges:
        out("")
        out("wait-for edges:")
        for edge in edges:
            out("  %s waits on cell %s held by %s%s"
                % (edge["waiter"], edge["cell"], edge["owner"] or "<nobody>",
                   " (blocked at %s)" % edge["pc"] if "pc" in edge else ""))
    threads = postmortem.get("threads", [])
    if threads:
        out("")
        out("threads:")
        out("  %4s  %-20s %-8s %4s  %s" % ("tid", "name", "state", "home",
                                           "blocked"))
        for t in threads:
            blocked = ""
            if "blocked_cell" in t:
                blocked = "cell %s" % t["blocked_cell"]
                if "block_pc" in t:
                    blocked += " pc %s" % t["block_pc"]
            out("  %4d  %-20s %-8s %4d  %s"
                % (t["tid"], t["name"], t["state"], t["home"], blocked))
    for node in postmortem.get("nodes", []):
        out("")
        out("node %d: cycle %d fp=%d %s%s"
            % (node["node"], node["cycles"], node["fp"], node["psr"],
               " HALTED" if node["halted"] else ""))
        for frame in node["frames"]:
            owner = frame.get("thread", "<free>")
            out("  frame %d%s pc=%s npc=%s %s"
                % (frame["index"], "*" if frame["active"] else " ",
                   frame["pc"], frame["npc"], owner))
        events = node.get("last_events", [])
        if events:
            out("  last events:")
            for record in events[-8:]:
                extras = " ".join(
                    "%s=%s" % (k, v) for k, v in sorted(record.items())
                    if k not in ("kind", "cycle", "node"))
                out("    [%10d] %s %s"
                    % (record["cycle"], record["kind"], extras))
    for section in postmortem.get("disassembly", []):
        out("")
        out("disassembly: %s at %s" % (section["where"], section["pc"]))
        for line in section["listing"].splitlines():
            out("  " + line)
    return "\n".join(lines)
