"""Thread scheduling (paper Sections 3 and 6).

"In APRIL, thread scheduling is done in software, and unlimited virtual
dynamic threads are supported. ... The scheduler tries to choose
threads from the set of loaded threads for execution to minimize the
overhead of saving and restoring threads to and from memory."

The scheduler keeps one ready queue per node (threads prefer their home
node, and ``future-on`` pins placement), assigns hardware task frames,
and performs the expensive load/unload operations, charging their cycle
costs to the processor doing the work.
"""

from collections import deque

from repro.core.psr import TID_MASK
from repro.errors import RuntimeSystemError
from repro.isa import tags
from repro.obs.events import EventBus, EventKind
from repro.runtime.thread import ThreadState


def loaded_frames(cpu):
    """``(loaded, next_frame)`` in one pass over ``cpu``'s frames: how
    many hold a thread, and the first of those after FP in round-robin
    order (FP's own frame last), or ``None``.  With none loaded every
    frame is free, ``frames[0]`` first."""
    fp = cpu.fp
    loaded = 0
    first = after = None
    for frame in cpu.frames:
        if frame.thread is not None:
            loaded += 1
            if first is None:
                first = frame
            if after is None and frame.index > fp:
                after = frame
    return loaded, after if after is not None else first


class Scheduler:
    """Ready queues + task-frame management for all nodes."""

    def __init__(self, cpus, config, events=None):
        self.cpus = cpus
        self.config = config
        self._load_cycles = config.thread_load_cycles
        self._unload_cycles = config.thread_unload_cycles
        self.ready = [deque() for _ in cpus]
        self._rr_counter = 0
        # Event counters for the harness.
        self.loads = 0
        self.unloads = 0
        self.steals = 0
        #: The machine's observer surface (:mod:`repro.obs.events`).
        #: Its ``lifetime`` accountant works by difference, so it is
        #: called *before* a node's owner changes (a frame gains or
        #: loses its thread, FP moves) and before the charge of a load
        #: or unload, which it books to the thread.
        self.events = events if events is not None else EventBus()
        #: The :class:`~repro.mem.memory.StackWindows` of a machine that
        #: runs ahead (it installs one), else ``None``.  A thread owns
        #: its stack window exactly while it is loaded: opened in
        #: :meth:`load_thread`, closed in :meth:`unload_thread` and
        #: :meth:`retire_thread`.
        self.windows = None

    def counters(self):
        """Counter snapshot for reports."""
        return {
            "loads": self.loads,
            "unloads": self.unloads,
            "steals": self.steals,
            "ready": self.ready_count(),
        }

    # -- placement -------------------------------------------------------

    def pick_node(self, creating_node, pinned=None):
        """Choose the home node for a new thread."""
        if pinned is not None:
            if not 0 <= pinned < len(self.cpus):
                raise RuntimeSystemError("future-on node %d out of range" % pinned)
            return pinned
        if self.config.placement == "local":
            return creating_node
        node = self._rr_counter % len(self.cpus)
        self._rr_counter += 1
        return node

    def enqueue(self, thread, node=None):
        """Put a READY thread on a node's ready queue."""
        if thread.state is not ThreadState.READY:
            raise RuntimeSystemError(
                "enqueue of non-ready thread %r" % thread)
        self.ready[node if node is not None else thread.home_node].append(thread)

    def ready_count(self):
        return sum(len(q) for q in self.ready)

    # -- frame management ------------------------------------------------------

    def load_thread(self, cpu, thread, frame=None, bootstrap=None):
        """Load a thread into a hardware task frame (Section 6.2 cost).

        ``bootstrap`` is a callable ``(cpu, frame, thread)`` that
        initializes a *fresh* thread's registers (entry closure, stack
        pointer, start PC); threads with ``saved_state`` are restored
        from it instead.
        """
        if frame is None:
            frame = cpu.free_frame()
            if frame is None:
                raise RuntimeSystemError(
                    "no free task frame on node %d" % cpu.node_id)
        if frame.thread is not None:
            raise RuntimeSystemError("loading into occupied frame %d" % frame.index)
        thread.transition(ThreadState.LOADED)
        bus = self.events
        lifetime = bus.lifetime
        if lifetime is not None:
            # Settles what the node ran before this frame had a thread;
            # the load cost below is the thread's own.
            lifetime.load(cpu, thread.tid, frame.index, self._load_cycles)
        frame.thread = thread
        if thread.saved_state is not None:
            frame.load_state(thread.saved_state)
            thread.saved_state = None
        else:
            if bootstrap is None:
                raise RuntimeSystemError(
                    "fresh thread %r needs a bootstrap" % thread)
            frame.reset()
            frame.thread = thread
            bootstrap(cpu, frame, thread)
        psr = frame.psr
        psr.value = psr.value & ~TID_MASK | thread.tid & TID_MASK
        if self.windows is not None:
            self.windows.open(cpu.node_id, frame, thread)
        cpu.charge(self._load_cycles, "switch")
        self.loads += 1
        if bus.active and EventKind.THREAD_LOAD in bus.active:
            bus.emit(EventKind.THREAD_LOAD, cpu.cycles, cpu.node_id,
                     frame=frame.index, tid=thread.tid, thread=thread.name)
        return frame

    def unload_thread(self, cpu, frame, new_state):
        """Save a loaded thread's state out to memory and free the frame."""
        thread = frame.thread
        if thread is None:
            raise RuntimeSystemError("unloading an empty frame")
        thread.saved_state = frame.save_state()
        thread.transition(new_state)
        bus = self.events
        lifetime = bus.lifetime
        blocked = new_state is ThreadState.BLOCKED
        cell = pc = None
        if (blocked and thread.blocked_on is not None
                and (lifetime is not None or bus.active)):
            cell = tags.pointer_address(thread.blocked_on)
            pc = thread.block_pc
        if lifetime is not None:
            lifetime.unload(cpu, thread.tid, frame.index,
                            self._unload_cycles, blocked, cell, pc)
        frame.thread = None
        if self.windows is not None:
            self.windows.close(thread)
        cpu.charge(self._unload_cycles, "switch")
        self.unloads += 1
        if bus.active and EventKind.THREAD_UNLOAD in bus.active:
            extra = {}
            if cell is not None:
                extra["cell"] = cell
                if pc is not None:
                    extra["pc"] = pc
            bus.emit(EventKind.THREAD_UNLOAD, cpu.cycles, cpu.node_id,
                     frame=frame.index, tid=thread.tid, thread=thread.name,
                     state=new_state.value, **extra)
        return thread

    def retire_thread(self, frame, cpu, resolve_cycles=0):
        """Free the frame of a thread that finished (no state to save).

        ``resolve_cycles`` is what the caller charges next, with the
        frame already empty, to resolve the thread's future: the
        accountant books it to the thread.
        """
        thread = frame.thread
        thread.transition(ThreadState.DONE)
        bus = self.events
        lifetime = bus.lifetime
        if lifetime is not None:
            lifetime.retire(cpu, thread.tid, frame.index, resolve_cycles)
        frame.thread = None
        if self.windows is not None:
            self.windows.close(thread)
        if bus.active and EventKind.THREAD_EXIT in bus.active:
            bus.emit(EventKind.THREAD_EXIT, cpu.cycles, cpu.node_id,
                     frame=frame.index, tid=thread.tid, thread=thread.name)
        return thread

    # -- frame selection ----------------------------------------------------------

    def activate_frame(self, cpu, frame):
        """Point FP at a frame (the context-switch FP change).  Where
        FP is there already — a frame just loaded in place — the node's
        owner does not change, so the accountant is not told."""
        if frame.index == cpu.fp:
            return
        lifetime = self.events.lifetime
        if lifetime is not None:
            lifetime.settle(cpu)
        cpu.fp = frame.index

    # -- work finding ---------------------------------------------------------------

    def dequeue_local(self, node):
        """Pop the *newest* ready thread (owner runs LIFO).

        Depth-first order bounds the number of simultaneously-live
        thread stacks by the spawn-tree depth instead of its breadth —
        the classic work-stealing-deque discipline.
        """
        queue = self.ready[node]
        return queue.pop() if queue else None

    def steal_ready_thread(self, node):
        """Steal the *oldest* ready thread from another node (FIFO steal,
        taking the coarsest-grain work)."""
        count = len(self.cpus)
        for step in range(1, count):
            victim = (node + step) % count
            queue = self.ready[victim]
            if queue:
                self.steals += 1
                thread = queue.popleft()
                bus = self.events
                if bus.lifetime is not None:
                    bus.lifetime.steal(thread.tid)
                if bus.active and EventKind.THREAD_STEAL in bus.active:
                    bus.emit(EventKind.THREAD_STEAL, self.cpus[node].cycles,
                             node, victim=victim, tid=thread.tid,
                             thread=thread.name)
                return thread
        return None
