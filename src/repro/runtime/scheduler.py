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

from repro.errors import RuntimeSystemError
from repro.isa import tags
from repro.obs.events import EventBus, EventKind
from repro.runtime.thread import ThreadState


class Scheduler:
    """Ready queues + task-frame management for all nodes."""

    def __init__(self, cpus, config, events=None):
        self.cpus = cpus
        self.config = config
        self.ready = [deque() for _ in cpus]
        self._rr_counter = 0
        # Event counters for the harness.
        self.loads = 0
        self.unloads = 0
        self.steals = 0
        #: The machine's observer surface (:mod:`repro.obs.events`).
        #: Its ``lifetime`` accountant works by difference, so it is
        #: told *before* a node's owner changes: a frame gains or loses
        #: its thread, FP moves.
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
            raise RuntimeSystemError("no free task frame on node %d" % cpu.node_id)
        if frame.occupied:
            raise RuntimeSystemError("loading into occupied frame %d" % frame.index)
        thread.transition(ThreadState.LOADED)
        bus = self.events
        lifetime = bus.lifetime
        if lifetime is not None:
            # Settles what the node ran before this frame had a thread;
            # the load cost below is the thread's own.
            lifetime.push_owner(cpu, thread.tid)
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
        frame.psr.tid = thread.tid & 0xFFFF
        if self.windows is not None:
            self.windows.open(cpu.node_id, frame, thread)
        cpu.charge(self.config.thread_load_cycles, "switch")
        if lifetime is not None:
            lifetime.pop_owner(cpu)
        self.loads += 1
        if bus.active:
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
        if lifetime is not None:
            lifetime.push_owner(cpu, thread.tid)
        frame.thread = None
        if self.windows is not None:
            self.windows.close(thread)
        cpu.charge(self.config.thread_unload_cycles, "switch")
        if lifetime is not None:
            lifetime.pop_owner(cpu)
        self.unloads += 1
        if bus.active:
            extra = {}
            if (new_state is ThreadState.BLOCKED
                    and thread.blocked_on is not None):
                extra["cell"] = tags.pointer_address(thread.blocked_on)
                if thread.block_pc is not None:
                    extra["pc"] = thread.block_pc
            bus.emit(EventKind.THREAD_UNLOAD, cpu.cycles, cpu.node_id,
                     frame=frame.index, tid=thread.tid, thread=thread.name,
                     state=new_state.value, **extra)
        return thread

    def retire_thread(self, frame, cpu):
        """Free the frame of a thread that finished (no state to save)."""
        thread = frame.thread
        thread.transition(ThreadState.DONE)
        bus = self.events
        lifetime = bus.lifetime
        if lifetime is not None:
            lifetime.settle(cpu)
        frame.thread = None
        if self.windows is not None:
            self.windows.close(thread)
        if bus.active:
            bus.emit(EventKind.THREAD_EXIT, cpu.cycles, cpu.node_id,
                     frame=frame.index, tid=thread.tid, thread=thread.name)
        return thread

    # -- frame selection ----------------------------------------------------------

    def next_occupied_frame(self, cpu, exclude=None):
        """The next loaded frame after FP (round robin), or ``None``.

        ``exclude`` skips a frame index (e.g. the one being vacated).
        """
        count = len(cpu.frames)
        for step in range(1, count + 1):
            index = (cpu.fp + step) % count
            if index == exclude:
                continue
            if cpu.frames[index].occupied:
                return cpu.frames[index]
        return None

    def activate_frame(self, cpu, frame):
        """Point FP at a frame (the context-switch FP change)."""
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
                if bus.active:
                    bus.emit(EventKind.THREAD_STEAL, self.cpus[node].cycles,
                             node, victim=victim, tid=thread.tid,
                             thread=thread.name)
                return thread
        return None
