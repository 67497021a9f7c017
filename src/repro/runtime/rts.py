"""The APRIL run-time system (paper Section 6).

Owns the memory layout (per-node user and kernel heaps, thread stacks),
the scheduler, the future table, the lazy task queues, and the idle
loop, and installs the trap handlers of :mod:`repro.runtime.handlers`
on every processor.

The run-time system is deliberately machine-wide (not per-node): in the
real ALEWIFE its queues live in shared memory and any node manipulates
them under full/empty locks; here the simulation event loop serializes
handler execution, which subsumes those locks (see DESIGN.md).
"""

from repro.core.psr import ET_BIT
from repro.errors import DeadlockError, RuntimeSystemError
from repro.isa import registers, tags
from repro.obs.events import EventBus, EventKind
from repro.runtime.futures import FutureTable
from repro.runtime.handlers import TrapHandlers
from repro.runtime.heap import Arena, Heap
from repro.runtime.lazy import LazyQueue
from repro.runtime.scheduler import Scheduler
from repro.runtime.stubs import THREAD_START_LABEL
from repro.runtime.thread import Thread, ThreadState


def _align8(address):
    return (address + 7) & ~7


class RuntimeSystem:
    """Scheduler + heaps + trap handlers for one machine.

    Args:
        config: a :class:`~repro.machine.config.MachineConfig`.
        memory: the shared :class:`~repro.mem.memory.Memory`.
        cpus: the machine's processors.
        program: the loaded :class:`~repro.isa.assembler.Program`; must
            define the ``__thread_start`` stub label.
        events: the machine's :class:`~repro.obs.events.EventBus`, handed
            on to the scheduler and the future table.
    """

    def __init__(self, config, memory, cpus, program, events=None):
        self.config = config
        self.memory = memory
        self.cpus = cpus
        self.program = program
        self.thread_start_pc = program.address_of(THREAD_START_LABEL)

        #: The machine's observer surface (:mod:`repro.obs.events`).
        self.events = events if events is not None else EventBus()
        self.scheduler = Scheduler(cpus, config, self.events)
        self.futures = FutureTable(self.events)
        self.lazy_queues = [LazyQueue(i) for i in range(len(cpus))]
        self.lazy_pushed = 0
        self.lazy_stolen = 0
        #: The :class:`~repro.runtime.sync.SyncAllocator`, if one was
        #: built for this machine (it registers itself here).
        self.sync = None

        self.done = False
        self.result = None
        self.output = []
        self.threads = []
        self._stack_free_lists = [[] for _ in cpus]
        self._ipi_receiver = None

        self._layout_heaps()
        self._make_singletons()
        handlers = TrapHandlers(self)
        for cpu in cpus:
            handlers.install(cpu)
            self._init_globals(cpu)

    # -- memory layout ------------------------------------------------------

    def _layout_heaps(self):
        config = self.config
        cursor = _align8(self.program.end)
        self._user_arenas = []
        self._kernel_heaps = []
        for node in range(len(self.cpus)):
            user_base = cursor
            cursor += config.user_heap_words * 4
            kernel_base = cursor
            cursor += config.kernel_heap_words * 4
            if cursor > self.memory.limit:
                raise RuntimeSystemError(
                    "memory_words too small for %d nodes of heap"
                    % len(self.cpus))
            self._user_arenas.append(
                Arena(self.memory, user_base, kernel_base))
            self._kernel_heaps.append(
                Heap(Arena(self.memory, kernel_base, cursor)))

    def _make_singletons(self):
        heap0 = self._kernel_heaps[0]
        self.nil = heap0.singleton(0)
        self.true = heap0.singleton(1)

    def _init_globals(self, cpu):
        arena = self._user_arenas[cpu.node_id]
        cpu.write_reg(registers.GP, arena.pointer)
        cpu.write_reg(registers.GL, arena.limit)
        cpu.write_reg(registers.NIL, self.nil)
        cpu.write_reg(registers.TRUE, self.true)

    def kernel_heap(self, node):
        """The kernel heap (futures, stacks, descriptors) of a node."""
        return self._kernel_heaps[node]

    def user_vector(self, cpu, length, fill=0):
        """Allocate a vector from a node's *user* arena, keeping the
        processor's inline allocation register ``gp`` in sync."""
        from repro.runtime.heap import TYPE_VECTOR, make_header
        arena = self._user_arenas[cpu.node_id]
        arena.pointer = cpu.read_reg(registers.GP)
        address = arena.allocate(length + 1)
        cpu.write_reg(registers.GP, arena.pointer)
        self.memory.write_word(address, make_header(TYPE_VECTOR, length))
        for i in range(length):
            self.memory.write_word(address + 4 * (i + 1), fill)
        return tags.make_other(address)

    # -- stacks --------------------------------------------------------------

    def allocate_stack(self, node):
        """A stack region for a thread on ``node`` (free-list reuse)."""
        free = self._stack_free_lists[node]
        if free:
            return free.pop()
        words = self.config.stack_words
        base = self._kernel_heaps[node].arena.allocate(words)
        if self.scheduler.windows is not None:
            self.scheduler.windows.carve(base, base + 4 * words)
        return base

    def free_stack(self, thread):
        """Return a finished thread's stack to its node's free list."""
        if thread.stack_base is not None:
            self._stack_free_lists[thread.home_node].append(thread.stack_base)
            thread.stack_base = None

    # -- threads -----------------------------------------------------------------

    def new_thread(self, home_node, entry_closure=None, future=None,
                   args=(), is_root=False, name=None, cpu=None, parent=None):
        """Create a fresh (unloaded, stack-less) virtual thread.

        Its tid is its index in :attr:`threads` (spawn order, main = 0),
        so identical runs number their threads alike.  The stack is
        assigned lazily at first load, so deep eager-future trees don't
        hold stacks for queued-but-never-started threads.
        ``cpu`` is the creating processor, used only to timestamp the
        spawn event when observability is attached.  ``parent`` is the
        spawning thread's tid (the spawn edge of the causal DAG); when
        omitted it is taken from the creating processor's active frame.
        """
        thread = Thread(
            tid=len(self.threads),
            stack_base=None,
            stack_words=self.config.stack_words,
            home_node=home_node,
            future=future,
            entry_closure=entry_closure,
            args=args,
            is_root=is_root,
            name=name,
        )
        self.threads.append(thread)
        bus = self.events
        if bus.active and EventKind.THREAD_SPAWN in bus.active:
            if parent is None and cpu is not None:
                active = cpu.frames[cpu.fp].thread
                parent = active.tid if active is not None else None
            bus.emit(EventKind.THREAD_SPAWN,
                     cpu.cycles if cpu is not None else 0,
                     cpu.node_id if cpu is not None else home_node,
                     tid=thread.tid, thread=thread.name, home=home_node,
                     parent=parent)
        return thread

    def bootstrap(self, cpu, frame, thread):
        """Initialize a fresh thread's registers in its new frame."""
        if thread.stack_base is None:
            thread.stack_base = self.allocate_stack(thread.home_node)
            thread.stolen_base = thread.stack_base
        frame.regs[registers.CL] = thread.entry_closure or 0
        for i, arg in enumerate(thread.args):
            frame.regs[registers.ARG_REGS[i]] = arg & tags.WORD_MASK
        frame.regs[registers.SP] = thread.stack_base
        frame.pc = self.thread_start_pc
        frame.npc = self.thread_start_pc + 4
        frame.psr.value = ET_BIT

    def spawn_main(self, entry, args=()):
        """Create the root thread calling ``entry`` (label or address).

        Arguments are Python ints (converted to fixnums) or pre-tagged
        words.  The thread is queued on node 0; the machine's idle loop
        loads it.
        """
        address = (self.program.address_of(entry)
                   if isinstance(entry, str) else entry)
        closure = self._kernel_heaps[0].closure(address)
        words = [
            arg if isinstance(arg, TaggedWord) else tags.make_fixnum(arg)
            for arg in args
        ]
        thread = self.new_thread(
            0, entry_closure=closure, args=words, is_root=True, name="main")
        self.scheduler.enqueue(thread, 0)
        return thread

    # -- futures -------------------------------------------------------------------

    def resolve_future(self, cpu, future_word, value, waker=None):
        """Resolve a future cell and wake its blocked waiters.

        The cell is always one this run-time system allocated (an eager
        create's or a steal's), so it is filled past the window gate
        (:meth:`~repro.mem.memory.Memory.fill_cell`).

        ``waker`` is the tid of the resolving thread; when omitted it is
        taken from the active frame (callers that resolve *after*
        retiring the producer must pass it explicitly — the frame is
        empty by then).
        """
        cell = tags.pointer_address(future_word)
        if not self.memory.fill_cell(cell, value):
            raise RuntimeSystemError("future @%#x resolved twice" % cell)
        cpu.charge(self.config.future_resolve_cycles, "trap")
        waiters = self.futures.take_waiters(future_word)
        self.futures.note_resolved(cpu.cycles, cpu.node_id, cell=cell,
                                   waiters=len(waiters))
        if waker is None:
            active = cpu.frames[cpu.fp].thread
            waker = active.tid if active is not None else None
        for waiter in waiters:
            waiter.blocked_on = None
            waiter.transition(ThreadState.READY)
            self.scheduler.enqueue(waiter)
            self.futures.note_woken(cpu.cycles, cpu.node_id, cell=cell,
                                    tid=waiter.tid, waker=waker)

    # -- dispatch / idle loop ------------------------------------------------------

    def dispatch_next(self, cpu):
        """After a frame frees up: run another loaded thread, or load one."""
        next_frame = self.scheduler.next_occupied_frame(cpu)
        if next_frame is not None:
            self.scheduler.activate_frame(cpu, next_frame)
            return True
        thread = self.scheduler.dequeue_local(cpu.node_id)
        if thread is not None:
            frame = self.scheduler.load_thread(
                cpu, thread, bootstrap=self.bootstrap)
            self.scheduler.activate_frame(cpu, frame)
            return True
        return False

    def has_work(self, cpu):
        """True if the processor has a loaded thread to execute."""
        frames = cpu.frames
        # The active frame is occupied for the entire life of a running
        # thread — check it first so the per-step call rarely scans.
        if frames[cpu.fp].thread is not None:
            return True
        for frame in frames:
            if frame.thread is not None:
                return True
        return False

    def on_idle(self, cpu):
        """Idle processor looks for work (paper Section 3.2: 'the new
        task is created only when some processor becomes idle and looks
        for work, stealing the continuation').

        Order: local ready queue, then steal a lazy continuation, then
        steal a ready thread from another node.  Returns True if work
        was found and loaded.
        """
        if self.done:
            return False
        if cpu.ipi_queue:
            # Even an idle processor must take preemptive interrupts
            # (Section 3.4: IPIs are an alternative to polling).
            message = cpu.ipi_queue.popleft()
            self.deliver_ipi(cpu, message)
            cpu.charge(10, "trap")
            return True
        thread = self.scheduler.dequeue_local(cpu.node_id)
        if thread is None and self.config.lazy_futures:
            thread = self.steal_lazy_task(cpu)
        if thread is None:
            cpu.charge(self.config.steal_poll_cycles, "idle")
            thread = self.scheduler.steal_ready_thread(cpu.node_id)
        if thread is None:
            cpu.charge(self.config.idle_poll_cycles, "idle")
            return False
        frame = self.scheduler.load_thread(cpu, thread, bootstrap=self.bootstrap)
        self.scheduler.activate_frame(cpu, frame)
        return True

    # -- lazy continuation stealing ---------------------------------------------

    def steal_lazy_task(self, thief_cpu):
        """Steal the oldest lazy marker anywhere; returns a READY thread.

        Implements the stack splitting of Mohr et al. [17]: copy the
        victim's frozen continuation region into a fresh stack, create
        the future the victim will resolve at its finish trap, and
        transfer any older stolen markers (plus root-ness and future
        responsibility when the stack bottom moves).
        """
        count = len(self.cpus)
        marker = None
        for step in range(count):
            node = (thief_cpu.node_id + step) % count
            marker = self.lazy_queues[node].steal()
            if marker is not None:
                break
        if marker is None:
            return None

        victim = marker.thread
        future_word = self.kernel_heap(thief_cpu.node_id).future_cell()
        marker.future = future_word
        self.futures.note_created(thief_cpu.cycles, thief_cpu.node_id,
                                  cell=tags.pointer_address(future_word))
        self.lazy_stolen += 1

        lo, hi = victim.stolen_base, marker.sp
        if hi < lo:
            raise RuntimeSystemError(
                "stolen region [%#x, %#x) is inverted" % (lo, hi))
        thread = self.new_thread(
            thief_cpu.node_id,
            name="steal-of-%s" % victim.name,
            cpu=thief_cpu,
            parent=victim.tid,
        )
        thread.stack_base = self.allocate_stack(thief_cpu.node_id)
        thread.stolen_base = thread.stack_base
        copied_words = (hi - lo) // 4
        windows = self.scheduler.windows
        if windows is not None and copied_words:
            # The region leaves the victim's window: whatever its
            # processor ran ahead of this steal comes back first.
            windows.touch(lo, "steal")
        for i in range(copied_words):
            self.memory.write_word(
                thread.stack_base + 4 * i, self.memory.read_word(lo + 4 * i))
        new_sp = thread.stack_base + (hi - lo)

        # Markers older than the stolen one (all stolen themselves) ride
        # along with the continuation frames they point into.
        index = victim.lazy_markers.index(marker)
        thread.lazy_markers = victim.lazy_markers[:index]
        victim.lazy_markers = victim.lazy_markers[index:]
        for moved in thread.lazy_markers:
            moved.thread = thread

        # The stack bottom carries the thread identity: root-ness and
        # the future this spine must resolve on normal exit.
        if lo == (victim.stack_base if victim.stack_base is not None else lo):
            thread.future = victim.future
            victim.future = None
            thread.is_root = victim.is_root
            victim.is_root = False
        victim.stolen_base = hi
        if windows is not None:
            windows.moved(victim)

        regs = [0] * registers.NUM_FRAME_REGISTERS
        regs[registers.SP] = new_sp
        regs[registers.ARG_REGS[0]] = future_word
        thread.saved_state = {
            "regs": regs,
            "pc": marker.resume_pc,
            "npc": marker.resume_pc + 4,
            "psr": ET_BIT,
        }
        lifetime = self.events.lifetime
        if lifetime is not None:
            # The steal cost is the stolen thread's startup, not idle time.
            lifetime.push_owner(thief_cpu, thread.tid)
        thief_cpu.charge(
            self.config.lazy_steal_cycles + copied_words, "trap")
        if lifetime is not None:
            lifetime.pop_owner(thief_cpu)
        return thread

    # -- IPIs ----------------------------------------------------------------------

    def set_ipi_receiver(self, callback):
        """Install the machine-wide IPI receiver ``callback(cpu, message)``."""
        self._ipi_receiver = callback

    def deliver_ipi(self, cpu, message):
        if self._ipi_receiver is None:
            return False
        self._ipi_receiver(cpu, message)
        return True

    # -- termination -------------------------------------------------------------

    def finish(self, result_word):
        """The root thread exited; record the program result."""
        self.done = True
        self.result = result_word

    def decode_value(self, word):
        """Decode a tagged result word to Python data."""
        return self._kernel_heaps[0].to_python(
            word, false_object=self.nil, true_object=self.true)

    def stuck(self):
        """True when no processor can make progress: nothing loaded,
        no ready thread and no lazy marker to steal."""
        return not (any(self.has_work(cpu) for cpu in self.cpus)
                    or self.scheduler.ready_count()
                    or any(len(q) for q in self.lazy_queues))

    def check_deadlock(self):
        """Raise if no processor can ever make progress again."""
        if self.done or not self.stuck():
            return
        raise DeadlockError(
            "deadlock: no loaded or ready threads, %d blocked on futures"
            % self.futures.waiting_count())


class TaggedWord(int):
    """Marker type: an argument to :meth:`spawn_main` that is already a
    tagged word (skip fixnum conversion)."""
