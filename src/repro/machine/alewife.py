"""The ALEWIFE machine simulator (paper Sections 2 and 7, Figure 4).

Ties processors, memory system, and run-time system together and runs
the whole machine with an event-driven loop: the processor with the
smallest local clock executes next, so inter-processor interleavings
respect simulated time without a global lock-step sweep.

Two memory modes (matching the paper's methodology):

* ``ideal`` — one shared single-cycle memory, no caches or network:
  the configuration of the Table 3 multiprocessor measurements
  ("simulating a shared-memory machine with no memory latency").
* ``coherent`` — per-node caches kept coherent by a directory protocol
  over a k-ary n-cube network; remote misses trap the processor into
  the switch-spin handler (the full ALEWIFE configuration).
"""

import heapq
import weakref
# By name: `heapq` here may be stood in for by an object that only
# pushes and pops (perf/spans.py counts slices that way).
from heapq import heapify

from repro.core.processor import MIN_BLOCK_BUDGET, Processor, Translations
from repro.errors import DeadlockError, SimulationError
from repro.machine.config import MachineConfig
from repro.machine.stats import MachineStats
from repro.mem.ideal import IdealMemoryPort
from repro.mem.memory import CodeWatch, Memory, StackWindows
from repro.obs.events import EventBus
from repro.runtime.rts import RuntimeSystem

#: How long the fast form lets a processor run when no other is queued,
#: so that the per-pop cycle-limit and watchdog polls stay live.
SOLO_SLICE_CYCLES = 4096

_ALL_HALTED = "all processors halted without a result"
_CYCLE_LIMIT = "cycle limit %d exceeded (deadlock or undersized limit)"


class MachineResult:
    """Outcome of one machine run."""

    def __init__(self, machine, result_word):
        self.result_word = result_word
        self.value = machine.runtime.decode_value(result_word)
        self.cycles = machine.time
        self.stats = MachineStats(machine)
        self.output = list(machine.runtime.output)

    def __repr__(self):
        return "MachineResult(value=%r, cycles=%d)" % (self.value, self.cycles)


class AlewifeMachine:
    """An N-node ALEWIFE machine executing one loaded program.

    The schedule — which processor runs next in simulated time — has
    two statements.  The **oracle** is :class:`MachineStepper`: pop the
    earliest processor, run one instruction or idle poll, re-push;
    every hook observes it, ``april monitor`` drives it by hand, and
    :meth:`run` drives one to completion whenever ``fastpath=False`` or
    something observes single instructions.  The **fast form** is
    :meth:`_run_fast`: the same schedule a slice at a time, for any
    processor count, legal only while :meth:`_hooks_dormant`.  Its
    queue key orders tied processors as the oracle's sequence numbers
    do without changing on a one-cycle step, so where nothing can reach
    into a running processor unannounced (:meth:`_runs_ahead`: no port
    or run-time receiver that posts IPIs behind the machine's back) a
    slice carries that processor's *private* instructions past a tied
    clock.  Private is what commutes with whatever the others do:
    registers, condition codes, the PC chain — and loads and stores
    that fall, at run time, inside the stack window of the thread the
    slice runs (``[stolen_base, stack_limit)``, which no other
    processor touches in compiled code; on coherent memory, only those
    its own cache hits in a block wholly inside the window).  The
    window is private only until somebody does touch it, so that is
    checked, for any program: every access that is not such a tail
    access asks the bank's :class:`~repro.mem.memory.StackWindows`
    first — on coherent memory before the controller's protocol walk
    changes any cache — and the owner's tail is wound back to the
    asker's place in the schedule (:meth:`_wind_back`).  The other
    thing that reaches into a coherent node's processor is an IPI, and
    the sender's controller has the receiver wound back the same way
    before it posts one.  Every other load, store, trap and idle poll
    still happens in the oracle's order, and a run that ends under a
    tail is wound back to where the oracle stops (:meth:`_end_at`).

    ``fastpath=True`` (the default) pairs the fast form with the fast
    path's two rungs, one instruction's generated form per ``step()``
    and generated blocks; ``False``
    pins every processor to the original decode + if-chain interpreter
    under the oracle, which is the reference side of the differential
    lockstep harness.  It is deliberately a constructor argument and
    *not* a :class:`MachineConfig` knob, so experiment cache
    fingerprints are unaffected.

    ``jit`` gates the second rung (:mod:`repro.core.jit`): every block
    start compiled, at its first visit, to a generated Python function.
    ``False`` sends every instruction through ``Processor.step`` and
    its one-instruction forms (the same emitter, one instruction per
    call, no blocks) — the A/B knob for pricing what blocks are worth
    (``perf/``'s ``core.ns_per_instr.closure``, named for the closure
    tier that one-instruction forms replaced).  Same
    contract as ``fastpath``: a constructor argument, not a config
    knob, and architecturally invisible (the lockstep harness pins all
    tiers cycle-identical).

    The processors share one :class:`~repro.core.processor.
    Translations`: what is cached at a pc is a function of the code
    there, so the machine warms once, not once per processor.  Whatever
    the tier, every store into a translated pc range invalidates the
    covering cached translations through the machine's
    :class:`~repro.mem.memory.CodeWatch`, so self-modifying code stays
    correct on all paths.
    """

    def __init__(self, program, config=None, fastpath=True, jit=True):
        self.config = config or MachineConfig()
        self.program = program
        self.memory = Memory(self.config.memory_words)
        self.memory.load_program(program)
        self.time = 0
        self.fastpath = fastpath
        #: Which schedule drove the run, for tests: "fast", "reference"
        #: (:meth:`run` drove the oracle) or "stepper" (a caller did).
        self.loop_used = None
        #: The one observer surface (:mod:`repro.obs.events`): emitting
        #: components are built with it, observers subscribe to it.
        self.events = EventBus()
        #: Optional interval sampler; attached, it selects the oracle.
        self.sampler = None
        #: While :meth:`_run_fast` runs: whose step it is and the event
        #: queue, for :meth:`_wind_back`.
        self._turn = self._queue = None
        #: Optional :class:`repro.obs.flight.Watchdog`; both schedules
        #: poll its ``next_check_at`` and turn the run-time system's
        #: deadlock abort into its typed ``HangDetected``.
        self.watchdog = None

        self.cpus = []
        self._build_memory_system()
        self.jit = jit
        watch = CodeWatch()
        self.memory.code_watch = watch
        shared = Translations()
        shared.attach_code_watch(watch)
        shared.load_program(program, self.memory)
        for cpu in self.cpus:
            cpu.jit_enabled = jit
            cpu.share_translations(shared)
        if not fastpath:
            for cpu in self.cpus:
                cpu.use_reference_interpreter()
        self.runtime = RuntimeSystem(
            self.config, self.memory, self.cpus, program, self.events)

    def _build_memory_system(self):
        config = self.config
        if config.memory_mode == "ideal":
            port = IdealMemoryPort(self.memory, latency=config.memory_latency)
            for node in range(config.num_processors):
                cpu = Processor(node_id=node, port=port,
                                num_frames=config.num_task_frames,
                                events=self.events)
                cpu.trap_squash_cycles = config.trap_squash_cycles
                self.cpus.append(cpu)
            self.fabric = None
        else:
            # Full cache + directory + network system.
            from repro.mem.system import CoherentMemorySystem
            self.fabric = CoherentMemorySystem(
                config, self.memory, self.events)
            self.fabric.interconnect.wind_back = weakref.WeakMethod(
                self._wind_back)
            self.cpus = self.fabric.cpus

    # -- execution ---------------------------------------------------------

    def _hooks_dormant(self):
        """True when nothing attached observes single instructions.

        The fast form batches instructions into generated blocks and
        slices, which only a consumer of single instructions can tell
        from the
        oracle: a profile or watch hook, and the interval sampler,
        which reads the counters mid-run.  Those send
        :meth:`run` to the oracle.  Everything else rides the fast
        form and sees what the oracle shows it: every
        :class:`~repro.obs.events.EventKind` is emitted from a slice
        head, a trap, the run-time system or the memory system, in the
        oracle's order with the oracle's stamps, so subscribers and the
        transaction tracer record identical streams, and the lifetime
        accountant reads the cycle counters by difference at those same
        boundaries (``TestObserversRideTheFastForm``).
        """
        if self.sampler is not None:
            return False
        for cpu in self.cpus:
            if cpu.profile_hook is not None or cpu.watch_hook is not None:
                return False
        return True

    def run(self, entry="main", args=(), max_cycles=200_000_000):
        """Run ``entry`` on the machine; returns a :class:`MachineResult`.

        Raises :class:`SimulationError` on deadlock or cycle exhaustion.
        """
        if self.fastpath and self._hooks_dormant():
            self.loop_used = "fast"
            try:
                self._run_fast(self._start(entry, args), max_cycles)
            finally:
                # Over: what is left of any tail stands, and no later
                # look at memory may wind anything back.
                self._turn = None
            return self._finish()
        stepper = self.stepper(entry, args, max_cycles)
        self.loop_used = "reference"
        step_machine = stepper.step_machine
        while step_machine() is not None:
            pass
        return stepper.result()

    # What both schedules share: how a run starts, ends, and aborts.

    def _start(self, entry, args):
        """Spawn the root thread; returns the initial event queue.

        Entries are ``(local clock, sequence, cpu index)``; the
        sequence number breaks clock ties deterministically.  (A sorted
        list is a heap.)
        """
        self.runtime.spawn_main(entry, args)
        if self.watchdog is not None:
            self.watchdog.next_check_at = self.watchdog.interval
        return sorted((cpu.cycles, index, index)
                      for index, cpu in enumerate(self.cpus))

    def _finish(self):
        """Settle the final clock; returns the :class:`MachineResult`."""
        self.time = max(self.time, max(cpu.cycles for cpu in self.cpus))
        if self.sampler is not None:
            self.sampler.finish(self.time)
        return MachineResult(self, self.runtime.result)

    def _check_deadlock(self):
        """The idle-streak abort: no processor can make progress again.

        It fires long before the watchdog's periodic window; with a
        watchdog attached it becomes the same typed post-mortem result.
        """
        try:
            self.runtime.check_deadlock()
        except DeadlockError as exc:
            if self.watchdog is None:
                raise
            raise self.watchdog.on_deadlock(self.time, exc) from exc

    def _runs_ahead(self):
        """Whether the fast form may run processors ahead of a tie.

        Derived, never configured.  One processor has nobody to run
        ahead of.  With more, a private tail is exact only while
        nothing can reach into a processor between two of its own
        heads without the machine hearing of it first.  On this
        machine that is an IPI landing in its queue — so no port may
        say that something can get at another processor through it
        behind the machine's back (:attr:`~repro.core.memport.
        MemoryPort.reaches_processors`: the ideal port with no I/O hook
        to post one cannot, and a coherent node's controller winds its
        IPI's receiver back first) and there is no run-time receiver to
        post more — and every trap must cost more than a cycle (the
        squash alone does), which is how the loop tells one from
        retired instructions.  Slices are a JIT shape, so ``jit=False``
        runs none.
        """
        return (self.jit and len(self.cpus) > 1
                and self.config.trap_squash_cycles > 1
                and self.runtime._ipi_receiver is None
                and not any(cpu.port.reaches_processors
                            for cpu in self.cpus))

    def _run_fast(self, queue, max_cycles):
        """The fast form: an event queue of *slices* instead of steps.

        **The key.**  The oracle (:meth:`MachineStepper.step_machine`)
        breaks a clock tie by a sequence number drawn at every push.
        Here an entry is ``(clock, -origin, oseq, cpu)``: ``origin`` is
        the clock at which the processor's current unbroken run of
        exactly-one-cycle steps began and ``oseq`` a number drawn only
        then.  That is the same order.  Of two processors tied at T,
        the one whose last step cost more than a cycle started that
        step before T - 1, so it was pushed to T before one that
        stepped from T - 1; two that both stepped from T - 1 were tied
        there and keep their order; so the later ``origin`` goes first,
        and equal origins in the order their steps were taken.  A
        zero-cost step re-queues behind everything at its clock
        (``origin`` -1).  What the key buys: a one-cycle step does not
        change it, so the queue need not see one.

        **Budget-bound slices.**  A popped processor runs while its
        clock stays strictly below the next entry's (at equality the
        key decides, so it is pushed back).  ``step_block(budget)``
        never overshoots: block instructions cost a cycle each, a block
        runs only if it fits what is left of the budget, and a gap
        (trap, stall) ends the block.  Cross-processor
        interactions (shared memory is serialized by the host; IPIs are
        stamped by the receiver's clock at delivery) therefore happen
        at identical simulated times.  Halted processors are dropped.

        **Who chains.**  One ``step_block`` call runs blocks back to
        back — exactly the blocks, in the order, this loop would have
        run one per call — until the budget is spent, a gap or trap
        ends one, or the next pc needs :meth:`~repro.core.processor.
        Processor.step`.  That is legal only while nothing can move
        the horizon during the call: on a machine that does not run
        ahead (no step of this processor re-keys another), and on a
        solo slice (nobody queued).  A machine that runs ahead with
        others queued passes ``ahead`` and gets one block or slice per
        call: a non-tail access may wind another processor back below
        the horizon, which is re-read after every call.

        **Run-ahead slices** (while :meth:`_runs_ahead`).  At a tie the
        budget is a cycle or less, and a popped processor instead runs
        a sync-headed slice — ``step_block(budget, True)`` — the
        instruction at its pc, which holds the minimum key and may be
        anything, and then its *private* successors, which read and
        write only that processor's registers, condition codes and PC
        chain, and the words of its running thread's own stack window
        (on coherent memory, through hits in its own cache).
        Those commute with everything any other processor does, so
        executing them early changes the host order of instructions
        and nothing else; every other load and store, every trap and
        idle poll is still the head of a slice (or inside a block run
        strictly below everybody's clock), and heads are popped in key
        order — the oracle's.

        **Whose window.**  A thread owns ``[stolen_base,
        stack_limit)`` while it is loaded (``Scheduler.load_thread`` to
        ``unload`` / ``retire_thread``; a lazy steal moves
        ``stolen_base`` up).  Nothing in compiled
        Mul-T but the steal reaches into another thread's stack — which
        is why it pays — but a program may, so the bank carries a
        :class:`~repro.mem.memory.StackWindows` for the run: a tail
        access tests the executing frame's bounds and otherwise parks
        the chain to become a head; every *other* access — inlined in
        generated code, or through any ``Memory`` method: closures,
        trap handlers, the steal's copy loop — that lands in a loaded
        window calls :meth:`_wind_back` first.  On coherent memory a
        tail access rides only as a hit of its own cache on a block
        wholly inside the window, and the controller asks the registry
        before its protocol walk, so a node whose access would
        invalidate or downgrade such a line winds the owner back while
        the line is still what its tail saw; the tail's hit log puts
        the LRU stamps back.

        **Whose IPI** (coherent memory).  A ``STIO`` to
        ``IO_IPI_SEND`` lands in the receiver's queue at the sender's
        clock, and the oracle has the receiver take it at its next
        step.  The sender's controller calls :meth:`_wind_back` first,
        so a receiver parked behind a tail past that key is taken back
        to it and takes the IPI there.

        **How a run ends.**  When the root's exit sets ``done`` at key
        K the oracle stops, and a parked processor may have run its
        tail past K: :meth:`_end_at` takes those instructions back,
        and what they stored.

        A processor popped off an empty queue — the only one, or the
        last not halted — has nobody to yield to: its blocks may
        overrun the slice's end (``step_block``'s ``overrun``), one
        call chains them until the clock reaches it, and
        :data:`SOLO_SLICE_CYCLES` ends the slice — so the cycle limit
        and the watchdog are polled once per solo slice and an endless
        loop still comes back to the queue.
        """
        runtime = self.runtime
        cpus = self.cpus
        watchdog = self.watchdog
        has_work = runtime.has_work
        on_idle = runtime.on_idle
        heappush = heapq.heappush
        heappop = heapq.heappop
        step_blocks = [cpu.step_block for cpu in cpus]
        steps = [cpu.step for cpu in cpus]
        jit = self.jit
        idle_limit = 4 * len(cpus)
        ahead = self._runs_ahead()
        queue = [(clock, 0, seq, index) for clock, seq, index in queue]
        seq = len(queue)
        #: Whose step is running and where it stands in the schedule,
        #: for :meth:`_wind_back`: ``[cpu index, -origin, oseq, clock
        #: minus instructions retired]`` — the last is constant over a
        #: run of one-cycle instructions, so the running step began at
        #: it plus the instruction count of the moment.
        turn = self._turn = [0, 0, 0, 0]
        self._queue = queue
        if ahead and self.memory.windows is None:
            # Before the first stack is carved (threads get theirs at
            # their first load): the bank and the scheduler share it.
            self.memory.windows = runtime.scheduler.windows = (
                StackWindows(self.memory, self._wind_back))

        idle_streak = 0
        while True:
            if not queue:
                raise SimulationError(_ALL_HALTED)
            when, behind, oseq, index = heappop(queue)
            cpu = cpus[index]
            if cpu.halted:
                continue
            if when > self.time:
                self.time = when
            if watchdog is not None and self.time >= watchdog.next_check_at:
                # Polled per slice: lags `interval` by at most one.
                watchdog.check(self.time)
            if self.time > max_cycles:
                raise SimulationError(_CYCLE_LIMIT % max_cycles)

            # The slice: run while this CPU's clock is strictly the
            # minimum — below the head of the queue, which momentarily
            # holds the *other* CPUs.  The pop already arbitrated any
            # clock tie, so the first iteration always runs.
            solo = not queue
            horizon = when + SOLO_SLICE_CYCLES if solo else queue[0][0]
            step_block = step_blocks[index]
            step = steps[index]
            stats = cpu.stats
            if ahead:
                turn[:3] = index, behind, oseq
            while True:
                if has_work(cpu):
                    budget = horizon - cpu.cycles
                    # `lead` one-cycle instructions retire, then at
                    # most one gap (a trap, a stall), which ends
                    # whatever chain of blocks or slice ran.
                    if ahead:
                        lead = stats.instructions
                        turn[3] = cpu.cycles - lead
                        spent = step_block(budget, not solo, solo)
                        lead = stats.instructions - lead
                        gap = spent != lead
                        if not solo:
                            # It may have wound somebody back below
                            # the horizon (re-keyed: `_wind_back`).
                            horizon = queue[0][0]
                    elif solo or budget >= MIN_BLOCK_BUDGET:
                        lead = stats.instructions
                        # With the JIT off, the closure tier's step.
                        spent = (step_block(budget, False, solo) if jit
                                 else step())
                        lead = stats.instructions - lead
                        gap = spent != lead
                    else:
                        # Too tight for any block: skip step_block's
                        # checks.
                        lead = 0
                        spent = step()
                        gap = spent != 1
                    idle_streak = 0
                    if runtime.done:
                        if ahead:
                            self._end_at(
                                (cpu.cycles - spent + lead, behind, oseq),
                                queue)
                        return
                else:
                    before = cpu.cycles
                    if ahead:
                        turn[3] = before - stats.instructions
                    found = on_idle(cpu)
                    spent = cpu.cycles - before
                    gap = spent != 1
                    if ahead and not solo:
                        horizon = queue[0][0]    # a steal winds back too
                    if found:
                        idle_streak = 0
                    else:
                        idle_streak += 1
                        if idle_streak > idle_limit:
                            self._check_deadlock()
                if gap or not spent:
                    # Re-key: a new run of one-cycle steps starts here;
                    # a zero-cost step goes behind its whole clock.
                    behind = -cpu.cycles if spent else 1
                    oseq = seq
                    seq += 1
                    if ahead:
                        turn[1:3] = behind, oseq
                # A failed idle poll (the only thing that leaves the
                # streak non-zero) and a zero-cost step go back through
                # the queue.
                if (cpu.halted or cpu.cycles >= horizon or idle_streak
                        or not spent):
                    break

            if not cpu.halted:
                heappush(queue, (cpu.cycles, behind, oseq, index))

    def _end_at(self, key, queue, cause="run_end", only=None):
        """Take back what queued processors ran ahead of ``key``.

        ``key`` is the ``(clock, -origin, oseq)`` at which a step
        began; the oracle ran exactly the steps with a smaller key
        before it.  Every head in ``queue`` is at a larger one, but the
        tail a queued processor ran behind its last head shares that
        head's origin and ``oseq`` and counts its clock up by one per
        instruction, so its suffix from the first key not below ``key``
        had not happened yet when the oracle began that step, and is
        taken back — registers, PC chain, counters, and the words and
        full/empty bits its loads and stores changed.

        Two callers.  The step that set ``done`` ends the run there:
        every processor (``only`` is ``None``), the queue no longer
        matters.  :meth:`_wind_back` does it mid-run to the one
        processor ``only`` whose stack window the running step is
        about to touch; that processor's clock moved, so its queue
        entry is re-keyed — same origin and ``oseq``, they describe
        the head, which stands.
        """
        clock, behind, oseq = key
        for slot, (_, its_behind, its_oseq, index) in enumerate(queue):
            if only is not None and index != only:
                continue
            cpu = self.cpus[index]
            if cpu.ahead_tail is None:
                continue
            count = cpu.ahead_tail[0]
            keep = clock - (cpu.cycles - count)
            if (its_behind, its_oseq) < (behind, oseq):
                keep += 1
            if keep < count:
                cpu.unrun_tail(max(keep, 0), cause)
                if only is not None:
                    queue[slot] = (cpu.cycles, its_behind, its_oseq, index)
                    heapify(queue)
                    return

    def _wind_back(self, node, frame=None, cause="foreign"):
        """Something that is not a tail is about to reach into ``node``:
        access a word in the stack window of the thread loaded in its
        ``frame`` (:meth:`repro.mem.memory.StackWindows.touch`), or,
        with no ``frame``, post it an IPI (:meth:`repro.mem.system.
        Interconnect.reach`, cause ``"ipi"``).

        If that processor is parked behind a tail — for a window, one
        that ran in that frame, the only window a tail loads or stores
        in — the reach and the tail do not commute: the tail goes back
        to the key of the step now running, which :meth:`_run_fast`
        keeps in ``_turn``.  The processor running that step holds no
        tail itself.
        """
        cpu = self.cpus[node]
        if (cpu.ahead_tail is not None and self._turn is not None
                and (frame is None or cpu.frames[cpu.fp] is frame)):
            index, behind, oseq, skew = self._turn
            clock = skew + self.cpus[index].stats.instructions
            self._end_at((clock, behind, oseq), self._queue, cause, node)

    def stats(self):
        """Current :class:`MachineStats` snapshot."""
        return MachineStats(self)

    def stepper(self, entry="main", args=(), max_cycles=200_000_000):
        """A resumable :class:`MachineStepper` for this machine.

        Spawns the root thread immediately; the caller then advances
        the run one scheduling iteration at a time (the monitor's
        single-step / run-until substrate).  Use *either* :meth:`run`
        or a stepper on a given machine, never both.
        """
        return MachineStepper(self, entry=entry, args=args,
                              max_cycles=max_cycles)


class StepInfo:
    """What one :meth:`MachineStepper.step_machine` iteration did."""

    __slots__ = ("node", "pc", "executed", "stopped")

    def __init__(self, node, pc, executed, stopped):
        #: Node index of the processor the iteration arbitrated to.
        self.node = node
        #: The active frame's pc before the iteration (None when idle).
        self.pc = pc
        #: True when one instruction (or trap) actually executed.
        self.executed = executed
        #: True when a guard stopped the iteration *before* executing;
        #: the machine state is untouched and the same processor will
        #: be re-arbitrated next call.
        self.stopped = stopped


class MachineStepper:
    """The oracle schedule: a per-instruction, resumable machine driver.

    This is the simplest statement of the event-driven loop, and the
    one every other form is checked against: pop the processor with the
    earliest clock (ties to the older sequence number), advance machine
    time to it, poll the sampler and the watchdog, enforce the cycle
    limit, run one instruction or one idle poll, and re-push with a
    fresh sequence number.  :meth:`AlewifeMachine.run` drives one to
    completion for every ``fastpath=False`` run and every run with a
    per-instruction hook (:meth:`AlewifeMachine._hooks_dormant`), so a
    caller-driven stepper (``april monitor``) observes exactly the run
    ``machine.run()`` would have given, one step at a time.

    The queue persists across calls, which is what makes the run
    *resumable*: breakpoint checks are a ``guard`` callable consulted
    after arbitration but before execution; a guarded stop re-pushes
    the popped entry unchanged (same sequence number), so stopping and
    resuming cannot perturb tie-breaking.
    """

    def __init__(self, machine, entry="main", args=(),
                 max_cycles=200_000_000):
        self.machine = machine
        self.runtime = machine.runtime
        self.max_cycles = max_cycles
        machine.loop_used = "stepper"
        self._queue = machine._start(entry, args)
        self._seq = len(self._queue)
        self._idle_streak = 0
        self._idle_limit = 4 * len(machine.cpus)

    @property
    def done(self):
        return self.runtime.done

    @property
    def time(self):
        return self.machine.time

    def result(self):
        """The :class:`MachineResult` once the run is done, else None."""
        if not self.runtime.done:
            return None
        return self.machine._finish()

    def step_machine(self, guard=None):
        """Advance the machine by one scheduling iteration.

        Args:
            guard: optional ``guard(cpu) -> bool`` consulted when the
                arbitrated processor is about to execute an
                instruction; returning True stops *before* executing
                (breakpoints).  Idle iterations never consult it.

        Returns a :class:`StepInfo`, or ``None`` once the run is done.
        Raises :class:`SimulationError` on deadlock, cycle exhaustion,
        or all processors halting, and the watchdog's
        :class:`~repro.errors.HangDetected` when one is attached.
        """
        machine = self.machine
        runtime = self.runtime
        queue = self._queue
        while True:
            if runtime.done:
                return None
            if not queue:
                raise SimulationError(_ALL_HALTED)
            entry = heapq.heappop(queue)
            index = entry[2]
            cpu = machine.cpus[index]
            # A halted processor never makes progress again: drop it
            # instead of re-popping it at a frozen clock forever.
            if not cpu.halted:
                break
        now = machine.time
        if cpu.cycles > now:
            now = machine.time = cpu.cycles
        sampler = machine.sampler
        if sampler is not None and now >= sampler.next_sample_at:
            sampler.sample(now)
        watchdog = machine.watchdog
        if watchdog is not None and now >= watchdog.next_check_at:
            watchdog.check(now)
        if now > self.max_cycles:
            heapq.heappush(queue, entry)
            raise SimulationError(_CYCLE_LIMIT % self.max_cycles)

        pc = None
        executed = False
        if runtime.has_work(cpu):
            pc = cpu.frames[cpu.fp].pc
            if guard is not None and guard(cpu):
                heapq.heappush(queue, entry)
                return StepInfo(index, pc, False, True)
            cpu.step()
            executed = True
            self._idle_streak = 0
        elif runtime.on_idle(cpu):
            self._idle_streak = 0
        else:
            self._idle_streak += 1
            if self._idle_streak > self._idle_limit:
                # Raises when the machine is terminally stuck, so
                # losing this queue entry is harmless (any further
                # stepping re-detects via another node).
                machine._check_deadlock()
        if not cpu.halted:
            heapq.heappush(queue, (cpu.cycles, self._seq, index))
            self._seq += 1
        return StepInfo(index, pc, executed, False)


def run_program(program, config=None, entry="main", args=(),
                max_cycles=200_000_000, fastpath=True, jit=True):
    """Build a machine, run a program, return the :class:`MachineResult`."""
    machine = AlewifeMachine(program, config, fastpath=fastpath, jit=jit)
    return machine.run(entry=entry, args=args, max_cycles=max_cycles)


def execute_payload(payload):
    """Run one sweep-job payload; the picklable worker entry point.

    Everything in and out is plain picklable/JSON-ready data, so
    :mod:`repro.exp` can ship this call to a ``ProcessPoolExecutor``
    worker and cache the return value verbatim on disk.  The payload is
    what :meth:`repro.exp.job.Job.payload` produces::

        {"source": ..., "mode": ..., "software_checks": ...,
         "optimize": ..., "config": MachineConfig.to_dict(),
         "entry": ..., "args": [...], "max_cycles": ...,
         "capture": "report" | "stats", "expect": optional}

    The worker compiles from source (deterministic, and once per
    distinct program per process —
    :func:`~repro.lang.compiler.compile_source` caches; the parent
    already hashed the compiled words for the cache key), attaches the
    per-job observation from :func:`repro.obs.session.for_job`, and
    returns the result value, cycle count, stats, and — under
    ``capture="report"`` — the full ``machine_report`` plus the
    coherence-latency histogram summary.

    Raises :class:`~repro.errors.WorkloadCheckError` when ``expect`` is
    given and the run returns a different value.
    """
    from repro.errors import WorkloadCheckError
    from repro.lang.compiler import compile_source
    from repro.obs.report import machine_report
    from repro.obs.session import for_job

    spans = None
    if payload.get("trace_spans"):
        # Serve-injected knob: self-time compile/run/store so the
        # request trace can nest worker sub-spans under its execute
        # span.  runner is already imported — it is the worker entry
        # that called us.
        from repro.exp.runner import WorkerSpans
        spans = WorkerSpans()

    compiled = compile_source(
        payload["source"],
        mode=payload.get("mode", "eager"),
        software_checks=payload.get("software_checks", False),
        optimize=payload.get("optimize", False))
    config = MachineConfig(**payload["config"])
    if config.lazy_futures != compiled.wants_lazy_scheduling:
        config = config.replace(lazy_futures=compiled.wants_lazy_scheduling)

    observation = for_job(config)
    # Absent keys default True so pre-existing payload hashes (and the
    # content-addressed result cache) are unchanged by these knobs —
    # legitimate because every tier is lockstep-identical in cycles
    # and results; the knobs only change host wall time.
    machine = AlewifeMachine(compiled.program, config,
                             fastpath=payload.get("fastpath", True),
                             jit=payload.get("jit", True))
    if observation is not None:
        observation.attach(machine)
    if spans is not None:
        spans.mark("compile")
    result = machine.run(
        entry=compiled.entry_label(payload.get("entry", "main")),
        args=tuple(payload.get("args", ())),
        max_cycles=payload.get("max_cycles", 200_000_000))
    if spans is not None:
        spans.mark("run")

    expect = payload.get("expect")
    if expect is not None and result.value != expect:
        raise WorkloadCheckError(
            "result %r != expected %r" % (result.value, expect),
            config=config, expected=expect, actual=result.value)

    out = {
        "status": "ok",
        "value": result.value,
        "cycles": result.cycles,
        "output": result.output,
        "stats": result.stats.to_dict(),
    }
    if observation is not None and observation.lifetime is not None:
        out["critpath"] = observation.critpath_summary()
    if payload.get("capture", "report") == "report":
        out["report"] = machine_report(machine, result=result,
                                       observation=observation)
        if observation is not None and observation.hist is not None:
            out["histograms"] = {
                kind: {"count": h.count, "p50": h.percentile(50),
                       "p90": h.percentile(90), "p99": h.percentile(99)}
                for kind, h in
                sorted(observation.hist.by_kind.items())
            }
    if spans is not None:
        spans.mark("store")         # report/stats assembly
        out["spans"] = spans.spans
    return out
