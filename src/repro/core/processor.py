"""The APRIL processor (paper Sections 3-5).

A pipelined RISC interpreter with the multiprocessing extensions:

* four hardware task frames selected by a frame pointer (FP), plus
  eight global registers;
* coarse-grain multithreading: execution proceeds full-speed within one
  thread until the cache controller or the full/empty logic traps the
  processor, at which point a (cheap) trap handler context-switches;
* hardware future detection: strict compute instructions and memory
  address operands trap when a value has its LSB set;
* a PC chain (PC + nPC) giving a single-cycle branch delay slot;
* the trap mechanism of Section 5: five cycles to squash the pipeline,
  then the handler runs in the trapping thread's task frame.

Cycle accounting: every instruction costs one cycle (plus memory stall
cycles reported by the controller, plus trap/handler overheads).  The
processor keeps per-category cycle counters so the harness can decompose
utilization exactly like Figure 5 of the paper (useful work / switch
overhead / memory stalls / idle).
"""

from collections import deque

from repro.core import alu
from repro.core.fpu import FPU
from repro.core.jit import MAX_JIT_BLOCK, compile_block
from repro.core.psr import ET_BIT
from repro.core.task_frame import TaskFrame
from repro.core.traps import (
    TRAP_SQUASH_CYCLES,
    Trap,
    TrapAction,
    TrapKind,
    TrapSignal,
    TrapTable,
)
from repro.errors import ProcessorError
from repro.isa import registers
from repro.isa.encoding import decode
from repro.isa.instructions import (
    LOAD_FLAVORS,
    STORE_FLAVORS,
    Category,
    Opcode,
)
from repro.isa.tags import WORD_MASK
from repro.obs.events import EventBus, EventKind

_SOFTWARE = TrapKind.SOFTWARE

#: Cycle-cost categories tracked by :attr:`Processor.stats`.
CATEGORIES = ("useful", "stall", "trap", "switch", "spin", "idle")

#: The least budget the machine loop hands :meth:`Processor.step_block`
#: on a budgeted slice; below it the loop runs :meth:`Processor.step`
#: itself, so a chain stops there too.
MIN_BLOCK_BUDGET = 4

#: Why a run-ahead tail was taken back (:attr:`Processor.ahead_undone_by`):
#: the run ended under it, another processor (or a trap handler)
#: touched the stack window it had loaded or stored in, a lazy steal
#: carried part of that window off, or another node sent this one an
#: IPI (coherent machines).
UNDO_CAUSES = ("run_end", "foreign", "steal", "ipi")


class ProcessorStats:
    """Per-processor cycle and event counters.

    ``_total`` mirrors the sum of the six category counters
    incrementally, so :attr:`total_cycles` is an attribute read instead
    of a 6-way ``getattr`` sum; everything that bumps a category
    (:meth:`Processor.charge`, generated code) bumps ``_total`` by the
    same amount.  The invariant is asserted in the test suite.
    """

    __slots__ = (
        "useful", "stall", "trap", "switch", "spin", "idle", "_total",
        "instructions", "context_switches", "traps_taken", "trap_counts",
    )

    def __init__(self):
        for name in CATEGORIES:
            setattr(self, name, 0)
        self._total = 0
        self.instructions = 0
        self.context_switches = 0
        self.traps_taken = 0
        self.trap_counts = {}

    @property
    def total_cycles(self):
        return self._total

    def utilization(self):
        """Fraction of cycles doing useful work (the paper's U)."""
        total = self._total
        return self.useful / total if total else 0.0

    def snapshot(self):
        """Dict snapshot for reporting."""
        data = {name: getattr(self, name) for name in CATEGORIES}
        data.update(
            instructions=self.instructions,
            context_switches=self.context_switches,
            traps_taken=self.traps_taken,
            total_cycles=self.total_cycles,
        )
        return data


class Processor:
    """One APRIL processor.

    Args:
        node_id: index of the ALEWIFE node this processor belongs to.
        port: a :class:`repro.core.memport.MemoryPort`.
        num_frames: hardware task frames (4 in the SPARC implementation).
        events: the machine's :class:`~repro.obs.events.EventBus` (a
            bare processor makes a dormant one of its own).
    """

    #: Always 0, as is the ``superblocks`` entry of
    #: :meth:`translation_counters`: no tier fuses instructions, but
    #: ``perf/simloads.py`` reads both into its ``core.superblocks``
    #: metric.
    superblocks = 0

    def __init__(self, node_id=0, port=None, num_frames=registers.NUM_TASK_FRAMES,
                 events=None):
        self.node_id = node_id
        self.port = port
        self.frames = [TaskFrame(i) for i in range(num_frames)]
        self.globals = [0] * registers.NUM_GLOBAL_REGISTERS
        self.fp = 0
        self.fpu = FPU()
        self.trap_table = TrapTable()
        self.cycles = 0
        self.stats = ProcessorStats()
        self.halted = False
        self.ipi_queue = deque()
        self.share_translations(Translations())
        #: Whether generated blocks run here, as reported by
        #: :meth:`translation_counters` (its only reader).  The machine
        #: copies its ``jit`` argument in; its loop reads
        #: ``AlewifeMachine.jit`` itself and, off, calls :meth:`step`
        #: where it would call :meth:`step_block`.
        self.jit_enabled = True
        #: Run-ahead diagnostics (deliberately not part of
        #: ``stats.snapshot()``, and not part of
        #: :meth:`translation_counters` either): slices that ran a
        #: private tail, the instructions in those tails — of which
        #: loads and stores inside the thread's own stack window — and
        #: the ones :meth:`unrun_tail` took back, in all and by cause
        #: (:data:`UNDO_CAUSES`).
        self.ahead_slices = 0
        self.ahead_instructions = 0
        self.ahead_loads = 0
        self.ahead_stores = 0
        self.ahead_undone_by = dict.fromkeys(UNDO_CAUSES, 0)
        #: ``(count, undo, stores)`` while the last thing this
        #: processor ran was a slice with ``count`` private
        #: instructions behind its head, else ``None``; ``undo`` is the
        #: generated code's snapshot ``(pc, npc, psr, numbers,
        #: *values)`` and ``stores`` its log of what the tail changed
        #: in memory — ``(index, old word, old full/empty bit)``,
        #: oldest first — or ``None``.  A coherent node's tail that
        #: accessed its cache adds a fourth field, the hit log:
        #: ``(line, old LRU stamp)`` per hit, oldest first.
        self.ahead_tail = None
        #: JIT tier diagnostics (same non-snapshot contract): blocks
        #: and slices only, not :meth:`step`'s one-instruction forms.
        self.jit_compiles = 0
        self.jit_runs = 0
        self.jit_deopts = 0
        #: Pipeline-squash cost per trap (4 on custom APRIL silicon).
        self.trap_squash_cycles = TRAP_SQUASH_CYCLES
        #: Optional per-instruction callback(cpu, pc, instr) for profiling.
        self.profile_hook = None
        #: Optional data-access callback(cpu, pc, address, is_load,
        #: outcome) fired after every *successful* load/store (both
        #: interpreters).  The monitor's watchpoints attribute memory
        #: and full/empty-bit transitions to the storing pc through it.
        self.watch_hook = None
        #: The machine's observer surface (:mod:`repro.obs.events`).  Its
        #: ``lifetime`` accountant reads :attr:`stats` by difference, so
        #: only the instructions that move FP tell it anything.
        self.events = events if events is not None else EventBus()

    @property
    def ahead_undone(self):
        """Run-ahead instructions taken back, whatever the cause."""
        return sum(self.ahead_undone_by.values())

    # -- register file ----------------------------------------------------

    @property
    def frame(self):
        """The active task frame (designated by FP)."""
        return self.frames[self.fp]

    def read_reg(self, number, frame=None):
        """Read an encoded register (frame-relative or global)."""
        if number == 0:
            return 0
        if number < registers.GLOBAL_BASE:
            return (frame or self.frame).regs[number]
        return self.globals[number - registers.GLOBAL_BASE]

    def write_reg(self, number, value, frame=None):
        """Write an encoded register; writes to r0 are discarded."""
        if number == 0:
            return
        value &= WORD_MASK
        if number < registers.GLOBAL_BASE:
            (frame or self.frame).regs[number] = value
        else:
            self.globals[number - registers.GLOBAL_BASE] = value

    # -- cycle accounting ------------------------------------------------------

    def charge(self, cycles, category="useful"):
        """Advance the local clock, attributing cycles to one of
        :data:`CATEGORIES`, tested in place (the trap path's two first)
        so that a charge is one call."""
        if cycles < 0:
            raise ProcessorError("negative cycle charge")
        stats = self.stats
        if category == "trap":
            stats.trap += cycles
        elif category == "switch":
            stats.switch += cycles
        elif category == "useful":
            stats.useful += cycles
        elif category == "idle":
            stats.idle += cycles
        elif category == "stall":
            stats.stall += cycles
        elif category == "spin":
            stats.spin += cycles
        else:
            raise ProcessorError("unknown cycle category %r" % (category,))
        stats._total += cycles
        self.cycles += cycles

    # -- IPI delivery (Section 3.4) -----------------------------------------

    def post_ipi(self, message):
        """Queue a preemptive interprocessor interrupt for this processor."""
        self.ipi_queue.append(message)

    # -- main step loop ------------------------------------------------------

    def step(self):
        """Execute one instruction (or take one trap).

        Returns the number of cycles consumed, and advances
        :attr:`cycles` by the same amount.

        Where the PC chain is straight (``npc == pc + 4``) this runs
        the pc's *one-instruction form*: the generated code
        :func:`~repro.core.jit.compile_block` emits for that
        instruction alone (``single``), compiled at the pc's first visit
        and kept in :attr:`Translations.steps`.  In a delay slot or at
        a pc where nothing decodes it runs the reference's statement of
        the memoised decode (:meth:`_execute`), as
        :meth:`step_reference` does — which takes the ILLEGAL trap at
        an undecodable word.  Either way ``profile_hook`` is handed the
        decoded instruction first.
        """
        if self.halted:
            return 0
        start = self.cycles

        frame = self.frames[self.fp]
        if self.ipi_queue and frame.psr.value & ET_BIT:
            message = self.ipi_queue.popleft()
            self._take_trap(frame, Trap(TrapKind.IPI, pc=frame.pc, value=message))
            return self.cycles - start

        pc = frame.pc
        if frame.npc == pc + 4:
            form = self._step_map.get(pc)
            if form is None:
                form = self._compile_step(pc)
            if form:
                if self.profile_hook is not None:
                    word, = form.key[1]
                    self.profile_hook(self, pc, self.translations.decode(word))
                # A trap the form finds is taken in place; a delegated
                # instruction's is raised, and taken here.
                try:
                    form.fn(self, frame)
                except TrapSignal as signal:
                    self._take_trap(frame, signal.trap)
                return self.cycles - start
        return self._step_decoded(frame, pc, start)

    def step_reference(self):
        """The original decode + if-chain interpreter step.

        Semantically identical to :meth:`step`; kept as the oracle side
        of the differential lockstep harness
        (``tests/core/test_lockstep.py``) and selected machine-wide by
        ``AlewifeMachine(..., fastpath=False)``.
        """
        if self.halted:
            return 0
        start = self.cycles

        frame = self.frame
        if self.ipi_queue and frame.psr.traps_enabled:
            message = self.ipi_queue.popleft()
            self._take_trap(frame, Trap(TrapKind.IPI, pc=frame.pc, value=message))
            return self.cycles - start
        return self._step_decoded(frame, frame.pc, start)

    def _step_decoded(self, frame, pc, start):
        """Fetch and decode the word at ``pc`` and run the reference's
        statement of it; the cycles since ``start``."""
        try:
            word = self.port.fetch(pc)
            instr = self.translations.decode(word)
        except Exception as exc:
            self._take_trap(frame, Trap(TrapKind.ILLEGAL, pc=pc, cause=str(exc)))
            return self.cycles - start

        if self.profile_hook is not None:
            self.profile_hook(self, pc, instr)
        try:
            next_pc, next_npc = self._execute(frame, instr, pc, frame.npc)
        except TrapSignal as signal:
            self._take_trap(frame, signal.trap)
            return self.cycles - start

        # The executing frame's PC chain advances; a handler or INCFP may
        # have redirected FP, which only affects the *next* fetch.
        frame.pc = next_pc
        frame.npc = next_npc
        self.stats.instructions += 1
        return self.cycles - start

    def use_reference_interpreter(self):
        """Route all step() calls through :meth:`step_reference`.

        Re-classes the instance so every caller — run-time system,
        machine loop, tests — gets the if-chain path without per-step
        branching.  (Shadowing ``step`` with the bound method on the
        instance would make the processor part of a reference cycle,
        and its memory bank garbage only the cycle collector frees.)
        """
        self.__class__ = _ReferenceProcessor

    # -- generated code (fast path only) --------------------------------------

    def step_block(self, budget, ahead=False, overrun=False):
        """Run generated blocks from the pc back to back, or one
        :meth:`step`; returns the cycles consumed.

        The fast path has two rungs: :meth:`step` runs one
        instruction's generated form, and this runs generated blocks.
        The first visit to a block-start pc compiles it
        (:mod:`repro.core.jit`) into one Python function that executes
        the whole straight-line run *and* its terminating branch/memory
        instruction with batched accounting; a pc that cannot be
        compiled is remembered as such and runs :meth:`step`, as does a
        block that does not fit the budget.

        **The chain.**  This is the machine loop's dispatch loop too:
        after a block that took no trap and retired one instruction per
        cycle, it looks up the block at the new pc and runs it in the
        same call, exactly as the loop would have run it next.  It
        stops — and leaves the rest to the caller — after a gap (a
        stalled delegated terminator), a trap (taken in place or
        raised) or zero progress, once ``halted`` is set, the active
        frame holds no thread or an IPI is pending with ET set, at a
        pc in a delay slot (``npc != pc + 4``), uncompiled or whose
        block does not fit, and when the budget is spent.  So every
        block of a call but the last retires one instruction per
        cycle, and :attr:`jit_runs` counts blocks, not calls.

        ``budget`` is the cycles left before the caller's horizon.
        Without ``overrun`` a block is admitted only if its ``count`` —
        every block instruction costing exactly one cycle — fits what
        is left, so the event-loop slice is never overshot (a delegated
        memory terminator may stall past the horizon, but so would the
        same instruction under :meth:`step` — the reference loop has
        the same property), and the chain stops when less than
        :data:`MIN_BLOCK_BUDGET` is left, where the loop runs
        :meth:`step` itself.  With ``overrun`` — a solo slice, nobody
        queued to yield to — any block is admitted and may run past the
        horizon, and the chain stops once the clock reaches it.  Either
        way the horizon must not move during the call: a caller whose
        queue a step may re-key says so with ``ahead``.

        ``ahead`` — a machine that runs ahead, others queued — runs one
        block or slice and no chain: a non-tail access may wind another
        processor back below the horizon (``AlewifeMachine.
        _wind_back``), which the caller re-reads after every call.  And
        it lets a budget too small for a full-length block be
        overrun by a *sync-headed slice* instead: the instruction at
        the pc — the caller vouches that it is next in the machine's
        schedule — and then, in the same generated function, every
        following *private* instruction: one cycle, cannot trap, and
        reads and writes only this processor's registers, condition
        codes and PC chain — or, a load or store off the stack
        pointer, a word inside ``frame.window``, the running thread's
        own stack (tested at run time; its old contents logged; on a
        coherent node, a cache hit on a block wholly inside it).  The
        slice stops before any other load/store, before a frame,
        system or I/O instruction, before a tripped future guard or a
        stack access that misses the window or would trap (chain
        parked there, nothing taken) and at
        :data:`~repro.core.jit.MAX_JIT_BLOCK`.  Nothing another
        processor does changes what a private instruction computes and
        nothing it computes is seen from outside before the next head
        — the machine sees to the window part (``AlewifeMachine.
        _wind_back``) — so running the tail early changes only the
        host order; legal only while nothing can reach into this
        processor between two of its own heads unannounced (no IPI
        sender the machine does not hear of first, no per-instruction
        hook).
        :attr:`ahead_tail` says how far past the head the slice ran and
        :meth:`unrun_tail` takes that back.  A pc with no slice runs one
        :meth:`step` — a slice of one.

        Falls back to :meth:`step` — same return convention — whenever
        no block applies at the pc.  The machine loop's fast form calls
        this only while ``AlewifeMachine._hooks_dormant`` and with the
        JIT on (off, it calls :meth:`step` in its place), so neither is
        tested here: a direct caller sees to both.
        """
        if self.halted:
            return 0
        self.ahead_tail = None
        frame = self.frames[self.fp]
        ipi_queue = self.ipi_queue
        if ipi_queue and frame.psr.value & ET_BIT:
            return self.step()
        pc = frame.pc
        if frame.npc != pc + 4:
            # In a branch delay slot (or a redirected PC chain): the
            # block's straight-line npc math would be wrong.
            return self.step()

        # Nobody to run ahead of, or room for a full-length block,
        # memory accesses and all, which beats a slice.
        sliced = ahead and budget < MAX_JIT_BLOCK
        jit_map = self._jit_map
        key = ~pc if sliced else pc
        jb = jit_map.get(key)
        if jb is None:
            jb = self._compile_jit(pc, sliced)
        if not jb or not (sliced or overrun) and jb.count > budget:
            # Uncompilable here, or the block does not fit.
            return self.step()
        # A block may stop early — at a tripped future guard, at the
        # slow path of an inlined memory access, or at a taken branch —
        # so the cycles consumed are whatever the generated code
        # banked, not ``jb.count``.  A tripped guard or a ``TRAP``
        # takes its trap in place (:meth:`_take_trap`, after parking
        # the PC chain at the instruction and committing the prefix)
        # and returns True; a delegated instruction's trap is raised
        # by the reference's statement and taken here, exactly as
        # :meth:`step` takes it.  Either way the run counts, its
        # cycles are the trap's, however few
        # (a handler charging nothing is no zero-progress block), and
        # the chain ends.
        start = at = self.cycles
        horizon = start + budget
        least = 1 if overrun else MIN_BLOCK_BUDGET
        stats = self.stats
        # Constant while every block retires one instruction per cycle.
        skew = start - stats.instructions
        frames = self.frames
        runs = 1
        try:
            while True:
                if jb.fn(self, frame):
                    break
                cycles = self.cycles
                if cycles == at:
                    # Cannot happen on current codegen (guards trap or
                    # park after the head, delegates charge); keeps a
                    # zero-progress block from livelocking the loop.
                    runs -= 1
                    self.jit_deopts += 1
                    self.step()
                    break
                room = horizon - cycles
                if (ahead or room < least
                        or cycles - stats.instructions != skew
                        or self.halted):
                    break
                frame = frames[self.fp]
                pc = frame.pc
                if (frame.thread is None or frame.npc != pc + 4
                        or ipi_queue and frame.psr.value & ET_BIT):
                    break
                jb = jit_map.get(pc)
                if jb is None:
                    jb = self._compile_jit(pc)
                if not jb or not overrun and jb.count > room:
                    break
                runs += 1
                at = cycles
        except TrapSignal as signal:
            self._take_trap(frame, signal.trap)
        finally:
            self.jit_runs += runs
        return self.cycles - start

    def _compile_jit(self, pc, sliced=False):
        """Compile the block (or slice) at ``pc``; caches the result.

        Uncompilable pcs cache ``False`` so :func:`compile_block` is
        asked once per pc; real blocks register each run of words they
        were compiled from with the code watch so self-modifying stores
        invalidate them.
        """
        jb = compile_block(self, pc, sliced)
        code = self.translations
        code.jit[~pc if sliced else pc] = jb if jb is not None else False
        if jb is not None:
            self.jit_compiles += 1
            if code.watch is not None:
                for lo, hi in jb.runs:
                    code.watch.cover(lo, hi)
        return jb

    def _compile_step(self, pc):
        """Compile :meth:`step`'s one-instruction form at ``pc``; cached
        like a block (``False`` where nothing decodes, its word
        registered with the code watch), but not counted in
        :attr:`jit_compiles`."""
        form = compile_block(self, pc, single=True)
        code = self.translations
        code.steps[pc] = form if form is not None else False
        if form is not None and code.watch is not None:
            code.watch.cover(pc, pc + 4)
        return form

    def unrun_tail(self, keep, cause="run_end"):
        """Take back the private tail of the slice just run, then
        re-execute its first ``keep`` instructions.

        The tail wrote only the registers in the snapshot, the
        condition codes, the PC chain, four counters — each by exactly
        one per instruction — the words of its own stack window in
        the store log and, on a coherent node, the LRU stamps of the
        lines its accesses hit in the hit log, its cache's clock and
        hit count — each by exactly one per hit, and only this node's
        own accesses move them.  So restoring the first three, putting
        the old words, empty bits and stamps back newest-first and
        subtracting from the counters is the state right after the
        head; :meth:`step` replays what the caller's place in the
        schedule still covers (nobody else touched the window since,
        or the tail would have been taken back then — before the
        touch could change a line the tail hit).
        """
        count, (pc, npc, psr, numbers, *values), stores, *hit_log = (
            self.ahead_tail)
        self.ahead_tail = None
        if stores:
            memory = self.port.memory
            words = memory._words
            empty = memory._full
            for index, word, bit in reversed(stores):
                words[index] = word
                empty[index] = bit
        if hit_log:
            hits, = hit_log
            cache = self.port.cache
            for line, stamp in reversed(hits):
                line.last_used = stamp
            cache._clock -= len(hits)
            cache.stats.hits -= len(hits)
        frame = self.frames[self.fp]
        frame.pc = pc
        frame.npc = npc
        if psr is not None:
            frame.psr.value = psr
        for number, value in zip(numbers, values):
            self.write_reg(number, value, frame)
        self.cycles -= count
        stats = self.stats
        stats.useful -= count
        stats._total -= count
        stats.instructions -= count
        self.ahead_undone_by[cause] += count - keep
        for _ in range(keep):
            self.step()

    def share_translations(self, shared):
        """Run from ``shared`` tables — a machine gives all its
        processors one :class:`Translations`.  The hot paths alias its
        dicts, which are never replaced."""
        self.translations = shared
        self._step_map = shared.steps
        self._jit_map = shared.jit

    def translation_counters(self):
        """JSON-ready per-tier translation-cache counters.

        Surfaced by :func:`repro.obs.report.machine_report` next to the
        per-CPU cycle stats; none of this participates in
        ``stats.snapshot()`` (the lockstep harness pins that
        byte-identical across tiers).
        """
        code = self.translations
        return {
            "node": self.node_id,
            # The one-instruction forms, under the key reports have
            # always had for the table ``step`` runs from.
            "predecode": {"size": len(code.steps),
                          "invalidations": code.step_invalidations},
            "jit": {
                "size": len(code.jit),
                "invalidations": code.jit_invalidations,
                "blocks": sum(1 for jb in code.jit.values()
                              if jb is not False),
                "compiles": self.jit_compiles,
                "runs": self.jit_runs,
                "deopts": self.jit_deopts,
                "enabled": self.jit_enabled,
            },
            # Zeros for perf/simloads.py (see ``superblocks``), in the
            # shape reports already have.
            "superblocks": {"size": 0, "executed": 0, "invalidations": 0},
        }

    # -- trap mechanism -----------------------------------------------------

    def _take_trap(self, frame, trap):
        """The hardware trap sequence (Section 5): squash, bank state,
        run the handler in the trapping frame, apply its action."""
        self.charge(self.trap_squash_cycles, "trap")
        stats = self.stats
        stats.traps_taken += 1
        kind = trap.kind
        counts = stats.trap_counts
        counts[kind] = counts.get(kind, 0) + 1
        bus = self.events
        if bus.active and EventKind.TRAP_ENTER in bus.active:
            bus.emit(EventKind.TRAP_ENTER, self.cycles, self.node_id,
                     trap=kind.name, pc=trap.pc, frame=frame.index)
        frame.enter_trap()
        table = self.trap_table
        handler = (table.by_vector.get(trap.vector) if kind is _SOFTWARE
                   else table.by_kind.get(kind))
        if handler is None:
            table.lookup(trap)          # raises: no handler
        action = handler(self, frame, trap)
        if action is None:
            raise ProcessorError("trap handler returned no action for %r" % trap)
        if bus.active and EventKind.TRAP_EXIT in bus.active:
            bus.emit(EventKind.TRAP_EXIT, self.cycles, self.node_id,
                     trap=trap.kind.name, action=action.name, frame=self.fp)
        txn = bus.txn
        if txn is not None:
            txn.trap_action(self.node_id, trap.kind.name, action.name,
                            self.cycles, self.fp)
        if action is TrapAction.RETRY or action is TrapAction.SWITCHED:
            # PC chain untouched: the trapping instruction re-executes
            # when this frame next runs.
            return
        if action is TrapAction.RESUME:
            frame.pc = frame.trap_saved_npc
            frame.npc = frame.trap_saved_npc + 4
            return
        if action is TrapAction.HALT:
            self.halted = True
            return
        raise ProcessorError("unknown trap action %r" % action)

    # -- execute stage ----------------------------------------------------------

    def _execute(self, frame, instr, pc, npc):
        """Execute one decoded instruction; returns the next PC chain."""
        op = instr.op
        cat = instr.category

        if cat is Category.COMPUTE or cat is Category.LOGIC:
            self._execute_alu(frame, instr, pc)
            self.charge(1)
            return npc, npc + 4

        if cat is Category.LOAD:
            self._execute_load(frame, instr, pc)
            return npc, npc + 4

        if cat is Category.STORE:
            self._execute_store(frame, instr, pc)
            return npc, npc + 4

        if cat is Category.BRANCH:
            self.charge(1)
            if alu.branch_taken(op, frame.psr):
                return npc, pc + 4 * instr.imm
            return npc, npc + 4

        if op is Opcode.CALL:
            self.charge(1)
            self.write_reg(registers.RA, pc + 8, frame)
            return npc, pc + 4 * instr.imm

        if op is Opcode.JMPL:
            self.charge(1)
            target = (self.read_reg(instr.rs1, frame) + instr.imm) & WORD_MASK
            self.write_reg(instr.rd, pc + 8, frame)
            return npc, target

        if cat is Category.FRAME:
            return self._execute_frame_op(frame, instr, npc)

        if cat is Category.SYSTEM:
            return self._execute_system(frame, instr, pc, npc)

        if cat is Category.OOB:
            self._execute_oob(frame, instr)
            return npc, npc + 4

        raise ProcessorError("unimplemented instruction %r" % instr)

    def _alu_operand_b(self, frame, instr):
        if instr.use_imm:
            return instr.imm & WORD_MASK
        return self.read_reg(instr.rs2, frame)

    def _execute_alu(self, frame, instr, pc):
        op = instr.op
        if op is Opcode.LUI:
            self.write_reg(instr.rd, (instr.imm << 14) & WORD_MASK, frame)
            return
        if op is Opcode.ORIL:
            value = self.read_reg(instr.rd, frame) | instr.imm
            self.write_reg(instr.rd, value, frame)
            return
        a = self.read_reg(instr.rs1, frame)
        b = self._alu_operand_b(frame, instr)
        result, (n, z, v, c) = alu.execute(op, a, b, instr=instr, pc=pc)
        frame.psr.set_ccs(n, z, v, c)
        if op is not Opcode.CMP:
            self.write_reg(instr.rd, result, frame)

    def _data_address(self, frame, instr, pc, raw):
        """Compute and validate a data address; trap on future pointers."""
        base = self.read_reg(instr.rs1, frame)
        if not raw and (base & 1):
            raise TrapSignal(Trap(
                TrapKind.FUTURE_ADDRESS, instr=instr, pc=pc, value=base,
            ))
        address = (base + instr.imm) & WORD_MASK
        if address & 3:
            raise TrapSignal(Trap(
                TrapKind.ALIGNMENT, instr=instr, pc=pc, address=address,
            ))
        return address

    def _execute_load(self, frame, instr, pc):
        flavor = LOAD_FLAVORS[instr.op]
        address = self._data_address(frame, instr, pc, flavor.raw)
        outcome = self.port.load(address, flavor, context=self)
        self._finish_access(frame, instr, pc, address, outcome, is_load=True)

    def _execute_store(self, frame, instr, pc):
        flavor = STORE_FLAVORS[instr.op]
        address = self._data_address(frame, instr, pc, flavor.raw)
        value = self.read_reg(instr.rd, frame)
        outcome = self.port.store(address, value, flavor, context=self)
        self._finish_access(frame, instr, pc, address, outcome, is_load=False)

    def _finish_access(self, frame, instr, pc, address, outcome, is_load):
        if not outcome.ok:
            # The controller charged us for the attempt before trapping.
            self.charge(max(outcome.cycles - 1, 0), "stall")
            self.charge(1)
            raise TrapSignal(Trap(
                outcome.trap_kind, instr=instr, pc=pc, address=address,
                cause=outcome.detail,
            ))
        self.charge(1)
        if outcome.cycles > 1:
            self.charge(outcome.cycles - 1, "stall")
        frame.psr.fe = outcome.fe_full
        if is_load:
            self.write_reg(instr.rd, outcome.value, frame)
        if self.watch_hook is not None:
            self.watch_hook(self, pc, address, is_load, outcome)

    def _execute_frame_op(self, frame, instr, npc):
        op = instr.op
        self.charge(1)
        if op is Opcode.RDFP:
            self.write_reg(instr.rd, self.fp, frame)
            return npc, npc + 4
        lifetime = self.events.lifetime
        if lifetime is not None:
            # The cycles so far, this one included, ran in this frame.
            lifetime.settle(self)
        count = len(self.frames)
        if op is Opcode.INCFP:
            self.fp = (self.fp + 1) % count
        elif op is Opcode.DECFP:
            self.fp = (self.fp - 1) % count
        elif op is Opcode.STFP:
            self.fp = self.read_reg(instr.rs1, frame) % count
        return npc, npc + 4

    def _execute_system(self, frame, instr, pc, npc):
        op = instr.op
        if op is Opcode.NOP:
            self.charge(1)
            return npc, npc + 4
        if op is Opcode.HALT:
            self.charge(1)
            self.halted = True
            return pc, npc  # PC frozen at the halt
        if op is Opcode.TRAP:
            self.charge(1)
            raise TrapSignal(Trap(
                TrapKind.SOFTWARE, vector=instr.imm, instr=instr, pc=pc,
            ))
        if op is Opcode.RDPSR:
            self.charge(1)
            self.write_reg(instr.rd, frame.psr.value, frame)
            return npc, npc + 4
        if op is Opcode.WRPSR:
            self.charge(1)
            frame.psr.value = self.read_reg(instr.rs1, frame)
            return npc, npc + 4
        if op is Opcode.RETT:
            self.charge(1)
            frame.return_from_trap(retry=True)
            return frame.pc, frame.npc
        raise ProcessorError("unimplemented system op %r" % instr)

    def _execute_oob(self, frame, instr):
        op = instr.op
        base = self.read_reg(instr.rs1, frame)
        address = (base + instr.imm) & WORD_MASK
        if op is Opcode.FLUSH:
            outcome = self.port.flush(address, context=self)
            self.charge(outcome.cycles)
        elif op is Opcode.LDIO:
            outcome = self.port.ldio(address, context=self)
            self.charge(outcome.cycles)
            self.write_reg(instr.rd, outcome.value, frame)
        elif op is Opcode.STIO:
            value = self.read_reg(instr.rd, frame)
            outcome = self.port.stio(address, value, context=self)
            self.charge(outcome.cycles)
        else:
            raise ProcessorError("unimplemented OOB op %r" % instr)

    # -- occupancy helpers used by the run-time system ------------------------

    def free_frame(self):
        """A frame with no loaded thread, or ``None``."""
        for f in self.frames:
            if f.thread is None:
                return f
        return None

    def __repr__(self):
        return "Processor(node=%d, fp=%d, cycles=%d, halted=%s)" % (
            self.node_id, self.fp, self.cycles, self.halted,
        )


class Translations:
    """What one machine caches about its code.

    What is cached at a pc depends on the code words there and on the
    kind of memory port — one per machine — never on which processor
    asked, so a machine gives all its processors one of these
    (:meth:`Processor.share_translations`): a pc warmed through any of
    them is warm for all, and a store into translated code is answered
    once.  A bare :class:`Processor` has its own.  It points back at no
    processor, so sharing it closes no reference cycle.

    The tables are plain dicts with no bound and no eviction: every
    key is a word of the loaded program (a pc, or ``~pc``) or a word
    value found there, so the program bounds them.  What outlives a
    machine is bounded elsewhere (:data:`repro.core.jit.SHARED_BLOCKS`).
    """

    def __init__(self):
        #: pc -> the one-instruction form :meth:`Processor.step` runs
        #: there (a :class:`JitBlock` of one, or ``False`` where
        #: nothing decodes), filled at a pc's first visit.
        self.steps = {}
        #: Generated code (see :mod:`repro.core.jit`): pc ->
        #: :class:`JitBlock` (or ``False`` for "not compilable here"),
        #: filled at a pc's first visit.  Its second shape, the
        #: sync-headed slice compiled at a pc
        #: (``step_block(..., True)``), lives here under ``~pc``.
        self.jit = {}
        #: Entries of each table a store into translated code dropped.
        self.step_invalidations = self.jit_invalidations = 0
        #: Code word -> :class:`Instruction`.  Keyed by the word
        #: *value*, so a patched word is a new key and needs no
        #: invalidating.
        self._decoded = {}
        #: Optional :class:`~repro.mem.memory.CodeWatch` the translated
        #: pc ranges are registered with; see :meth:`attach_code_watch`.
        self.watch = None
        #: The :class:`~repro.isa.assembler.Program` loaded into
        #: :attr:`bank` (a memory bank's word view), see
        #: :meth:`load_program`; ``None`` for a bare processor.
        self.program = self.bank = None

    def decode(self, word):
        """Word -> :class:`Instruction` (memoized)."""
        instr = self._decoded.get(word)
        if instr is None:
            instr = self._decoded[word] = decode(word)
        return instr

    def attach_code_watch(self, watch):
        """Register with a :class:`~repro.mem.memory.CodeWatch`.

        The watch notifies :meth:`invalidate_code` on every store into
        a translated word, keeping both tables (one-instruction forms,
        blocks and slices) correct under self-modifying code.
        """
        self.watch = watch
        watch.add_listener(self.invalidate_code)

    def load_program(self, program, memory):
        """``program`` is loaded into ``memory``: translations are looked
        up by it before a pc is scanned (see
        :func:`repro.core.jit.compile_block`)."""
        self.program = program
        self.bank = memory._words

    def invalidate_code(self, address):
        """Drop every cached translation covering ``address``.

        The block table's ``False`` sentinels ("nothing to compile
        here") are kept: they never execute stale instructions, only
        route the pc to :meth:`Processor.step`, so correctness cannot
        depend on dropping them.
        """
        word = address & ~3
        if self.steps.pop(word, None):
            self.step_invalidations += 1
        jit = self.jit
        # A block can never invalidate *itself* mid-run (inline stores
        # refuse watched words; delegated stores end the block), so
        # dropping the table entry is sufficient.
        for key in [k for k, jb in jit.items()
                    if jb is not False and jb.covers(word)]:
            del jit[key]
            self.jit_invalidations += 1


class _ReferenceProcessor(Processor):
    """A :class:`Processor` whose ``step`` is the reference interpreter
    (see :meth:`Processor.use_reference_interpreter`)."""

    step = Processor.step_reference
