"""Trap handlers: the run-time system's entry points.

These are the software routines the paper describes in Sections 3 and 6:
the context-switch (switch-spin) handler, the future-touch handler, the
full/empty exception handlers, and the ``future`` creation / lazy task
services that compiled Mul-T code reaches through software traps.

Each handler charges the cycle cost the paper measured for the
corresponding assembly routine (11-cycle context switch = 5-cycle squash
charged by the hardware + 6-cycle handler body here; 23-cycle resolved
future touch; parameterized costs for the rest — see
:class:`repro.machine.config.MachineConfig`).
"""

import weakref

from repro.core.traps import TrapAction, TrapKind
from repro.errors import RuntimeSystemError, SimulationError
from repro.isa import registers, tags
from repro.isa.tags import ADDRESS_MASK
from repro.obs.events import EventKind
from repro.runtime import stubs
from repro.runtime.lazy import LazyMarker
from repro.runtime.scheduler import loaded_frames
from repro.runtime.thread import ThreadState

_A0 = registers.ARG_REGS[0]
_A1 = registers.ARG_REGS[1]
_T7 = registers.TEMP_REGS[7]
_SP = registers.SP
_GLOBAL_BASE = registers.GLOBAL_BASE


class TrapHandlers:
    """Installs and implements all trap handlers for one machine."""

    def __init__(self, rts):
        # Weak: the handlers sit in every processor's trap table and
        # the run-time system and its scheduler hold the processors, so
        # a strong reference would make the whole machine — memory bank
        # included — cyclic garbage.  The machine owns the run-time
        # system for as long as anything can trap.
        self.rts = weakref.proxy(rts)
        self.scheduler = weakref.proxy(rts.scheduler)
        # These reach no processor, so they are held directly.
        self.memory = rts.memory
        self.futures = rts.futures
        self.ready = rts.scheduler.ready
        self.kernel_heaps = [rts.kernel_heap(node)
                             for node in range(len(rts.cpus))]
        # Each handler's costs, bound once.
        config = rts.config
        self.spin_limit = config.touch_spin_limit
        self.switch_cycles = config.switch_handler_cycles
        self.touch_cycles = config.future_touch_resolved_cycles
        self.create_cycles = config.eager_task_create_cycles
        self.exit_cycles = config.thread_exit_cycles
        self.resolve_cycles = config.future_resolve_cycles
        self.push_cycles = config.lazy_push_cycles
        self.finish_cycles = config.lazy_finish_cycles

    def install(self, cpu):
        """Register every handler on a processor's trap table."""
        table = cpu.trap_table
        table.register(TrapKind.CACHE_MISS, self.on_cache_miss)
        table.register(TrapKind.EMPTY_LOAD, self.on_fe_exception)
        table.register(TrapKind.FULL_STORE, self.on_fe_exception)
        table.register(TrapKind.FUTURE_COMPUTE, self.on_future_touch)
        table.register(TrapKind.FUTURE_ADDRESS, self.on_future_touch)
        table.register(TrapKind.IPI, self.on_ipi)
        table.register(TrapKind.ALIGNMENT, self.on_fatal)
        table.register(TrapKind.ILLEGAL, self.on_fatal)
        table.register_software(stubs.V_THREAD_EXIT, self.on_thread_exit)
        table.register_software(stubs.V_FUTURE, self.on_future_create)
        table.register_software(stubs.V_FUTURE_ON, self.on_future_create)
        table.register_software(stubs.V_LAZY_PUSH, self.on_lazy_push)
        table.register_software(stubs.V_LAZY_FINISH, self.on_lazy_finish)
        table.register_software(stubs.V_MAKE_VECTOR, self.on_make_vector)
        table.register_software(stubs.V_PRINT, self.on_print)
        table.register_software(stubs.V_ERROR, self.on_error)
        table.register_software(stubs.V_TOUCH, self.on_explicit_touch)

    # -- context switching -----------------------------------------------

    def _switch_spin(self, cpu, frame, next_frame):
        """The Section 6.1 switch-spin: FP moves to ``next_frame``, the
        next loaded frame (:func:`~repro.runtime.scheduler.loaded_frames`).

        The trapping instruction re-executes when control returns to
        this frame (the handler body is the rdpsr/save/save/wrpsr/jmpl/
        rett sequence: 6 cycles, 11 with the squash)."""
        cpu.charge(self.switch_cycles, "switch")
        cpu.stats.context_switches += 1
        if next_frame is not None and next_frame is not frame:
            self.scheduler.activate_frame(cpu, next_frame)
        bus = cpu.events
        if bus.active and EventKind.CONTEXT_SWITCH in bus.active:
            bus.emit(EventKind.CONTEXT_SWITCH, cpu.cycles, cpu.node_id,
                     from_frame=frame.index, to_frame=cpu.fp)
        return TrapAction.SWITCHED

    def on_cache_miss(self, cpu, frame, trap):
        """Remote cache miss: the controller trapped us; switch-spin."""
        return self._switch_spin(cpu, frame, loaded_frames(cpu)[1])

    def on_fe_exception(self, cpu, frame, trap):
        """Full/empty synchronization fault (Section 6.1).

        Default policy is switch-spinning.  A thread that keeps faulting
        at the same instruction (the producer must be an *unloaded*
        thread — the starvation scenario of Section 3.1) is eventually
        unloaded and re-queued, the paper's "controller initiated trap
        ... whose handler unloads the thread".
        """
        thread = frame.thread
        if thread is None:
            raise RuntimeSystemError("f/e trap in an empty frame")
        if trap.pc == thread.last_fault_pc:
            thread.spin_count += 1
        else:
            thread.last_fault_pc = trap.pc
            thread.spin_count = 1
        # Switch-spin up to the configured limit per loaded frame.
        loaded, next_frame = loaded_frames(cpu)
        if thread.spin_count <= self.spin_limit * (loaded or 1):
            return self._switch_spin(cpu, frame, next_frame)
        # Yield: unload and requeue so unloaded producers can run.
        thread.spin_count = 0
        thread.block_pc = trap.pc
        scheduler = self.scheduler
        scheduler.unload_thread(cpu, frame, ThreadState.READY)
        scheduler.enqueue(thread)
        self.rts.dispatch_next(cpu)
        return TrapAction.SWITCHED

    # -- futures -----------------------------------------------------------

    def on_future_touch(self, cpu, frame, trap):
        """Hardware-detected touch of a future (Sections 5, 6.2).

        If resolved, substitute the value into the trapping operand
        register(s) and retry — 23 cycles.  Otherwise switch-spin, and
        block (unload into the future's waiter list) after the spin
        limit, freeing the task frame.
        """
        future_word = trap.value
        if future_word is None or not future_word & 1:
            raise RuntimeSystemError("future trap without a future operand")
        cell = future_word & ADDRESS_MASK
        # The pointer is the program's: it goes through the window gate
        # (once), as a forged one into some stack must.
        full, value = self.memory.peek(cell)
        if full:
            regs = frame.regs
            for reg in trap.instr.source_registers():
                if reg >= _GLOBAL_BASE:
                    if cpu.read_reg(reg) == future_word:
                        cpu.write_reg(reg, value)
                elif reg and regs[reg] == future_word:
                    regs[reg] = value           # a word from the bank
            cpu.charge(self.touch_cycles, "trap")
            self.futures.note_touch(True, cpu.cycles, cpu.node_id, cell)
            if frame.thread is not None:
                frame.thread.spin_count = 0
            return TrapAction.RETRY

        self.futures.note_touch(False, cpu.cycles, cpu.node_id, cell)
        thread = frame.thread
        if thread is None:
            raise RuntimeSystemError("future touch in an empty frame")
        thread.spin_count += 1
        loaded, next_frame = loaded_frames(cpu)
        if thread.spin_count <= self.spin_limit * (loaded or 1):
            return self._switch_spin(cpu, frame, next_frame)
        # Block: unload the thread onto the future's waiter list.
        thread.spin_count = 0
        thread.blocked_on = future_word
        thread.block_pc = trap.pc
        self.futures.add_waiter(future_word, thread)
        self.scheduler.unload_thread(cpu, frame, ThreadState.BLOCKED)
        self.rts.dispatch_next(cpu)
        return TrapAction.SWITCHED

    def on_explicit_touch(self, cpu, frame, trap):
        """``(touch X)`` run-time service: resolve-or-wait on ``a0``."""
        value = frame.regs[_A0]
        if not tags.is_future(value):
            cpu.charge(2, "trap")
            return TrapAction.RESUME
        trap.value = value
        trap.instr = _TouchInstr()
        return self.on_future_touch(cpu, frame, trap)

    def on_future_create(self, cpu, frame, trap):
        """``(future E)`` with eager task creation (and ``future-on``)."""
        regs = frame.regs
        pinned = None
        if trap.vector == stubs.V_FUTURE_ON:
            pinned = tags.fixnum_value(regs[_A1])
        future_word = self.kernel_heaps[cpu.node_id].future_cell()
        node = self.scheduler.pick_node(cpu.node_id, pinned)
        thread = self.rts.new_thread(
            node, entry_closure=regs[_A0], future=future_word, cpu=cpu)
        # Fresh, so READY: Scheduler.enqueue's one check holds.
        self.ready[node].append(thread)
        self.futures.note_created(cpu.cycles, cpu.node_id,
                                  future_word & ADDRESS_MASK)
        regs[_A0] = future_word
        cpu.charge(self.create_cycles, "trap")
        return TrapAction.RESUME

    # -- lazy task creation ---------------------------------------------------

    def on_lazy_push(self, cpu, frame, trap):
        """Push a lazy-task marker before evaluating the child inline."""
        thread = frame.thread
        regs = frame.regs
        marker = LazyMarker(thread, regs[_SP], regs[_T7], cpu.node_id)
        thread.lazy_markers.append(marker)
        rts = self.rts
        rts.lazy_queues[cpu.node_id].push(marker)
        rts.lazy_pushed += 1
        cpu.charge(self.push_cycles, "trap")
        return TrapAction.RESUME

    def on_lazy_finish(self, cpu, frame, trap):
        """Child returned to its marker: pop, or resolve if stolen."""
        thread = frame.thread
        if not thread.lazy_markers:
            raise RuntimeSystemError(
                "%s: lazy finish without a marker" % thread.name)
        marker = thread.lazy_markers.pop()
        if not marker.stolen:
            self.rts.lazy_queues[marker.node].discard(marker)
            cpu.charge(self.finish_cycles, "trap")
            return TrapAction.RESUME
        # Stolen: resolve the thief's future with the child's value;
        # this thread's continuation now runs elsewhere, so retire it.
        if thread.lazy_markers:
            raise RuntimeSystemError(
                "%s: markers older than a stolen marker must have been "
                "transferred at steal time" % thread.name)
        rts = self.rts
        rts.resolve_future(cpu, marker.future, frame.regs[_A0],
                           waker=thread.tid)
        marker.active = False
        if thread.is_root:
            raise RuntimeSystemError(
                "root-ness must transfer with the stolen stack bottom")
        self.scheduler.retire_thread(frame, cpu)
        rts.free_stack(thread)
        rts.dispatch_next(cpu)
        return TrapAction.SWITCHED

    # -- thread exit -------------------------------------------------------------

    def on_thread_exit(self, cpu, frame, trap):
        """A thread's entry closure returned; result is in ``a0``."""
        thread = frame.thread
        result = thread.result = frame.regs[_A0]
        cpu.charge(self.exit_cycles, "trap")
        # The resolve below runs with the frame already empty: the
        # accountant books its cost to the exiting thread.
        self.scheduler.retire_thread(
            frame, cpu,
            self.resolve_cycles if thread.future is not None else 0)
        rts = self.rts
        rts.free_stack(thread)
        if thread.future is not None:
            rts.resolve_future(cpu, thread.future, result, waker=thread.tid)
        if thread.is_root:
            rts.finish(result)
            return TrapAction.SWITCHED
        rts.dispatch_next(cpu)
        return TrapAction.SWITCHED

    # -- services -----------------------------------------------------------------

    def on_make_vector(self, cpu, frame, trap):
        """``(make-vector n fill)`` — allocates in the node's user heap."""
        regs = frame.regs
        length = tags.fixnum_value(regs[_A0])
        regs[_A0] = self.rts.user_vector(cpu, length, regs[_A1])
        cpu.charge(10 + max(length, 0) // 4, "trap")
        return TrapAction.RESUME

    def on_print(self, cpu, frame, trap):
        """Record ``a0`` (decoded to Python data) on the output list."""
        rts = self.rts
        rts.output.append(rts.decode_value(frame.regs[_A0]))
        cpu.charge(5, "trap")
        return TrapAction.RESUME

    def on_error(self, cpu, frame, trap):
        raise SimulationError(
            "program signalled error %s at pc=%#x"
            % (tags.describe(frame.regs[_A0]), trap.pc))

    def on_fatal(self, cpu, frame, trap):
        raise SimulationError(
            "%s trap at pc=%#x (%s)" % (trap.kind.name, trap.pc, trap.cause))

    def on_ipi(self, cpu, frame, trap):
        """Interprocessor interrupt: dispatch to the registered receiver."""
        handled = self.rts.deliver_ipi(cpu, trap.value)
        cpu.charge(10, "trap")
        if not handled:
            raise RuntimeSystemError("IPI with no receiver installed")
        return TrapAction.RETRY


class _TouchInstr:
    """Fake instruction making ``a0`` the substitution target of a touch."""

    def source_registers(self):
        return (_A0,)
