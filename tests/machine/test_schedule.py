"""The machine's two schedules — the fast sliced loop and the
:class:`MachineStepper` oracle — and every way of reaching them must
stop a run the same way (cycle limit, all processors halted), poll the
watchdog, and feed the sampler; the fast loop's queue key must order
ties as the oracle's sequence numbers do, and a run that ends under a
processor's run-ahead tail must end where the oracle ends it."""

import heapq
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core.jit import MAX_JIT_BLOCK
from repro.core.psr import ET_BIT
from repro.errors import HangDetected, RuntimeSystemError, SimulationError
from repro.isa.assembler import assemble
from repro.lang.compiler import compile_source
from repro.lang.run import build_mult_machine
from repro.machine.alewife import SOLO_SLICE_CYCLES, AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import Observation, Watchdog
from repro.runtime import stubs
from tests.core.test_jit import WINDOW_TEST, window_tested
from tests.core.test_lockstep import (
    _assert_lockstep,
    _build as _machine,
    _run_stepper,
    _spawn_on,
    _step_to_completion,
)
from tests.helpers import record_step_block

SPIN = """
main:
spin:
    ba spin
    nop
"""

HALT = """
main:
    halt
"""

FIB = workloads.get("fib")

DEADLOCK = (pathlib.Path(__file__).parents[2]
            / "examples" / "deadlock.mult").read_text()

#: mode -> (processors, fastpath, hooked, expected ``loop_used``)
MODES = {
    "fast-1cpu": (1, True, False, "fast"),
    "fast-4cpu": (4, True, False, "fast"),
    "fastpath-off": (1, False, False, "reference"),
    "hooked": (2, True, True, "reference"),
    "stepper": (2, True, False, "stepper"),
}


def _build(program, mode):
    processors, fastpath, hooked, _ = MODES[mode]
    machine = AlewifeMachine(program,
                             MachineConfig(num_processors=processors),
                             fastpath=fastpath)
    if hooked:
        for cpu in machine.cpus:
            cpu.profile_hook = lambda cpu, pc, instr: None
    return machine


def _drive(machine, mode, **run_args):
    """Run to completion the way ``mode`` says; checks ``loop_used``."""
    try:
        if mode != "stepper":
            return machine.run(**run_args)
        stepper = machine.stepper(**run_args)
        while not stepper.done:
            stepper.step_machine()
        return stepper.result()
    finally:
        assert machine.loop_used == MODES[mode][3]


class RecordingWatchdog(Watchdog):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.checked_at = []

    def check(self, now):
        self.checked_at.append(now)
        super().check(now)


def _asm(body):
    return assemble(stubs.thread_start_stub() + body)


@pytest.mark.parametrize("mode", sorted(MODES))
class TestEveryModeStopsTheSameWay:
    def test_cycle_limit(self, mode):
        limit = 10_000
        machine = _build(_asm(SPIN), mode)
        with pytest.raises(SimulationError, match="cycle limit 10000 "):
            _drive(machine, mode, max_cycles=limit)
        assert limit < machine.time <= (limit + SOLO_SLICE_CYCLES
                                        + MAX_JIT_BLOCK)

    def test_all_processors_halted(self, mode):
        machine = _build(_asm(HALT), mode)
        # Only node 0 ever gets the root thread; the rest are halted by
        # hand so the queue really drains.
        for cpu in machine.cpus[1:]:
            cpu.halted = True
        with pytest.raises(SimulationError,
                           match="all processors halted without a result"):
            _drive(machine, mode)

    def test_watchdog_polled_at_least_once_per_solo_slice(self, mode):
        compiled = compile_source(FIB.source(), mode="sequential")
        machine = _build(compiled.program, mode)
        watchdog = RecordingWatchdog(interval=512).attach(machine)
        result = _drive(machine, mode,
                        entry=compiled.entry_label("main"), args=(12,))
        assert result.value == FIB.reference(12)
        stamps = [0] + watchdog.checked_at + [machine.time]
        assert len(stamps) > 4
        assert max(b - a for a, b in zip(stamps, stamps[1:])) <= (
            SOLO_SLICE_CYCLES + MAX_JIT_BLOCK)


class TestStepperCarriesTheMachineLevelPolls:
    """What ``run()`` inherits from the stepper must also reach a
    caller who drives the stepper by hand (``april monitor``)."""

    def test_sampler_timeline_matches_run(self):
        timelines = []
        for mode in ("hooked", "stepper"):
            machine, compiled = build_mult_machine(FIB.source(),
                                                   processors=2)
            obs = Observation(events=False, window=512)
            obs.attach(machine)
            result = _drive(machine, mode,
                            entry=compiled.entry_label("main"), args=(9,))
            assert result.value == FIB.reference(9)
            assert len(obs.sampler) > 1
            timelines.append(obs.sampler.to_dict())
        assert timelines[0] == timelines[1]

    def test_watchdog_turns_deadlock_into_hang_detected(self):
        machine, compiled = build_mult_machine(DEADLOCK, processors=2)
        Watchdog().attach(machine)
        with pytest.raises(HangDetected) as info:
            _drive(machine, "stepper", entry=compiled.entry_label("main"))
        assert info.value.kind == "deadlock"
        assert info.value.postmortem["wait_for"]["cycles"]
        assert machine.time == info.value.cycle < 20_000


def _oracle_order(costs):
    """Pop order of the oracle's ``(clock, seq)`` queue: a fresh
    sequence number at every push.  ``costs[cpu]`` is that CPU's
    per-step cycle cost, in order; a CPU with none left halts."""
    queue = [(0, cpu, cpu) for cpu in range(len(costs))]
    seq = len(queue)
    left = [list(reversed(c)) for c in costs]
    order = []
    while queue:
        clock, _, cpu = heapq.heappop(queue)
        if not left[cpu]:
            continue
        order.append((clock, cpu))
        heapq.heappush(queue, (clock + left[cpu].pop(), seq, cpu))
        seq += 1
    return order


def _origin_key_order(costs):
    """Pop order under ``(clock, -origin, oseq)``: a number is drawn
    only by a step that did not cost exactly one cycle."""
    queue = [(0, 0, cpu, cpu) for cpu in range(len(costs))]
    seq = len(queue)
    left = [list(reversed(c)) for c in costs]
    order = []
    while queue:
        clock, behind, oseq, cpu = heapq.heappop(queue)
        if not left[cpu]:
            continue
        order.append((clock, cpu))
        cost = left[cpu].pop()
        clock += cost
        if cost != 1:
            behind = -clock if cost else 1
            oseq = seq
            seq += 1
        heapq.heappush(queue, (clock, behind, oseq, cpu))
    return order


def _oracle_touches(programs):
    """The oracle on programs with tails and touches.

    ``programs[cpu]`` is a list of instructions: ``("p",)`` private,
    one cycle; ``("h", cost)`` a head of any cost; ``("t", victim)`` a
    one-cycle head that *touches* ``victim`` — and sees how many
    instructions the victim has executed by then, which is everything
    a load or store through its stack window could tell.  One
    instruction per pop, a fresh sequence number per push.  Returns
    the touch observations in order."""
    queue = [(0, cpu, cpu) for cpu in range(len(programs))]
    seq = len(queue)
    done = [0] * len(programs)
    seen = []
    while queue:
        clock, _, cpu = heapq.heappop(queue)
        if done[cpu] == len(programs[cpu]):
            continue
        instr = programs[cpu][done[cpu]]
        if instr[0] == "t":
            seen.append((clock, cpu, instr[1], done[instr[1]]))
        done[cpu] += 1
        cost = instr[1] if instr[0] == "h" else 1
        heapq.heappush(queue, (clock + cost, seq, cpu))
        seq += 1
    return seen


def _run_ahead_touches(programs):
    """The same programs on the origin-keyed queue, run ahead: a pop
    executes the instruction at the key and then the private ones
    behind it, early; a touch first winds its victim's tail back to
    the toucher's key — ``_end_at``'s arithmetic — and re-keys the
    victim's queue entry (clock moved, origin and ``oseq`` stay)."""
    queue = [(0, 0, cpu, cpu) for cpu in range(len(programs))]
    seq = len(queue)
    done = [0] * len(programs)
    clocks = [0] * len(programs)
    tails = [0] * len(programs)
    seen = []
    while queue:
        clock, behind, oseq, cpu = heapq.heappop(queue)
        assert clock == clocks[cpu]
        tails[cpu] = 0
        program = programs[cpu]
        if done[cpu] == len(program):
            continue
        instr = program[done[cpu]]
        if instr[0] == "t":
            victim = instr[1]
            if tails[victim]:
                slot, entry = next(
                    (slot, entry) for slot, entry in enumerate(queue)
                    if entry[3] == victim)
                keep = clock - (clocks[victim] - tails[victim])
                if entry[1:3] < (behind, oseq):
                    keep += 1
                if keep < tails[victim]:
                    undo = tails[victim] - max(keep, 0)
                    done[victim] -= undo
                    clocks[victim] -= undo
                    tails[victim] = 0
                    queue[slot] = (clocks[victim],) + entry[1:]
                    heapq.heapify(queue)
            seen.append((clock, cpu, victim, done[victim]))
        done[cpu] += 1
        cost = instr[1] if instr[0] == "h" else 1
        clock += cost
        if cost != 1:
            behind = -clock if cost else 1
            oseq = seq
            seq += 1
        else:
            while (done[cpu] < len(program) and program[done[cpu]][0] == "p"
                   and tails[cpu] < 6):
                done[cpu] += 1
                clock += 1
                tails[cpu] += 1
        clocks[cpu] = clock
        heapq.heappush(queue, (clock, behind, oseq, cpu))
    return seen


class TestOriginKey:
    """The queue key alone, on a pure model (no machine): which CPU is
    popped next must not depend on whether one-cycle steps draw a
    sequence number."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from([0, 1, 1, 1, 1, 2, 3, 5, 8]),
                 max_size=40),
        min_size=1, max_size=6))
    def test_pop_order_equals_the_oracles(self, costs):
        assert _origin_key_order(costs) == _oracle_order(costs)

    _INSTRUCTION = st.one_of(
        st.just(("p",)), st.just(("p",)), st.just(("p",)),
        st.tuples(st.just("h"), st.sampled_from([0, 1, 1, 2, 3, 7])),
        st.tuples(st.just("t"), st.integers(0, 3)))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.lists(_INSTRUCTION, max_size=30),
                    min_size=4, max_size=4))
    def test_a_touch_sees_its_victim_where_the_oracle_has_it(self, programs):
        # Mid-run wind-back + re-key: however far a victim ran ahead,
        # a touch finds it exactly as far along as the oracle would.
        assert _run_ahead_touches(programs) == _oracle_touches(programs)

    def test_zero_cost_step_goes_behind_its_clock(self):
        # CPU 0 takes a zero-cost step at clock 0: CPU 1, tied there,
        # must run before CPU 0 runs again.
        costs = [[0, 1], [1, 1]]
        assert _oracle_order(costs)[:3] == [(0, 0), (0, 1), (0, 0)]
        assert _origin_key_order(costs) == _oracle_order(costs)


EXIT_RACE = """
(define (spin n acc) (if (= n 0) acc (spin (- n 1) (+ acc 1))))
(define (work k)
  (if (= k 0) 0 (begin (future (spin 400 0)) (work (- k 1)))))
(define (main k t) (work k) %s)
"""


def _exit_race_source(pad):
    """The root's last expression, ``pad`` one-cycle additions deep:
    every pad moves its exit one cycle against the workers' loops
    (whose period a longer spin would only repeat)."""
    tail = "(spin t 0)"
    for _ in range(pad):
        tail = "(+ 1 %s)" % tail
    return EXIT_RACE % tail


class TestRunAheadExit:
    """The root spawns futures nobody touches and returns: its exit
    sets ``done`` while the workers are in the middle of their spin
    loops — private instructions, so on the fast loop each is parked
    somewhere past the exit's key.  The pads and spin lengths move the
    exit across the offsets of a worker's slice; whatever the offset,
    the run must end exactly where the caller-driven stepper ends it
    (it does not when ``_run_fast`` skips ``_end_at``) — and the
    lifetime accountant, which reads the cycle counters by difference,
    must end there with it: winding the counters back *is* winding the
    ledger back."""

    @pytest.mark.parametrize("processors", [2, 3, 4, 8])
    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    def test_exit_under_a_private_tail_matches_stepper(self, mode,
                                                       processors):
        config = MachineConfig(num_processors=processors)
        undone = 0
        for pad in range(8):
            compiled = compile_source(_exit_race_source(pad), mode=mode)
            entry = compiled.entry_label("main")
            args = (processors + 1, pad % 3)
            fast_machine = _machine(compiled, config, True)
            fast = fast_machine.run(entry=entry, args=args)
            assert fast.value == pad % 3 + pad

            stepped = _run_stepper(compiled, config, entry, args)
            _assert_lockstep((fast_machine, fast), stepped,
                             oracle="stepper")
            assert stepped[0].time == fast_machine.time
            undone += sum(cpu.ahead_undone for cpu in fast_machine.cpus)
        # Or every exit landed between two slices and nothing was tested.
        assert undone > 0


    @staticmethod
    def _accounted(compiled, config, drive, **run_args):
        """One run with the accountant on; returns (machine, tables)."""
        machine = _machine(compiled, config, True)
        obs = Observation(events=False, window=0, threads=True)
        obs.attach(machine)
        result = drive(machine, **run_args)
        ledger = obs.lifetime.finalize(machine).check()
        assert ledger["exact"]
        assert (ledger["attributed"] == ledger["cycles_x_nodes"]
                == result.cycles * len(machine.cpus))
        return machine, obs.thread_accounting()

    @pytest.mark.parametrize("processors", [2, 4])
    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    def test_wound_back_tail_leaves_both_ledgers_exact(self, mode,
                                                       processors):
        config = MachineConfig(num_processors=processors)
        undone = 0
        for pad in range(8):
            compiled = compile_source(_exit_race_source(pad), mode=mode)
            run_args = dict(entry=compiled.entry_label("main"),
                            args=(processors + 1, pad % 3))
            fast_machine, fast = self._accounted(
                compiled, config, AlewifeMachine.run, **run_args)
            assert fast_machine.loop_used == "fast"
            _, stepped = self._accounted(
                compiled, config, _step_to_completion, **run_args)
            assert fast == stepped
            undone += sum(cpu.ahead_undone for cpu in fast_machine.cpus)
        assert undone > 0


class TestStealUnderAMemoryTail:
    """Compiled Mul-T has one foreign accessor of a running stack, the
    lazy steal: the thief copies the victim's oldest continuation
    frames and moves its ``stolen_base`` up past them.  The victim is
    usually parked behind a tail that loaded and stored in that very
    window; it is wound back to the thief's key first (cause
    ``steal``), and the run still ends where the stepper ends it."""

    @pytest.mark.parametrize("processors", [2, 4, 8])
    @pytest.mark.parametrize("program,args", [("fib", (11,)),
                                              ("queens", (4,))])
    def test_steal_winds_the_victim_back(self, program, args, processors):
        module = workloads.get(program)
        compiled = compile_source(module.source(), mode="lazy")
        entry = compiled.entry_label("main")
        config = MachineConfig(num_processors=processors)
        run_args = module.args(*args)
        fast_machine = _machine(compiled, config, True)
        fast = fast_machine.run(entry=entry, args=run_args)
        assert fast.value == module.reference(*args)
        cpus = fast_machine.cpus
        assert fast_machine.runtime.lazy_stolen > 0
        assert sum(cpu.ahead_loads for cpu in cpus) > 100
        assert sum(cpu.ahead_stores for cpu in cpus) > 100
        assert sum(cpu.ahead_undone_by["steal"] for cpu in cpus) > 0
        _assert_lockstep((fast_machine, fast),
                         _run_stepper(compiled, config, entry, run_args),
                         oracle="stepper")

    def test_steal_winds_a_coherent_victim_back(self):
        # On the cache/directory machine the victim's tail hit its own
        # cache in the window the thief copies from: taken back before
        # the copy, its LRU stamps, cache clock and hit count with it,
        # the run ends with the oracle's counters and caches, coherent.
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="lazy")
        entry = compiled.entry_label("main")
        config = MachineConfig(num_processors=4, memory_mode="coherent")
        runs = []
        for fastpath in (True, False):
            machine = _machine(compiled, config, fastpath)
            runs.append((machine, machine.run(entry=entry, args=(11,))))
        (fast_machine, fast), (ref_machine, ref) = runs
        assert fast.value == module.reference(11)
        cpus = fast_machine.cpus
        assert fast_machine.runtime.lazy_stolen > 0
        assert sum(cpu.ahead_loads for cpu in cpus) > 100
        assert sum(cpu.ahead_stores for cpu in cpus) > 100
        assert sum(cpu.ahead_undone_by["steal"] for cpu in cpus) > 0
        # Counters, every cache line and clock, controller counters,
        # and the invariants (single writer, each valid-line map).
        _assert_lockstep((fast_machine, fast), (ref_machine, ref))
        fast_fabric, ref_fabric = fast_machine.fabric, ref_machine.fabric
        assert ([d.counters() for d in fast_fabric.directories]
                == [d.counters() for d in ref_fabric.directories])
        assert (fast_fabric.network.stats.to_dict()
                == ref_fabric.network.stats.to_dict())
        for cache in fast_fabric.caches:
            cache.check_valid()


class TestIpiUnderARegisterTail:
    """A coherent node reaches into another processor only by an IPI
    (``STIO`` to ``IO_IPI_SEND``), and its receiver is usually parked
    behind a register-only tail that ran past the send.  The controller
    has the machine wind that tail back to the sender's key first
    (cause ``ipi``), so the IPI lands where the stepper has it.  No
    receiver is installed, so a busy node's IPI trap is the run-time
    system's "no receiver" error — at the stepper's pc and cycle — and
    a node that masked interrupts (ET off) while it spun takes the IPI
    once it is idle, with the stepper's idle charge."""

    PROGRAM = """
    main:
    %(spawn)s
        mov a0, s1
        set %(pad)d, t0
    dawdle:
        subr t0, 1, t0
        cmpr t0, 0
        bg dawdle
    %(skew)s
        set 0xFFFF, t2
        sll t2, 16, t2              ; IO_BASE
        set 1, t3
        stio t3, [t2+8]             ; IO_IPI_TARGET: node 1
        stio t3, [t2+12]            ; IO_IPI_SEND
        add s1, 0, a0               ; touch: wait for the worker
        ret
    worker:
    %(mask)s
        set 400, t0
    spin:
        subr t0, 1, t0
        cmpr t0, 0
        bg spin
        set 0, a0
        ret
    """

    #: Clears ET in the worker's PSR: IPIs wait until it is idle.
    MASK = """
        set %d, t6
        rdpsr t5
        andn t5, t6, t5
        wrpsr t5
    """ % ET_BIT

    def _machines(self, pad, masked):
        # The dawdle and spin loops have one period: the nops move the
        # send across the phases of the receiver's slices.
        body = self.PROGRAM % dict(spawn=_spawn_on(1, "worker"), pad=pad,
                                   skew="    nop\n" * (pad % 4),
                                   mask=self.MASK if masked else "")
        program = assemble(stubs.thread_start_stub() + body)
        config = MachineConfig(num_processors=2, memory_mode="coherent")
        return AlewifeMachine(program, config), AlewifeMachine(program, config)

    def test_busy_receiver_fails_where_the_stepper_does(self):
        undone = 0
        for pad in range(100, 112):
            fast_machine, step_machine = self._machines(pad, masked=False)
            with pytest.raises(RuntimeSystemError, match="no receiver"):
                fast_machine.run()
            assert fast_machine.loop_used == "fast"
            with pytest.raises(RuntimeSystemError, match="no receiver"):
                _step_to_completion(step_machine)
            # The receiver trapped at the same instruction and cycle,
            # with the same state; the sender may be past it on a tail.
            fast, stepped = fast_machine.cpus[1], step_machine.cpus[1]
            assert fast.stats.trap_counts == stepped.stats.trap_counts
            assert fast.stats.snapshot() == stepped.stats.snapshot()
            assert fast.cycles == stepped.cycles
            assert fast.frame.trap_saved_pc == stepped.frame.trap_saved_pc
            assert fast.frame.regs == stepped.frame.regs
            undone += fast.ahead_undone_by["ipi"]
        assert undone > 0

    def test_masked_receiver_takes_it_idle_where_the_stepper_does(self):
        undone = 0
        for pad in range(100, 112):
            fast_machine, step_machine = self._machines(pad, masked=True)
            fast = fast_machine.run()
            stepped = _step_to_completion(step_machine)
            assert fast.value == 0
            _assert_lockstep((fast_machine, fast), (step_machine, stepped),
                             oracle="stepper")
            receiver = fast_machine.cpus[1]
            assert not receiver.ipi_queue
            assert receiver.stats.idle > 0
            undone += receiver.ahead_undone_by["ipi"]
        assert undone > 0


class TestWhoRunsAhead:
    """Run-ahead is derived from what the machine is: on when nothing
    can reach into a running processor, off otherwise — and off must
    mean the counters stay zero."""

    @staticmethod
    def _run(config=None, prepare=None, **build):
        compiled = compile_source(FIB.source(), mode="eager")
        config = config or MachineConfig(num_processors=4)
        machine = AlewifeMachine(compiled.program, config, **build)
        if prepare is not None:
            prepare(machine)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        assert result.value == FIB.reference(9)
        return machine, [(cpu.ahead_slices, cpu.ahead_instructions,
                          cpu.ahead_undone) for cpu in machine.cpus]

    def test_dormant_ideal_machine_runs_ahead(self):
        machine, ahead = self._run()
        assert machine.loop_used == "fast"
        assert all(slices > 0 and instructions >= slices
                   for slices, instructions, _ in ahead)

    @staticmethod
    def _install_receiver(machine):
        machine.runtime.set_ipi_receiver(lambda cpu, message: None)

    @staticmethod
    def _install_io_hook(machine):
        machine.cpus[0].port.io_write_hook = (
            lambda address, value, context: 1)

    @staticmethod
    def _assert_windowless(machine):
        """No stack windows on the bank, and generated code that
        neither tests nor reads one."""
        assert machine.memory.windows is None
        assert machine.runtime.scheduler.windows is None
        blocks = [jb for jb in machine.cpus[0].translations.jit.values()
                  if jb]
        assert len(blocks) > 10
        for jb in blocks:
            spec = jb.key[2]
            assert spec is None or "windows" not in spec
            assert "_ow" not in jb.source and "_lo" not in jb.source
        assert all(cpu.frames[0].window == (0, 0) for cpu in machine.cpus)
        return blocks

    @pytest.mark.parametrize("knobs", [dict(num_processors=1)])
    def test_who_does_not_run_ahead_compiles_no_window_tests(self, knobs):
        # Memory-op run-ahead costs a machine that never runs ahead
        # nothing: no stack windows on its bank, so its generated code
        # is keyed — and reads — as it did before there were any.
        machine, ahead = self._run(MachineConfig(**knobs))
        assert not machine._runs_ahead()
        for jb in self._assert_windowless(machine):
            assert jb.key[2] == (machine.memory.size_words,)

    def test_coherent_machine_runs_ahead_on_its_own_stack_hits(self):
        # A coherent node's tails carry the stack accesses its own cache
        # hits, so its bank carries stack windows as an ideal one that
        # runs ahead does.  Every inlined access carries its own
        # foreign-window test, or sits in a stack group whose bounds
        # hold its word inside the executing frame's own window —
        # behind a slice's head, its whole cache block.
        machine, ahead = self._run(MachineConfig(num_processors=4,
                                                 memory_mode="coherent"))
        assert machine._runs_ahead()
        windows = machine.memory.windows
        assert windows is not None
        assert machine.runtime.scheduler.windows is windows
        assert all(slices > 0 and instructions >= slices
                   for slices, instructions, _ in ahead)
        assert all(cpu.ahead_loads > 0 and cpu.ahead_stores > 0
                   for cpu in machine.cpus)
        blocks = [jb for jb in machine.cpus[0].translations.jit.values()
                  if jb]
        assert any(jb.key[-1] == "slice" for jb in blocks)
        assert {jb.key[2][1:] for jb in blocks} == {
            ("coherent", machine.config.cache_block_bytes, "windows")}
        tested = grouped = 0
        for jb in blocks:
            inlined = jb.source.count("_fb = _fe[_x]")
            assert (jb.source.count(WINDOW_TEST)
                    == jb.source.count(" in _ow"))
            assert window_tested(jb.source) == inlined
            # A tail's own reach is its cache block, never its word.
            assert " _x << 2 <" not in jb.source
            assert " _x << 2 >=" not in jb.source
            tested += inlined
            grouped += jb.source.count("_x = _g")
        assert tested > 10 and grouped > tested // 2

    #: case -> (config knobs, machine arguments, prepare(machine))
    MUST_NOT = {
        "one-processor": (dict(num_processors=1), {}, None),
        "free-traps": (dict(trap_squash_cycles=0), {}, None),
        "no-jit": ({}, dict(jit=False), None),
        "no-fastpath": ({}, dict(fastpath=False), None),
        "ipi-receiver": ({}, {}, "_install_receiver"),
        "io-hook": ({}, {}, "_install_io_hook"),
    }

    def test_the_port_says_whether_it_reaches_processors(self):
        # `_runs_ahead` asks every port the same question; no term of
        # it depends on another having been asked first.
        program = compile_source(FIB.source(), mode="eager").program
        ideal = AlewifeMachine(program, MachineConfig(num_processors=2))
        assert not any(cpu.port.reaches_processors for cpu in ideal.cpus)
        assert ideal._runs_ahead()
        self._install_io_hook(ideal)
        assert ideal.cpus[0].port.reaches_processors
        assert not ideal._runs_ahead()
        # A coherent node's controller reaches another processor only
        # by an IPI, and it tells the machine first.
        coherent = AlewifeMachine(program, MachineConfig(
            num_processors=2, memory_mode="coherent"))
        assert not any(cpu.port.reaches_processors for cpu in coherent.cpus)
        assert coherent._runs_ahead()

    @pytest.mark.parametrize("case", sorted(MUST_NOT))
    def test_machines_that_must_not_do_not(self, case):
        knobs, build, prepare = self.MUST_NOT[case]
        machine, ahead = self._run(
            MachineConfig(**{"num_processors": 4, **knobs}),
            getattr(self, prepare) if prepare else None, **build)
        assert machine.loop_used == (
            "reference" if case == "no-fastpath" else "fast")
        assert ahead == [(0, 0, 0)] * len(machine.cpus)


class TestChainsEndWhereSlicesDo:
    """One ``Processor.step_block`` call runs generated blocks back to
    back until its slice ends.  The chain must not move a slice's end:
    budgeted chains on a machine that does not run ahead stay in
    lockstep with the oracle, and a solo chain stops at the slice's
    end, so the per-slice polls — cycle limit, watchdog — land where
    the loop took one block per call landed them (the pins below are
    that loop's clocks)."""

    @pytest.mark.parametrize("program,mode,args", [
        ("fib", "eager", (9,)), ("fib", "lazy", (9,)),
        ("queens", "eager", (4,)), ("factor", "eager", (10007, 6))])
    def test_budgeted_chains_match_the_oracle(self, program, mode, args,
                                              monkeypatch):
        # One-cycle traps: a squash cannot tell a trap from retired
        # instructions, so nobody runs ahead and every slice is
        # budgeted to the next processor's clock.
        config = MachineConfig(num_processors=4, trap_squash_cycles=1)
        module = workloads.get(program)
        compiled = compile_source(module.source(), mode=mode)
        entry = compiled.entry_label("main")
        calls = record_step_block(monkeypatch)
        fast_machine = _machine(compiled, config, True)
        assert not fast_machine._runs_ahead()
        fast = fast_machine.run(entry=entry, args=module.args(*args))
        assert fast.value == module.reference(*args)
        # Budgeted calls ran several blocks each.
        assert max(runs for _, overrun, runs in calls if not overrun) > 1
        reference = _machine(compiled, config, False)
        _assert_lockstep((fast_machine, fast), (
            reference, reference.run(entry=entry, args=module.args(*args))))

    @pytest.mark.parametrize("limit,time", [(10_000, 12_297),
                                            (123_457, 126_985)])
    def test_solo_cycle_limit_at_the_same_clock(self, limit, time,
                                                monkeypatch):
        calls = record_step_block(monkeypatch)
        machine = _build(_asm(SPIN), "fast-1cpu")
        with pytest.raises(SimulationError, match="cycle limit %d " % limit):
            _drive(machine, "fast-1cpu", max_cycles=limit)
        assert machine.time == machine.cpus[0].cycles == time
        # One call per solo slice, not per block.
        assert len(calls) < 2 * time // SOLO_SLICE_CYCLES + 2
        assert all(overrun for _, overrun, _ in calls)

    def test_solo_watchdog_checked_at_the_same_clocks(self):
        machine = _build(_asm(SPIN), "fast-1cpu")
        watchdog = RecordingWatchdog(interval=1000).attach(machine)
        with pytest.raises(SimulationError, match="cycle limit 30000 "):
            _drive(machine, "fast-1cpu", max_cycles=30_000)
        assert watchdog.checked_at == [4105, 8201, 12297, 16393, 20489,
                                       24585, 28681, 32777]
