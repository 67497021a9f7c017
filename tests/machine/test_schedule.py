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
from repro.errors import HangDetected, SimulationError
from repro.isa.assembler import assemble
from repro.lang.compiler import compile_source
from repro.lang.run import build_mult_machine
from repro.machine.alewife import SOLO_SLICE_CYCLES, AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import Observation, Watchdog
from repro.runtime import stubs
from tests.core.test_lockstep import (
    _assert_lockstep,
    _build as _machine,
    _run_stepper,
    _step_to_completion,
)

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

    #: case -> (config knobs, machine arguments, prepare(machine))
    MUST_NOT = {
        "coherent": (dict(memory_mode="coherent"), {}, None),
        "free-traps": (dict(trap_squash_cycles=0), {}, None),
        "no-jit": ({}, dict(jit=False), None),
        "no-fastpath": ({}, dict(fastpath=False), None),
        "ipi-receiver": ({}, {}, "_install_receiver"),
        "io-hook": ({}, {}, "_install_io_hook"),
    }

    @pytest.mark.parametrize("case", sorted(MUST_NOT))
    def test_machines_that_must_not_do_not(self, case):
        knobs, build, prepare = self.MUST_NOT[case]
        machine, ahead = self._run(
            MachineConfig(num_processors=4, **knobs),
            getattr(self, prepare) if prepare else None, **build)
        assert machine.loop_used == (
            "reference" if case == "no-fastpath" else "fast")
        assert ahead == [(0, 0, 0)] * 4
