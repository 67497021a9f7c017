"""The machine's two schedules — the fast sliced loop and the
:class:`MachineStepper` oracle — and every way of reaching them must
stop a run the same way (cycle limit, all processors halted), poll the
watchdog, and feed the sampler."""

import pathlib

import pytest

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
            cpu.trace_hook = lambda cpu, pc, instr: None
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
