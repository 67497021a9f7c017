"""A finished machine is freed by reference counting alone.

The machine holds a multi-megabyte memory bank; if anything that
reaches the bank sits in a reference cycle, the bank lives until the
cycle collector happens to run, and every collector pass in between
has to walk it.  These tests switch the collector off and require the
bank to be gone the moment the last reference to the machine is.
"""

import gc
import weakref

import pytest

from repro.exp.job import Job
from repro.lang.compiler import compile_source
from repro.machine import alewife
from repro.machine.alewife import AlewifeMachine, run_program
from repro.machine.config import MachineConfig
from repro.mem.memory import Memory
from repro.obs import FlightRecorder, Observation
from repro import workloads

FIB = workloads.get("fib").source()


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def banks(monkeypatch):
    """Weak references to every Memory built during the test."""
    made = []

    class TrackedMemory(Memory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(alewife, "Memory", TrackedMemory)
    return made


def payload(processors, memory_mode, **extra):
    config = MachineConfig(num_processors=processors,
                           memory_mode=memory_mode)
    data = Job(("teardown",), FIB, config=config, args=(6,)).payload()
    data.update(extra)
    return data


def test_execute_payload_leaves_no_live_memory(no_collector, banks):
    # p1 runs dormant; every multiprocessor cell runs with the per-job
    # observation (lifetime accountant + event bus) attached, the
    # coherent ones with the transaction tracer on top.
    cells = [(1, "ideal"), (2, "ideal"), (4, "ideal"), (2, "coherent"),
             (4, "coherent")] * 2
    for processors, memory_mode in cells:
        out = alewife.execute_payload(payload(processors, memory_mode))
        assert out["value"] == 8
        assert ("critpath" in out) == (processors > 1)
        assert banks and all(bank() is None for bank in banks)
    assert len(banks) == len(cells) == 10


def test_reference_interpreter_machine_is_freed_too(no_collector, banks):
    out = alewife.execute_payload(payload(2, "ideal", fastpath=False))
    assert out["value"] == 8
    assert [bank() for bank in banks] == [None]


def test_observed_machine_is_freed_with_its_observation(no_collector):
    compiled = compile_source(FIB, mode="eager")
    machine = AlewifeMachine(
        compiled.program,
        MachineConfig(num_processors=4, memory_mode="coherent"))
    observation = Observation(profile=True, txn=True, threads=True)
    observation.attach(machine)
    machine.run(entry=compiled.entry_label("main"), args=(6,))
    bank = weakref.ref(machine.memory)
    del machine
    assert bank() is not None           # the observation holds the machine
    del observation
    assert bank() is None


def test_flight_recorder_does_not_keep_its_machine(no_collector):
    """A subscriber is held by the machine's bus, not the other way
    round: a recorder that was never detached is no reference cycle."""
    compiled = compile_source(FIB, mode="eager")
    machine = AlewifeMachine(compiled.program,
                             MachineConfig(num_processors=2))
    flight = FlightRecorder().attach(machine)
    machine.run(entry=compiled.entry_label("main"), args=(6,))
    bank = weakref.ref(machine.memory)
    del machine
    assert bank() is None
    assert any(flight.rings.values())


def test_result_outlives_its_machine(no_collector, banks):
    compiled = compile_source(
        "(define (main n) (iota n))", mode="sequential")
    result = run_program(compiled.program,
                         entry=compiled.entry_label("main"), args=(5,))
    assert [bank() for bank in banks] == [None]
    assert result.value == [0, 1, 2, 3, 4]
    assert result.stats.to_dict()["run_cycles"] == result.cycles
    assert result.output == []
