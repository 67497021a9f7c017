"""A thread's id is its spawn index in its own run.

The PSR's TID field is architectural state a program can read, so two
identical machines must hand it the same value however many machines
the process built before; and everything exported about a run names
its threads by that same id, with no exporter keeping a numbering of
its own.
"""

from repro.isa.assembler import assemble
from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import FlightRecorder, Observation
from repro.obs.flight import build_postmortem
from repro.runtime import stubs
from tests.obs.conftest import FIB

#: Returns the running thread's PSR TID field as a fixnum.
READ_TID = stubs.thread_start_stub() + """
main:
    rdpsr t0
    set 65535, t1
    and t0, t1, t0
    sll t0, 2, a0
    ret
"""


def _observed_fib(n=8, processors=4):
    compiled = compile_source(FIB, mode="eager")
    machine = AlewifeMachine(compiled.program,
                             MachineConfig(num_processors=processors))
    observation = Observation(events=True, capacity=None, window=0,
                              threads=True)
    flight = FlightRecorder(per_node=1 << 12)
    observation.attach(machine)
    flight.attach(machine)
    result = machine.run(entry=compiled.entry_label(), args=(n,))
    assert result.value == 21
    return machine, observation, flight


def _exports(machine, observation, flight):
    return {
        "events": observation.bus.to_dicts(),
        "flight": [flight.tail(cpu.node_id) for cpu in machine.cpus],
        "postmortem": build_postmortem(machine, "deadlock", machine.time,
                                       "inspection", flight=flight),
    }


class TestThreadIdentity:
    def test_psr_tid_is_the_same_on_every_machine(self):
        program = assemble(READ_TID)
        values = [AlewifeMachine(program, MachineConfig()).run().value
                  for _ in range(2)]
        assert values == [0, 0]          # main is spawn index 0

    def test_identical_runs_export_identical_bytes(self):
        first = _exports(*_observed_fib())
        second = _exports(*_observed_fib())
        assert first["events"] == second["events"]
        assert first["flight"] == second["flight"]
        assert first["postmortem"] == second["postmortem"]

    def test_explain_and_postmortem_name_a_tid_alike(self):
        machine, observation, flight = _observed_fib()
        rows = observation.explain()["threads"]["threads"]
        entries = {entry["tid"]: entry["name"] for entry in
                   build_postmortem(machine, "deadlock", machine.time,
                                    "inspection", flight=flight)["threads"]}
        assert len(rows) == len(entries)
        for row in rows:
            assert entries[row["tid"]] == row["name"]
