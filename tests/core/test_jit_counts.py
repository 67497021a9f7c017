"""What generated code costs the host, counted rather than timed.

Three legs of the repo benchmark at its ``--quick`` sizes — sequential
fib, and eager and lazy fib on four processors — each run once on a
fresh machine, and eager fib on four coherent nodes.  How many generated functions the run called, how many
instructions it retired, how many blocks and slices it compiled, and
how many characters of source those translations are: exact,
host-independent figures for what a wall-clock ratio can only
estimate.  A scan that stops at every ``CALL`` and ``BA`` again moves
the calls and the compiles; slow exits that state their commit and PSR
bits inline again move the characters; coherent tails that stop at
their first load or store again move the calls and the run-ahead
accesses.  Guards and ``TRAP`` terminators that take their traps in
place moved the characters: a guard's call carries its opcode's name,
and a ``TRAP`` is one helper call instead of a delegated closure's
exit.  Delegating to the reference's statement moved them: what
is delegated is an ``Instruction`` constant numbered with the trap
payloads, so a few constant names gained a digit.  One guard per stack
group moved them last: on the ideal port a run of loads and stores off
``sp`` is tested once, so each access states only its word and its
full/empty test (the three ideal legs ~22-35 % shorter); the coherent
leg grew, each hit testing for an open full/empty fault of an attached
transaction tracer.  Stack groups on coherent nodes moved the coherent
leg's characters back down ~5 %: each member still probes its own
cache line, but states no alignment, bank or window test of its own.
The fourth piece
is how often the machine loop calls into ``Processor.step_block``: one
call chains generated blocks back to back until its slice ends
wherever the horizon cannot move (one processor; machines that do not
run ahead), so the sequential leg's thousand blocks are a handful of
calls, while run-ahead machines keep one block or slice per call.  A
change that means to move a count re-pins it here and says why; any
other must not move one.
"""

import pytest

from repro import workloads
from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from tests.helpers import record_step_block

#: ``(mode, fib's n, processors)`` -> the run's counts.
PINNED = {
    ("sequential", 12, 1): {"jit_runs": 1020, "instructions": 17672,
                            "jit_compiles": 8, "source_chars": 18492},
    ("eager", 8, 4): {"jit_runs": 792, "instructions": 4396,
                      "jit_compiles": 41, "source_chars": 80205},
    ("lazy", 9, 4): {"jit_runs": 595, "instructions": 4360,
                     "jit_compiles": 27, "source_chars": 51091},
}


#: The same, and the stack accesses run-ahead tails carried, on a
#: coherent machine.
COHERENT = {
    ("eager", 8, 4): {"jit_runs": 1337, "instructions": 4396,
                      "jit_compiles": 72, "source_chars": 239779,
                      "ahead_loads": 468, "ahead_stores": 311},
}

#: Calls into ``Processor.step_block`` per leg, ``memory_mode`` too.
CALLS = {
    ("sequential", 12, 1, "ideal"): 6,
    ("eager", 8, 4, "ideal"): 801,
    ("lazy", 9, 4, "ideal"): 595,
    ("eager", 8, 4, "coherent"): 1348,
}


def _counts(mode, n, processors, memory_mode="ideal"):
    fib = workloads.get("fib")
    compiled = compile_source(fib.source(), mode=mode)
    config = MachineConfig(num_processors=processors,
                           lazy_futures=compiled.wants_lazy_scheduling,
                           memory_mode=memory_mode)
    machine = AlewifeMachine(compiled.program, config)
    result = machine.run(entry=compiled.entry_label("main"),
                         args=fib.args(n))
    assert result.value == fib.reference(n)
    cpus = machine.cpus
    # One translation table per machine, whichever processor compiled.
    blocks = [jb for jb in cpus[0].translations.jit.values() if jb]
    counts = {"jit_runs": sum(cpu.jit_runs for cpu in cpus),
              "instructions": result.stats.instructions,
              "jit_compiles": sum(cpu.jit_compiles for cpu in cpus),
              "source_chars": sum(len(jb.source) for jb in blocks)}
    if memory_mode == "coherent":
        counts.update(ahead_loads=sum(cpu.ahead_loads for cpu in cpus),
                      ahead_stores=sum(cpu.ahead_stores for cpu in cpus))
    return counts


@pytest.mark.parametrize("leg", sorted(PINNED))
def test_generated_code_counts_are_pinned(leg):
    assert _counts(*leg) == PINNED[leg]


@pytest.mark.parametrize("leg", sorted(COHERENT))
def test_coherent_counts_are_pinned(leg):
    assert _counts(*leg, memory_mode="coherent") == COHERENT[leg]


@pytest.mark.parametrize("leg", sorted(CALLS),
                         ids=lambda leg: "-".join(map(str, leg)))
def test_calls_into_step_block_are_pinned(leg, monkeypatch):
    calls = record_step_block(monkeypatch)
    *leg_args, memory_mode = leg
    counts = _counts(*leg_args, memory_mode=memory_mode)
    assert len(calls) == CALLS[leg]
    # The chain runs the same blocks: the other pins hold beside it.
    pinned = (PINNED if memory_mode == "ideal" else COHERENT)[tuple(leg_args)]
    assert counts == pinned
