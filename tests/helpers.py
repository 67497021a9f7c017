"""Shared test utilities: build a single processor over ideal memory."""

from repro.core.processor import Processor
from repro.core.traps import TrapAction
from repro.isa.assembler import assemble
from repro.mem.ideal import IdealMemoryPort
from repro.mem.memory import Memory

DEFAULT_MEMORY_WORDS = 1 << 16


def build_cpu(source, base=0, memory_words=DEFAULT_MEMORY_WORDS, latency=1):
    """Assemble source, load it, and return (cpu, memory, program).

    The processor's frame 0 starts at the program base with a thread-less
    frame; callers drive it with ``cpu.step()`` (see :func:`run_to_halt`).
    """
    program = assemble(source, base=base)
    memory = Memory(memory_words)
    memory.load_program(program)
    cpu = Processor(port=IdealMemoryPort(memory, latency=latency))
    cpu.frame.pc = program.base
    cpu.frame.npc = program.base + 4
    return cpu, memory, program


def run_to_halt(cpu, max_steps=100000):
    """Step the processor until HALT; fail loudly on runaway programs."""
    steps = 0
    while not cpu.halted:
        cpu.step()
        steps += 1
        if steps > max_steps:
            raise AssertionError("program did not halt in %d steps" % max_steps)
    return cpu


def ignore_trap_handler(action=TrapAction.RESUME, cycles=0):
    """A trap handler that charges some cycles and returns an action."""
    def handler(cpu, frame, trap):
        if cycles:
            cpu.charge(cycles, "trap")
        return action
    return handler


def record_step_block(monkeypatch):
    """Patch ``Processor.step_block`` to record every call as
    ``(ahead, overrun, blocks run)``; returns the list it appends to.
    Install it before the machine runs (the loop binds the method)."""
    calls = []
    step_block = Processor.step_block

    def recording(cpu, budget, ahead=False, overrun=False):
        runs = cpu.jit_runs
        spent = step_block(cpu, budget, ahead, overrun)
        calls.append((ahead, overrun, cpu.jit_runs - runs))
        return spent

    monkeypatch.setattr(Processor, "step_block", recording)
    return calls
