"""Translation state belongs to the machine, not to its processors.

What is cached at a pc — predecoded entry, JIT block or slice, or the
fact that nothing compiles there — is a function of the code there, so
a machine's processors share one
:class:`~repro.core.processor.Translations`: each block start is
compiled once, at its first visit by any of them, and a store into
translated code is answered once.  Its tables have no bound of their
own: every key is a word of the loaded program.  Two machines share
nothing but the process-wide :data:`~repro.core.jit.SHARED_BLOCKS`.
"""

from collections import Counter

import pytest

from repro import workloads
from repro.core import processor
from repro.core.jit import SHARED_BLOCKS
from repro.isa.instructions import Opcode
from repro.lang.run import build_mult_machine
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from tests.core.test_jit import (
    SMC_STORE_SOURCE,
    build_jit_cpu,
    run_jit_to_halt,
    run_slices_to_halt,
)

FIB = workloads.get("fib")


def _machine(processors=4, **build):
    return build_mult_machine(FIB.source(), processors=processors, **build)


def _closure_machine(processors=4):
    """The same machine with ``jit=False``: every instruction goes
    through ``step()`` and its predecode table."""
    machine, compiled = _machine(processors)
    return AlewifeMachine(compiled.program, machine.config,
                          jit=False), compiled


def _run(machine, compiled, n=9):
    result = machine.run(entry=compiled.entry_label("main"), args=(n,))
    assert result.value == FIB.reference(n)
    return result


@pytest.fixture
def compile_calls(monkeypatch):
    """Every ``compile_block`` call the processors make: (pc, sliced)."""
    calls = []
    real = processor.compile_block

    def counting(cpu, pc, sliced=False):
        calls.append((pc, sliced))
        return real(cpu, pc, sliced)

    monkeypatch.setattr(processor, "compile_block", counting)
    return calls


class TestOneTablePerMachine:
    @pytest.mark.parametrize("memory_mode", ["ideal", "coherent"])
    def test_every_cpu_runs_from_the_same_tables(self, memory_mode):
        machine, _ = _machine(config=MachineConfig(
            num_processors=4, memory_mode=memory_mode))
        first = machine.cpus[0]
        for cpu in machine.cpus[1:]:
            assert cpu.translations is first.translations
            assert cpu._entry_map is first._entry_map
            assert cpu._jit_map is first._jit_map

    def test_block_compiled_through_one_cpu_runs_on_another(
            self, compile_calls):
        machine, compiled = _machine()
        cpu0, cpu3 = machine.cpus[0], machine.cpus[3]
        pc = compiled.program.address_of(compiled.entry_label("main"))
        block = cpu0._compile_jit(pc)
        assert block is not None and compile_calls == [(pc, False)]
        # CPU 3 never visited the pc: no second compile.  A budget of
        # the block's own count runs that block and chains no further.
        frame = cpu3.frame
        frame.pc, frame.npc = pc, pc + 4
        assert cpu3.step_block(block.count) > 0
        assert cpu3.jit_runs == 1 and cpu3.jit_compiles == 0
        assert cpu3._jit_map[pc] is block
        assert compile_calls == [(pc, False)]

    def test_a_run_compiles_each_pc_once_for_all_cpus(self, compile_calls):
        machine, compiled = _machine()
        _run(machine, compiled)
        assert compile_calls
        assert max(Counter(compile_calls).values()) == 1
        # ... and the work was really spread over the processors.
        assert sum(1 for cpu in machine.cpus if cpu.jit_runs) >= 3
        tables = machine.cpus[0].translations
        assert tables.jit_invalidations == 0
        assert len(compile_calls) == len(tables.jit)
        assert sum(cpu.jit_compiles for cpu in machine.cpus) == sum(
            1 for block in tables.jit.values() if block is not False)

    def test_one_cpu_machine_shares_with_nobody(self):
        machine, _ = _machine(processors=1)
        bare = processor.Processor()
        assert machine.cpus[0].translations is not bare.translations
        assert bare.translations is not processor.Processor().translations


class TestFirstVisitRunsGeneratedCode:
    """No warm-up: a block start is compiled the first time any of the
    machine's processors reaches it, and a pc that does not compile is
    asked about once."""

    def test_first_step_block_at_a_block_start_runs_generated_code(self):
        machine, compiled = _machine()
        cpu = machine.cpus[0]
        pc = compiled.program.address_of(compiled.entry_label("main"))
        frame = cpu.frame
        frame.pc, frame.npc = pc, pc + 4
        # The block's own count: one block runs, no chain after it.
        count = processor.compile_block(cpu, pc).count
        assert cpu.step_block(count) > 0
        assert cpu.jit_runs == 1 and cpu.jit_compiles == 1

    def test_an_uncompilable_pc_reaches_compile_block_once(
            self, compile_calls):
        machine, compiled = _machine()
        # A lone HALT is one delegated instruction: nothing to compile.
        program = compiled.program
        decode = machine.cpus[0].translations.decode
        pc = next(program.base + 4 * index
                  for index, word in enumerate(program.words)
                  if decode(word).op is Opcode.HALT)
        for cpu in machine.cpus[:2]:
            frame = cpu.frame
            frame.pc, frame.npc = pc, pc + 4
            assert cpu.step_block(1 << 30) == 1
            assert cpu.halted and cpu.jit_runs == 0
        assert compile_calls == [(pc, False)]
        assert machine.cpus[0]._jit_map[pc] is False


class TestInvalidationIsPerMachine:
    def test_one_listener_and_one_invalidation_per_store(self):
        machine, compiled = _machine()
        _run(machine, compiled)
        memory = machine.memory
        assert len(memory.code_watch._listeners) == 1
        tables = machine.cpus[0].translations
        block = next(b for key, b in tables.jit.items()
                     if b is not False and key >= 0)
        covering = sum(1 for b in tables.jit.values()
                       if b is not False and b.covers(block.start))
        before = tables.jit_invalidations
        # Same word back through the watched write path: a store into
        # translated code, whatever it stores.
        memory.write_word(block.start, memory.read_word(block.start))
        assert tables.jit_invalidations == before + covering
        for cpu in machine.cpus:
            assert not any(b is not False and b.covers(block.start)
                           for b in cpu._jit_map.values())

    def test_a_store_drops_a_predecoded_entry_once_for_all(self):
        # Without generated code every instruction is predecoded.
        machine, compiled = _closure_machine()
        _run(machine, compiled)
        memory = machine.memory
        tables = machine.cpus[0].translations
        pc = next(iter(tables.entries))
        before = tables.entry_invalidations
        memory.write_word(pc, memory.read_word(pc))
        assert tables.entry_invalidations == before + 1
        assert all(pc not in cpu._entry_map for cpu in machine.cpus)

    def test_every_cpu_retranslates_after_a_patch(self, compile_calls):
        machine, compiled = _machine()
        pc = compiled.program.address_of(compiled.entry_label("main"))
        stale = machine.cpus[0]._compile_jit(pc)
        memory = machine.memory
        memory.write_word(pc, memory.read_word(pc))
        assert all(pc not in cpu._jit_map for cpu in machine.cpus)
        fresh = machine.cpus[2]._compile_jit(pc)
        assert compile_calls == [(pc, False), (pc, False)]
        # Same words, so the process-wide cache answers with the block.
        assert fresh is stale
        assert all(cpu._jit_map[pc] is fresh for cpu in machine.cpus)


class TestTheProgramBoundsTheTables:
    """The tables have no capacity because they need none: every pc
    they are keyed by (``~pc`` for a slice) is a word of the loaded
    program, so its length bounds them."""

    #: ``args`` of each workload at ``perf/run.py --quick`` sizes.
    SIZES = {"fib": (8,), "queens": (4,), "factor": (10000, 4)}

    @staticmethod
    def _assert_keys_are_program_words(tables, program):
        words = range(program.base, program.base + 4 * len(program.words), 4)
        assert tables.entries or tables.jit
        for key in list(tables.entries) + list(tables.jit):
            assert (~key if key < 0 else key) in words, hex(key)

    @pytest.mark.parametrize("memory_mode", ["ideal", "coherent"])
    @pytest.mark.parametrize("mode", ["sequential", "eager", "lazy"])
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_every_key_is_a_word_of_the_program(self, name, mode,
                                                memory_mode):
        workload = workloads.get(name)
        size = self.SIZES[name]
        processors = 1 if mode == "sequential" else 4
        machine, compiled = build_mult_machine(
            workload.source(), mode=mode, config=MachineConfig(
                num_processors=processors, memory_mode=memory_mode))
        result = machine.run(entry=compiled.entry_label("main"),
                             args=workload.args(*size))
        assert result.value == workload.reference(*size)
        self._assert_keys_are_program_words(
            machine.cpus[0].translations, compiled.program)

    @pytest.mark.parametrize("run", [run_jit_to_halt, run_slices_to_halt])
    def test_self_modifying_code_keys_stay_in_the_program(self, run):
        cpu, _, program = build_jit_cpu(SMC_STORE_SOURCE)
        run(cpu)
        assert cpu.read_reg(1) == 8 + 8 * 5
        tables = cpu.translations
        assert tables.jit_invalidations + tables.entry_invalidations > 0
        self._assert_keys_are_program_words(tables, program)


class TestTwoMachinesShareOnlyCompiledBlocks:
    def test_tables_are_disjoint_blocks_are_not(self):
        one, compiled = _machine()
        two, _ = _machine()
        _run(one, compiled)
        _run(two, compiled)
        a, b = one.cpus[0].translations, two.cpus[0].translations
        assert a is not b
        for name in ("entries", "jit"):
            assert getattr(a, name) is not getattr(b, name)
        assert a.watch is not b.watch
        common = [key for key, block in a.jit.items()
                  if block is not False and b.jit.get(key)]
        assert common
        for key in common:
            assert a.jit[key] is b.jit[key]
            assert a.jit[key].key in SHARED_BLOCKS


class TestCountersKeepTheirShape:
    def test_translation_counters_keys(self):
        machine, compiled = _machine()
        _run(machine, compiled)
        table_keys = {"size", "invalidations"}
        for node, cpu in enumerate(machine.cpus):
            counters = cpu.translation_counters()
            assert set(counters) == {"node", "predecode", "jit",
                                     "superblocks"}
            assert counters["node"] == node
            assert set(counters["predecode"]) == table_keys
            assert set(counters["jit"]) == table_keys | {
                "blocks", "compiles", "runs", "deopts", "enabled"}
            assert not any(counters["superblocks"].values())
            # Run counters stay per processor; table sizes are shared.
            assert counters["jit"]["runs"] == cpu.jit_runs
            assert counters["jit"]["compiles"] == cpu.jit_compiles
        sizes = {cpu.translation_counters()["jit"]["size"]
                 for cpu in machine.cpus}
        assert len(sizes) == 1
