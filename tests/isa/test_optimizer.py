"""Delay-slot filler tests: the pass must preserve semantics and only
ever reduce cycle counts."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.encoding import decode
from repro.isa.instructions import Opcode
from repro.isa.optimizer import OptimizingAssembler, assemble_optimized
from repro.lang.interp import interpret
from repro.lang.run import run_mult

from tests.helpers import run_to_halt
from tests.integration.test_differential import programs


def run_program(program, max_steps=200000):
    """Execute an assembled program on a bare CPU; returns (cpu, r-values)."""
    from repro.core.processor import Processor
    from repro.mem.ideal import IdealMemoryPort
    from repro.mem.memory import Memory
    memory = Memory(1 << 16)
    memory.load_program(program)
    cpu = Processor(port=IdealMemoryPort(memory))
    cpu.frame.pc = program.base
    cpu.frame.npc = program.base + 4
    run_to_halt(cpu, max_steps=max_steps)
    return cpu


class TestFilling:
    def test_fills_unconditional_branch(self):
        source = """
            set 80, r1
            ba target
        target:
            halt
        """
        assembler = OptimizingAssembler()
        program = assembler.assemble(source)
        assert assembler.slots_filled == 1
        ops = [decode(w).op for w in program.words]
        assert ops[0] is Opcode.BA          # branch moved up
        assert ops[1] is Opcode.ADDR        # the set, now in the slot
        cpu = run_program(program)
        assert cpu.read_reg(1) == 80        # slot executed

    def test_respects_condition_codes(self):
        # The candidate before a conditional branch is usually the
        # compare: it must not move.
        source = """
            cmpr r1, r2
            be done
            nop
        done:
            halt
        """
        assembler = OptimizingAssembler()
        program = assembler.assemble(source)
        assert assembler.slots_filled == 0
        ops = [decode(w).op for w in program.words]
        assert ops[0] is Opcode.SUBR        # cmpr stayed put

    def test_cc_safe_candidate_moves_past_conditional(self):
        source = """
            cmpr r1, r2
            ldr [r0+0x40], r3
            be done
            nop
        done:
            halt
        """
        assembler = OptimizingAssembler()
        assembler.assemble(source)
        assert assembler.slots_filled == 1

    def test_labeled_candidate_stays(self):
        source = """
        entry:
            set 4, r1
            ba done
        done:
            halt
        """
        assembler = OptimizingAssembler()
        program = assembler.assemble(source)
        assert assembler.slots_filled == 0
        assert program.address_of("entry") == 0

    def test_labeled_branch_stays(self):
        # Jumping to `loop` must not execute the set again.
        source = """
            set 4, r1
        loop:
            ba out
        out:
            halt
        """
        assembler = OptimizingAssembler()
        assembler.assemble(source)
        assert assembler.slots_filled == 0

    def test_store_of_link_register_not_hoisted_into_call(self):
        source = """
            st ra, [sp+0]
            call fn
            halt
        fn:
            ret
        """
        assembler = OptimizingAssembler()
        assembler.assemble(source)
        # st reads ra, which the call rewrites before the slot runs.
        assert assembler.slots_filled == 0

    def test_candidate_writing_jmpl_base_stays(self):
        source = """
            set 24, r5
            jmpl [r5+0], r0
            halt
        """
        assembler = OptimizingAssembler()
        assembler.assemble(source)
        assert assembler.slots_filled == 0

    @pytest.mark.parametrize("source, moved, branch", [
        # Every task frame has its own PSR: in the slot, `bne` would
        # test the old frame's condition codes.
        ("start: cmp r1, 0\n incfp\n bne start\n halt",
         Opcode.INCFP, Opcode.BNE),
        # The link would go to the old frame's `ra`.
        ("set 0, r1\n incfp\n call target\n target: halt",
         Opcode.INCFP, Opcode.CALL),
        # `jmpl` would read the old frame's `ra`.
        ("stfp r1\n jmpl [ra+0], r0\n halt", Opcode.STFP, Opcode.JMPL),
        # `jfull` would test the full/empty bit before `wrpsr` sets it.
        ("start: addr r0, 1, r1\n wrpsr r2\n jfull start\n halt",
         Opcode.WRPSR, Opcode.JFULL),
    ], ids=["incfp-bne", "incfp-call", "stfp-jmpl", "wrpsr-jfull"])
    def test_what_the_branch_reads_stays_before_it(self, source, moved,
                                                   branch):
        assembler = OptimizingAssembler()
        program = assembler.assemble(source)
        assert assembler.slots_filled == 0
        ops = [decode(w).op for w in program.words]
        assert ops.index(moved) == ops.index(branch) - 1


class TestSemanticPreservation:
    LOOP = """
        set 0, r1
        set 1, r2
    loop:
        cmpr r2, 10
        bg done
        addr r1, r2, r1
        addr r2, 1, r2
        ba loop
    done:
        halt
    """

    def test_loop_same_result_fewer_cycles(self):
        plain = run_program(assemble(self.LOOP))
        optimized = run_program(assemble_optimized(self.LOOP))
        assert plain.read_reg(1) == optimized.read_reg(1) == 55
        assert optimized.cycles < plain.cycles

    def test_call_heavy_code(self):
        source = """
            set 0x8000, sp
            set 12, a0
            call double
            mov a0, r1
            halt
        double:
            addr a0, a0, a0
            ret
        """
        plain = run_program(assemble(source))
        optimized = run_program(assemble_optimized(source))
        assert plain.read_reg(1) == optimized.read_reg(1) == 24
        assert optimized.cycles <= plain.cycles


class TestCompilerIntegration:
    FIB = """
    (define (fib n)
      (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
    (define (main n) (fib n))
    """

    def test_optimized_fib_agrees_and_is_faster(self):
        plain = run_mult(self.FIB, mode="sequential", args=(10,))
        optimized = run_mult(self.FIB, mode="sequential", args=(10,),
                             optimize=True)
        assert optimized.value == plain.value == 55
        assert optimized.cycles < plain.cycles

    def test_optimized_parallel_modes(self):
        for mode in ("eager", "lazy"):
            result = run_mult(self.FIB, mode=mode, processors=2, args=(9,),
                              optimize=True)
            assert result.value == 34

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs(), st.integers(-15, 15), st.integers(-15, 15))
    def test_random_programs_preserved(self, source, a, b):
        expected, _ = interpret(source, args=(a, b))
        plain = run_mult(source, mode="sequential", args=(a, b))
        optimized = run_mult(source, mode="sequential", args=(a, b),
                             optimize=True)
        assert optimized.value == plain.value == expected
        assert optimized.cycles <= plain.cycles
