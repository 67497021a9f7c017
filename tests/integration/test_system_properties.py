"""Cross-cutting system properties.

* **Toolchain fixpoint**: disassembling any encodable instruction and
  re-assembling the text reproduces the same 32-bit word, so listings
  are faithful.
* **Determinism**: the machine is a deterministic simulator — two runs
  of the same program produce bit-identical results and cycle counts,
  across every mode and processor count (this is what makes the
  cycle-count experiments meaningful).
* **Ablations**: removing one APRIL mechanism (tag hardware, lazy task
  creation, task frames, switch-spinning, delay-slot filling) costs
  what the paper says it does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import Assembler
from repro.isa.disassembler import disassemble_word
from repro.isa.encoding import IMM11_MAX, IMM11_MIN, IMM12_MAX, IMM12_MIN, encode
from repro.isa.instructions import (
    Category, Instruction, Opcode, category_of, render,
)
from repro.lang.run import run_mult
from repro.machine.config import MachineConfig
from repro import workloads

_REG = st.integers(min_value=0, max_value=39)
_ALU = [op for op in Opcode
        if category_of(op) in (Category.COMPUTE, Category.LOGIC)
        and op not in (Opcode.LUI, Opcode.ORIL)]
_MEM = [op for op in Opcode
        if category_of(op) in (Category.LOAD, Category.STORE)]


def _assemble_one(text):
    """Assemble one instruction line without the auto delay slot."""
    program = Assembler().assemble(text)
    return program.words[0]


class TestToolchainFixpoint:
    @given(st.sampled_from(_ALU), _REG, _REG, _REG)
    def test_alu_r_format(self, op, rd, rs1, rs2):
        # cmp discards its destination: canonicalize rd to 0 so the
        # listing (which omits it) round-trips exactly.
        instr = Instruction(op, rd=0 if op is Opcode.CMP else rd,
                            rs1=rs1, rs2=rs2)
        assert _assemble_one(render(instr)) == encode(instr)

    @given(st.sampled_from(_ALU), _REG, _REG,
           st.integers(min_value=IMM11_MIN, max_value=IMM11_MAX))
    def test_alu_i_format(self, op, rd, rs1, imm):
        instr = Instruction(op, rd=0 if op is Opcode.CMP else rd,
                            rs1=rs1, imm=imm, use_imm=True)
        assert _assemble_one(render(instr)) == encode(instr)

    @given(st.sampled_from(_MEM), _REG, _REG,
           st.integers(min_value=IMM12_MIN, max_value=IMM12_MAX))
    def test_memory_format(self, op, rd, rs1, imm):
        instr = Instruction(op, rd=rd, rs1=rs1, imm=imm, use_imm=True)
        assert _assemble_one(render(instr)) == encode(instr)

    def test_system_ops(self):
        for op in (Opcode.INCFP, Opcode.DECFP, Opcode.NOP, Opcode.HALT):
            instr = Instruction(op)
            assert _assemble_one(render(instr)) == encode(instr)

    def test_disassemble_word_matches_render(self):
        instr = Instruction(Opcode.LDETT, rd=3, rs1=14, imm=-8, use_imm=True)
        assert disassemble_word(encode(instr)) == render(instr)


FIB = """
(define (fib n)
  (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(define (main n) (fib n))
"""


class TestDeterminism:
    @pytest.mark.parametrize("mode,processors", [
        ("sequential", 1), ("eager", 1), ("eager", 4),
        ("lazy", 1), ("lazy", 4),
    ])
    def test_identical_reruns(self, mode, processors):
        first = run_mult(FIB, mode=mode, processors=processors, args=(9,))
        second = run_mult(FIB, mode=mode, processors=processors, args=(9,))
        assert first.value == second.value == 34
        assert first.cycles == second.cycles
        assert first.stats.instructions == second.stats.instructions
        assert first.stats.context_switches == second.stats.context_switches

    def test_coherent_mode_deterministic(self):
        config = MachineConfig(num_processors=2, memory_mode="coherent")
        runs = [run_mult(FIB, mode="eager", args=(8,), config=config)
                for config in (config, config.replace())]
        assert runs[0].value == runs[1].value == 21
        assert runs[0].cycles == runs[1].cycles

    def test_model_deterministic(self):
        from repro.model.params import ModelParams
        from repro.model.utilization import utilization_curve
        a = utilization_curve(ModelParams(), max_threads=8)
        b = utilization_curve(ModelParams(), max_threads=8)
        assert a == b


def _cycles(source, mode, args, **config):
    """Simulated cycles of one run on ``MachineConfig(**config)``."""
    return run_mult(source, mode=mode, args=args,
                    config=MachineConfig(**config)).cycles


class TestAblations:
    """Remove one APRIL mechanism and measure what it was worth."""

    def test_tag_hardware(self):
        # Software future detection: "close to a factor of two loss in
        # performance" with no future ever created (Table 3, Mul-T seq).
        plain = run_mult(FIB, mode="sequential", args=(10,))
        checked = run_mult(FIB, mode="sequential", args=(10,),
                           software_checks=True)
        assert 1.3 < checked.cycles / plain.cycles < 2.5

    def test_lazy_task_creation(self):
        # Table 3's fib on one processor: eager 14.2x, lazy 1.5x.
        eager = run_mult(FIB, mode="eager", args=(10,))
        lazy = run_mult(FIB, mode="lazy", args=(10,))
        assert eager.cycles / lazy.cycles > 4

    def test_task_frames(self):
        # One hardware context unloads a thread on every blocked touch.
        factor = workloads.get("factor")
        one, four = (_cycles(factor.source(), "eager", factor.args(),
                             num_processors=2, num_task_frames=frames)
                     for frames in (1, 4))
        assert four <= one

    def test_switch_spinning(self):
        # Blocking at once (spin limit 0) pays two thread moves per
        # short wait; a bounded switch-spin is never much worse.
        block, spin = (_cycles(FIB, "eager", (9,), num_processors=4,
                               touch_spin_limit=limit)
                       for limit in (0, 2))
        assert spin < block * 1.5

    def test_delay_slot_filling(self):
        # Section 2.1: postpass filling recovers the cycles that the
        # conservative assembler spends on delay-slot nops.
        plain = run_mult(FIB, mode="sequential", args=(10,))
        filled = run_mult(FIB, mode="sequential", args=(10,), optimize=True)
        assert filled.value == plain.value
        assert filled.cycles < plain.cycles

    @pytest.mark.parametrize("placement", ["round_robin", "local"])
    def test_placement(self, placement):
        # Round-robin spreads eager tasks; local placement leaves them
        # to idle processors' steals.  Either computes the same fib.
        config = MachineConfig(num_processors=4, placement=placement)
        assert run_mult(FIB, mode="eager", args=(9,), config=config).value == 34
