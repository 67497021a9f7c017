"""The opcode table (:mod:`repro.isa.optable`): one row per opcode, and
every fast statement of an ALU row agrees with the reference ALU."""

import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import alu
from repro.core.execops import build_entry
from repro.core.jit import compile_block
from repro.core.psr import C_BIT, ET_BIT, N_BIT, V_BIT, Z_BIT
from repro.core.traps import TrapAction, TrapKind, TrapSignal, TrapTable
from repro.isa import registers
from repro.isa.assembler import Assembler, _tokenize_operands, assemble
from repro.isa.encoding import decode, encode
from repro.isa.instructions import Instruction, Opcode, render
from repro.isa.optable import FORMATS, REGISTER_FIELDS, ROWS, TABLE
from repro.isa.tags import WORD_MASK

from tests.helpers import build_cpu
from tests.isa.test_disassembler_roundtrip import printed

_CC = N_BIT | Z_BIT | V_BIT | C_BIT
#: Odd words are futures: a strict row must trap on them.
_WORDS = st.one_of(
    st.integers(min_value=0, max_value=WORD_MASK),
    st.sampled_from([0, 1, 2, 3, 4, 8, WORD_MASK, WORD_MASK - 3, 1 << 31,
                     (1 << 31) - 4, (1 << 31) + 4, 0xFFFF0000]))
_ALU_OPS = [row.op for row in TABLE if row.alu is not None]
_PC = 0x100


class TestOneRowPerOpcode:
    def test_every_opcode_has_exactly_one_row(self):
        counts = Counter(row.op for row in TABLE)
        assert set(counts) == set(Opcode)
        assert set(counts.values()) == {1}
        assert all(ROWS[row.op] is row for row in TABLE)

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
    @pytest.mark.parametrize("use_imm", [False, True])
    def test_source_registers_are_the_rows_reads(self, op, use_imm):
        instr = Instruction(op, rd=3, rs1=5, rs2=7, imm=9, use_imm=use_imm)
        fields = {"rs1": 5, "rs2": 7, "rd": 3, "ra": registers.RA}
        expected = tuple(fields[name] for name in ROWS[op].reads
                         if name in REGISTER_FIELDS
                         and not (name == "rs2" and use_imm))
        assert instr.source_registers() == expected
        # Computed once: the second call answers the same object.
        assert instr.source_registers() is instr.source_registers()

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
    def test_format_is_read_by_encode_render_and_build(self, op):
        """An opcode whose row has no format, or one a reader does not
        know, fails here by name."""
        fmt = ROWS[op].format
        assert FORMATS[fmt.name] is fmt
        shown = printed(fmt)
        fields = {"rd": 3 * ("rd" in shown), "rs1": 5 * ("rs1" in shown)}
        imm = bool(set(fmt.fields) - {"rd", "rs1"})
        instr = Instruction(op, imm=9 * imm, use_imm=imm,
                            **{name: fields[name] for name in fmt.fields
                               if name in fields})
        word = encode(instr)
        assert decode(word) == instr
        text = render(instr)
        mnemonic, _, rest = text.partition(" ")
        stmt = Assembler()._build(mnemonic, _tokenize_operands(rest), 1)
        assert (stmt.instr.rd, stmt.instr.rs1, stmt.instr.use_imm) == (
            instr.rd, instr.rs1, instr.use_imm)
        assert assemble(text).words[0] == word

    def test_isa_imports_nothing_from_core(self):
        # The package's own __init__ re-exports the whole simulator, so
        # the probe imports repro.isa into a bare ``repro`` namespace.
        probe = (
            "import importlib.util, sys, types\n"
            "spec = importlib.util.find_spec('repro')\n"
            "shell = types.ModuleType('repro')\n"
            "shell.__path__ = list(spec.submodule_search_locations)\n"
            "sys.modules['repro'] = shell\n"
            "import repro.isa, repro.isa.optable\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.core')))\n")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ))
        assert out.stdout.strip() == "[]"


def _recording(cpu):
    """Give ``cpu`` a trap table whose every handler records the trap
    it is handed and retries; returns the record."""
    taken = []

    def record(cpu, frame, trap):
        taken.append(trap)
        return TrapAction.RETRY

    cpu.trap_table = TrapTable()
    for kind in TrapKind:
        cpu.trap_table.register(kind, record)
    return taken


def _outcome(cpu, taken, run):
    """``(result, N/Z/V/C, trap payload)`` of one ALU execution, the
    payload read off the trap ``cpu`` took (``taken``, its recording
    table).  Generated code takes its trap in place; a raised one —
    the reference ALU's, the closure's — is taken as ``step()`` takes
    it."""
    del taken[:]
    try:
        result, cc = run()
    except TrapSignal as signal:
        cpu._take_trap(cpu.frame, signal.trap)
    if taken:
        trap, = taken
        return None, None, (trap.kind, trap.pc, trap.value, trap.cause)
    return result, cc, None


class TestEveryAluRowAgreesWithTheReference:
    """Per ALU row: the reference ALU, the closure rung's handler and a
    one-instruction generated block, on the same operand words."""

    @staticmethod
    def _machine(op):
        instr = Instruction(op, rd=3, rs1=1, rs2=2)
        cpu, memory, _ = build_cpu("halt", base=_PC)
        memory.write_word(_PC, encode(instr))
        memory.write_word(_PC + 4, encode(Instruction(Opcode.HALT)))
        return cpu, instr, _recording(cpu)

    @staticmethod
    def _run_on(cpu, a, b, execute):
        frame = cpu.frame
        frame.regs[1], frame.regs[2], frame.regs[3] = a, b, 0
        frame.psr.value = ET_BIT
        execute(cpu, frame)
        return frame.regs[3], frame.psr.value & _CC

    @pytest.mark.parametrize("op", _ALU_OPS, ids=lambda op: op.name)
    @settings(max_examples=150, deadline=None)
    @given(a=_WORDS, b=_WORDS)
    def test_alu_execute_closure_and_generated_code_agree(self, op, a, b):
        row = ROWS[op]
        cpu, instr, taken = self._machine(op)
        block = compile_block(cpu, _PC, sliced=True)
        assert block is not None and block.count == 1
        entry = build_entry(instr)

        def reference():
            result, (n, z, v, c) = alu.execute(op, a, b, instr=instr, pc=_PC)
            return result, n * N_BIT | z * Z_BIT | v * V_BIT | c * C_BIT

        expected = _outcome(cpu, taken, reference)
        closure = _outcome(cpu, taken, lambda: self._run_on(
            cpu, a, b, lambda cpu, frame: entry.run(cpu, frame, _PC,
                                                    _PC + 4)))
        generated = _outcome(cpu, taken, lambda: self._run_on(
            cpu, a, b, lambda cpu, frame: block.fn(cpu, frame)))
        for result, cc, trap in (closure, generated):
            if "rd" in row.writes:      # cmp discards its result
                assert result == expected[0]
            assert (cc, trap) == expected[1:]
        if (a | b) & 1:
            assert (expected[2] is not None) == row.strict
