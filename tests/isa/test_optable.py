"""The opcode table (:mod:`repro.isa.optable`): one row per opcode,
every generated statement of an ALU row agrees with the reference ALU
(``div``/``rem``'s two guards wherever they stand in generated code),
and every delegated row runs the same on all three tiers."""

import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import alu
from repro.core.jit import compile_block
from repro.core.memport import MemOutcome
from repro.core.processor import Processor
from repro.core.psr import C_BIT, ET_BIT, FE_BIT, N_BIT, V_BIT, Z_BIT
from repro.core.traps import TrapAction, TrapKind, TrapSignal, TrapTable
from repro.isa import registers
from repro.isa.assembler import Assembler, _tokenize_operands, assemble
from repro.isa.encoding import decode, encode
from repro.isa.instructions import Instruction, Opcode, render
from repro.isa.optable import (
    DELEGATED, FORMATS, REGISTER_FIELDS, ROWS, TABLE)
from repro.isa.tags import WORD_MASK
from repro.mem.ideal import IdealMemoryPort
from repro.mem.memory import Memory

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
    the reference ALU's — is taken as ``step()`` takes it."""
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
    """Per ALU row: the reference ALU, the one-instruction form
    ``step()`` runs and a one-instruction slice, on the same operand
    words."""

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
        # ("closure" names the rung the one-instruction form replaced.)
        row = ROWS[op]
        cpu, instr, taken = self._machine(op)
        block = compile_block(cpu, _PC, sliced=True)
        assert block is not None and block.count == 1
        form = compile_block(cpu, _PC, single=True)
        assert form is not None and form.count == 1

        def reference():
            result, (n, z, v, c) = alu.execute(op, a, b, instr=instr, pc=_PC)
            return result, n * N_BIT | z * Z_BIT | v * V_BIT | c * C_BIT

        expected = _outcome(cpu, taken, reference)
        stepped = _outcome(cpu, taken, lambda: self._run_on(
            cpu, a, b, lambda cpu, frame: form.fn(cpu, frame)))
        generated = _outcome(cpu, taken, lambda: self._run_on(
            cpu, a, b, lambda cpu, frame: block.fn(cpu, frame)))
        for result, cc, trap in (stepped, generated):
            if "rd" in row.writes:      # cmp discards its result
                assert result == expected[0]
            assert (cc, trap) == expected[1:]
        if (a | b) & 1:
            assert (expected[2] is not None) == row.strict


#: ``(a, b)`` per divide case: what ``alu.execute`` checks first wins.
_DIVIDE_CASES = {
    "quotient": (-36, 8),
    "zero-divisor": (36, 0),
    "future-dividend": (37, 8),
    "future-divisor": (36, 9),
    "future-and-zero": (37, 0),
    "both-futures": (37, 9),
}

#: How the divide names its operands: two registers, a literal divisor
#: (a literal zero is always a zero divisor), and a literal divisor of
#: the hard-wired zero (two literals, folded unless something traps).
_FORMS = {
    "registers": "r1, r2",
    "literal": "r1, {b}",
    "r0-and-literal": "r0, {b}",
}

#: Where the divide stands: the source around it, every rung starting
#: at its first word, and the divide's offset in bytes from there.
_PLACEMENTS = {
    # Behind an instruction, in one block.
    "block": ("""
            addr r4, 1, r4
            {op} {operands}, r3
            halt
    """, 4),
    # Heading a slice (and a block of its own).
    "slice-head": ("""
            {op} {operands}, r3
            halt
    """, 0),
    # In a branch's delay slot, fused into the branch's block.
    "delay-slot": ("""
            ba target
            @{op} {operands}, r3
            halt
        target:
            halt
    """, 4),
}


class TestDivideGuardsOnEveryRung:
    """``div`` and ``rem`` are inlined: a strict guard, then a zero
    divisor's, each taking the reference's trap in place.  Per case
    and placement, the reference interpreter, ``step()`` (one
    instruction's generated form, or the reference in a delay slot),
    generated blocks and sync-headed slices all leave the same state
    and the same trap payload."""

    @staticmethod
    def _run(op, case, placement, form, drive):
        a, b = _DIVIDE_CASES[case]
        source = _PLACEMENTS[placement][0].format(
            op=op.name.lower(), operands=_FORMS[form].format(b=b))
        cpu, _, program = build_cpu(source)
        taken = _recording(cpu)
        frame = cpu.frame
        frame.regs[1], frame.regs[2] = a & WORD_MASK, b & WORD_MASK
        frame.psr.value = ET_BIT
        calls = 0
        while not taken and not cpu.halted:
            drive(cpu)
            calls += 1
            assert calls < 10
        return {
            "regs": list(frame.regs),
            "chain": (frame.pc, frame.npc),
            "psr": frame.psr.value,
            "cycles": cpu.cycles,
            "stats": cpu.stats.snapshot(),
            "traps": [(t.kind, t.instr, t.pc, t.value, t.cause)
                      for t in taken],
        }, program

    @pytest.mark.parametrize("form", sorted(_FORMS))
    @pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
    @pytest.mark.parametrize("case", sorted(_DIVIDE_CASES))
    @pytest.mark.parametrize("op", [Opcode.DIV, Opcode.REM],
                             ids=lambda op: op.name)
    def test_every_rung_leaves_the_same_state(self, op, case, placement,
                                              form):
        expected, program = self._run(op, case, placement, form,
                                      Processor.step_reference)
        a, b = _DIVIDE_CASES[case]
        if form == "r0-and-literal":
            a = 0
        if (a | b) & 1:
            kind = TrapKind.FUTURE_COMPUTE
        elif b == 0:
            kind = TrapKind.ILLEGAL
        else:
            kind = None
        assert [t[0] for t in expected["traps"]] == ([kind] if kind else [])
        if kind is not None:
            divide = program.base + _PLACEMENTS[placement][1]
            assert expected["traps"][0][2] == expected["chain"][0] == divide
        for drive in (Processor.step, lambda cpu: cpu.step_block(1 << 20),
                      lambda cpu: cpu.step_block(0, True)):
            assert self._run(op, case, placement, form, drive)[0] == expected

    @pytest.mark.parametrize("case", sorted(_DIVIDE_CASES))
    def test_past_a_slice_head_the_guards_park(self, case):
        """Behind a slice's head neither guard traps: the chain parks
        at the divide, which heads the next slice and traps there."""
        a, b = _DIVIDE_CASES[case]
        source = _PLACEMENTS["block"][0].format(op="div",
                                                operands=_FORMS["registers"])
        cpu, _, program = build_cpu(source)
        taken = _recording(cpu)
        frame = cpu.frame
        frame.regs[1], frame.regs[2] = a & WORD_MASK, b & WORD_MASK
        frame.psr.value = ET_BIT
        block = compile_block(cpu, program.base, sliced=True)
        assert block.count == 2
        cpu.step_block(0, True)
        assert not taken
        if (a | b) & 1 or b == 0:
            assert (frame.pc, frame.npc) == (program.base + 4,
                                             program.base + 8)
            assert cpu.stats.instructions == 1 and cpu.ahead_tail is None
            cpu.step_block(0, True)
            assert [t.pc for t in taken] == [program.base + 4]
        else:
            assert frame.pc == program.base + 8


#: The delegated rows with no ALU statement: the frame-pointer, system
#: and out-of-band ops.
_STATEMENT_OPS = [row.op for row in TABLE
                  if row.shape == DELEGATED and row.alu is None]
#: ``(rd, rs1)`` per operand plan: frame-relative, global, hardwired 0.
_OPERANDS = {
    "frame": (3, 5),
    "global": (registers.GLOBAL_BASE + 5, registers.GLOBAL_BASE + 6),
    "zero": (0, 0),
}


class _Settles(list):
    """A lifetime accountant that records what each settle saw."""

    def settle(self, cpu):
        self.append((cpu.cycles, cpu.fp, cpu.stats.total_cycles))


def _generated(cpu):
    """Run the one-instruction slice at the pc, taking a raised trap
    (the reference's statement raises it) as
    :meth:`Processor.step_block` takes it."""
    block = compile_block(cpu, _PC, sliced=True)
    assert block is not None and block.count == 1
    frame = cpu.frame
    try:
        block.fn(cpu, frame)
    except TrapSignal as signal:
        cpu._take_trap(frame, signal.trap)


class TestEveryStatementRowAgreesWithTheReference:
    """Per delegated row with no ALU statement: the reference
    interpreter, :meth:`Processor.step` and a one-instruction generated
    block, each from the same seeded state."""

    def test_the_rows_are_the_frame_system_and_out_of_band_ops(self):
        assert {op.name for op in _STATEMENT_OPS} == {
            "INCFP", "DECFP", "RDFP", "STFP", "TRAP", "RDPSR", "WRPSR",
            "RETT", "HALT", "FLUSH", "LDIO", "STIO"}

    @staticmethod
    def _seeded(op, operands, et):
        """A processor at ``op`` with every frame, global, PSR and trap
        window filled in, FP at frame 2, a recording trap table, a
        recording lifetime accountant and an ideal port whose
        out-of-band calls are recorded (and cost a few cycles)."""
        rd, rs1 = _OPERANDS[operands]
        fmt = ROWS[op].format
        fields = {"rd": rd, "rs1": rs1}
        fields = {name: fields[name] for name in fmt.fields
                  if name in fields}
        if "imm12" in fmt.fields:
            fields["imm"] = -8
        elif "vector8" in fmt.fields:
            fields["imm"] = 5
        memory = Memory(1 << 12)
        memory.write_word(_PC, encode(Instruction(op, **fields)))
        memory.write_word(_PC + 4, encode(Instruction(Opcode.HALT)))
        port = IdealMemoryPort(memory)
        calls = []

        def flush(address, context=None):
            calls.append(("flush", address))
            return MemOutcome.hit(cycles=2)

        def ldio(address, context):
            calls.append(("ldio", address))
            return 0x12345679, 3

        def stio(address, value, context):
            calls.append(("stio", address, value))
            return 4

        port.flush = flush
        port.io_read_hook = ldio
        port.io_write_hook = stio
        cpu = Processor(port=port)
        for frame in cpu.frames:
            base = 0x1000 * (frame.index + 1)
            frame.regs[1:] = [base + 0x40 + 4 * r
                              for r in range(1, len(frame.regs))]
            frame.pc, frame.npc = base, base + 4
            frame.psr.value = N_BIT | C_BIT | FE_BIT | (ET_BIT if et else 0)
            frame.trap_saved_pc = base + 0x80
            frame.trap_saved_npc = base + 0x88
            frame.trap_saved_psr = Z_BIT | V_BIT | (0 if et else ET_BIT)
        cpu.globals[1:] = [0x9000 + 4 * g + 3
                           for g in range(1, len(cpu.globals))]
        cpu.fp = 2
        cpu.frame.pc, cpu.frame.npc = _PC, _PC + 4
        taken = _recording(cpu)
        cpu.trap_table.register_software(
            5, lambda cpu, frame, trap: taken.append(trap)
            or TrapAction.RETRY)
        settles = _Settles()
        cpu.events.lifetime = settles
        return cpu, taken, settles, calls

    @staticmethod
    def _state(cpu, taken, settles, calls):
        return {
            "frames": [(list(f.regs), f.pc, f.npc, f.psr.value,
                        f.trap_saved_pc, f.trap_saved_npc,
                        f.trap_saved_psr) for f in cpu.frames],
            "globals": list(cpu.globals),
            "fp": cpu.fp,
            "halted": cpu.halted,
            "cycles": cpu.cycles,
            "stats": cpu.stats.snapshot(),
            "trap_counts": dict(cpu.stats.trap_counts),
            "traps": [(t.kind, t.vector, t.instr, t.pc, t.address,
                       t.value, t.cause) for t in taken],
            "port": list(calls),
            "settles": list(settles),
        }

    def _run(self, op, operands, et, execute):
        cpu, *record = self._seeded(op, operands, et)
        before = self._state(cpu, *record)
        execute(cpu)
        after = self._state(cpu, *record)
        assert after != before
        return after

    @pytest.mark.parametrize("op", _STATEMENT_OPS, ids=lambda op: op.name)
    @pytest.mark.parametrize("operands", sorted(_OPERANDS))
    @pytest.mark.parametrize("et", [True, False], ids=["et", "no-et"])
    def test_reference_step_and_generated_code_agree(self, op, operands,
                                                     et):
        expected = self._run(op, operands, et, Processor.step_reference)
        assert self._run(op, operands, et, Processor.step) == expected
        assert self._run(op, operands, et, _generated) == expected
