"""Assembler tests: parsing, layout, label resolution, pseudo-ops."""

import pytest

from repro.errors import AssemblerError
from repro.isa import registers
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble, disassemble_word
from repro.isa.encoding import decode
from repro.isa.instructions import LOAD_FLAVORS, Opcode, STORE_FLAVORS
from repro.isa.tags import make_fixnum


def decoded(program):
    return [decode(w) for w in program.words]


class TestBasic:
    def test_single_instruction(self):
        program = assemble("add r1, r2, r3")
        instrs = decoded(program)
        assert len(instrs) == 1
        assert instrs[0].op is Opcode.ADD
        assert (instrs[0].rs1, instrs[0].rs2, instrs[0].rd) == (1, 2, 3)

    def test_immediate_operand(self):
        program = assemble("sub r1, -5, r3")
        instr = decoded(program)[0]
        assert instr.use_imm and instr.imm == -5

    def test_register_aliases(self):
        program = assemble("add a0, a1, t0")
        instr = decoded(program)[0]
        assert instr.rs1 == registers.ARG_REGS[0]
        assert instr.rs2 == registers.ARG_REGS[1]
        assert instr.rd == registers.TEMP_REGS[0]

    def test_global_registers(self):
        program = assemble("or g0, g1, g7")
        instr = decoded(program)[0]
        assert instr.rs1 == registers.GLOBAL_BASE
        assert instr.rd == registers.GLOBAL_BASE + 7

    def test_comments_and_blanks(self):
        program = assemble("""
        ; a comment-only line
        nop   ; trailing comment
        """)
        assert len(program.words) == 1

    def test_cmp_two_operands(self):
        instr = decoded(assemble("cmp r1, 7"))[0]
        assert instr.op is Opcode.CMP and instr.imm == 7


class TestMemoryOperands:
    def test_load_with_offset(self):
        instr = decoded(assemble("ld [r2+8], r3"))[0]
        assert instr.op is Opcode.LDNT
        assert (instr.rs1, instr.imm, instr.rd) == (2, 8, 3)

    def test_load_negative_offset(self):
        instr = decoded(assemble("ldnw [sp-4], t0"))[0]
        assert instr.imm == -4

    def test_load_no_offset(self):
        instr = decoded(assemble("ldett [r9], r1"))[0]
        assert instr.op is Opcode.LDETT and instr.imm == 0

    def test_store(self):
        instr = decoded(assemble("st r3, [r2+4]"))[0]
        assert instr.op is Opcode.STNT
        assert (instr.rd, instr.rs1, instr.imm) == (3, 2, 4)

    def test_all_load_flavors_assemble(self):
        names = ("ldtt", "ldett", "ldnt", "ldent",
                 "ldnw", "ldenw", "ldtw", "ldetw", "ldr")
        # Table 2's eight flavors plus the raw load, and nothing else.
        assert sorted(op.name.lower() for op in LOAD_FLAVORS) == sorted(names)
        for name in names:
            instr = decoded(assemble("%s [r1+0], r2" % name))[0]
            assert instr.op.name.lower() == name

    def test_all_store_flavors_assemble(self):
        names = ("sttt", "stftt", "stnt", "stfnt",
                 "stnw", "stfnw", "sttw", "stftw", "str")
        assert sorted(op.name.lower() for op in STORE_FLAVORS) == sorted(names)
        for name in names:
            instr = decoded(assemble("%s r2, [r1+0]" % name))[0]
            assert instr.op.name.lower() == name


class TestLabelsAndBranches:
    def test_backward_branch(self):
        program = assemble("""
        loop:
            add r1, 1, r1
            ba loop
        """)
        instrs = decoded(program)
        # ba is at byte 4, loop at byte 0 -> offset -1 word
        assert instrs[1].op is Opcode.BA
        assert instrs[1].imm == -1
        # delay-slot nop inserted after the branch
        assert instrs[2].op is Opcode.NOP

    def test_forward_branch(self):
        program = assemble("""
            be done
            nop
        done:
            halt
        """)
        instrs = decoded(program)
        assert instrs[0].imm == 3  # done is 3 words ahead (be, slot, nop)

    def test_call_links_and_gets_slot(self):
        program = assemble("""
            call fn
            halt
        fn:
            ret
        """)
        instrs = decoded(program)
        assert instrs[0].op is Opcode.CALL and instrs[0].imm == 3
        assert instrs[1].op is Opcode.NOP
        assert instrs[2].op is Opcode.HALT

    def test_explicit_delay_slot_fill(self):
        program = assemble("""
            ba target
            @add r1, 1, r1
        target:
            halt
        """)
        instrs = decoded(program)
        assert instrs[0].op is Opcode.BA
        assert instrs[1].op is Opcode.ADD  # filled the slot, no nop
        assert instrs[2].op is Opcode.HALT
        assert program.address_of("target") == 8

    def test_label_addresses_are_bytes(self):
        program = assemble("""
        a:  nop
        b:  nop
        c:  nop
        """)
        assert program.address_of("a") == 0
        assert program.address_of("b") == 4
        assert program.address_of("c") == 8

    def test_duplicate_label_raises(self):
        with pytest.raises(AssemblerError):
            assemble("x: nop\nx: nop")

    def test_unknown_label_raises(self):
        with pytest.raises(AssemblerError):
            assemble("ba nowhere")


class TestPseudoOps:
    def test_nop(self):
        assert decoded(assemble("nop"))[0].op is Opcode.NOP

    def test_mov(self):
        instr = decoded(assemble("mov r4, r9"))[0]
        assert instr.op is Opcode.OR
        assert (instr.rs1, instr.rs2, instr.rd) == (4, 0, 9)

    def test_set_small_is_one_instruction(self):
        program = assemble("set 100, r5")
        assert len(program.words) == 1
        instr = decoded(program)[0]
        assert instr.op is Opcode.ADDR and instr.imm == 100

    def test_set_large_is_lui_oril(self):
        program = assemble("set 0x12345678, r5")
        instrs = decoded(program)
        assert [i.op for i in instrs] == [Opcode.LUI, Opcode.ORIL]
        value = (instrs[0].imm << 14) | instrs[1].imm
        assert value == 0x12345678

    def test_set_label(self):
        program = assemble("""
            set data, r5
            halt
        data:
            .word 7
        """)
        instrs = [decode(w) for w in program.words[:2]]
        value = (instrs[0].imm << 14) | instrs[1].imm
        assert value == program.address_of("data")

    def test_ret_expands_to_jmpl(self):
        instrs = decoded(assemble("ret"))
        assert instrs[0].op is Opcode.JMPL
        assert instrs[0].rs1 == registers.RA
        assert instrs[1].op is Opcode.NOP  # delay slot

    def test_neg_and_not(self):
        instrs = decoded(assemble("neg r1, r2\nnot r1, r3"))
        assert instrs[0].op is Opcode.SUBR and instrs[0].rs1 == 0
        assert instrs[1].op is Opcode.XOR and instrs[1].imm == -1


class TestDirectives:
    def test_word(self):
        program = assemble(".word 42")
        assert program.words == [42]

    def test_word_label(self):
        program = assemble("""
        entry:
            nop
        table:
            .word entry
        """)
        assert program.words[1] == program.address_of("entry")

    def test_fixnum(self):
        program = assemble(".fixnum -3")
        assert program.words == [make_fixnum(-3)]

    def test_space(self):
        program = assemble(".space 3\nnop")
        assert len(program.words) == 4
        assert program.words[:3] == [0, 0, 0]

    def test_equ(self):
        program = assemble("""
        .equ FOUR, 4
            add r1, FOUR, r2
        """)
        assert decoded(program)[0].imm == 4

    def test_org(self):
        program = assemble("""
            nop
            .org 0x20
        late:
            halt
        """)
        assert program.address_of("late") == 0x20
        assert len(program.words) == 9

    def test_org_backwards_raises(self):
        with pytest.raises(AssemblerError):
            assemble("nop\nnop\n.org 0\nnop")

    def test_space_zero_is_legal(self):
        program = assemble("a: nop\n.space 0\nb: nop")
        assert program.address_of("b") == 4
        assert len(program.words) == 2


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate r1, r2")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r2, r99")

    def test_wrong_arity(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r2")

    def test_slot_fill_without_branch(self):
        with pytest.raises(AssemblerError):
            assemble("nop\n@add r1, 1, r1")

    @pytest.mark.parametrize("directive", [".space", ".org", ".align"])
    def test_bare_directive_names_its_line(self, directive):
        with pytest.raises(AssemblerError) as caught:
            assemble("nop\n    %s\n" % directive)
        assert caught.value.line == 2

    def test_negative_space_raises(self):
        # It used to move the location counter back: `b` at byte -4.
        with pytest.raises(AssemblerError) as caught:
            assemble("a: nop\n.space -2\nb: nop\nhalt")
        assert caught.value.line == 2

    def test_equ_may_not_replace_a_label(self):
        # `labels["x"]` used to become 8, sending `ba x` to its own slot.
        with pytest.raises(AssemblerError, match="duplicate symbol 'x'"):
            assemble("x: nop\n.equ x, 8\nba x")

    def test_equ_may_not_replace_an_equ(self):
        with pytest.raises(AssemblerError,
                           match="duplicate symbol 'k'") as caught:
            assemble(".equ k, 1\n.equ k, 2\nadd r1, k, r2")
        assert caught.value.line == 2


class TestDisassembler:
    def test_roundtrip_listing(self):
        source = """
        start:
            set 5, a0
            call fn
            halt
        fn:
            add a0, 1, a0
            ret
        """
        program = assemble(source)
        listing = disassemble(program.words, base=program.base,
                              labels=program.labels)
        assert "start:" in listing and "fn:" in listing
        assert "halt" in listing

    def test_data_word_renders_as_directive(self):
        assert disassemble_word(0xDEADBEEF).startswith(".word")

    def test_instruction_renders(self):
        program = assemble("add r1, r2, r3")
        assert disassemble_word(program.words[0]) == "add r1, r2, r3"
