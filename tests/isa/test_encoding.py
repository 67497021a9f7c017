"""Encode/decode round-trip tests for every instruction format."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.processor import Translations
from repro.errors import EncodingError
from repro.isa import encoding
from repro.isa.encoding import (
    IMM11_MAX, IMM11_MIN, IMM12_MAX, IMM12_MIN, IMM18_MAX,
    OFF24_MAX, OFF24_MIN, decode, encode,
)
from repro.isa.instructions import (
    Category, Instruction, Opcode, category_of,
)
from repro.isa.optable import FIELDS, FORMATS, I_BIT


class TestLayoutTable:
    """The module docstring's tables are the formats and fields."""

    def test_every_field_and_its_bits(self):
        for name, (_attr, low, width, _signed, _what) in FIELDS.items():
            assert re.search(r"^%s +%d\.\.%d " % (name, low + width - 1, low),
                             encoding.__doc__, re.M), name
        assert re.search(r"^rhs +%d\.\.%d " % ((I_BIT.bit_length() - 1,) * 2),
                         encoding.__doc__, re.M)

    def test_every_format_and_its_fields(self):
        for fmt in FORMATS.values():
            assert re.search(r"^%s +%s" % (fmt.name, " ".join(fmt.fields)),
                             encoding.__doc__, re.M), fmt.name


def roundtrip(instr):
    decoded = decode(encode(instr))
    assert decoded == instr, "%r != %r" % (decoded, instr)
    return decoded


class TestFormats:
    def test_r_format(self):
        roundtrip(Instruction(Opcode.ADD, rd=3, rs1=4, rs2=5))

    def test_i_format(self):
        roundtrip(Instruction(Opcode.ADD, rd=3, rs1=4, imm=-7, use_imm=True))

    def test_i_format_extremes(self):
        roundtrip(Instruction(Opcode.SUB, rd=1, rs1=2, imm=IMM11_MAX, use_imm=True))
        roundtrip(Instruction(Opcode.SUB, rd=1, rs1=2, imm=IMM11_MIN, use_imm=True))

    def test_global_registers_encode(self):
        roundtrip(Instruction(Opcode.OR, rd=39, rs1=32, rs2=38))

    def test_load(self):
        roundtrip(Instruction(Opcode.LDETT, rd=7, rs1=14, imm=IMM12_MAX, use_imm=True))
        roundtrip(Instruction(Opcode.LDNW, rd=7, rs1=14, imm=IMM12_MIN, use_imm=True))

    def test_store(self):
        roundtrip(Instruction(Opcode.STFNW, rd=9, rs1=2, imm=-44, use_imm=True))

    def test_branch(self):
        roundtrip(Instruction(Opcode.BNE, imm=-200, use_imm=True))
        roundtrip(Instruction(Opcode.JFULL, imm=OFF24_MAX, use_imm=True))
        roundtrip(Instruction(Opcode.BA, imm=OFF24_MIN, use_imm=True))

    def test_call(self):
        roundtrip(Instruction(Opcode.CALL, imm=1234, use_imm=True))

    def test_jmpl(self):
        roundtrip(Instruction(Opcode.JMPL, rd=15, rs1=15, imm=0, use_imm=True))

    def test_lui_oril(self):
        roundtrip(Instruction(Opcode.LUI, rd=5, imm=IMM18_MAX, use_imm=True))
        roundtrip(Instruction(Opcode.ORIL, rd=5, imm=0x3FFF, use_imm=True))

    def test_trap(self):
        roundtrip(Instruction(Opcode.TRAP, imm=17, use_imm=True))

    def test_no_arg_ops(self):
        for op in (Opcode.INCFP, Opcode.DECFP, Opcode.RETT, Opcode.NOP, Opcode.HALT):
            roundtrip(Instruction(op))

    def test_one_reg_ops(self):
        roundtrip(Instruction(Opcode.RDFP, rd=9))
        roundtrip(Instruction(Opcode.RDPSR, rd=32))
        roundtrip(Instruction(Opcode.STFP, rs1=4))
        roundtrip(Instruction(Opcode.WRPSR, rs1=4))

    def test_oob(self):
        roundtrip(Instruction(Opcode.FLUSH, rs1=3, imm=16, use_imm=True))
        roundtrip(Instruction(Opcode.LDIO, rd=4, rs1=0, imm=8, use_imm=True))
        roundtrip(Instruction(Opcode.STIO, rd=4, rs1=0, imm=8, use_imm=True))


class TestErrors:
    def test_imm11_overflow(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.ADD, rd=1, rs1=1, imm=IMM11_MAX + 1,
                               use_imm=True))

    def test_imm12_overflow(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.LDNT, rd=1, rs1=1, imm=IMM12_MIN - 1,
                               use_imm=True))

    def test_branch_overflow(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.BA, imm=OFF24_MAX + 1, use_imm=True))

    def test_bad_register(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.ADD, rd=64, rs1=0, rs2=0))

    def test_bad_trap_vector(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.TRAP, imm=256, use_imm=True))

    def test_unknown_opcode_byte(self):
        with pytest.raises(EncodingError):
            decode(0xFF000000)

    def test_data_word_fails_decode(self):
        with pytest.raises(EncodingError):
            decode(0x00000000)


_REG = st.integers(min_value=0, max_value=39)
_ALU_OPS = [
    op for op in Opcode
    if category_of(op) in (Category.COMPUTE, Category.LOGIC)
    and op not in (Opcode.LUI, Opcode.ORIL)
]
_MEM_OPS = [op for op in Opcode if category_of(op) in (Category.LOAD, Category.STORE)]
_BRANCH_OPS = [op for op in Opcode if category_of(op) is Category.BRANCH]


class TestRoundtripProperties:
    @given(st.sampled_from(_ALU_OPS), _REG, _REG, _REG)
    def test_r_format(self, op, rd, rs1, rs2):
        roundtrip(Instruction(op, rd=rd, rs1=rs1, rs2=rs2))

    @given(st.sampled_from(_ALU_OPS), _REG, _REG,
           st.integers(min_value=IMM11_MIN, max_value=IMM11_MAX))
    def test_i_format(self, op, rd, rs1, imm):
        roundtrip(Instruction(op, rd=rd, rs1=rs1, imm=imm, use_imm=True))

    @given(st.sampled_from(_MEM_OPS), _REG, _REG,
           st.integers(min_value=IMM12_MIN, max_value=IMM12_MAX))
    def test_memory(self, op, rd, rs1, imm):
        roundtrip(Instruction(op, rd=rd, rs1=rs1, imm=imm, use_imm=True))

    @given(st.sampled_from(_BRANCH_OPS),
           st.integers(min_value=OFF24_MIN, max_value=OFF24_MAX))
    def test_branches(self, op, offset):
        roundtrip(Instruction(op, imm=offset, use_imm=True))


class TestDecodeCache:
    """A machine's word-keyed decode memo (``Translations.decode``): a
    word decodes once."""

    def test_same_object_returned(self):
        cache = Translations()
        word = encode(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3))
        first = cache.decode(word)
        second = cache.decode(word)
        assert first is second

    def test_decodes_correctly(self):
        cache = Translations()
        instr = Instruction(Opcode.BNE, imm=-8, use_imm=True)
        assert cache.decode(encode(instr)) == instr

    def test_a_bad_word_raises_every_time(self):
        cache = Translations()
        for _ in range(2):
            with pytest.raises(EncodingError):
                cache.decode(0xFF000000)
