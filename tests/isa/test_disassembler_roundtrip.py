"""Assembler/disassembler round-trip: the monitor's ``disas`` and the
watchdog post-mortem are only trustworthy if the listing they print is
the exact program the machine executes.

Two properties:

* every opcode, canonical instruction -> encode -> disassemble ->
  reassemble -> the identical word;
* any 32-bit word disassembles without crashing, and the resulting text
  is a fixpoint (reassembling it and disassembling again reproduces the
  same text — ``.word`` directives included).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble_around, disassemble_word
from repro.isa.encoding import decode, encode
from repro.isa.instructions import Instruction, Opcode
from repro.isa.optable import FIELDS, ROWS

# Register fields that have a canonical printable name (r0..r31, g0..g7).
REG = st.integers(0, 39)


def field_values(name):
    """Every value a field of :data:`FIELDS` holds."""
    attr, _low, width, signed, _what = FIELDS[name]
    if attr != "imm":
        return REG
    least = -(1 << (width - 1)) if signed else 0
    return st.integers(least, least + (1 << width) - 1)


def printed(fmt):
    """The register fields ``fmt``'s operands show."""
    return set(fmt.operands) | ({"rs1"} if "address" in fmt.operands
                                else set())


def instruction_strategy(op):
    """Canonical (renderable) instructions of one opcode, built from its
    row's format: a register field no operand prints (``cmp``'s and
    ``flush``'s ``rd``) stays 0, as the assembler leaves it."""
    fmt = ROWS[op].format
    fields = {}
    for name in fmt.fields:
        if name == "rhs":
            fields["rhs"] = st.one_of(
                st.tuples(st.just("rs2"), field_values("rs2")),
                st.tuples(st.just("imm"), field_values("imm11")))
        elif name in ("rd", "rs1") and name not in printed(fmt):
            fields[name] = st.just(0)
        else:
            fields[FIELDS[name][0]] = field_values(name)

    def build(values):
        attr, value = values.pop("rhs", (None, None))
        if attr is not None:
            values[attr] = value
        return Instruction(op, use_imm="imm" in values, **values)

    return st.fixed_dictionaries(fields).map(build)


def reassemble_line(text):
    """Assemble one instruction (or directive) line; the first word."""
    return assemble("    %s\n" % text).words[0]


class TestEveryOpcode:
    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
    def test_canonical_round_trip(self, op):
        """Fixed representative per opcode: encode -> disassemble ->
        reassemble is the identity on the word."""

        @settings(max_examples=25, deadline=None)
        @given(instruction_strategy(op))
        def check(instr):
            word = encode(instr)
            text = disassemble_word(word)
            assert not text.startswith(".word"), text
            assert reassemble_line(text) == word

        check()


class TestArbitraryWords:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_never_crashes_and_text_is_fixpoint(self, word):
        text = disassemble_word(word)
        assert isinstance(text, str) and text
        if text.startswith(".word"):
            # Data words list as .word and survive reassembly exactly.
            assert reassemble_line(text) == word
        else:
            # Decodable words may carry junk in ignored bit ranges; the
            # *text* is the canonical form and must be a fixpoint.
            assert disassemble_word(reassemble_line(text)) == text
            canonical = encode(decode(word))
            assert encode(decode(canonical)) == canonical

    def test_unknown_opcode_byte_is_word(self):
        assert disassemble_word(0xFF000000).startswith(".word")

    def test_invalid_register_field_is_word(self):
        # COMPUTE with rd = 45: decodable but unprintable (no such
        # register name), so the listing falls back to .word.
        word = (int(Opcode.ADD) << 24) | (45 << 18)
        assert disassemble_word(word).startswith(".word")


class TestDisassembleAround:
    def test_window_marks_pc_and_skips_unmapped(self):
        program = assemble("""
        main:
            set 3, a0
            addr a0, 1, a0
            ret
        """)
        def read_word(address):
            index = address // 4
            if 0 <= index < len(program.words):
                return program.words[index]
            raise IndexError(address)

        listing = disassemble_around(read_word, 4, before=8, after=8,
                                     labels=program.labels)
        assert "=>" in listing
        assert "main:" in listing
        # The window was clipped at the program edges, not padded.
        assert len(listing.splitlines()) <= len(program.words) + 2
