"""Binary encoding of APRIL instructions into 32-bit words.

The paper does not specify bit-level encodings; this module defines a
clean fixed-width encoding so the simulator can keep programs in
simulated memory as genuine 32-bit words (and so the assembler and
disassembler have a real round-trip to honor).

Bits 31..24 hold the opcode; the rest is the opcode's operand format
(:data:`~repro.isa.optable.FORMATS`), a sequence of the bit fields of
:data:`~repro.isa.optable.FIELDS`.  Bits no field covers encode as 0
and decode as ignored.

======= ======= ====================================================
Field   Bits    Holds
======= ======= ====================================================
rd      23..18  a register
rs1     17..12  a register
rhs     11..11  the i-bit: ``rs2`` when clear, ``imm11`` when set
rs2     5..0    a register
imm11   10..0   a signed immediate (``use_imm``)
imm12   11..0   a signed immediate
imm18   17..0   an unsigned immediate
off24   23..0   a signed branch offset, in words
vector8 7..0    a trap vector
======= ======= ====================================================

======= =============== ============================================
Format  Fields          Opcodes
======= =============== ============================================
alu     rd rs1 rhs      compute and logic, bar the three below
cmp     rd rs1 rhs      ``cmp`` (``rd`` is never printed: 0)
wide    rd imm18        ``lui``, ``oril``
load    rd rs1 imm12    loads, ``ldio``, ``jmpl``
store   rd rs1 imm12    stores, ``stio``
flush   rd rs1 imm12    ``flush`` (``rd`` is never printed: 0)
branch  off24           branches, ``call``
trap    vector8         ``trap``
none                    ``incfp``, ``decfp``, ``rett``, ``nop``, ``halt``
read    rd              ``rdfp``, ``rdpsr``
write   rs1             ``stfp``, ``wrpsr``
======= =============== ============================================

``SET rd, imm32`` is a pseudo-instruction the assembler expands into
``LUI rd, imm >> 14`` followed by ``ORIL rd, imm & 0x3FFF``.
"""

from repro.errors import EncodingError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.optable import FIELDS, I_BIT, TABLE

IMM11_MIN, IMM11_MAX = -(1 << 10), (1 << 10) - 1
IMM12_MIN, IMM12_MAX = -(1 << 11), (1 << 11) - 1
IMM18_MAX = (1 << 18) - 1
OFF24_MIN, OFF24_MAX = -(1 << 23), (1 << 23) - 1

_OPCODES_BY_VALUE = {int(op): op for op in Opcode}


def _field(name):
    """``(attribute, lowest bit, mask, min, max, what)`` of a field."""
    attr, low, width, signed, what = FIELDS[name]
    least = -(1 << (width - 1)) if signed else 0
    return attr, low, (1 << width) - 1, least, least + (1 << width) - 1, what


_RS2, _IMM11 = _field("rs2"), _field("imm11")

#: Per opcode, its format's fields; ``None`` is ``rhs``.
_LAYOUTS = {
    row.op: tuple(None if name == "rhs" else _field(name)
                  for name in row.format.fields)
    for row in TABLE}


def encode(instr):
    """Encode an :class:`Instruction` into a 32-bit integer word."""
    word = int(instr.op) << 24
    for field in _LAYOUTS[instr.op]:
        if field is None:
            if instr.use_imm:
                word |= I_BIT
                field = _IMM11
            else:
                field = _RS2
        attr, low, mask, least, most, what = field
        value = getattr(instr, attr)
        if not least <= value <= most:
            raise EncodingError("%s out of range: %d" % (what, value))
        word |= (value & mask) << low
    return word


def decode(word):
    """Decode a 32-bit word into an :class:`Instruction`.

    Raises :class:`EncodingError` for unknown opcodes, so executing data
    as code fails loudly.  An immediate field sets ``use_imm``.
    """
    opval = (word >> 24) & 0xFF
    op = _OPCODES_BY_VALUE.get(opval)
    if op is None:
        raise EncodingError("unknown opcode byte %#04x in word %#010x" % (opval, word))
    instr = Instruction(op)
    for field in _LAYOUTS[op]:
        if field is None:
            field = _IMM11 if word & I_BIT else _RS2
        attr, low, mask, _least, most, _what = field
        value = (word >> low) & mask
        if value > most:
            value -= mask + 1
        setattr(instr, attr, value)
        if attr == "imm":
            instr.use_imm = True
    return instr
