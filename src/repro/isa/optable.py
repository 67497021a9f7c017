"""One row per APRIL opcode: what it reads, writes and computes.

The reference interpreter (``Processor._execute*`` and
:mod:`repro.core.alu`) states the instruction set on its own: it is
what the lockstep harness compares everything else with, so nothing
here feeds it.  Every other place that needs a per-opcode fact reads
it from :data:`ROWS`:

* the closure rung (:mod:`repro.core.execops`) compiles its ALU cores
  from ``alu`` and picks each handler factory by ``shape``;
* generated code (:mod:`repro.core.jit`) inlines ``alu``, builds PSR
  bits from :data:`PRODUCERS`, tests ``condition`` and scans blocks and
  slices by ``shape``;
* :meth:`~repro.isa.instructions.Instruction.source_registers` is
  ``reads``;
* the delay-slot filler (:mod:`repro.isa.optimizer`) moves an
  instruction by ``reads`` and ``writes``, and the assembler puts a
  slot after every ``delayed`` op;
* the encoder, decoder, disassembler and assembler read ``format``.

A row gives:

``reads`` / ``writes``
    Register fields — ``"rs1"``, ``"rs2"`` (not in the immediate form),
    ``"rd"``, and ``"ra"``, the link ``call`` writes — and processor
    state: :data:`CC` (N/Z/V/C), :data:`FE` (the full/empty condition
    bit), :data:`PSR` (the whole word, so both of those too), :data:`FP`
    (the frame pointer) and :data:`PC` (the PC chain, beyond moving on
    to the next instruction).  Every delayed op reads FP: its taken
    test, link and base are the current frame's.
``alu``
    The result as Python statements over the operand words ``{a}`` and
    ``{b}``: the last assigns ``res``, the ones before it scratch locals
    (``_t`` is the unmasked sum, difference or product).
``kind``
    The lazy-PSR producer kind: the :data:`PRODUCERS` entry that turns
    those locals into N/Z/V/C.
``strict``
    Traps when an operand is a future (has its low bit set).
``delayed``
    Followed by an architectural delay slot.
``condition``
    A conditional branch's taken test over the PSR word ``psr``, the
    bits written ``{N}`` ``{Z}`` ``{V}`` ``{C}`` ``{FE}``
    (:func:`repro.core.psr.condition_source` fills them in).
``shape``
    What the fast path makes of it: :data:`STRAIGHT` (one inlined
    cycle), :data:`LOAD` / :data:`STORE` (inlined over a port generated
    code understands), :data:`CONDITIONAL`, :data:`REDIRECT` (``ba``,
    ``call``, ``jmpl``: PC-chain math) or :data:`DELEGATED` (generated
    code calls the closure).  :attr:`Row.private` follows from it.

``format``
    The operand format, a :data:`FORMATS` entry: the bit fields of
    :data:`FIELDS` its word holds, and its assembler operands in order.
    :func:`~repro.isa.encoding.encode`,
    :func:`~repro.isa.encoding.decode`,
    :func:`~repro.isa.instructions.render` and the assembler's parser
    each loop over it; the delay-slot filler reads the registers the
    parser filled in.

The PSR's bit positions (:mod:`repro.core.psr`) are not here, and this
module imports nothing from :mod:`repro.core`.
"""

from repro.isa import registers
from repro.isa.instructions import LOAD_FLAVORS, STORE_FLAVORS, Opcode
from repro.isa.tags import WORD_MASK

CC = "cc"
FE = "fe"
PSR = "psr"
FP = "fp"
PC = "pc"

STRAIGHT = "straight"
LOAD = "load"
STORE = "store"
CONDITIONAL = "conditional"
REDIRECT = "redirect"
DELEGATED = "delegated"

#: The entries of ``reads``/``writes`` that name registers.
REGISTER_FIELDS = ("rs1", "rs2", "rd", "ra")

#: A word's bit fields below the opcode (bits 31..24): name ->
#: (``Instruction`` attribute, lowest bit, width, signed, what a range
#: error calls it).
FIELDS = {
    "rd": ("rd", 18, 6, False, "rd"),
    "rs1": ("rs1", 12, 6, False, "rs1"),
    "rs2": ("rs2", 0, 6, False, "rs2"),
    "imm11": ("imm", 0, 11, True, "imm11"),
    "imm12": ("imm", 0, 12, True, "imm12"),
    "imm18": ("imm", 0, 18, False, "imm18"),
    "off24": ("imm", 0, 24, True, "branch offset"),
    "vector8": ("imm", 0, 8, False, "trap vector"),
}

#: The ``rhs`` field is this bit and what it selects: clear, ``rs2``;
#: set, ``imm11`` (the immediate form, ``use_imm``).
I_BIT = 1 << 11


class Format:
    """One operand format.

    ``fields`` are the bit fields the word holds (:data:`FIELDS`, or
    ``"rhs"``); ``operands`` the assembler operands in order:
    ``"rd"``/``"rs1"`` (a register), ``"rhs"`` (a register, ``rs2``, or
    an ``imm11`` value), ``"address"`` (``[rs1+imm]``), ``"hilo"`` (a
    ``%hi:``/``%lo:`` half of a ``set`` or a value), ``"target"`` (a
    label or a branch offset in words) and ``"vector"`` (a trap vector).
    A field no operand names (``cmp``'s and ``flush``'s ``rd``) is still
    encoded and decoded, but never printed or parsed: it stays 0.
    """

    __slots__ = ("name", "fields", "operands")

    def __init__(self, name, fields, operands):
        self.name = name
        self.fields = fields
        self.operands = operands

    def __repr__(self):
        return "Format(%s)" % self.name


_MEMORY = ("rd", "rs1", "imm12")

#: Every operand format, by name.
FORMATS = {fmt.name: fmt for fmt in (
    Format("alu", ("rd", "rs1", "rhs"), ("rs1", "rhs", "rd")),
    Format("cmp", ("rd", "rs1", "rhs"), ("rs1", "rhs")),
    Format("wide", ("rd", "imm18"), ("rd", "hilo")),
    Format("load", _MEMORY, ("address", "rd")),
    Format("store", _MEMORY, ("rd", "address")),
    Format("flush", _MEMORY, ("address",)),
    Format("branch", ("off24",), ("target",)),
    Format("trap", ("vector8",), ("vector",)),
    Format("none", (), ()),
    Format("read", ("rd",), ("rd",)),
    Format("write", ("rs1",), ("rs1",)),
)}

_SIGN = 0x80000000


def _signed(word):
    """Template: the 32-bit ``word`` as a signed integer."""
    return "%s - %d if %s & %d else %s" % (word, 1 << 32, word, _SIGN, word)


_RES = "res = _t & %d" % WORD_MASK
_ADD = ("_t = {a} + {b}", _RES)
_SUB = ("_t = {a} - {b}", _RES)
_MUL = ("_sa = " + _signed("{a}"), "_sb = " + _signed("{b}"),
        "_t = (_sa >> 2) * _sb", _RES)
_QUOTIENT = ("_x = (%s) >> 2" % _signed("{a}"),
             "_y = (%s) >> 2" % _signed("{b}"),
             "_q = int(_x / _y) if _y else 0")

#: Per producer kind: the overflow test over ``res``, ``_t`` and the
#: operands ``{a}``/``{b}``, then the carry's set and clear tests.
#: Every kind's N and Z are the sign and zero of ``res``; a bit whose
#: test is ``None`` is always clear.
PRODUCERS = {
    "add": ("({a} ^ res) & ({b} ^ res) & %d" % _SIGN,
            "_t > %d" % WORD_MASK, "_t <= %d" % WORD_MASK),
    "sub": ("({a} ^ {b}) & ({a} ^ res) & %d" % _SIGN, "_t < 0", "_t >= 0"),
    "mul": ("not %d <= _t < %d" % (-(1 << 31), 1 << 31), None, None),
    "logic": (None, None, None),
}


class Row:
    """One opcode's facts (see the module docstring)."""

    __slots__ = ("op", "format", "shape", "reads", "writes", "alu", "kind",
                 "strict", "delayed", "condition")

    def __init__(self, op, fmt, shape, reads=(), writes=(), alu=None,
                 kind=None, strict=False, delayed=False, condition=None):
        self.op = op
        self.format = FORMATS[fmt]
        self.shape = shape
        self.reads = _whole(reads)
        self.writes = _whole(writes)
        self.alu = alu
        self.kind = kind
        self.strict = strict
        self.delayed = delayed
        self.condition = condition

    @property
    def private(self):
        """Touches only this processor's registers, condition codes and
        PC chain: what a run-ahead slice may carry behind its head."""
        return self.shape in (STRAIGHT, CONDITIONAL, REDIRECT)

    def registers(self, instr, fields):
        """Register numbers ``instr`` names in ``fields`` (this row's
        :attr:`reads` or :attr:`writes`), in order."""
        numbers = []
        for field in fields:
            if field == "ra":
                numbers.append(registers.RA)
            elif field in REGISTER_FIELDS and not (
                    field == "rs2" and instr.use_imm):
                numbers.append(getattr(instr, field))
        return numbers

    def __repr__(self):
        return "Row(%s, %s)" % (self.op.name, self.shape)


def _whole(state):
    """``state`` with the whole PSR spelled out: it holds CC and FE."""
    if PSR in state:
        return tuple(state) + (CC, FE)
    return tuple(state)


_RS = ("rs1", "rs2")
_SETS = ("rd", CC)
_JUMPS = (PC,)


def _branch(op, condition, reads=(CC, FP)):
    """A conditional branch's row."""
    return Row(op, "branch", CONDITIONAL, reads, _JUMPS, delayed=True,
               condition=condition)


_LESS = "(psr & {N} != 0) != (psr & {V} != 0)"

#: Every opcode's row, in opcode order.
TABLE = (
    # -- strict compute: future-detecting, sets N/Z/V/C ------------------
    Row(Opcode.ADD, "alu", STRAIGHT, _RS, _SETS, _ADD, "add", strict=True),
    Row(Opcode.SUB, "alu", STRAIGHT, _RS, _SETS, _SUB, "sub", strict=True),
    Row(Opcode.MUL, "alu", STRAIGHT, _RS, _SETS, _MUL, "mul", strict=True),
    Row(Opcode.DIV, "alu", DELEGATED, _RS, _SETS,
        _QUOTIENT + ("res = (_q << 2) & %d" % WORD_MASK,), "logic",
        strict=True),
    Row(Opcode.REM, "alu", DELEGATED, _RS, _SETS,
        _QUOTIENT + ("res = ((_x - _q * _y) << 2) & %d" % WORD_MASK,),
        "logic", strict=True),
    Row(Opcode.CMP, "cmp", STRAIGHT, _RS, (CC,), _SUB, "sub", strict=True),
    # -- raw logic: never traps, sets N/Z/V/C ----------------------------
    Row(Opcode.AND, "alu", STRAIGHT, _RS, _SETS, ("res = {a} & {b}",),
        "logic"),
    Row(Opcode.OR, "alu", STRAIGHT, _RS, _SETS, ("res = {a} | {b}",),
        "logic"),
    Row(Opcode.XOR, "alu", STRAIGHT, _RS, _SETS,
        ("res = ({a} ^ {b}) & %d" % WORD_MASK,), "logic"),
    Row(Opcode.ANDN, "alu", STRAIGHT, _RS, _SETS,
        ("res = {a} & ~{b} & %d" % WORD_MASK,), "logic"),
    Row(Opcode.SLL, "alu", STRAIGHT, _RS, _SETS,
        ("res = ({a} << ({b} & 31)) & %d" % WORD_MASK,), "logic"),
    Row(Opcode.SRL, "alu", STRAIGHT, _RS, _SETS,
        ("res = ({a} & %d) >> ({b} & 31)" % WORD_MASK,), "logic"),
    Row(Opcode.SRA, "alu", STRAIGHT, _RS, _SETS,
        ("res = ((%s) >> ({b} & 31)) & %d" % (_signed("{a}"), WORD_MASK),),
        "logic"),
    Row(Opcode.ADDR, "alu", STRAIGHT, _RS, _SETS, _ADD, "add"),
    Row(Opcode.SUBR, "alu", STRAIGHT, _RS, _SETS, _SUB, "sub"),
    # ``lui``/``oril`` build a constant and leave the PSR alone.
    Row(Opcode.LUI, "wide", STRAIGHT, (), ("rd",)),
    Row(Opcode.ORIL, "wide", STRAIGHT, ("rd",), ("rd",)),
    # -- memory (Table 2): every flavor sets the full/empty bit ----------
    *(Row(op, "load", LOAD, ("rs1",), ("rd", FE)) for op in LOAD_FLAVORS),
    *(Row(op, "store", STORE, ("rs1", "rd"), (FE,)) for op in STORE_FLAVORS),
    # -- branches ----------------------------------------------------------
    Row(Opcode.BA, "branch", REDIRECT, (FP,), _JUMPS, delayed=True),
    Row(Opcode.BN, "branch", STRAIGHT, (FP,), _JUMPS, delayed=True),
    _branch(Opcode.BE, "psr & {Z}"),
    _branch(Opcode.BNE, "not psr & {Z}"),
    _branch(Opcode.BL, _LESS),
    _branch(Opcode.BLE, "psr & {Z} or " + _LESS),
    _branch(Opcode.BG, "not (psr & {Z} or %s)" % _LESS),
    _branch(Opcode.BGE, "(psr & {N} != 0) == (psr & {V} != 0)"),
    _branch(Opcode.BNEG, "psr & {N}"),
    _branch(Opcode.BPOS, "not psr & {N}"),
    _branch(Opcode.BCS, "psr & {C}"),
    _branch(Opcode.BCC, "not psr & {C}"),
    _branch(Opcode.BVS, "psr & {V}"),
    _branch(Opcode.BVC, "not psr & {V}"),
    _branch(Opcode.JFULL, "psr & {FE}", (FE, FP)),
    _branch(Opcode.JEMPTY, "not psr & {FE}", (FE, FP)),
    # -- jumps: the link is written before the delay slot runs -----------
    Row(Opcode.JMPL, "load", REDIRECT, ("rs1", FP), ("rd", PC),
        delayed=True),
    Row(Opcode.CALL, "branch", REDIRECT, (FP,), ("ra", PC), delayed=True),
    # -- frame pointer (Section 4) ----------------------------------------
    Row(Opcode.INCFP, "none", DELEGATED, (FP,), (FP,)),
    Row(Opcode.DECFP, "none", DELEGATED, (FP,), (FP,)),
    Row(Opcode.RDFP, "read", DELEGATED, (FP,), ("rd",)),
    Row(Opcode.STFP, "write", DELEGATED, ("rs1",), (FP,)),
    # -- system: a trap, ``rett`` and ``halt`` leave the PC chain ---------
    Row(Opcode.TRAP, "trap", DELEGATED, (), (PC,)),
    Row(Opcode.RDPSR, "read", DELEGATED, (PSR,), ("rd",)),
    Row(Opcode.WRPSR, "write", DELEGATED, ("rs1",), (PSR,)),
    Row(Opcode.RETT, "none", DELEGATED, (), (PSR, PC)),
    Row(Opcode.NOP, "none", STRAIGHT),
    Row(Opcode.HALT, "none", DELEGATED, (), (PC,)),
    # -- out-of-band (Section 3.4) ----------------------------------------
    Row(Opcode.FLUSH, "flush", DELEGATED, ("rs1",)),
    Row(Opcode.LDIO, "load", DELEGATED, ("rs1",), ("rd",)),
    Row(Opcode.STIO, "store", DELEGATED, ("rs1", "rd")),
)

#: :data:`TABLE` by opcode.
ROWS = {row.op: row for row in TABLE}
