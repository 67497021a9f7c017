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
  slot after every ``delayed`` op.

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

Bit layouts (:mod:`repro.isa.encoding`, :mod:`repro.core.psr`) and
assembler operand syntax are not here, and this module imports nothing
from :mod:`repro.core`.
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

    __slots__ = ("op", "shape", "reads", "writes", "alu", "kind", "strict",
                 "delayed", "condition")

    def __init__(self, op, shape, reads=(), writes=(), alu=None, kind=None,
                 strict=False, delayed=False, condition=None):
        self.op = op
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
_ON_CC = (CC, FP)
_JUMPS = (PC,)

#: Every opcode's row, in opcode order.
TABLE = (
    # -- strict compute: future-detecting, sets N/Z/V/C ------------------
    Row(Opcode.ADD, STRAIGHT, _RS, _SETS, _ADD, "add", strict=True),
    Row(Opcode.SUB, STRAIGHT, _RS, _SETS, _SUB, "sub", strict=True),
    Row(Opcode.MUL, STRAIGHT, _RS, _SETS, _MUL, "mul", strict=True),
    Row(Opcode.DIV, DELEGATED, _RS, _SETS,
        _QUOTIENT + ("res = (_q << 2) & %d" % WORD_MASK,), "logic",
        strict=True),
    Row(Opcode.REM, DELEGATED, _RS, _SETS,
        _QUOTIENT + ("res = ((_x - _q * _y) << 2) & %d" % WORD_MASK,),
        "logic", strict=True),
    Row(Opcode.CMP, STRAIGHT, _RS, (CC,), _SUB, "sub", strict=True),
    # -- raw logic: never traps, sets N/Z/V/C ----------------------------
    Row(Opcode.AND, STRAIGHT, _RS, _SETS, ("res = {a} & {b}",), "logic"),
    Row(Opcode.OR, STRAIGHT, _RS, _SETS, ("res = {a} | {b}",), "logic"),
    Row(Opcode.XOR, STRAIGHT, _RS, _SETS,
        ("res = ({a} ^ {b}) & %d" % WORD_MASK,), "logic"),
    Row(Opcode.ANDN, STRAIGHT, _RS, _SETS,
        ("res = {a} & ~{b} & %d" % WORD_MASK,), "logic"),
    Row(Opcode.SLL, STRAIGHT, _RS, _SETS,
        ("res = ({a} << ({b} & 31)) & %d" % WORD_MASK,), "logic"),
    Row(Opcode.SRL, STRAIGHT, _RS, _SETS,
        ("res = ({a} & %d) >> ({b} & 31)" % WORD_MASK,), "logic"),
    Row(Opcode.SRA, STRAIGHT, _RS, _SETS,
        ("res = ((%s) >> ({b} & 31)) & %d" % (_signed("{a}"), WORD_MASK),),
        "logic"),
    Row(Opcode.ADDR, STRAIGHT, _RS, _SETS, _ADD, "add"),
    Row(Opcode.SUBR, STRAIGHT, _RS, _SETS, _SUB, "sub"),
    # ``lui``/``oril`` build a constant and leave the PSR alone.
    Row(Opcode.LUI, STRAIGHT, (), ("rd",)),
    Row(Opcode.ORIL, STRAIGHT, ("rd",), ("rd",)),
    # -- memory (Table 2): every flavor sets the full/empty bit ----------
    *(Row(op, LOAD, ("rs1",), ("rd", FE)) for op in LOAD_FLAVORS),
    *(Row(op, STORE, ("rs1", "rd"), (FE,)) for op in STORE_FLAVORS),
    # -- branches ----------------------------------------------------------
    Row(Opcode.BA, REDIRECT, (FP,), _JUMPS, delayed=True),
    Row(Opcode.BN, STRAIGHT, (FP,), _JUMPS, delayed=True),
    Row(Opcode.BE, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="psr & {Z}"),
    Row(Opcode.BNE, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="not psr & {Z}"),
    Row(Opcode.BL, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="(psr & {N} != 0) != (psr & {V} != 0)"),
    Row(Opcode.BLE, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="psr & {Z} or (psr & {N} != 0) != (psr & {V} != 0)"),
    Row(Opcode.BG, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="not (psr & {Z} or (psr & {N} != 0) != (psr & {V} != 0))"),
    Row(Opcode.BGE, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="(psr & {N} != 0) == (psr & {V} != 0)"),
    Row(Opcode.BNEG, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="psr & {N}"),
    Row(Opcode.BPOS, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="not psr & {N}"),
    Row(Opcode.BCS, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="psr & {C}"),
    Row(Opcode.BCC, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="not psr & {C}"),
    Row(Opcode.BVS, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="psr & {V}"),
    Row(Opcode.BVC, CONDITIONAL, _ON_CC, _JUMPS, delayed=True,
        condition="not psr & {V}"),
    Row(Opcode.JFULL, CONDITIONAL, (FE, FP), _JUMPS, delayed=True,
        condition="psr & {FE}"),
    Row(Opcode.JEMPTY, CONDITIONAL, (FE, FP), _JUMPS, delayed=True,
        condition="not psr & {FE}"),
    # -- jumps: the link is written before the delay slot runs -----------
    Row(Opcode.JMPL, REDIRECT, ("rs1", FP), ("rd", PC), delayed=True),
    Row(Opcode.CALL, REDIRECT, (FP,), ("ra", PC), delayed=True),
    # -- frame pointer (Section 4) ----------------------------------------
    Row(Opcode.INCFP, DELEGATED, (FP,), (FP,)),
    Row(Opcode.DECFP, DELEGATED, (FP,), (FP,)),
    Row(Opcode.RDFP, DELEGATED, (FP,), ("rd",)),
    Row(Opcode.STFP, DELEGATED, ("rs1",), (FP,)),
    # -- system: a trap, ``rett`` and ``halt`` leave the PC chain ---------
    Row(Opcode.TRAP, DELEGATED, (), (PC,)),
    Row(Opcode.RDPSR, DELEGATED, (PSR,), ("rd",)),
    Row(Opcode.WRPSR, DELEGATED, ("rs1",), (PSR,)),
    Row(Opcode.RETT, DELEGATED, (), (PSR, PC)),
    Row(Opcode.NOP, STRAIGHT),
    Row(Opcode.HALT, DELEGATED, (), (PC,)),
    # -- out-of-band (Section 3.4) ----------------------------------------
    Row(Opcode.FLUSH, DELEGATED, ("rs1",)),
    Row(Opcode.LDIO, DELEGATED, ("rs1",), ("rd",)),
    Row(Opcode.STIO, DELEGATED, ("rs1", "rd")),
)

#: :data:`TABLE` by opcode.
ROWS = {row.op: row for row in TABLE}
