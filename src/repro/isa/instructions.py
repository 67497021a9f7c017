"""The APRIL instruction set (paper Section 4, Tables 1 and 2).

APRIL is a basic RISC instruction set augmented with special memory
instructions for full/empty-bit operations, multithreading, and cache
support.  The categories follow Table 1 of the paper:

* **Compute** — three-address register-to-register ALU operations.
  Condition codes are set as a side effect.  *Strict* compute
  instructions (arithmetic, compare) trap when an operand is a future
  (detected by its set least-significant bit, Section 4).
* **Memory** — loads/stores interacting with the cache controller and
  the full/empty bits.  The eight load flavors of Table 2 (and the
  symmetric eight stores) are enumerated here with their trap/wait and
  set-bit semantics.
* **Branch / jump** — conditional branches on ALU condition codes, the
  ``Jfull``/``Jempty`` branches on the full/empty condition bit, and the
  ``jmpl`` jump-and-link.
* **Frame pointer** — ``INCFP``/``DECFP``/``RDFP``/``STFP`` manipulate
  the task-frame pointer (Section 4).
* **Trap / PSR** — software traps (the run-time system's entry points),
  ``rdpsr``/``wrpsr``, and ``rett``.
* **Out-of-band** — ``FLUSH``, ``LDIO``, ``STIO`` for the multimodel
  mechanisms of Section 3.4 (software coherence, IPIs, block transfer,
  fence).
"""

import enum

from repro.isa import registers


class Category(enum.Enum):
    """Broad instruction classes, mirroring Table 1."""

    COMPUTE = "compute"   # strict ALU ops: future-detecting, set CCs
    LOGIC = "logic"       # raw bit ops: no strictness, set CCs
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    FRAME = "frame"       # FP manipulation
    SYSTEM = "system"     # trap, rdpsr/wrpsr, rett, nop
    OOB = "oob"           # out-of-band: flush, ldio, stio


class Opcode(enum.IntEnum):
    """All APRIL opcodes.  Values are the 8-bit opcode field."""

    # -- strict compute (trap on future operand, set condition codes) --
    ADD = 0x01
    SUB = 0x02
    MUL = 0x03
    DIV = 0x04       # truncating quotient
    REM = 0x05       # remainder
    CMP = 0x06       # subtract, set CCs, discard result

    # -- raw logic / address arithmetic (no future trap, set CCs) --
    AND = 0x10
    OR = 0x11
    XOR = 0x12
    ANDN = 0x13
    SLL = 0x14
    SRL = 0x15
    SRA = 0x16
    ADDR = 0x17      # raw add: address arithmetic / tag manipulation
    SUBR = 0x18      # raw subtract
    LUI = 0x19       # rd = imm18 << 14
    ORIL = 0x1A      # rd |= imm18 (low bits); pairs with LUI for SET

    # -- loads (Table 2): ld[e][t|n][t|w] --------------------------------
    # naming: optional 'e' = set f/e bit to Empty after the load;
    # then Trap / No-trap on an empty location;
    # then Trap / Wait on a remote cache miss.
    LDTT = 0x20
    LDETT = 0x21
    LDNT = 0x22
    LDENT = 0x23
    LDNW = 0x24
    LDENW = 0x25
    LDTW = 0x26
    LDETW = 0x27
    LDR = 0x28       # raw load: ignores f/e and future-address traps
                     # (run-time system internal; waits on miss)

    # -- stores: st[f][t|n][t|w]; trap on *full* locations ---------------
    STTT = 0x30
    STFTT = 0x31
    STNT = 0x32
    STFNT = 0x33
    STNW = 0x34
    STFNW = 0x35
    STTW = 0x36
    STFTW = 0x37
    STR = 0x38       # raw store (run-time internal; waits on miss)

    # -- branches (PC-relative, 24-bit word offset) -----------------------
    BA = 0x40
    BN = 0x41        # branch never (useful as annulled nop slot)
    BE = 0x42
    BNE = 0x43
    BL = 0x44        # signed less
    BLE = 0x45
    BG = 0x46
    BGE = 0x47
    BNEG = 0x48
    BPOS = 0x49
    BCS = 0x4A       # carry set (unsigned less)
    BCC = 0x4B
    BVS = 0x4C
    BVC = 0x4D
    JFULL = 0x4E     # branch if full/empty condition bit says "full"
    JEMPTY = 0x4F

    # -- jumps -------------------------------------------------------------
    JMPL = 0x50      # rd <- return PC; PC <- R[rs1] + imm
    CALL = 0x51      # ra <- return PC; PC <- PC + offset (24-bit)

    # -- frame pointer manipulation (Section 4) ----------------------------
    INCFP = 0x58
    DECFP = 0x59
    RDFP = 0x5A
    STFP = 0x5B

    # -- system -------------------------------------------------------------
    TRAP = 0x60      # software trap to vector imm
    RDPSR = 0x61
    WRPSR = 0x62
    RETT = 0x63      # return from trap (retry or resume per trap frame)
    NOP = 0x64
    HALT = 0x65      # stop this processor (simulator control)

    # -- out-of-band (Section 3.4 mechanisms) -------------------------------
    FLUSH = 0x70     # write back + invalidate the cache line of [rs1+imm]
    LDIO = 0x71      # memory-mapped I/O read (fence counter, IPI status)
    STIO = 0x72      # memory-mapped I/O write (IPI send, block transfer)


class LoadFlavor:
    """Semantics of one load opcode (a row of Table 2)."""

    __slots__ = ("set_empty", "trap_on_empty", "wait_on_miss", "raw")

    def __init__(self, set_empty, trap_on_empty, wait_on_miss, raw=False):
        self.set_empty = set_empty
        self.trap_on_empty = trap_on_empty
        self.wait_on_miss = wait_on_miss
        self.raw = raw


class StoreFlavor:
    """Semantics of one store opcode (mirror of Table 2 for stores)."""

    __slots__ = ("set_full", "trap_on_full", "wait_on_miss", "raw")

    def __init__(self, set_full, trap_on_full, wait_on_miss, raw=False):
        self.set_full = set_full
        self.trap_on_full = trap_on_full
        self.wait_on_miss = wait_on_miss
        self.raw = raw


#: Table 2 of the paper, transcribed.  "wait_on_miss" False means the
#: controller traps the processor on a remote miss (forcing a context
#: switch); True means it holds the processor until the data arrives.
LOAD_FLAVORS = {
    Opcode.LDTT: LoadFlavor(False, True, False),
    Opcode.LDETT: LoadFlavor(True, True, False),
    Opcode.LDNT: LoadFlavor(False, False, False),
    Opcode.LDENT: LoadFlavor(True, False, False),
    Opcode.LDNW: LoadFlavor(False, False, True),
    Opcode.LDENW: LoadFlavor(True, False, True),
    Opcode.LDTW: LoadFlavor(False, True, True),
    Opcode.LDETW: LoadFlavor(True, True, True),
    Opcode.LDR: LoadFlavor(False, False, True, raw=True),
}

STORE_FLAVORS = {
    Opcode.STTT: StoreFlavor(False, True, False),
    Opcode.STFTT: StoreFlavor(True, True, False),
    Opcode.STNT: StoreFlavor(False, False, False),
    Opcode.STFNT: StoreFlavor(True, False, False),
    Opcode.STNW: StoreFlavor(False, False, True),
    Opcode.STFNW: StoreFlavor(True, False, True),
    Opcode.STTW: StoreFlavor(False, True, True),
    Opcode.STFTW: StoreFlavor(True, True, True),
    Opcode.STR: StoreFlavor(True, False, True, raw=True),
}

_CATEGORY_RANGES = (
    (0x01, 0x06, Category.COMPUTE),
    (0x10, 0x1A, Category.LOGIC),
    (0x20, 0x28, Category.LOAD),
    (0x30, 0x38, Category.STORE),
    (0x40, 0x4F, Category.BRANCH),
    (0x50, 0x51, Category.JUMP),
    (0x58, 0x5B, Category.FRAME),
    (0x60, 0x65, Category.SYSTEM),
    (0x70, 0x72, Category.OOB),
)


#: Opcode value -> :class:`Category`, built once from the ranges.
_CATEGORIES = {value: cat for lo, hi, cat in _CATEGORY_RANGES
               for value in range(lo, hi + 1)}


def category_of(opcode):
    """Return the :class:`Category` of an opcode."""
    try:
        return _CATEGORIES[opcode]
    except KeyError:
        raise ValueError("unknown opcode: %r" % (opcode,)) from None


class Instruction:
    """A decoded APRIL instruction.

    ``rd``/``rs1``/``rs2`` are encoded register numbers (0..39); ``imm``
    is a signed immediate (its width depends on the format); ``use_imm``
    selects the I-form of three-operand instructions.
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "use_imm", "_sources")

    def __init__(self, op, rd=0, rs1=0, rs2=0, imm=0, use_imm=False):
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.use_imm = use_imm

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.op == other.op
            and self.rd == other.rd
            and self.rs1 == other.rs1
            and self.rs2 == other.rs2
            and self.imm == other.imm
            and self.use_imm == other.use_imm
        )

    def __hash__(self):
        return hash((self.op, self.rd, self.rs1, self.rs2, self.imm, self.use_imm))

    def __repr__(self):
        return "Instruction(%s, rd=%d, rs1=%d, rs2=%d, imm=%d, use_imm=%s)" % (
            self.op.name, self.rd, self.rs1, self.rs2, self.imm, self.use_imm
        )

    @property
    def category(self):
        """The instruction's :class:`Category` (one table lookup)."""
        return _CATEGORIES[self.op]

    def source_registers(self):
        """Encoded register numbers this instruction reads: its
        :mod:`~repro.isa.optable` row's ``reads``, as a tuple computed
        at the first call (a decoded instruction is shared and never
        changes after decode)."""
        try:
            return self._sources
        except AttributeError:
            row = optable.ROWS[self.op]
            self._sources = tuple(row.registers(self, row.reads))
            return self._sources


def render_operand(value):
    """Format an immediate for disassembly."""
    if -4096 < value < 4096:
        return str(value)
    return hex(value)


_rn = registers.register_name

#: Per operand kind of a :class:`~repro.isa.optable.Format`: its text.
_OPERAND_TEXT = {
    "rd": lambda instr: _rn(instr.rd),
    "rs1": lambda instr: _rn(instr.rs1),
    "rhs": lambda instr: (render_operand(instr.imm) if instr.use_imm
                          else _rn(instr.rs2)),
    "address": lambda instr: "[%s%+d]" % (_rn(instr.rs1), instr.imm),
    "hilo": lambda instr: render_operand(instr.imm),
    "target": lambda instr: render_operand(instr.imm),
    "vector": lambda instr: "%d" % instr.imm,
}


def render(instr):
    """Disassemble one :class:`Instruction` to canonical assembly text:
    its mnemonic, then its format's operands."""
    name = instr.op.name.lower()
    operands = [_OPERAND_TEXT[kind](instr)
                for kind in optable.ROWS[instr.op].format.operands]
    return "%s %s" % (name, ", ".join(operands)) if operands else name


# Last: the table's rows are keyed by the opcodes defined above.
from repro.isa import optable  # noqa: E402
