"""The APRIL Processor State Register (PSR).

Each task frame has its own 32-bit PSR (paper Section 3, Figure 2).  It
holds the ALU condition codes, the full/empty condition bit set by
non-trapping memory instructions (used by ``Jfull``/``Jempty``), the
trap-enable flag, and a software-visible thread-id field used by the
run-time system.

Bit layout (our choice; the paper leaves it unspecified):

====== ==============================================
Bits   Field
====== ==============================================
23     N — negative
22     Z — zero
21     V — overflow
20     C — carry
19     FE — full/empty condition bit (1 = full)
18     ET — traps enabled
15..0  TID — run-time thread-id tag
====== ==============================================

Where the fast rungs need these bits as Python source, this module
fills them into the :mod:`repro.isa.optable` templates:
:func:`condition_source` (a conditional branch's taken test) and
:func:`cc_source` (a producer's N/Z/V/C).  Generated code inlines both;
:mod:`repro.core.execops` compiles its branch tests and ALU cores from
the same text.  The reference interpreter keeps its own statements
(:mod:`repro.core.alu`).
"""

from repro.isa.optable import PRODUCERS, ROWS

N_BIT = 1 << 23
Z_BIT = 1 << 22
V_BIT = 1 << 21
C_BIT = 1 << 20
FE_BIT = 1 << 19
ET_BIT = 1 << 18
TID_MASK = 0xFFFF


def condition_source(op):
    """Branch ``op``'s taken test over ``psr`` (its table row's
    ``condition``) with the bits as integer literals."""
    return ROWS[op].condition.format(
        N=N_BIT, Z=Z_BIT, V=V_BIT, C=C_BIT, FE=FE_BIT)


def cc_source(kind, a, b):
    """Statements leaving producer ``kind``'s N/Z/V/C, as PSR bits, in
    ``_cc``: ``(depth, text)`` pairs over ``res``, ``_t`` and the
    operand expressions ``a`` and ``b``."""
    overflow, carry = PRODUCERS[kind][:2]
    lines = [(0, "_cc = %d if res == 0 else (%d if res & %d else 0)"
              % (Z_BIT, N_BIT, 0x80000000))]
    for test, bit in ((overflow, V_BIT), (carry, C_BIT)):
        if test is not None:
            lines.append((0, "if %s:" % test.format(a=a, b=b)))
            lines.append((1, "_cc |= %d" % bit))
    return lines


class PSR:
    """A mutable view over a 32-bit PSR value."""

    __slots__ = ("value",)

    def __init__(self, value=ET_BIT):
        self.value = value

    # -- condition codes ---------------------------------------------------

    def set_ccs(self, n, z, v, c):
        """Set all four ALU condition codes at once."""
        value = self.value & ~(N_BIT | Z_BIT | V_BIT | C_BIT)
        if n:
            value |= N_BIT
        if z:
            value |= Z_BIT
        if v:
            value |= V_BIT
        if c:
            value |= C_BIT
        self.value = value

    @property
    def n(self):
        return bool(self.value & N_BIT)

    @property
    def z(self):
        return bool(self.value & Z_BIT)

    @property
    def v(self):
        return bool(self.value & V_BIT)

    @property
    def c(self):
        return bool(self.value & C_BIT)

    # -- full/empty condition bit -------------------------------------------

    @property
    def fe(self):
        """Full/empty condition bit: True when the last tested word was full."""
        return bool(self.value & FE_BIT)

    @fe.setter
    def fe(self, full):
        if full:
            self.value |= FE_BIT
        else:
            self.value &= ~FE_BIT

    # -- trap enable -----------------------------------------------------------

    @property
    def traps_enabled(self):
        return bool(self.value & ET_BIT)

    @traps_enabled.setter
    def traps_enabled(self, enabled):
        if enabled:
            self.value |= ET_BIT
        else:
            self.value &= ~ET_BIT

    # -- thread id ---------------------------------------------------------------

    @property
    def tid(self):
        """Run-time system thread-id tag (software convention)."""
        return self.value & TID_MASK

    @tid.setter
    def tid(self, tid):
        self.value = (self.value & ~TID_MASK) | (tid & TID_MASK)

    def __repr__(self):
        flags = "".join(
            name if flag else name.lower()
            for name, flag in (
                ("N", self.n), ("Z", self.z), ("V", self.v), ("C", self.c),
                ("F", self.fe), ("E", self.traps_enabled),
            )
        )
        return "PSR(%s tid=%d)" % (flags, self.tid)
