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
"""

from repro.isa.instructions import Opcode

N_BIT = 1 << 23
Z_BIT = 1 << 22
V_BIT = 1 << 21
C_BIT = 1 << 20
FE_BIT = 1 << 19
ET_BIT = 1 << 18
TID_MASK = 0xFFFF

#: Each conditional branch's taken test as Python source over a PSR
#: word named ``psr``, the bits written ``{N}`` ``{Z}`` ``{V}`` ``{C}``
#: ``{FE}``: the one statement of them both fast rungs use
#: (:func:`condition_source`) — generated code inlines it,
#: :mod:`repro.core.execops` builds a test function from it.  The
#: reference interpreter keeps its own, :func:`repro.core.alu.
#: branch_taken`.
BRANCH_CONDITIONS = {
    Opcode.BE: "psr & {Z}",
    Opcode.BNE: "not psr & {Z}",
    Opcode.BL: "(psr & {N} != 0) != (psr & {V} != 0)",
    Opcode.BLE: "psr & {Z} or (psr & {N} != 0) != (psr & {V} != 0)",
    Opcode.BG: "not (psr & {Z} or (psr & {N} != 0) != (psr & {V} != 0))",
    Opcode.BGE: "(psr & {N} != 0) == (psr & {V} != 0)",
    Opcode.BNEG: "psr & {N}",
    Opcode.BPOS: "not psr & {N}",
    Opcode.BCS: "psr & {C}",
    Opcode.BCC: "not psr & {C}",
    Opcode.BVS: "psr & {V}",
    Opcode.BVC: "not psr & {V}",
    Opcode.JFULL: "psr & {FE}",
    Opcode.JEMPTY: "not psr & {FE}",
}


def condition_source(op):
    """Branch ``op``'s taken test with the bits as integer literals."""
    return BRANCH_CONDITIONS[op].format(
        N=N_BIT, Z=Z_BIT, V=V_BIT, C=C_BIT, FE=FE_BIT)


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
