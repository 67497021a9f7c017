"""Predecoded execution handlers: the interpreter's translation cache.

The classic cure for a fetch -> decode -> if-chain interpreter loop is
threaded code: translate each instruction *once* into a directly
callable handler and dispatch through a table instead of re-walking the
if-chain on every execution.  This module is that translation layer for
the APRIL simulator.

:func:`build_entry` compiles one decoded
:class:`~repro.isa.instructions.Instruction` into an :class:`ExecEntry`
via :data:`DISPATCH`, an opcode-indexed table of handler factories.
Each factory unpacks the operand fields into Python locals at
*predecode* time:

* register numbers are classified once (hardwired zero / frame-relative
  / global) so the per-execution access is a bare list index instead of
  a ``read_reg``/``write_reg`` call;
* immediates are masked/scaled once (``imm & WORD_MASK``, branch
  offsets pre-multiplied by 4);
* condition-code updates write the PSR bits directly instead of going
  through four property setters.

The resulting ``run(cpu, frame, pc, npc)`` closure has *identical
architectural semantics* to the reference ``Processor._execute``
if-chain it replaces — same results, same trap conditions and payloads,
same cycle categories in the same order — which the differential
lockstep harness (``tests/core/test_lockstep.py``) enforces
instruction-for-instruction.

These closures are the first of the fast path's two rungs:
:meth:`~repro.core.processor.Processor.step` dispatches one ``run``
closure per instruction.  The second, from a block start's first
visit on, is :mod:`repro.core.jit`: a whole block compiled into one
generated Python function (operands baked as constants, registers
flattened to locals, accounting batched) with these same ``run``
closures as the delegation target for whatever the generated code does
not inline.  Both rungs are held to the same lockstep contract against
the reference if-chain; they share their branch conditions
(:data:`repro.core.psr.BRANCH_CONDITIONS`).

Cycle accounting contract: handlers charge "useful" cycles inline
(``cpu.cycles``/``stats.useful``/``stats._total``); all other
categories go through ``cpu.charge``.  Nothing observes a charge — the
lifetime accountant reads the counters by difference — but the three
instructions that move FP change who the next cycles belong to, so they
let it settle first (``cpu.events.lifetime``, after their own cycle).
"""

from repro.core.psr import (
    BRANCH_CONDITIONS,
    C_BIT,
    FE_BIT,
    N_BIT,
    V_BIT,
    Z_BIT,
    condition_source,
)
from repro.core.traps import Trap, TrapKind, TrapSignal
from repro.errors import ProcessorError
from repro.isa import registers
from repro.isa.instructions import (
    LOAD_FLAVORS,
    STORE_FLAVORS,
    STRICT_COMPUTE,
    Category,
    Opcode,
    category_of,
)
from repro.isa.tags import WORD_MASK

_GLOBAL_BASE = registers.GLOBAL_BASE
_CC_MASK = N_BIT | Z_BIT | V_BIT | C_BIT
_SIGN_BIT = 0x80000000


class ExecEntry:
    """One predecoded instruction: the unit of the translation cache.

    Attributes:
        instr: the decoded :class:`Instruction` (for hooks/disassembly).
        run: ``run(cpu, frame, pc, npc) -> (next_pc, next_npc)``; full
            semantics including cycle charges; raises
            :class:`TrapSignal` exactly like the reference interpreter.
    """

    __slots__ = ("instr", "run")

    def __init__(self, instr, run):
        self.instr = instr
        self.run = run

    def __repr__(self):
        return "ExecEntry(%r)" % (self.instr,)


# -- ALU cores: (a, b) -> (result, cc_bits) ------------------------------------
#
# Bit-for-bit the formulas of :mod:`repro.core.alu`, but returning the
# condition codes pre-packed as PSR bits so handlers can splice them in
# with one mask-and-or instead of four property writes.

def _cc(result):
    if result == 0:
        return Z_BIT
    if result & _SIGN_BIT:
        return N_BIT
    return 0


def _core_add(a, b):
    total = a + b
    result = total & WORD_MASK
    cc = _cc(result)
    if (a ^ result) & (b ^ result) & _SIGN_BIT:
        cc |= V_BIT
    if total > WORD_MASK:
        cc |= C_BIT
    return result, cc


def _core_sub(a, b):
    total = a - b
    result = total & WORD_MASK
    cc = _cc(result)
    if (a ^ b) & (a ^ result) & _SIGN_BIT:
        cc |= V_BIT
    if total < 0:
        cc |= C_BIT
    return result, cc


def _core_mul(a, b):
    sa = a - 0x100000000 if a & _SIGN_BIT else a
    sb = b - 0x100000000 if b & _SIGN_BIT else b
    product = (sa >> 2) * sb
    result = product & WORD_MASK
    cc = _cc(result)
    if not -(1 << 31) <= product < (1 << 31):
        cc |= V_BIT
    return result, cc


_ALU_CORES = {
    Opcode.ADD: _core_add,
    Opcode.SUB: _core_sub,
    Opcode.CMP: _core_sub,
    Opcode.ADDR: _core_add,
    Opcode.SUBR: _core_sub,
    Opcode.MUL: _core_mul,
    Opcode.AND: lambda a, b: ((a & b), _cc(a & b)),
    Opcode.OR: lambda a, b: ((a | b), _cc(a | b)),
    Opcode.XOR: lambda a, b: (((a ^ b) & WORD_MASK), _cc((a ^ b) & WORD_MASK)),
    Opcode.ANDN: lambda a, b: ((a & ~b & WORD_MASK), _cc(a & ~b & WORD_MASK)),
    Opcode.SLL: lambda a, b: (
        ((a << (b & 31)) & WORD_MASK), _cc((a << (b & 31)) & WORD_MASK)),
    Opcode.SRL: lambda a, b: (
        ((a & WORD_MASK) >> (b & 31)), _cc((a & WORD_MASK) >> (b & 31))),
    Opcode.SRA: lambda a, b: (
        (((a - 0x100000000 if a & _SIGN_BIT else a) >> (b & 31)) & WORD_MASK),
        _cc(((a - 0x100000000 if a & _SIGN_BIT else a) >> (b & 31)) & WORD_MASK)),
}


# -- branch condition tests on the raw PSR word --------------------------------

#: ``test(psr) -> truthy`` per conditional branch, each built once from
#: the source generated code inlines.
_BRANCH_TESTS = {op: eval("lambda psr: " + condition_source(op))
                 for op in BRANCH_CONDITIONS}


# -- factory helpers -----------------------------------------------------------

def _reg_plan(number):
    """(is_frame_relative, index) access plan for an encoded register."""
    if number < _GLOBAL_BASE:
        return True, number
    return False, number - _GLOBAL_BASE


# -- ALU (COMPUTE / LOGIC) -----------------------------------------------------

def _run_one_cycle(cpu, frame, pc, npc):
    """``NOP`` and ``BN``: one useful cycle, and on to the next pc."""
    cpu.cycles += 1
    stats = cpu.stats
    stats.useful += 1
    stats._total += 1
    return npc, npc + 4


def _factory_lui(instr):
    rd = instr.rd
    value = (instr.imm << 14) & WORD_MASK
    rdf, gd = _reg_plan(rd)

    def run(cpu, frame, pc, npc):
        if rd:
            if rdf:
                frame.regs[rd] = value
            else:
                cpu.globals[gd] = value
        cpu.cycles += 1
        stats = cpu.stats
        stats.useful += 1
        stats._total += 1
        return npc, npc + 4

    return ExecEntry(instr, run)


def _factory_oril(instr):
    rd = instr.rd
    imm = instr.imm
    rdf, gd = _reg_plan(rd)

    def run(cpu, frame, pc, npc):
        if rd:
            if rdf:
                frame.regs[rd] |= imm
            else:
                cpu.globals[gd] = (cpu.globals[gd] | imm) & WORD_MASK
        cpu.cycles += 1
        stats = cpu.stats
        stats.useful += 1
        stats._total += 1
        return npc, npc + 4

    return ExecEntry(instr, run)


def _factory_alu(instr):
    op = instr.op
    if op is Opcode.LUI:
        return _factory_lui(instr)
    if op is Opcode.ORIL:
        return _factory_oril(instr)

    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
    use_imm = instr.use_imm
    imm_w = instr.imm & WORD_MASK
    rs1f, g1 = _reg_plan(rs1)
    rs2f, g2 = _reg_plan(rs2)
    rdf, gd = _reg_plan(rd)
    write_rd = bool(rd) and op is not Opcode.CMP
    opname = op.name

    if op is Opcode.DIV or op is Opcode.REM:
        is_div = op is Opcode.DIV

        def run(cpu, frame, pc, npc):
            regs = frame.regs
            a = regs[rs1] if rs1f else cpu.globals[g1]
            b = imm_w if use_imm else (
                regs[rs2] if rs2f else cpu.globals[g2])
            if (a | b) & 1:
                raise TrapSignal(Trap(
                    TrapKind.FUTURE_COMPUTE, instr=instr, pc=pc,
                    value=a if a & 1 else b, cause=opname))
            if b == 0:
                raise TrapSignal(Trap(
                    TrapKind.ILLEGAL, instr=instr, pc=pc,
                    cause="divide by zero"))
            x = (a - 0x100000000 if a & _SIGN_BIT else a) >> 2
            y = (b - 0x100000000 if b & _SIGN_BIT else b) >> 2
            quotient = int(x / y) if y else 0
            if is_div:
                result = (quotient << 2) & WORD_MASK
            else:
                result = ((x - quotient * y) << 2) & WORD_MASK
            psr = frame.psr
            psr.value = (psr.value & ~_CC_MASK) | _cc(result)
            if write_rd:
                if rdf:
                    regs[rd] = result
                else:
                    cpu.globals[gd] = result
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
            return npc, npc + 4

        return ExecEntry(instr, run)

    core = _ALU_CORES[op]
    # Raw logic is not strict: it never traps.
    strict = op in STRICT_COMPUTE

    def run(cpu, frame, pc, npc):
        regs = frame.regs
        a = regs[rs1] if rs1f else cpu.globals[g1]
        b = imm_w if use_imm else (regs[rs2] if rs2f else cpu.globals[g2])
        if strict and (a | b) & 1:
            raise TrapSignal(Trap(
                TrapKind.FUTURE_COMPUTE, instr=instr, pc=pc,
                value=a if a & 1 else b, cause=opname))
        result, cc = core(a, b)
        psr = frame.psr
        psr.value = (psr.value & ~_CC_MASK) | cc
        if write_rd:
            if rdf:
                regs[rd] = result
            else:
                cpu.globals[gd] = result
        cpu.cycles += 1
        stats = cpu.stats
        stats.useful += 1
        stats._total += 1
        return npc, npc + 4

    return ExecEntry(instr, run)


# -- memory --------------------------------------------------------------------

def _factory_load(instr):
    flavor = LOAD_FLAVORS[instr.op]
    raw = flavor.raw
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm
    rs1f, g1 = _reg_plan(rs1)
    rdf, gd = _reg_plan(rd)

    def run(cpu, frame, pc, npc):
        regs = frame.regs
        base = regs[rs1] if rs1f else cpu.globals[g1]
        if not raw and base & 1:
            raise TrapSignal(Trap(
                TrapKind.FUTURE_ADDRESS, instr=instr, pc=pc, value=base))
        address = (base + imm) & WORD_MASK
        if address & 3:
            raise TrapSignal(Trap(
                TrapKind.ALIGNMENT, instr=instr, pc=pc, address=address))
        outcome = cpu.port.load(address, flavor, context=cpu)
        cycles = outcome.cycles
        if not outcome.ok:
            cpu.charge(cycles - 1 if cycles > 1 else 0, "stall")
            cpu.charge(1)
            raise TrapSignal(Trap(
                outcome.trap_kind, instr=instr, pc=pc, address=address,
                cause=outcome.detail))
        cpu.cycles += 1
        stats = cpu.stats
        stats.useful += 1
        stats._total += 1
        if cycles > 1:
            cpu.charge(cycles - 1, "stall")
        psr = frame.psr
        if outcome.fe_full:
            psr.value |= FE_BIT
        else:
            psr.value &= ~FE_BIT
        if rd:
            value = outcome.value & WORD_MASK
            if rdf:
                regs[rd] = value
            else:
                cpu.globals[gd] = value
        if cpu.watch_hook is not None:
            cpu.watch_hook(cpu, pc, address, True, outcome)
        return npc, npc + 4

    return ExecEntry(instr, run)


def _factory_store(instr):
    flavor = STORE_FLAVORS[instr.op]
    raw = flavor.raw
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm
    rs1f, g1 = _reg_plan(rs1)
    rdf, gd = _reg_plan(rd)

    def run(cpu, frame, pc, npc):
        regs = frame.regs
        base = regs[rs1] if rs1f else cpu.globals[g1]
        if not raw and base & 1:
            raise TrapSignal(Trap(
                TrapKind.FUTURE_ADDRESS, instr=instr, pc=pc, value=base))
        address = (base + imm) & WORD_MASK
        if address & 3:
            raise TrapSignal(Trap(
                TrapKind.ALIGNMENT, instr=instr, pc=pc, address=address))
        value = regs[rd] if rdf else cpu.globals[gd]
        outcome = cpu.port.store(address, value, flavor, context=cpu)
        cycles = outcome.cycles
        if not outcome.ok:
            cpu.charge(cycles - 1 if cycles > 1 else 0, "stall")
            cpu.charge(1)
            raise TrapSignal(Trap(
                outcome.trap_kind, instr=instr, pc=pc, address=address,
                cause=outcome.detail))
        cpu.cycles += 1
        stats = cpu.stats
        stats.useful += 1
        stats._total += 1
        if cycles > 1:
            cpu.charge(cycles - 1, "stall")
        psr = frame.psr
        if outcome.fe_full:
            psr.value |= FE_BIT
        else:
            psr.value &= ~FE_BIT
        if cpu.watch_hook is not None:
            cpu.watch_hook(cpu, pc, address, False, outcome)
        return npc, npc + 4

    return ExecEntry(instr, run)


# -- control flow --------------------------------------------------------------

def _factory_branch(instr):
    op = instr.op
    off = 4 * instr.imm

    if op is Opcode.BA:

        def run(cpu, frame, pc, npc):
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
            return npc, pc + off

    elif op is Opcode.BN:
        run = _run_one_cycle

    else:
        test = _BRANCH_TESTS[op]

        def run(cpu, frame, pc, npc):
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
            if test(frame.psr.value):
                return npc, pc + off
            return npc, npc + 4

    return ExecEntry(instr, run)


def _factory_call(instr):
    off = 4 * instr.imm
    ra = registers.RA

    def run(cpu, frame, pc, npc):
        cpu.cycles += 1
        stats = cpu.stats
        stats.useful += 1
        stats._total += 1
        frame.regs[ra] = (pc + 8) & WORD_MASK
        return npc, pc + off

    return ExecEntry(instr, run)


def _factory_jmpl(instr):
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm
    rs1f, g1 = _reg_plan(rs1)
    rdf, gd = _reg_plan(rd)

    def run(cpu, frame, pc, npc):
        cpu.cycles += 1
        stats = cpu.stats
        stats.useful += 1
        stats._total += 1
        regs = frame.regs
        base = regs[rs1] if rs1f else cpu.globals[g1]
        target = (base + imm) & WORD_MASK
        if rd:
            link = (pc + 8) & WORD_MASK
            if rdf:
                regs[rd] = link
            else:
                cpu.globals[gd] = link
        return npc, target

    return ExecEntry(instr, run)


# -- frame pointer -------------------------------------------------------------

def _factory_frame(instr):
    op = instr.op
    rd, rs1 = instr.rd, instr.rs1
    rdf, gd = _reg_plan(rd)
    rs1f, g1 = _reg_plan(rs1)

    def run(cpu, frame, pc, npc):
        cpu.cycles += 1
        stats = cpu.stats
        stats.useful += 1
        stats._total += 1
        if op is Opcode.RDFP:
            if rd:
                if rdf:
                    frame.regs[rd] = cpu.fp
                else:
                    cpu.globals[gd] = cpu.fp
            return npc, npc + 4
        lifetime = cpu.events.lifetime
        if lifetime is not None:
            # The cycles so far, this one included, ran in this frame.
            lifetime.settle(cpu)
        count = len(cpu.frames)
        if op is Opcode.INCFP:
            cpu.fp = (cpu.fp + 1) % count
        elif op is Opcode.DECFP:
            cpu.fp = (cpu.fp - 1) % count
        else:  # STFP
            value = frame.regs[rs1] if rs1f else cpu.globals[g1]
            cpu.fp = value % count
        return npc, npc + 4

    return ExecEntry(instr, run)


# -- system --------------------------------------------------------------------

def _factory_system(instr):
    op = instr.op

    if op is Opcode.NOP:
        return ExecEntry(instr, _run_one_cycle)

    if op is Opcode.HALT:

        def run(cpu, frame, pc, npc):
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
            cpu.halted = True
            return pc, npc  # PC frozen at the halt

        return ExecEntry(instr, run)

    if op is Opcode.TRAP:
        vector = instr.imm

        def run(cpu, frame, pc, npc):
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
            raise TrapSignal(Trap(
                TrapKind.SOFTWARE, vector=vector, instr=instr, pc=pc))

        return ExecEntry(instr, run)

    if op is Opcode.RDPSR:
        rd = instr.rd
        rdf, gd = _reg_plan(rd)

        def run(cpu, frame, pc, npc):
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
            if rd:
                value = frame.psr.value & WORD_MASK
                if rdf:
                    frame.regs[rd] = value
                else:
                    cpu.globals[gd] = value
            return npc, npc + 4

        return ExecEntry(instr, run)

    if op is Opcode.WRPSR:
        rs1 = instr.rs1
        rs1f, g1 = _reg_plan(rs1)

        def run(cpu, frame, pc, npc):
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
            frame.psr.value = (
                frame.regs[rs1] if rs1f else cpu.globals[g1])
            return npc, npc + 4

        return ExecEntry(instr, run)

    if op is Opcode.RETT:

        def run(cpu, frame, pc, npc):
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
            frame.return_from_trap(retry=True)
            return frame.pc, frame.npc

        return ExecEntry(instr, run)

    raise ProcessorError("unimplemented system op %r" % (instr,))


# -- out-of-band ---------------------------------------------------------------

def _factory_oob(instr):
    op = instr.op
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm
    rs1f, g1 = _reg_plan(rs1)
    rdf, gd = _reg_plan(rd)

    if op is Opcode.FLUSH:

        def run(cpu, frame, pc, npc):
            base = frame.regs[rs1] if rs1f else cpu.globals[g1]
            address = (base + imm) & WORD_MASK
            outcome = cpu.port.flush(address, context=cpu)
            cpu.charge(outcome.cycles)
            return npc, npc + 4

    elif op is Opcode.LDIO:

        def run(cpu, frame, pc, npc):
            base = frame.regs[rs1] if rs1f else cpu.globals[g1]
            address = (base + imm) & WORD_MASK
            outcome = cpu.port.ldio(address, context=cpu)
            cpu.charge(outcome.cycles)
            if rd:
                value = outcome.value & WORD_MASK
                if rdf:
                    frame.regs[rd] = value
                else:
                    cpu.globals[gd] = value
            return npc, npc + 4

    else:  # STIO

        def run(cpu, frame, pc, npc):
            base = frame.regs[rs1] if rs1f else cpu.globals[g1]
            address = (base + imm) & WORD_MASK
            value = frame.regs[rd] if rdf else cpu.globals[gd]
            outcome = cpu.port.stio(address, value, context=cpu)
            cpu.charge(outcome.cycles)
            return npc, npc + 4

    return ExecEntry(instr, run)


# -- the opcode-indexed dispatch table -----------------------------------------

_CATEGORY_FACTORIES = {
    Category.COMPUTE: _factory_alu,
    Category.LOGIC: _factory_alu,
    Category.LOAD: _factory_load,
    Category.STORE: _factory_store,
    Category.BRANCH: _factory_branch,
    Category.FRAME: _factory_frame,
    Category.SYSTEM: _factory_system,
    Category.OOB: _factory_oob,
}

#: Opcode-indexed handler-factory table (the dispatch table that
#: replaces the ``_execute`` if-chain).  ``DISPATCH[int(op)]`` maps a
#: decoded instruction to its :class:`ExecEntry`.
DISPATCH = [None] * 256
for _op in Opcode:
    if _op is Opcode.CALL:
        DISPATCH[int(_op)] = _factory_call
    elif _op is Opcode.JMPL:
        DISPATCH[int(_op)] = _factory_jmpl
    else:
        DISPATCH[int(_op)] = _CATEGORY_FACTORIES[category_of(_op)]
del _op


def build_entry(instr):
    """Compile one decoded instruction into its :class:`ExecEntry`."""
    factory = DISPATCH[instr.op]
    if factory is None:
        raise ProcessorError("no handler factory for %r" % (instr,))
    return factory(instr)
