"""Predecoded execution handlers: the interpreter's translation cache.

The classic cure for a fetch -> decode -> if-chain interpreter loop is
threaded code: translate each instruction *once* into a directly
callable handler and dispatch through a table instead of re-walking the
if-chain on every execution.  This module is that translation layer for
the APRIL simulator.

:func:`build_entry` compiles one decoded
:class:`~repro.isa.instructions.Instruction` into an :class:`ExecEntry`
via :data:`DISPATCH`, an opcode-indexed table of handler factories, one
per fast-path shape of the opcode's :mod:`repro.isa.optable` row.
The factories state the straight, load, store, conditional and
redirect shapes and ``div``/``rem``: all compiled Mul-T runs but
``trap``.  Each unpacks the operand fields into Python locals at
*predecode* time:

* register numbers are classified once (hardwired zero / frame-relative
  / global) so the per-execution access is a bare list index instead of
  a ``read_reg``/``write_reg`` call;
* immediates are masked/scaled once (``imm & WORD_MASK``, branch
  offsets pre-multiplied by 4);
* condition-code updates write the PSR bits directly instead of going
  through four property setters: an ALU op's result and bits come from
  one core per opcode, compiled once from its table row — the
  statements generated code inlines, then the bit arithmetic generated
  code emits where somebody reads the PSR
  (:func:`repro.core.psr.cc_source`).

Every other delegated row — the frame-pointer ops (``incfp``,
``decfp``, ``rdfp``, ``stfp``), the system ops (``trap``, ``rdpsr``,
``wrpsr``, ``rett``, ``halt``) and the out-of-band ops (``flush``,
``ldio``, ``stio``) — gets one closure that runs the reference
interpreter's own statement (``cpu._execute``).  The paper's trap
handlers run those rows, but here the handlers are Python microcode:
over one dormant round of each full-size ``*-steady`` benchmark
workload the closure tier ran ``trap`` 3 (seq), 505 (eager), 2 (lazy)
and 78 (coherent) times and the other eleven rows never, and on the
oracle schedule ``trap`` was 0.67 % of the dynamic mix and the rest
0 %.  At about 1 us more per ``trap`` run, under 1 ms of an eager
round, a second statement does not pay for itself.

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
the reference if-chain, and both read their per-opcode facts — ALU
statements, strictness, branch conditions, shapes — from the one
table.

Cycle accounting contract: handlers charge "useful" cycles inline
(``cpu.cycles``/``stats.useful``/``stats._total``); all other
categories go through ``cpu.charge``.  Nothing observes a charge — the
lifetime accountant reads the counters by difference; the three
instructions that move FP, which let it settle first, run only the
reference's statement.
"""

from repro.core.psr import (
    C_BIT,
    FE_BIT,
    N_BIT,
    V_BIT,
    Z_BIT,
    cc_source,
    condition_source,
)
from repro.core.traps import Trap, TrapKind, TrapSignal
from repro.errors import ProcessorError
from repro.isa import registers
from repro.isa.instructions import LOAD_FLAVORS, STORE_FLAVORS, Opcode
from repro.isa.optable import (
    CONDITIONAL,
    DELEGATED,
    LOAD,
    REDIRECT,
    ROWS,
    STORE,
    STRAIGHT,
    TABLE,
)
from repro.isa.tags import WORD_MASK

_GLOBAL_BASE = registers.GLOBAL_BASE
_CC_MASK = N_BIT | Z_BIT | V_BIT | C_BIT


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


# -- built once from the table -------------------------------------------------

def _core(row):
    """``core(a, b) -> (result, cc_bits)`` for an ALU row: its
    statements, then its N/Z/V/C pre-packed as PSR bits so a handler
    splices them in with one mask-and-or."""
    source = ["def core(a, b):"]
    source += ["    " + statement.format(a="a", b="b")
               for statement in row.alu]
    source += ["    " * (1 + depth) + text
               for depth, text in cc_source(row.kind, "a", "b")]
    source.append("    return res, _cc")
    namespace = {}
    exec("\n".join(source), namespace)
    return namespace["core"]


_CORES = {row.op: _core(row) for row in TABLE if row.alu is not None}

#: ``test(psr) -> truthy`` per conditional branch, each built once from
#: the source generated code inlines.
_BRANCH_TESTS = {row.op: eval("lambda psr: " + condition_source(row.op))
                 for row in TABLE if row.condition is not None}


# -- factory helpers -----------------------------------------------------------

def _reg_plan(number):
    """(is_frame_relative, index) access plan for an encoded register."""
    if number < _GLOBAL_BASE:
        return True, number
    return False, number - _GLOBAL_BASE


# -- straight: ALU, lui/oril, nop/bn -------------------------------------------

def _run_one_cycle(cpu, frame, pc, npc):
    """``NOP`` and ``BN``: one useful cycle, and on to the next pc."""
    cpu.cycles += 1
    stats = cpu.stats
    stats.useful += 1
    stats._total += 1
    return npc, npc + 4


def _factory_straight(instr):
    op = instr.op
    if op is Opcode.LUI:
        return _factory_lui(instr)
    if op is Opcode.ORIL:
        return _factory_oril(instr)
    if ROWS[op].alu is None:
        return ExecEntry(instr, _run_one_cycle)
    return _factory_alu(instr)


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
    """Every row with ALU statements, ``div``/``rem`` included."""
    op = instr.op
    row = ROWS[op]
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
    use_imm = instr.use_imm
    imm_w = instr.imm & WORD_MASK
    rs1f, g1 = _reg_plan(rs1)
    rs2f, g2 = _reg_plan(rs2)
    rdf, gd = _reg_plan(rd)
    write_rd = bool(rd) and "rd" in row.writes
    core = _CORES[op]
    strict = row.strict
    divides = op is Opcode.DIV or op is Opcode.REM
    opname = op.name

    def run(cpu, frame, pc, npc):
        regs = frame.regs
        a = regs[rs1] if rs1f else cpu.globals[g1]
        b = imm_w if use_imm else (regs[rs2] if rs2f else cpu.globals[g2])
        if strict and (a | b) & 1:
            raise TrapSignal(Trap(
                TrapKind.FUTURE_COMPUTE, instr=instr, pc=pc,
                value=a if a & 1 else b, cause=opname))
        if divides and b == 0:
            raise TrapSignal(Trap(
                TrapKind.ILLEGAL, instr=instr, pc=pc,
                cause="divide by zero"))
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

def _factory_conditional(instr):
    off = 4 * instr.imm
    test = _BRANCH_TESTS[instr.op]

    def run(cpu, frame, pc, npc):
        cpu.cycles += 1
        stats = cpu.stats
        stats.useful += 1
        stats._total += 1
        if test(frame.psr.value):
            return npc, pc + off
        return npc, npc + 4

    return ExecEntry(instr, run)


def _factory_redirect(instr):
    """``ba``, ``call`` and ``jmpl``."""
    op = instr.op
    if op is Opcode.JMPL:
        return _factory_jmpl(instr)
    off = 4 * instr.imm

    if op is Opcode.CALL:
        ra = registers.RA

        def run(cpu, frame, pc, npc):
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
            frame.regs[ra] = (pc + 8) & WORD_MASK
            return npc, pc + off

    else:  # BA

        def run(cpu, frame, pc, npc):
            cpu.cycles += 1
            stats = cpu.stats
            stats.useful += 1
            stats._total += 1
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


# -- delegated: what generated code hands to these closures --------------------

def _factory_delegated(instr):
    """``div``/``rem`` get their ALU closure; every other delegated row
    runs the reference interpreter's own statement of it."""
    if ROWS[instr.op].alu is not None:
        return _factory_alu(instr)

    def run(cpu, frame, pc, npc):
        return cpu._execute(frame, instr, pc, npc)

    return ExecEntry(instr, run)


# -- the opcode-indexed dispatch table -----------------------------------------

_SHAPE_FACTORIES = {
    STRAIGHT: _factory_straight,
    LOAD: _factory_load,
    STORE: _factory_store,
    CONDITIONAL: _factory_conditional,
    REDIRECT: _factory_redirect,
    DELEGATED: _factory_delegated,
}

#: Opcode-indexed handler-factory table (the dispatch table that
#: replaces the ``_execute`` if-chain), picked by each opcode's table
#: row's shape.  ``DISPATCH[int(op)]`` maps a decoded instruction to
#: its :class:`ExecEntry`.
DISPATCH = [None] * 256
for _row in TABLE:
    DISPATCH[_row.op] = _SHAPE_FACTORIES[_row.shape]
del _row


def build_entry(instr):
    """Compile one decoded instruction into its :class:`ExecEntry`."""
    factory = DISPATCH[instr.op]
    if factory is None:
        raise ProcessorError("no handler factory for %r" % (instr,))
    return factory(instr)
