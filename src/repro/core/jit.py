"""Superblock JIT: the fast statement of the instruction set.

Generated code is the simulator's one fast statement of what an
instruction does; the other is the reference interpreter
(``Processor._execute*`` and :mod:`repro.core.alu`), which generated
code delegates to for whatever it does not state.  This module compiles
a whole superblock into a *single generated Python function* via
``compile()`` + ``exec``, the first time ``Processor.step_block``
visits its start — and, with the same scan and emitter over a plan of
one, the *one-instruction form* ``Processor.step`` runs at a pc
(``compile_block(..., single=True)``; below):

* operand fields, masks, immediates, and memory-flavor semantics are
  baked into the source as integer literals;
* register reads and writes are flattened to Python locals, with one
  read-in of the referenced registers at block entry and one write-back
  of the dirty ones at block exit;
* the per-instruction cycle/useful/instruction accounting collapses
  into batched adds at segment boundaries;
* branch exits assign the next PC chain directly (taken target and
  fall-through both precomputed at compile time);
* PSR bits are computed when somebody reads them (below), not by the
  instruction that sets them.

A superblock is more than a straight-line run.  The former extends
through four kinds of joints that would otherwise terminate a block
after a handful of instructions (RISC code has a branch or memory
access every ~3 words, so plain straight-line blocks average under 3
instructions and the per-call overhead eats the win):

* **memory instructions** over the ideal single-cycle port (the Table
  3 configuration) are *inlined*: the generated code performs the
  full/empty-bit flavor semantics directly on the memory arrays, and
  the access costs one batched cycle like any other instruction.  Any
  access the inline path cannot complete bit-identically — a future
  base address, a misaligned or out-of-bank address, a full/empty
  mismatch (the flavors that trap), a store into a code-watched word,
  or an attached ``watch_hook`` — falls to the reference's statement
  (``cpu._execute`` with the decoded instruction baked in) with the PC
  chain parked at the instruction, and the block *ends there*: the
  reference redoes the access from scratch (the inline test mutated
  nothing), so trap payloads, stall charging, watch notifications, and
  hook calls are exactly the reference's.  Every load and store off
  ``sp`` with a literal, word-aligned offset — in a block, a
  one-instruction form or a slice's tail, on every port that inlines
  — is tested in a *stack group*; only a slice's head tests one on
  its own.  Over a stretch where ``sp`` moves only by literal adds and
  subtracts of multiples of four (through followed ``CALL``/``BA``
  and fused delay slots, up to any other write to ``sp``), one guard
  before the group's first access tests what each access would test
  of its address — ``sp``'s future bit and alignment, the lowest and
  highest word inside the bank (on a windowed bank, inside the
  executing frame's own window), no watch hook, every store above the
  code watch's highest word — and each access then states only its
  word (``_g`` plus a literal) and its flavor's full/empty test.  A
  failing guard is the first access's slow path, so the reference
  decides every odd case.  Behind a slice's head the guard leaves the
  window out: an access that reaches past the group's words so far
  tests its own (on a coherent node, its whole cache block), so the
  tail parks where the first access outside the window stands, as
  each access's own test would park it.  On a coherent node (the
  cache / directory machine) the inlined access is a *cache hit*, the
  case the paper's controller answers in the processor's one cycle: a
  probe of the node's ``Cache.valid`` map (the line the controller's
  set walk would find) must find a valid line for a load and a
  modified one for a store; the generated code then stamps the line,
  advances the cache's LRU clock and counts the hit as
  ``CacheController._access`` does, and performs the ideal port's
  access.  Each group member keeps its own probe, stamp and hit.  A
  miss, an upgrade and, with a transaction tracer attached, an access
  to a word where a full/empty fault is open (the tracer's
  ``faults``, read once per function like the watch hook) are slow
  too.  On any other port every memory
  instruction is a delegated block terminator.  Because delegation
  always ends the block, a compiled block never runs on past a stall
  or a self-invalidating store — the multi-CPU slice interleaving
  stays reference-identical;
* **branch delay slots** are fused into the exit: the delay
  instruction executes on the block's locals after the branch
  decision, then the taken/untaken chain is installed — without this
  every taken branch costs a full ``step()``;
* **untaken conditional branches** continue the block: the taken path
  writes back, commits, and returns; the fall-through path keeps
  accumulating in locals, so a forward if-then costs one test;
* **CALL and BA are followed**: their targets are known at compile
  time, so when the delay slot fuses and the redirect, its slot and one
  more instruction fit in :data:`MAX_JIT_BLOCK`, the scan goes on at
  the target (``CALL`` sets ``ra`` as a local, the slot runs with the
  target as its next pc).  A block therefore covers several separate
  runs of words, and a loop closed by ``BA`` unrolls up to the bound.

Strict compute ops (``ADD``/``SUB``/``MUL``/``DIV``/``REM``/``CMP``)
are inlined with their future-detection guard, and ``DIV``/``REM``
then with a zero-divisor guard, in the order
:func:`repro.core.alu.execute` checks them.  A tripped guard writes
back the registers dirtied so far, commits the cycles already earned,
parks the PC chain at the guarded instruction, and *takes* the trap the
reference would raise there — same kind, instr, pc, value, and cause
(``FUTURE_COMPUTE``; ``ILLEGAL``, "divide by zero") — in place: it
calls :meth:`repro.core.processor.Processor._take_trap`, the one trap
sequence, and returns ``True``.  A ``TRAP`` terminator does the same
with its software trap.  Nothing is raised, so nothing unwinds; the
runner (:meth:`repro.core.processor.Processor.step_block`) reads the
``True`` and accounts the run exactly as it accounts a raised trap.
Only what is delegated to the reference still raises.

What ends a block: an inlined ``JMPL`` (its target is a register's),
a ``BA`` or ``CALL`` that is not followed (its slot does not fuse, or
the bound is near), a conditional branch whose slot does not fuse, a
*delegated* terminator — any other decodable instruction (frame ops,
system ops, I/O, memory on a port nothing is inlined for) runs through
the reference's statement after the prefix commits — a ``TRAP``, which
takes its software trap in place, or the bound.

Exits come in two forms.  *Hot* exits — the terminator and a fused
conditional's taken arm — state everything inline: the write-back, the
PSR bits, the batched accounting and the PC chain.  *Slow* exits — a
memory slow path, a tripped guard, a tail park — are rare, and a
block has one per inlined access or guard, so their source is cut to
the register write-back, the PSR through one ``_psr_<kind>`` helper
per producer kind (built at import from the same
:func:`repro.core.psr.cc_source` text) and one call, ``_park``,
``_tail``, ``_trap``, ``_divzero`` or ``_delegate``, that commits the
counts and then parks, traps or delegates.  That is what keeps cold
compiles from growing with the followed code.

What is inlined, how, and what may ride a slice are read from each
opcode's :mod:`repro.isa.optable` row: its shape (straight, load,
store, conditional, redirect or delegated), its ALU statements, its
producer kind (whose overflow and carry tests
:meth:`_Emitter.materialize` emits, through
:func:`repro.core.psr.cc_source`) and its branch condition.  The
emitter states only what a row does not: the ``mov`` form of ``or``,
two literal operands folded through :func:`repro.core.alu.execute`,
and ``lui``/``oril``.  Digests of the generated source, block for
block, are pinned (``tests/core/test_jit.py::TestWhoPaysForWindows``).

The same scan and emitter produce a second shape, the *sync-headed
slice* (``compile_block(..., sliced=True)``), for the machine loop's
run-ahead: the instruction at the pc — inlined as above, whatever it
is — followed only by *private* instructions.  Private means: one
cycle, no trap, and nothing touched that another processor can see or
change before this one's next head.  Straight ops, branches and
``CALL``/``JMPL`` are (this processor's registers, condition codes and
PC chain, nothing else); so is an inlined load or store off the stack
pointer with a literal, word-aligned offset (a stack group's member)
*whose address falls, at run time, inside the executing frame's stack
window* (``frame.window``: the loaded thread's
``[stolen_base, stack_limit)`` on a machine that runs ahead, empty
anywhere else) — the machine keeps every other processor out of that
window or winds this one back (``AlewifeMachine._wind_back``).  On a
coherent node such an access rides as the cache hit a plain block
inlines, and only when its whole cache block lies inside the window:
another node's access to a word of the block outside it would change
the line and wind nothing back.  The scan stops before any other
memory or delegated instruction.  Past the
head nothing raises or delegates: a tripped guard, a stack access
outside the window, any slow-path condition (a coherent miss too)
*parks* the chain at the instruction and returns, to be taken when it
heads a later slice.  Every exit records how many private instructions
ran, their post-head register values, the old word and full/empty bit
of everything they changed in memory (the store log) and, on a
coherent node, the old LRU stamp of every line they hit (the hit
log), so :meth:`repro.core.processor.Processor.unrun_tail` can take
them back.
Slices share :data:`SHARED_BLOCKS` (own key suffix), promotion at the
first visit, the machine's table (under ``~pc``) and code-watch
invalidation.

The third shape, the *one-instruction form* (``compile_block(...,
single=True)``), is what ``Processor.step`` runs where the PC chain
is straight: the instruction at the pc, emitted as in a block — guards
taken in place, a stack access a group of one, a memory slow path or
a delegated row handed to the reference — with no delay slot fused,
nothing followed and no floor on its size.  Forms live in the
machine's ``Translations.steps`` and in :data:`SHARED_BLOCKS` under
their own key suffix, are registered with the code watch like blocks,
and are not counted as JIT compiles or runs.  A delay slot (whose next pc is not ``pc + 4``) and a word that
does not decode run the reference directly.

On a bank with stack windows (``_port_spec``'s last field) every
inlined access outside a stack group — a slice's head, or an access
off another register — is slow too when it lands in a page holding
some thread stack outside the executing frame's own window: the
reference's access then passes ``Memory._index`` (on a coherent node,
first the controller), where the window's owner is wound back first.
A stack group's guard there asks for the executing frame's own window
outright, for the whole group, tail or not.  Machines without windows
(one processor) carry no such test.

Every compute instruction sets N/Z/V/C and every load or store the
full/empty bit, and the next producer overwrites nearly all of it
unread.  So an inlined instruction emits its *result* only and the
emitter remembers the *pending producers* — the last compute
instruction's kind and operand locals, and that ``_fb`` holds the last
access's full/empty byte, in the bank's sense: 1 is *empty*
(:meth:`_Emitter.produce`).  One method,
:meth:`_Emitter.materialize`, emits the bit arithmetic, and only the
places that read or publish the PSR call it: the write-back every hot
exit starts with (a taken branch, a terminator — inside an ``if`` arm
the producers stay pending for the path that falls through; a slow
exit's bail asks :meth:`_Emitter.settled` for the helper calls
instead), a slice's head (its undo snapshot
holds the PSR), and a conditional branch whose question the pending
producer's locals cannot answer directly (:meth:`_Emitter.
branch_test`: ``res == 0``, the sign of ``res``, the carry out of
``_t``, a signed compare of a subtract's operands).  An operand local
redefined while its producer is pending is recovered from ``_t`` and
the other operand; it is copied aside only when that is impossible
(:meth:`_Emitter.def_reg`).  Two operands off the hard-wired zero fold
to a literal result and literal bits (unless a divide by zero traps).
The reference keeps computing the bits per instruction.

Self-modifying code: each compiled block records the runs of words
``[lo, hi)`` it was translated from (``JitBlock.runs``: one, plus one
per followed target) and the translated words themselves in its key;
the machine's :class:`~repro.mem.memory.CodeWatch` watches exactly
those words, notifies every processor on stores into them and the
blocks with a run over the word are discarded (see
``Translations.invalidate_code``).  A word between two runs — data
between a caller and its callee — is not covered.  A block can
never invalidate *itself* mid-run: inline stores to watched words are
exactly the case the inline path refuses, and the delegated store that
performs them ends the block.

Generated functions close over nothing machine-specific — registers,
memory arrays, and the PSR all come off the ``(cpu, frame)`` arguments
— so compiled blocks are shared process-wide through
:data:`SHARED_BLOCKS`, keyed by ``(pc, code words, port spec)``.  A
second machine running the same program (benchmark repetitions, sweep
workers in-process, A/B observation runs) reuses the code objects and
pays no ``compile()`` cost; self-modifying code changes the words and
therefore the key.

Determinism contract: *at every exit* of a generated function —
normal, trap, park, wind-back — registers, PSR, PC chain, memory and
counters are bit-identical to the reference ``_execute`` if-chain run
over the same instructions: same results, same trap conditions in the
same order, same per-category cycle accounting, same event-loop
interleaving.  Nothing observes a processor between two exits, which
is what makes late PSR bits legal.  The differential lockstep harness
(``tests/core/test_lockstep.py``) enforces it per tier, and
``tests/core/test_jit.py::TestFlagsAtEveryExit`` per kind of exit.
"""

from repro.core.alu import execute as alu_execute
from repro.core.psr import (
    C_BIT,
    FE_BIT,
    N_BIT,
    V_BIT,
    Z_BIT,
    cc_source,
    condition_source,
)
from repro.core.traps import Trap, TrapKind
from repro.isa import registers
from repro.isa.instructions import LOAD_FLAVORS, STORE_FLAVORS, Opcode
from repro.isa.optable import (
    CONDITIONAL,
    LOAD,
    PRODUCERS,
    REDIRECT,
    ROWS,
    STORE,
    STRAIGHT,
)
from repro.isa.tags import WORD_MASK
from repro.lru import LRU
from repro.mem.cache import LineState
from repro.mem.controller import CacheController
from repro.mem.ideal import IdealMemoryPort
from repro.mem.memory import WINDOW_PAGE_SHIFT

_GLOBAL_BASE = registers.GLOBAL_BASE
_CC_MASK = N_BIT | Z_BIT | V_BIT | C_BIT
_NOT_CC = ~_CC_MASK
_SIGN = 0x80000000
_FUTURE_COMPUTE = TrapKind.FUTURE_COMPUTE
_ILLEGAL = TrapKind.ILLEGAL
_SOFTWARE = TrapKind.SOFTWARE

#: Most instructions one generated function may execute on a single
#: pass (the slice-budget admission cost); also the scan bound.
MAX_JIT_BLOCK = 32

#: Memory shapes: inlined over a port generated code understands,
#: delegated otherwise.
_MEMORY = (LOAD, STORE)

#: Branch conditions asked of a pending producer's locals instead of
#: the PSR (``_Emitter.branch_test``): what ``res`` answers for any
#: kind, what ``_t`` answers for the carry of an add or a subtract (the
#: table's carry tests), and the comparison of the operands that N != V
#: is after a subtract.
_NEGATIVE = "res & %d" % _SIGN
_ON_RESULT = {
    Opcode.BE: "res == 0",
    Opcode.BNE: "res != 0",
    Opcode.BNEG: _NEGATIVE,
    Opcode.BPOS: "not " + _NEGATIVE,
}
_ON_CARRY = {(kind, op): PRODUCERS[kind][index]
             for kind in ("add", "sub")
             for op, index in ((Opcode.BCS, 1), (Opcode.BCC, 2))}
_ON_OPERANDS = {Opcode.BL: "<", Opcode.BLE: "<=",
                Opcode.BG: ">", Opcode.BGE: ">="}


def _operands(kind, a, b):
    """Operand expressions of a pending add/subtract.  ``None`` is an
    operand whose local has been redefined since: ``_t`` is the exact
    sum (difference) of two words, so the other operand gives it back.
    """
    if a is None:
        a = "(_t - %s)" % b if kind == "add" else "(_t + %s)" % b
    elif b is None:
        b = "(_t - %s)" % a if kind == "add" else "(%s - _t)" % a
    return a, b


def _biased(operand):
    """``operand`` with the sign bit flipped: unsigned order of the
    biased words is signed order of the words."""
    if operand.isdigit():
        return "%d" % (int(operand) ^ _SIGN)
    return "%s ^ %d" % (operand, _SIGN)


# -- what a slow exit calls -------------------------------------------------
#
# A slow exit (a memory slow path, a tripped guard, a tail park) is
# rare, so its source is kept short: the register write-back, the PSR
# through one of the ``_psr_*`` helpers, and one call that commits the
# counts and then parks, traps or delegates.  Hot exits (terminators,
# a fused conditional's taken arm) state all of it inline.
#
# A helper that takes a trap returns ``True``, and the generated code
# returns what it returns: that is how ``Processor.step_block`` knows a
# trap was taken in place (every other exit returns ``None``).

def _psr_helper(kind):
    """``psr`` with producer ``kind``'s N/Z/V/C: :func:`cc_source`'s
    statements as a function, and how many of ``_t, a, b`` it reads."""
    text = ["def _psr(psr, res, _t=0, a=0, b=0):"]
    text.extend("    " * (depth + 1) + statement
                for depth, statement in cc_source(kind, "a", "b"))
    text.append("    return psr & %d | _cc" % _NOT_CC)
    namespace = {}
    exec("\n".join(text), namespace)
    tests = " ".join(test for test in PRODUCERS[kind][:2] if test)
    reads = 3 if "{a}" in tests else 1 if "_t" in tests else 0
    return namespace["_psr"], reads


_PSR_HELPERS = {kind: _psr_helper(kind) for kind in PRODUCERS}


def _psr_fe(psr, fb):
    """``psr`` with the full/empty condition bit of the bank's byte
    ``fb`` (1 = empty)."""
    return psr & ~FE_BIT if fb else psr | FE_BIT


def _park(cpu, frame, count, pc, npc):
    """Commit ``count`` one-cycle instructions; leave the chain at
    ``pc``/``npc``."""
    cpu.cycles += count
    stats = cpu.stats
    stats.useful += count
    stats._total += count
    stats.instructions += count
    frame.pc = pc
    frame.npc = npc


def _tail(cpu, frame, count, pc, npc, undo, log, loads, stores, *hits):
    """:func:`_park` behind a slice's head: the last ``count - 1``
    instructions were its private tail, so leave the record
    :meth:`Processor.unrun_tail` takes them back with (``hits``: a
    coherent tail's log of the lines it stamped)."""
    _park(cpu, frame, count, pc, npc)
    cpu.ahead_tail = (count - 1, undo, log, *hits)
    cpu.ahead_slices += 1
    cpu.ahead_instructions += count - 1
    cpu.ahead_loads += loads
    cpu.ahead_stores += stores


def _trap(cpu, frame, count, pc, npc, instr, value, cause):
    """A tripped future guard: :func:`_park` (stated inline) at the
    guarded instruction, then take the reference's identical trap in
    place (``cause``, the opcode's name, is baked into the call)."""
    cpu.cycles += count
    stats = cpu.stats
    stats.useful += count
    stats._total += count
    stats.instructions += count
    frame.pc = pc
    frame.npc = npc
    cpu._take_trap(frame, Trap(_FUTURE_COMPUTE, 0, instr, pc, None, value,
                               cause))
    return True


def _divzero(cpu, frame, count, pc, npc, instr):
    """A ``div``/``rem`` by zero: :func:`_park` at it, then take the
    reference's illegal-instruction trap in place."""
    _park(cpu, frame, count, pc, npc)
    cpu._take_trap(frame, Trap(_ILLEGAL, 0, instr, pc, None, None,
                               "divide by zero"))
    return True


def _swtrap(cpu, frame, count, pc, instr):
    """A ``TRAP`` terminator after ``count`` committed instructions: its
    own cycle (not an instruction: a trapping one retires nothing), the
    chain at it, and its software trap taken in place."""
    cpu.cycles += count + 1
    stats = cpu.stats
    stats.useful += count + 1
    stats._total += count + 1
    stats.instructions += count
    frame.pc = pc
    frame.npc = pc + 4
    cpu._take_trap(frame, Trap(_SOFTWARE, instr.imm, instr, pc))
    return True


def _delegate(cpu, frame, count, instr, pc, npc):
    """An instruction generated code does not state — a delegated
    terminator, or an access the inline path cannot complete:
    :func:`_park` at it, then the reference interpreter's statement
    runs it from scratch and moves the chain on (a trap it raises
    propagates to the caller, which takes it)."""
    _park(cpu, frame, count, pc, npc)
    frame.pc, frame.npc = cpu._execute(frame, instr, pc, npc)
    cpu.stats.instructions += 1


#: What every generated function's globals start from.
_GLOBALS = {"_psr_" + kind: helper
            for kind, (helper, _) in _PSR_HELPERS.items()}
_GLOBALS.update(_psr_fe=_psr_fe, _park=_park, _tail=_tail, _trap=_trap,
                _divzero=_divzero, _swtrap=_swtrap, _delegate=_delegate,
                _M=LineState.MODIFIED)


#: Process-wide cache of compiled blocks, keyed by
#: ``(pc, words tuple, port spec)`` (plus ``"slice"`` or ``"step"`` for
#: the other two shapes).  Nothing machine-specific is baked
#: into a generated function (see the module docstring), so any machine
#: whose code words at ``pc`` match — and whose port admits the same
#: inline-memory specialization — reuses the block and skips
#: ``compile()``, the dominant cost of warming a fresh machine.  Unlike
#: a machine's own table, which its program bounds, this outlives
#: machines and programs, so it is an :class:`~repro.lru.LRU`.
SHARED_BLOCKS = LRU(1 << 12)

#: What a fresh machine looks a translation up by before it scans:
#: ``(program, pc, shape, spec)`` -> ``(reads, block or None)``, where
#: ``program`` is the :class:`~repro.isa.assembler.Program` the compile
#: cache shares between machines and ``reads`` the ``(lo, hi, bytes)``
#: word ranges of the bank the scan read.  A machine whose bank holds
#: the same bytes there takes the block without the walk
#: (:func:`compile_block`).
PROGRAM_BLOCKS = LRU(1 << 12)


def _spec_tag(spec):
    """The second field of ``spec`` (see :func:`_port_spec`), if any."""
    return spec[1] if spec is not None and len(spec) > 1 else None


def _has_windows(spec):
    """Whether ``spec`` is a windowed bank's."""
    return spec is not None and spec[-1] == "windows"


def _port_spec(cpu):
    """Inline-memory specialization key for this CPU's port.

    Two ports are inlined.  The plain ideal port with unit latency:
    its successful loads and stores are pure array reads/writes plus
    full/empty-bit flavor logic, all compile-time known.  And a node's
    :class:`~repro.mem.controller.CacheController`, for the accesses
    its cache answers in the processor's one cycle (a valid line for a
    load, a modified one for a store), which are then the ideal port's
    access (``"coherent"`` and the block size, for the cache probe).
    The spec starts with the bank's size in words because it is baked
    into the generated bounds checks.  ``None`` means "delegate every
    memory access".

    A bank with :class:`~repro.mem.memory.StackWindows` installed — a
    machine that runs ahead, ideal or coherent — ends the spec with
    ``"windows"``: every inlined access outside a stack group then
    carries the foreign-window test.  Everybody else's key, and so
    their generated source, is what it was without one.
    """
    port = cpu.port
    if type(port) is IdealMemoryPort and port.latency == 1:
        memory = port.memory
        if memory.windows is not None:
            return (memory.size_words, "windows")
        return (memory.size_words,)
    if type(port) is CacheController:
        memory = port.memory
        spec = (memory.size_words, "coherent", port.cache.block_bytes)
        if memory.windows is not None:
            spec += ("windows",)
        return spec
    return None


class JitBlock:
    """One compiled superblock.

    Attributes:
        fn: the generated ``fn(cpu, frame)`` — executes the whole
            block including accounting and the PC-chain exit; returns
            ``True`` when it took a trap in place (a guard, a ``TRAP``),
            else ``None``; a delegated instruction (the reference's
            statement) may raise :class:`~repro.core.traps.TrapSignal`.
        count: instructions the block executes on a full pass, each
            one cycle — the slice-budget admission test.
        start: the pc the block is entered at.
        runs: the byte ranges ``[lo, hi)`` of the code words it was
            compiled from, in address order and disjoint — one, plus
            one per followed ``CALL``/``BA`` target that does not
            adjoin another (invalidation granularity).
        key: the :data:`SHARED_BLOCKS` key — ``(start, words, spec)``;
            a recompile after self-modifying code yields a different
            key.
        source: the generated Python source (debugging / tests).
    """

    __slots__ = ("fn", "count", "start", "runs", "key", "source")

    def __init__(self, fn, count, start, runs, key, source):
        self.fn = fn
        self.count = count
        self.start = start
        self.runs = runs
        self.key = key
        self.source = source

    def covers(self, address):
        """Whether the block was compiled from the word at ``address``."""
        return any(lo <= address < hi for lo, hi in self.runs)

    def __repr__(self):
        return "JitBlock(start=%#x, count=%d)" % (self.start, self.count)


def _merged(runs):
    """``runs`` sorted, with empty ones dropped and overlapping or
    adjoining ones joined."""
    merged = []
    for lo, hi in sorted(runs):
        if lo == hi:
            continue
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


class _Emitter:
    """Accumulates generated source plus the register-local bookkeeping.

    ``sliced`` selects the sync-headed slice shape (see
    :func:`compile_block`): guards and stack accesses past the head
    park instead of raising or delegating, and every exit that ran a
    private tail leaves the undo record (register snapshot, store log)
    :meth:`Processor.unrun_tail` restores from.
    """

    def __init__(self, sliced=False):
        self.sliced = sliced
        #: ``(body index, pc expr, npc expr)`` just past the slice head.
        self.head = None
        #: Some exit emitted so far leaves an undo record.
        self.undoable = False
        self.body = []
        # name -> load statement, in first-reference order.
        self.refs = {}
        self.dirty = {}   # name -> store_stmt
        self._stores = {}
        self._numbers = {}           # name -> encoded register number
        self.psr_used = False
        self.psr_dirty = False
        #: The pending producers — what the PSR *would* hold had the
        #: bits been computed: ``(kind, a, b)`` of the last compute
        #: instruction (see :meth:`produce`), and whether the local
        #: ``_fb`` is the bank's byte (1 = empty) of the last inlined
        #: access.
        self.cc = None
        self.fe = False
        self.needs_regs = False
        self.needs_glob = False
        self.needs_mem = False
        self.needs_window = False    # reads frame.window
        #: Window-tested loads / stores emitted so far behind the head,
        #: and whether any of them changes memory (needs the store log).
        self.tail_loads = 0
        self.tail_stores = 0
        self.logs = False
        #: Some tail access hit a coherent cache (needs the hit log).
        self.stamps = False
        self.needs_owners = False    # reads the bank's window pages
        #: Instruction constants: trap payloads and delegated
        #: instructions.
        self.instrs = []
        #: The stack group open now.
        self.group = None

    def line(self, indent, text):
        self.body.append("    " * indent + text)

    # -- register locals ---------------------------------------------------

    def use_reg(self, number):
        """Expression for reading register ``number`` (read-in local)."""
        if number == 0:
            return "0"
        if number < _GLOBAL_BASE:
            name = "r%d" % number
            load = "%s = regs[%d]" % (name, number)
            store = "regs[%d] = %s" % (number, name)
            self.needs_regs = True
        else:
            index = number - _GLOBAL_BASE
            name = "g%d" % index
            load = "%s = glob[%d]" % (name, index)
            store = "glob[%d] = %s" % (index, name)
            self.needs_glob = True
        if name not in self.refs:
            self.refs[name] = load
            self._stores[name] = store
            self._numbers[name] = number
        return name

    def def_reg(self, number, shift=None):
        """Local name for writing register ``number`` (marked dirty).

        Call it *before* emitting the assignment: a pending add or
        subtract that names the local as an operand loses it here.  One
        lost operand costs nothing — ``_t`` and the other one give it
        back (:func:`_operands`); only when that is gone too (``add r1,
        r1, r1``, or the second operand redefined later) is the local
        copied aside first.

        A write to ``sp`` closes the open stack group, unless it moves
        ``sp`` by ``shift``, a literal multiple of four.
        """
        if number == registers.SP and self.group is not None:
            if shift is None:
                self.close_group()
            else:
                self.group.delta += shift
        name = self.use_reg(number)
        if name not in self.dirty:
            self.dirty[name] = self._stores[name]
        cc = self.cc
        if cc is not None and name in cc[1:] and cc[0] in ("add", "sub"):
            kind, a, b = cc
            kept = None
            if a == b or a is None or b is None:
                kept = "_c"
                self.line(1, "_c = %s" % name)
            self.cc = (kind, kept if a == name else a,
                       kept if b == name else b)
        return name

    # -- the PSR: computed when somebody reads it ----------------------------

    def produce(self, kind, a=None, b=None):
        """The instruction just emitted set all four condition codes;
        nothing is emitted for them.  ``kind`` says what is left in the
        locals to compute them from, should anybody ask:

        * ``"add"`` / ``"sub"`` — ``_t`` (the unmasked sum/difference),
          ``res`` and the operand expressions ``a``, ``b`` (a local, a
          literal, or ``None``: lost, see :meth:`def_reg`);
        * ``"mul"`` — ``_t`` (the unmasked product) and ``res``;
        * ``"logic"`` — ``res``;
        * ``"const"`` — nothing: ``a`` is the four bits, folded at
          compile time.
        """
        self.cc = (kind, a, b)
        self.psr_used = self.psr_dirty = True

    def produce_fe(self):
        """The access just emitted left its word's full/empty byte (1 =
        empty), as it was *before* the access, in ``_fb``."""
        self.fe = True
        self.psr_used = self.psr_dirty = True

    def materialize(self, indent):
        """Emit the PSR bits of the pending producers into ``psr``.

        Called by whoever reads or publishes the PSR.  At block level
        that settles them; inside an ``if`` arm (a bail, a taken exit)
        they stay pending for the path that falls through.
        """
        line = self.line
        if self.cc is not None:
            kind, a, b = self.cc
            if kind == "const":
                line(indent, "psr = psr & %d | %d" % (_NOT_CC, a))
            else:
                if kind == "add" or kind == "sub":
                    a, b = _operands(kind, a, b)
                for depth, text in cc_source(kind, a, b):
                    line(indent + depth, text)
                line(indent, "psr = psr & %d | _cc" % _NOT_CC)
        if self.fe:
            line(indent, "psr = psr & %d if _fb else psr | %d" % (
                ~FE_BIT, FE_BIT))
        if indent == 1:
            self.cc = None
            self.fe = False

    def branch_test(self, op):
        """Source of conditional ``op``'s taken test.

        A pending producer answers from the result it already has —
        the PSR is then built only on the exit that publishes it; any
        other pairing settles the PSR and tests its bits
        (:func:`~repro.core.psr.condition_source`), as does a branch
        with nothing pending.
        """
        if op is Opcode.JFULL or op is Opcode.JEMPTY:
            if self.fe:
                return "not _fb" if op is Opcode.JFULL else "_fb"
        elif self.cc is not None:
            kind, a, b = self.cc
            test = None
            if kind != "const":
                test = _ON_RESULT.get(op) or _ON_CARRY.get((kind, op))
            if test is None and kind == "sub" and op in _ON_OPERANDS:
                # N != V after a subtraction: signed a < signed b.
                a, b = _operands(kind, a, b)
                test = "%s %s %s" % (_biased(a), _ON_OPERANDS[op], _biased(b))
            if test is not None:
                return test
            self.materialize(1)
        self.psr_used = True
        return condition_source(op)

    def add_instr(self, instr):
        """Bake an Instruction as a namespace constant (a trap payload,
        or what :func:`_delegate` hands the reference)."""
        name = "_i%d" % len(self.instrs)
        self.instrs.append(instr)
        return name

    # -- common fragments --------------------------------------------------

    def writeback(self, indent):
        """Emit the write-back of everything dirtied so far — every hot
        exit starts with it, so this is where a pending PSR is built."""
        for name in self.dirty:
            self.line(indent, self._stores[name])
        self.materialize(indent)
        if self.psr_dirty:
            self.line(indent, "_psr.value = psr")

    def settled(self):
        """Expression of the PSR with the pending producers' bits, built
        by the ``_psr_*`` helpers (a slow exit's :meth:`materialize`)."""
        value = "psr"
        if self.cc is not None:
            kind, a, b = self.cc
            if kind == "const":
                value = "psr & %d | %d" % (_NOT_CC, a)
            else:
                if kind == "add" or kind == "sub":
                    a, b = _operands(kind, a, b)
                reads = ["_t", a, b][:_PSR_HELPERS[kind][1]]
                value = "_psr_%s(%s)" % (kind, ", ".join(
                    ["psr", "res"] + reads))
        if self.fe:
            value = "_psr_fe(%s, _fb)" % value
        return value

    def bail(self, helper, *args):
        """Emit a slow exit in an ``if`` arm: the write-back, the PSR
        through :meth:`settled`, and one call of ``helper(cpu, frame,
        *args)``, which commits the counts, then parks, traps or
        delegates; the generated code returns what it returns (the
        producers stay pending for the path that falls through)."""
        for name in self.dirty:
            self.line(2, self._stores[name])
        if self.psr_dirty:
            self.line(2, "_psr.value = %s" % self.settled())
        self.line(2, "return %s(%s)" % (helper, ", ".join(
            ["cpu", "frame"] + [str(arg) for arg in args])))

    def park(self, count, pc, npc):
        """A slow exit that stops *before* the instruction at ``pc``,
        ``count`` instructions having run: behind a slice's head, with
        the record that can take the tail back."""
        if self.sliced and count > 1:
            self.undoable = True
            self.bail("_tail", count, pc, npc, "_u",
                      "_sl" if self.logs else "None",
                      self.tail_loads, self.tail_stores,
                      *["_hl"] if self.stamps else [])
        else:
            self.bail("_park", count, pc, npc)

    def commit(self, indent, count):
        """Emit a hot exit's batched cycle/useful/instruction
        accounting.

        A slice that ran ``count - 1`` private instructions past its
        head also leaves the record that can take them back.
        """
        self.line(indent, "cpu.cycles += %d" % count)
        self.line(indent, "_st = cpu.stats")
        self.line(indent, "_st.useful += %d" % count)
        self.line(indent, "_st._total += %d" % count)
        self.line(indent, "_st.instructions += %d" % count)
        if self.sliced and count > 1:
            self.undoable = True
            self.line(indent, "cpu.ahead_tail = (%d, _u, %s%s)" % (
                count - 1, "_sl" if self.logs else "None",
                ", _hl" if self.stamps else ""))
            self.line(indent, "cpu.ahead_slices += 1")
            self.line(indent, "cpu.ahead_instructions += %d" % (count - 1))
            if self.tail_loads:
                self.line(indent, "cpu.ahead_loads += %d" % self.tail_loads)
            if self.tail_stores:
                self.line(indent, "cpu.ahead_stores += %d" % self.tail_stores)

    # -- stack groups: one guard over a run of accesses off sp -------------

    def join_group(self, offset, store, spec, tail):
        """Add an access at ``[sp+offset]`` to the open stack group, or
        open one with it; returns its word's expression, whether it
        opened the group, and the first terms of its own slow test.

        A group is the inlined loads and stores off ``sp`` (literal,
        word-aligned offsets) while ``sp`` moves only by literal adds
        and subtracts (:meth:`def_reg`).  Its first access computes
        ``_g``, the bank index of ``sp`` there, and each access's word
        is ``_g`` plus a literal.  On a bank with stack windows the
        group's guard tests the executing frame's own window instead of
        the bank.  Behind a slice's head (``tail``) the guard tests no
        bound: the first access, and each one that reaches past the
        words the group reached before it, tests its own reach against
        the window, so the chain parks where the first access outside
        it stands, as each access's own test would park it.  On a
        coherent node that reach is the access's whole cache block:
        another node's access to a word of the block outside the window
        would change the line and wind nothing back.
        """
        group = self.group
        opened = group is None
        if opened:
            sp = self.use_reg(registers.SP)
            self.line(1, "_g = %s >> 2" % sp)
            group = self.group = _StackGroup(
                sp, spec[0], tail or _has_windows(spec), tail, offset)
            self.needs_window |= group.window
        offset += group.delta
        reach = []
        if tail:
            if _spec_tag(spec) == "coherent":
                block = spec[2]
                at = "(_x << 2) & %d" % _block_mask(block)
                low, high = at + " < _lo", "%s > _hi - %d" % (at, block)
            else:
                low, high = "_x << 2 < _lo", "_x << 2 >= _hi"
            if opened or offset < group.lo:
                reach.append(low)
            if opened or offset > group.hi:
                reach.append(high)
        group.lo = min(group.lo, offset)
        group.hi = max(group.hi, offset)
        if store and (group.low_store is None or offset < group.low_store):
            group.low_store = offset
        return _plus("_g", offset >> 2), opened, reach

    def guard_group(self, slow):
        """Reserve the open group's first slow test, which leads with
        the group's guard, and make the rest of it ``slow``."""
        self.group.at = len(self.body)
        self.group.own = slow
        self.body.append(None)

    def close_group(self):
        """Fill in the open group's guard (:meth:`_StackGroup.guard`),
        now that its extent is known."""
        group = self.group
        if group is not None:
            self.group = None
            self.body[group.at] = "    if %s:" % " or ".join(
                group.guard() + group.own)

    def mark_head(self, pc_expr, npc_expr):
        """The slice head's own effects end here (first call only):
        the undo snapshot taken at this point holds the PSR, so the
        head's bits are settled first."""
        if self.sliced and self.head is None:
            self.materialize(1)
            self.head = (len(self.body), pc_expr, npc_expr)

    def snapshot_head(self):
        """Insert the undo snapshot just past the slice head.

        ``_u = (pc, npc, psr, numbers, *values)``: the PC chain the
        tail starts from and the post-head value of everything the
        tail may dirty — they are already locals, so one tuple build
        records them.  A tail that changes memory starts its store log
        ``_sl`` here: ``(index, old word, old empty byte)`` per
        change, oldest first; one that hits a coherent cache its hit
        log ``_hl``: ``(line, old LRU stamp)`` per hit, oldest first.
        """
        at, pc_expr, npc_expr = self.head
        names = list(self.dirty)
        fields = [str(pc_expr), str(npc_expr),
                  "psr" if self.psr_dirty else "None",
                  repr(tuple(self._numbers[name] for name in names))]
        self.body.insert(at, "    _u = (%s)" % ", ".join(fields + names))
        if self.logs:
            self.body.insert(at, "    _sl = []")
        if self.stamps:
            self.body.insert(at, "    _hl = []")


def _block_mask(block_bytes):
    """The mask that takes an address to its cache block's first
    byte."""
    return WORD_MASK & ~(block_bytes - 1)


def _plus(expr, offset):
    """Source of ``expr`` plus the literal ``offset``."""
    if offset > 0:
        return "%s + %d" % (expr, offset)
    return "%s - %d" % (expr, -offset) if offset else expr


class _StackGroup:
    """A stack group the emitter has open (see :meth:`_Emitter.
    join_group`): ``sp``'s local at its first access, the bank's size
    in words, whether it keeps to the executing frame's own window
    (``window``) and whether each access tests its own reach
    (``tail``), where ``sp`` has moved since its first access
    (``delta``, bytes), the lowest and highest offset from there that
    it accesses (``lo``, ``hi``) and the lowest it stores to
    (``low_store``, ``None`` before a store), and where its first
    access's slow test stands in the body (``at``; ``own``: that
    access's own terms)."""

    __slots__ = ("sp", "words", "window", "tail", "delta", "lo", "hi",
                 "low_store", "at", "own")

    def __init__(self, sp, words, window, tail, offset):
        self.sp = sp
        self.words = words
        self.window = window
        self.tail = tail
        self.delta = 0
        self.lo = self.hi = offset
        self.low_store = None
        self.at = self.own = None

    def guard(self):
        """What each access would test of its address, tested once:
        ``sp``'s future bit and alignment (every offset is a multiple
        of four), the lowest and the highest word inside the bank — or
        inside the executing frame's own window, which is inside the
        bank; behind a slice's head each access tests its own reach
        instead —, no watch hook, and every store above the code
        watch's highest word."""
        terms = ["%s & 3" % self.sp]
        if self.window and not self.tail:
            terms.append("%s < _lo" % _plus(self.sp, self.lo))
            terms.append("%s >= _hi" % _plus(self.sp, self.hi))
        elif not self.window:
            if self.lo < 0:
                terms.append("_g < %d" % -(self.lo >> 2))
            terms.append("_g >= %d" % (self.words - (self.hi >> 2)))
        terms.append("_wh")
        if self.low_store is not None:
            terms.append("%s <= _wt" % _plus("_g", self.low_store >> 2))
        return terms


def _emit_guard(emitter, guard_expr, instr, pending, pc_k, npc_expr,
                helper, *args):
    """Inline trap guard: write back, commit, trap.

    ``pending`` is the number of uncommitted instructions already
    executed when the guard trips.  The tripped guard writes back the
    dirt so far, commits the earned cycles, parks the PC chain at the
    guarded instruction (``npc_expr`` overrides the straight ``pc +
    4`` for a delay-slot guard whose next pc is the branch target),
    and takes the trap the reference would raise there in place —
    ``helper(cpu, frame, pending, pc, npc, instr, *args)``: a strict
    op's future trap (:func:`_trap`, same kind, instr, pc, value and
    cause) or a zero divisor's (:func:`_divzero`) — exactly as
    ``step()`` takes the raised one.

    Past the head of a sync-headed slice the guard only parks: the
    trap reads shared state (is the future resolved yet?), so it is
    taken when the instruction heads a later slice, at its own key.
    """
    emitter.line(1, "if %s:" % guard_expr)
    if npc_expr is None:
        npc_expr = "%d" % (pc_k + 4)
    if emitter.sliced and pending:
        emitter.park(pending, pc_k, npc_expr)
        return
    emitter.bail(helper, pending, pc_k, npc_expr, emitter.add_instr(instr),
                 *args)


def _emit_straight(emitter, instr, pending, pc_i, npc_expr=None):
    """Emit one inlined straight-line instruction at ``pc_i``: its table
    row's guards and statements, or one of the forms a row does not
    state — ``lui``/``oril``, two literal operands, and ``mov``.

    A strict row is guarded against futures; ``div`` and ``rem`` then
    against a zero divisor, in :func:`repro.core.alu.execute`'s order.
    """
    op = instr.op
    if op is Opcode.LUI:
        if instr.rd:
            name = emitter.def_reg(instr.rd)
            emitter.line(1, "%s = %d" % (name, (instr.imm << 14) & WORD_MASK))
        return
    if op is Opcode.ORIL:
        if instr.rd:
            name = emitter.def_reg(instr.rd)
            if instr.rd < _GLOBAL_BASE:
                # Frame regs hold masked words and the 18-bit
                # immediate cannot push them out of range.
                emitter.line(1, "%s |= %d" % (name, instr.imm))
            else:
                emitter.line(1, "%s = (%s | %d) & %d" % (
                    name, name, instr.imm, WORD_MASK))
        return
    row = ROWS[op]
    if row.alu is None:
        return      # NOP, BN: a cycle and nothing else

    a = emitter.use_reg(instr.rs1)
    if instr.use_imm:
        imm_w = instr.imm & WORD_MASK
        b = "%d" % imm_w
        b_const = imm_w
    else:
        b = emitter.use_reg(instr.rs2)
        b_const = 0 if instr.rs2 == 0 else None
    strict = row.strict
    divides = op is Opcode.DIV or op is Opcode.REM
    line = emitter.line
    rd = instr.rd if "rd" in row.writes else 0

    if (instr.rs1 == 0 and b_const is not None
            and not (strict and b_const & 1 or divides and b_const == 0)):
        # Both operands are literals (how codegen loads every small
        # constant) and nothing traps: the reference ALU runs now, not
        # in the block.
        result, (n, z, v, c) = alu_execute(op, 0, b_const)
        emitter.produce("const", n * N_BIT | z * Z_BIT | v * V_BIT | c * C_BIT)
        if rd:
            name = emitter.def_reg(rd)
            line(1, "%s = %d" % (name, result))
        return

    if strict:
        if b_const is not None and not b_const & 1:
            guard = "%s & 1" % a
            value = a
        elif b_const is not None and b_const & 1:
            guard = "1"          # odd literal operand: always a future
            value = "%s if %s & 1 else %s" % (a, a, b)
        else:
            guard = "(%s | %s) & 1" % (a, b)
            value = "%s if %s & 1 else %s" % (a, a, b)
        _emit_guard(emitter, guard, instr, pending, pc_i, npc_expr, "_trap",
                    value, repr(op.name))
    if divides and not b_const:
        # A register divisor, or a literal zero one.
        _emit_guard(emitter, "not %s" % b if b_const is None else "1",
                    instr, pending, pc_i, npc_expr, "_divzero")

    # The result only: the condition codes wait for a reader.
    if op is Opcode.OR and "0" in (a, b):
        # ``mov`` is ``or rs, r0, rd``.
        line(1, "res = %s" % (a if b == "0" else b))
    else:
        for statement in row.alu:
            line(1, statement.format(a=a, b=b))
    emitter.produce(row.kind, a, b)
    if rd:
        name = emitter.def_reg(rd, _sp_shift(instr))
        line(1, "%s = res" % name)


def _sp_shift(instr):
    """How far ``instr`` moves ``sp`` when it only adds a literal
    multiple of four to it (``addr sp, 8, sp``), else ``None``."""
    op = instr.op
    if (instr.use_imm and instr.rs1 == instr.rd == registers.SP
            and not instr.imm & 3):
        if op is Opcode.ADD or op is Opcode.ADDR:
            return instr.imm
        if op is Opcode.SUB or op is Opcode.SUBR:
            return -instr.imm
    return None


def _emit_mem_inline(emitter, instr, pending, pc_i, npc_expr, spec,
                     tail=False):
    """Emit an inlined load/store at ``pc_i``.

    The successful single-cycle access runs on the block's locals and
    memory arrays and joins the pending batch; every other case — the
    flavor's trap condition, a future base, a misaligned or
    out-of-bank address, a store into a code-watched word, an attached
    ``watch_hook`` — takes the slow branch, which delegates to the
    reference interpreter (:func:`_delegate`) and ends the block (the
    inline test mutated nothing, so the reference redoes the access
    from scratch, bit-identically, and its return value is the next
    chain: ``npc_expr`` may be a branch target).

    An access off ``sp`` with a literal, word-aligned offset — on any
    port, in a block, a one-instruction form or behind a slice's head —
    joins a stack group (:meth:`_Emitter.join_group`): everything but
    its flavor's full/empty test (and, on a coherent node, its cache
    probe) is the group's guard, made once before the group's first
    access, whose slow branch it is (behind a slice's head, an access
    that reaches past the group's words so far adds its own window
    test to its own slow test).  Only a slice's head tests such an
    access on its own.

    On a bank with stack windows (``spec`` ends ``"windows"``) one
    more case is slow for an access outside a group: an address in a
    page that holds some thread stack, unless it is in the executing
    frame's own window — the reference's access goes through
    ``Memory._index`` (on a coherent node, the controller's
    ``load``/``store`` before that), which has whoever ran ahead over
    that word wound back first.

    On a coherent node (``spec`` tagged ``"coherent"``) the access
    must also hit its cache: the line ``Cache.valid`` maps the block
    to, valid for a load and modified for a store, or it is slow.  A
    hit advances the cache's LRU clock, stamps the line and counts
    itself before the ideal port's access.

    ``tail`` emits the access behind a slice's head instead, always
    in a group (:func:`_rides_tail`): it happens only inside the
    executing frame's own window, any other case *parks* the chain at
    the instruction like a tripped guard, and whatever it changes in
    memory — the word, the full/empty bit — and in a coherent cache —
    the line's LRU stamp — is logged first so
    :meth:`Processor.unrun_tail` can put it back.
    """
    emitter.needs_mem = True
    op = instr.op
    is_load = ROWS[op].shape == LOAD
    flavor = LOAD_FLAVORS[op] if is_load else STORE_FLAVORS[op]
    coherent = _spec_tag(spec) == "coherent"
    line = emitter.line

    grouped = (instr.rs1 == registers.SP and not instr.imm & 3
               and (tail or not emitter.sliced))
    if grouped:
        x, opened, slow = emitter.join_group(instr.imm, not is_load, spec,
                                             tail)
        line(1, "_x = %s" % x)
        address = "(_x << 2)"
    else:
        opened = False
        b = emitter.use_reg(instr.rs1)
        line(1, "_a = (%s + %d) & %d" % (b, instr.imm, WORD_MASK))
        line(1, "_x = _a >> 2")
        slow = ["%s & 1" % b] if not flavor.raw else []
        # ``_wh`` is read once per generated function: nothing a block
        # runs can attach a hook, and a delegate ends the block.
        slow += ["_a & 3", "_x >= %d" % spec[0], "_wh"]
        address = "_a"
    if coherent:
        # Before anything changes: the line the set walk would find.
        line(1, "_l = _cl.get(%s & %d)" % (address, _block_mask(spec[2])))
        slow.append("_l is None" if is_load
                    else "_l is None or _l.state is not _M")
        slow.append("_pf and (_po.node_id, %s) in _pf" % address)
    if is_load:
        if flavor.trap_on_empty:
            slow.append("_fe[_x]")
    else:
        if not grouped:
            slow.append("_x in _ww")
        if flavor.trap_on_full:
            slow.append("not _fe[_x]")
    if not grouped and _has_windows(spec):
        emitter.needs_window = emitter.needs_owners = True
        foreign = ["not _lo <= _a < _hi",
                   "_a >> %d in _ow" % WINDOW_PAGE_SHIFT]
        if instr.rs1 != registers.SP:
            # Not the stack pointer: probably no stack at all, so ask
            # the page table first.
            foreign.reverse()
        slow.append("(%s)" % " and ".join(foreign))
    if opened:
        # Its slow test leads with the group's guard.
        emitter.guard_group(slow)
    elif slow:
        line(1, "if %s:" % " or ".join(slow))
    if slow or opened:
        if tail:
            emitter.park(pending, pc_i, npc_expr)
        else:
            emitter.bail("_delegate", pending, emitter.add_instr(instr),
                         pc_i, npc_expr)

    if coherent:
        # A hit, counted and stamped exactly as `CacheController._access`
        # and `Cache.lookup` do; behind a head, the old stamp logged.
        if tail:
            emitter.stamps = True
            line(1, "_hl.append((_l, _l.last_used))")
        line(1, "_ca._clock = _l.last_used = _ca._clock + 1")
        line(1, "_cs.hits += 1")
    # Fast path: the flavor's semantics inline.  The PSR full/empty
    # condition bit reflects the state *before* the access; ``_fb``
    # keeps it, in the bank's empty sense, for whoever reads the PSR
    # next.
    line(1, "_fb = _fe[_x]")
    emitter.produce_fe()
    changes = flavor.set_empty if is_load else True
    if tail:
        if is_load:
            emitter.tail_loads += 1
        else:
            emitter.tail_stores += 1
        if changes:
            emitter.logs = True
            line(1, "_sl.append((_x, _mw[_x], _fb))")
    if is_load:
        if instr.rd:
            name = emitter.def_reg(instr.rd)
            line(1, "%s = _mw[_x]" % name)
        if flavor.set_empty:
            line(1, "_fe[_x] = 1")
    else:
        value = emitter.use_reg(instr.rd)
        line(1, "_mw[_x] = %s" % value)
        if flavor.set_full:
            line(1, "_fe[_x] = 0")


def _emit_delay(emitter, delay, pending, pc_i, npc_expr, spec):
    """Emit the fused delay slot of the branch at ``pc_i``, its next pc
    ``npc_expr``; returns ``pending`` with it counted.  Behind a slice's
    head a memory slot rides the tail."""
    dkind, dinstr, _dword = delay
    if dkind == "s":
        _emit_straight(emitter, dinstr, pending, pc_i + 4, npc_expr=npc_expr)
    else:
        _emit_mem_inline(emitter, dinstr, pending, pc_i + 4, npc_expr, spec,
                         tail=emitter.sliced)
    return pending + 1


def _classify_delay(code, fetch, address):
    """Decode the delay-slot instruction at ``address`` for fusion.

    Returns ``("s", instr, word)`` for an inlineable straight op,
    ``("m", instr, word)`` for a load/store, or ``None`` when the slot
    cannot be fused (another branch, a system op, an unfetchable word)
    — the exit then leaves the delay slot to ``step()``.
    """
    try:
        word = fetch(address)
        instr = code.decode(word)
    except Exception:
        return None
    shape = ROWS[instr.op].shape
    if shape == STRAIGHT:
        return ("s", instr, word)
    if shape in _MEMORY:
        return ("m", instr, word)
    return None


def _rides_tail(instr, spec):
    """Whether a slice may carry ``instr`` behind its head: an inlined
    load or store off the stack pointer with a literal, word-aligned
    offset — a stack group's member —, on a port generated code
    inlines (on a coherent node, what its cache answers).  Only a
    guess at what will pass the window test at run time — that test
    alone decides, for any program — so that a heap access does not
    drag a tail it always parks."""
    return (spec is not None and ROWS[instr.op].shape in _MEMORY
            and instr.rs1 == registers.SP and not instr.imm & 3)


def _scan_block(cpu, pc, spec, sliced=False, single=False):
    """Scan the superblock at ``pc`` into a translation plan.

    Returns ``(plan, words, total, runs)`` — the classified
    instructions, the code words covered in scan order, the instruction
    count on a full pass, and the byte ranges ``[lo, hi)`` the words
    came from in scan order (the last one's ``hi`` is where a block
    that runs off the scan bound parks) — without generating any
    source.  The split from emission exists so a :data:`SHARED_BLOCKS`
    hit (a pc whose words another program or a written bank shares)
    pays only this classification walk, not the string building; a
    machine running a program some machine ran before skips the walk
    too (:data:`PROGRAM_BLOCKS`).  Scanning
    uses side-effect-free instruction fetches (the perfect I-cache).

    An unconditional ``CALL`` or ``BA`` whose delay slot fuses is
    *followed*: the scan goes on at its static target, a new run, while
    the redirect, its slot and one more instruction fit in
    :data:`MAX_JIT_BLOCK` (so a loop closed by ``BA`` unrolls up to the
    bound).  ``JMPL`` ends the block: its target is a register's.

    ``sliced`` scans the second shape, a *sync-headed slice*: whatever
    stands at ``pc``, then only *private* instructions — one cycle,
    unable to trap (a strict op's or a divide's guard parks instead),
    touching
    nothing but this CPU's registers, condition codes and PC chain,
    or (:func:`_rides_tail`) a word of the executing frame's stack
    window, tested at run time.  The scan stops *before* any other
    load/store or delegated instruction, and a memory delay slot is
    fused only if it rides, so the head is the only instruction in the
    plan another processor could observe.  A followed callee's
    instructions are held to the same test: a ``CALL`` is private, and
    so is what it reaches, or the scan stops there.

    ``single`` scans the third shape, the *one-instruction form*
    ``Processor.step`` runs: the instruction at ``pc`` and nothing
    else — no delay slot fused, nothing followed.

    Plan items:
        ``("s", instr, pc)`` — inlined straight-line op;
        ``("mi", instr, pc)`` — inlined load/store (ideal port, or a
        coherent cache hit);
        ``("mt", instr, pc)`` — the same behind a slice's head, a
        stack group's member: inside the frame's stack window, or the
        chain parks;
        ``("cb", instr, pc)`` — bare conditional exit;
        ``("c", instr, pc, delay)`` — fused conditional (continues);
        ``("u", instr, pc, delay_or_None, followed)`` — BA/CALL/JMPL,
        an exit unless ``followed``;
        ``("t", instr, pc)`` — a ``TRAP`` terminator, taken in place;
        ``("d", instr, pc)`` — delegated terminator (any memory access
        on a port nothing is inlined for, too).
    """
    code = cpu.translations
    fetch = cpu.port.fetch
    plan = []
    words = []
    runs = []
    start = scan = pc
    total = 0

    while total < (1 if single else MAX_JIT_BLOCK):
        try:
            word = fetch(scan)
            instr = code.decode(word)
        except Exception:
            # Unfetchable/undecodable word ends the block; executing
            # into it falls to step(), which raises the ILLEGAL trap.
            break
        shape = ROWS[instr.op].shape

        if shape == STRAIGHT:
            plan.append(("s", instr, scan))
            words.append(word)
            total += 1
            scan += 4
            continue

        redirect = shape == REDIRECT or shape == CONDITIONAL
        if sliced and plan and not redirect:
            if not _rides_tail(instr, spec):
                # Not private: it may only ever be the head of a slice.
                break
            plan.append(("mt", instr, scan))
            words.append(word)
            total += 1
            scan += 4
            continue

        if shape in _MEMORY and spec is not None:
            plan.append(("mi", instr, scan))
            words.append(word)
            total += 1
            scan += 4
            continue

        if redirect:
            delay = None if single else _classify_delay(code, fetch, scan + 4)
            if delay is not None and delay[0] == "m" and (
                    spec is None
                    or sliced and not _rides_tail(delay[1], spec)):
                # A delegated delay slot ends the block anyway; fusing
                # it buys nothing over the bare exit, so keep the exit
                # simple where nothing is inlined.  A slice fuses only what
                # may ride its tail.
                delay = None
            if delay is not None and total + 2 > MAX_JIT_BLOCK:
                # The branch and its slot do not both fit: the next
                # block starts at the branch.
                break
            if shape == CONDITIONAL:
                if delay is None:
                    plan.append(("cb", instr, scan))
                    words.append(word)
                    total += 1
                    scan += 4
                    break
                plan.append(("c", instr, scan, delay))
                words.append(word)
                words.append(delay[2])
                total += 2
                scan += 8
                continue
            followed = (delay is not None and instr.op is not Opcode.JMPL
                        and total + 3 <= MAX_JIT_BLOCK)
            plan.append(("u", instr, scan, delay, followed))
            words.append(word)
            total += 1
            if delay is not None:
                words.append(delay[2])
                total += 1
            if not followed:
                scan += 8 if delay is not None else 4
                break
            runs.append((start, scan + 8))
            start = scan = scan + 4 * instr.imm
            continue

        if instr.op is Opcode.TRAP:
            plan.append(("t", instr, scan))
            words.append(word)
            total += 1
            scan += 4
            break

        # Anything else decodable (frame ops, system ops, IO, memory on
        # a port nothing is inlined for): a delegated terminator ending
        # the block.
        plan.append(("d", instr, scan))
        words.append(word)
        total += 1
        scan += 4
        break

    runs.append((start, scan))
    return plan, words, total, runs


def compile_block(cpu, pc, sliced=False, single=False):
    """Compile the superblock starting at ``pc`` for ``cpu``.

    Returns a :class:`JitBlock`, or ``None`` when the code at ``pc``
    yields fewer than two compilable instructions (nothing worth a
    generated function).  Identical translations are shared
    process-wide through :data:`SHARED_BLOCKS` — source emission and
    ``compile()`` run only on a cache miss.

    ``sliced`` compiles the sync-headed slice at ``pc`` instead (see
    :func:`_scan_block`): the same emitter, except that past the head
    a tripped guard or a stack access that cannot ride parks the chain
    there and returns without raising, and every exit past the head
    sets ``cpu.ahead_tail`` to the number of private instructions it
    ran, their undo snapshot and their store log.  A head that is
    delegated ends the slice like any block: it has no tail.

    ``single`` compiles the one-instruction form ``Processor.step``
    runs at ``pc`` (``None`` only where nothing decodes): the same
    emitter over a plan of one.

    On a machine that loaded a program (``cpu.translations.program``),
    the answer is looked up by that program first
    (:data:`PROGRAM_BLOCKS`): where the bank holds the words the
    earlier scan read, the earlier answer is this one, and nothing is
    scanned.  A miss, or a bank whose code was written there, scans.
    """
    spec = _port_spec(cpu)
    shape = "slice" if sliced else "step" if single else None
    code = cpu.translations
    program = code.program
    if program is not None:
        known = PROGRAM_BLOCKS.get((program, pc, shape, spec))
        if known is not None:
            reads, jb = known
            bank = code.bank
            for lo, hi, image in reads:
                if bank[lo:hi].tobytes() != image:
                    break
            else:
                return jb
    plan, words, total, runs = _scan_block(cpu, pc, spec, sliced, single)
    jb = None
    if total >= (1 if sliced or single else 2):
        # A slice of one still beats step(): its head runs in the
        # same call as the loop's dispatch.
        key = (pc, tuple(words), spec)
        if shape is not None:
            key += (shape,)
        jb = SHARED_BLOCKS.get(key)
        if jb is None:
            jb = _emit_block(plan, total, pc, runs, key, spec, sliced)
    if program is not None:
        PROGRAM_BLOCKS.put((program, pc, shape, spec),
                           (_reads(code.bank, runs), jb))
    return jb


def _reads(bank, runs):
    """The ``(lo, hi, bytes)`` word ranges of ``bank`` a scan that
    covered ``runs`` read: each run, and two words past the last, where
    a scan decides to stop."""
    *followed, (start, end) = runs
    return tuple((lo >> 2, hi >> 2, bank[lo >> 2:hi >> 2].tobytes())
                 for lo, hi in followed + [(start, end + 8)])


def _emit_block(plan, total, pc, runs, key, spec, sliced):
    """Generate, compile and share the :class:`JitBlock` for a scanned
    plan (see :func:`compile_block`)."""

    emitter = _Emitter(sliced)
    line = emitter.line
    pending = 0        # uncommitted 1-cycle instructions so far
    term_emitted = False

    for item in plan:
        kind = item[0]
        if kind == "s":
            _, instr, pc_i = item
            _emit_straight(emitter, instr, pending, pc_i)
            pending += 1
            emitter.mark_head(pc_i + 4, pc_i + 8)
        elif kind == "mi":
            _, instr, pc_i = item
            _emit_mem_inline(emitter, instr, pending, pc_i,
                             "%d" % (pc_i + 4), spec)
            pending += 1
            emitter.mark_head(pc_i + 4, pc_i + 8)
        elif kind == "mt":
            _, instr, pc_i = item
            _emit_mem_inline(emitter, instr, pending, pc_i,
                             "%d" % (pc_i + 4), spec, tail=True)
            pending += 1
        elif kind == "cb":
            # Bare conditional exit: branch only, delay slot left to
            # step() (the chain is no longer straight).
            _, instr, pc_i = item
            # The locals a pending producer's test reads outlive the
            # write-back that settles it.
            test = emitter.branch_test(instr.op)
            emitter.writeback(1)
            emitter.commit(1, pending + 1)
            line(1, "frame.pc = %d" % (pc_i + 4))
            line(1, "frame.npc = %d if %s else %d" % (
                pc_i + 4 * instr.imm, test, pc_i + 8))
            line(1, "return")
            term_emitted = True
        elif kind == "c":
            # Fused conditional: decide, run the delay slot, exit on
            # taken, continue the block on fall-through.
            _, instr, pc_i, delay = item
            target = pc_i + 4 * instr.imm
            line(1, "_tk = %s" % emitter.branch_test(instr.op))
            line(1, "_nn = %d if _tk else %d" % (target, pc_i + 8))
            pending += 1
            emitter.mark_head(pc_i + 4, "_nn")
            pending = _emit_delay(emitter, delay, pending, pc_i, "_nn", spec)
            line(1, "if _tk:")
            emitter.writeback(2)
            emitter.commit(2, pending)
            line(2, "frame.pc = %d" % target)
            line(2, "frame.npc = %d" % (target + 4))
            line(2, "return")
        elif kind == "u":
            # Unconditional redirect: BA/CALL/JMPL, delay slot fused
            # when possible; a followed one goes on at its target.
            _, instr, pc_i, delay, followed = item
            op = instr.op
            pending += 1
            if op is Opcode.JMPL:
                base = emitter.use_reg(instr.rs1)
                line(1, "_nn = (%s + %d) & %d" % (
                    base, instr.imm, WORD_MASK))
                if instr.rd:
                    name = emitter.def_reg(instr.rd)
                    line(1, "%s = %d" % (name, (pc_i + 8) & WORD_MASK))
                target_expr = "_nn"
            else:
                if op is Opcode.CALL:
                    name = emitter.def_reg(registers.RA)
                    line(1, "%s = %d" % (name, (pc_i + 8) & WORD_MASK))
                target_expr = "%d" % (pc_i + 4 * instr.imm)
            emitter.mark_head(pc_i + 4, target_expr)
            if delay is None:
                emitter.writeback(1)
                emitter.commit(1, pending)
                line(1, "frame.pc = %d" % (pc_i + 4))
                line(1, "frame.npc = %s" % target_expr)
                line(1, "return")
                term_emitted = True
                continue
            pending = _emit_delay(emitter, delay, pending, pc_i, target_expr,
                                  spec)
            if followed:
                continue
            emitter.writeback(1)
            emitter.commit(1, pending)
            line(1, "frame.pc = %s" % target_expr)
            if target_expr == "_nn":
                line(1, "frame.npc = _nn + 4")
            else:
                line(1, "frame.npc = %d" % (int(target_expr) + 4))
            line(1, "return")
            term_emitted = True
        elif kind == "t":
            # A software trap: the chain parks at it and the trap is
            # taken in place.
            _, instr, pc_i = item
            emitter.writeback(1)
            line(1, "return _swtrap(cpu, frame, %d, %d, %s)" % (
                pending, pc_i, emitter.add_instr(instr)))
            term_emitted = True
        else:  # "d": delegated terminator
            # The prefix commits, then the reference runs it.
            _, instr, pc_i = item
            emitter.writeback(1)
            line(1, "return _delegate(cpu, frame, %d, %s, %d, %d)" % (
                pending, emitter.add_instr(instr), pc_i, pc_i + 4))
            term_emitted = True

    emitter.close_group()
    scan = runs[-1][1]
    if not term_emitted:
        # Ran off the scan bound (or into an undecodable word): park
        # the chain at the first untranslated pc.
        emitter.writeback(1)
        if pending:
            emitter.commit(1, pending)
        emitter.line(1, "frame.pc = %d" % scan)
        emitter.line(1, "frame.npc = %d" % (scan + 4))
        emitter.line(1, "return")
    if emitter.undoable:
        emitter.snapshot_head()

    header = ["def _jit(cpu, frame):"]
    prologue = []
    if emitter.needs_regs:
        prologue.append("    regs = frame.regs")
    if emitter.needs_glob:
        prologue.append("    glob = cpu.globals")
    if emitter.psr_used:
        prologue.append("    _psr = frame.psr")
        prologue.append("    psr = _psr.value")
    tag = _spec_tag(spec)
    if emitter.needs_mem and tag == "windows":
        prologue.append(
            "    _mw, _fe, _cw, _ow = cpu.port.memory.windows.view")
        prologue.append("    _ww = _cw.words")
        prologue.append("    _wt = _cw.top")
    elif emitter.needs_mem:
        port = "cpu.port"
        if tag == "coherent":
            prologue.append("    _po = cpu.port")
            port = "_po"
        prologue.append("    _mem = %s.memory" % port)
        prologue.append("    _mw = _mem._words")
        prologue.append("    _fe = _mem._full")
        prologue.append("    _cw = _mem.code_watch")
        prologue.append("    _ww = _cw.words if _cw is not None else ()")
        prologue.append("    _wt = _cw.top if _cw is not None else -1")
        if tag == "coherent":
            prologue.append("    _ca = _po.cache")
            prologue.append("    _cl = _ca.valid")
            prologue.append("    _cs = _ca.stats")
        if emitter.needs_owners:
            prologue.append("    _ow = _mem.windows.owners")
    if emitter.needs_window:
        prologue.append("    _lo, _hi = frame.window")
    if emitter.needs_mem:
        prologue.append("    _wh = cpu.watch_hook is not None")
        if tag == "coherent":
            # An attached transaction tracer is told of a served access
            # only to close a full/empty fault pending at its word
            # (`fe_sync`): those accesses are the controller's.
            prologue.append("    _tx = _po.events.txn")
            prologue.append("    _pf = _tx.faults if _tx is not None else None")
    prologue.extend("    " + load for load in emitter.refs.values())
    source = "\n".join(header + prologue + emitter.body) + "\n"

    # The slow exits' helpers and the Instruction constants resolve
    # through the generated function's globals: once per exit at most
    # (and a coherent store's MODIFIED state ``_M``).
    namespace = dict(_GLOBALS)
    for index, instr_const in enumerate(emitter.instrs):
        namespace["_i%d" % index] = instr_const
    code = compile(source, "<jit:%#x>" % pc, "exec")
    exec(code, namespace)
    fn = namespace["_jit"]

    jb = JitBlock(fn, total, pc, _merged(runs), key, source)
    SHARED_BLOCKS.put(key, jb)
    return jb
