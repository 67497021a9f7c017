"""Superblock JIT: translation-cache entries compiled to Python code.

The second of the fast path's two rungs.  :mod:`repro.core.execops`
predecodes each word into a bound closure, which
``Processor.step`` runs one at a time; this module compiles a whole
superblock into a *single generated Python function* via ``compile()``
+ ``exec``, the first time ``Processor.step_block`` visits its start:

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
through three kinds of joints that would otherwise terminate a block
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
  or an attached ``watch_hook`` — falls to the instruction's
  :class:`~repro.core.execops.ExecEntry` closure with the PC chain
  parked at the instruction, and the block *ends there*: the closure
  redoes the access from scratch (the inline test mutated nothing), so
  trap payloads, stall charging, watch notifications, and hook calls
  stay exactly the closure tier's.  On a coherent node (the cache /
  directory machine) the inlined access is a *cache hit*, the case the
  paper's controller answers in the processor's one cycle: a probe of
  the node's ``Cache.valid`` map (the line the controller's set walk
  would find) must find a valid line for a load and a modified one for
  a store; the generated code then stamps the line, advances the
  cache's LRU clock and counts the hit as ``CacheController._access``
  does, and performs the ideal port's access.  A miss, an upgrade and
  an attached transaction tracer (read once per function, like the
  watch hook) are slow too.  On any other port every memory
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
  accumulating in locals, so a forward if-then costs one test.

Strict compute ops (``ADD``/``SUB``/``MUL``/``CMP``) are inlined with
their future-detection guard.  A tripped guard writes back the
registers dirtied so far, commits the cycles already earned, parks the
PC chain at the guarded instruction, and raises the *identical*
:class:`TrapSignal` the closure tier's strict op would — same kind,
instr, pc, value, and cause — which the runner
(:meth:`repro.core.processor.Processor.step_block`) takes exactly as
``step()`` does.  ``DIV``/``REM`` (divide-by-zero on top of
strictness) are never inlined.

A block's final terminator is either *inlined* (``BA``, ``CALL``,
``JMPL`` — pure PC-chain math on the locals) or *delegated*: any other
decodable instruction (frame ops, system ops, ``DIV``/``REM``) runs
through its closure after the prefix commits, ending the block.

The same scan and emitter produce a second shape, the *sync-headed
slice* (``compile_block(..., sliced=True)``), for the machine loop's
run-ahead: the instruction at the pc — inlined as above, whatever it
is — followed only by *private* instructions.  Private means: one
cycle, no trap, and nothing touched that another processor can see or
change before this one's next head.  Straight ops, branches and
``CALL``/``JMPL`` are (this processor's registers, condition codes and
PC chain, nothing else); so is an inlined load or store off the stack
pointer *whose address falls, at run time, inside the executing
frame's stack window* (``frame.window``: the loaded thread's
``[stolen_base, stack_limit)`` on an ideal machine that runs ahead,
empty anywhere else) — the machine keeps every other processor out of
that window or winds this one back (``AlewifeMachine._wind_back``).
On a coherent node no load or store rides: its tails are registers,
condition codes and PC chain only.  The scan stops before any other
memory or delegated instruction.  Past the
head nothing raises or delegates: a tripped guard, a stack access
outside the window, any slow-path condition *parks* the chain at the
instruction and returns, to be taken when it heads a later slice.
Every exit records how many private instructions ran, their post-head
register values and — the store log — the old word and full/empty bit
of everything they changed in memory, so
:meth:`repro.core.processor.Processor.unrun_tail` can take them back.
Slices share :data:`SHARED_BLOCKS` (own key suffix), promotion at the
first visit, the machine's LRU bound and code-watch invalidation.

On a bank with stack windows (``_port_spec``'s third field) every
inlined access that is *not* a tail access — a head, or anywhere in a
plain block — is slow too when it lands in a page holding some thread
stack outside the executing frame's own window: the closure's access
then passes ``Memory._index``, where the window's owner is wound back
first.  Machines without windows (one processor, coherent memory)
carry no such test.

Every compute instruction sets N/Z/V/C and every load or store the
full/empty bit, and the next producer overwrites nearly all of it
unread.  So an inlined instruction emits its *result* only and the
emitter remembers the *pending producers* — the last compute
instruction's kind and operand locals, and that ``_fb`` holds the last
access's full/empty bit (:meth:`_Emitter.produce`).  One method,
:meth:`_Emitter.materialize`, emits the bit arithmetic, and only the
places that read or publish the PSR call it: the write-back every exit
starts with (a guard's bail, a park, a slow-path delegate, a taken
branch, a terminator — inside an ``if`` arm the producers stay pending
for the path that falls through), a slice's head (its undo snapshot
holds the PSR), and a conditional branch whose question the pending
producer's locals cannot answer directly (:meth:`_Emitter.
branch_test`: ``res == 0``, the sign of ``res``, the carry out of
``_t``, a signed compare of a subtract's operands).  An operand local
redefined while its producer is pending is recovered from ``_t`` and
the other operand; it is copied aside only when that is impossible
(:meth:`_Emitter.def_reg`).  Two operands off the hard-wired zero fold
to a literal result and literal bits.  The closure and reference tiers
keep computing the bits per instruction.

Self-modifying code: each compiled block records the byte range
``[start, end)`` it was translated from and a hash of the translated
words; the machine's :class:`~repro.mem.memory.CodeWatch` notifies
every processor on stores into covered words and the overlapping
blocks are discarded (see ``Translations.invalidate_code``).  A block can
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

from collections import OrderedDict

from repro.core.alu import execute as alu_execute
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
from repro.isa import registers
from repro.isa.instructions import (
    LOAD_FLAVORS,
    STORE_FLAVORS,
    STRICT_COMPUTE,
    Opcode,
)
from repro.isa.tags import WORD_MASK
from repro.mem.cache import LineState
from repro.mem.controller import CacheController
from repro.mem.ideal import IdealMemoryPort
from repro.mem.memory import WINDOW_PAGE_SHIFT

_GLOBAL_BASE = registers.GLOBAL_BASE
_CC_MASK = N_BIT | Z_BIT | V_BIT | C_BIT
_NOT_CC = ~_CC_MASK
_SIGN = 0x80000000

#: Most instructions one generated function may execute on a single
#: pass (the slice-budget admission cost); also the scan bound.
MAX_JIT_BLOCK = 32

#: Straight-line ops inlined into the generated body (everything here
#: costs exactly one "useful" cycle; strict ops get an inline guard).
#: ``BN`` (branch never) belongs here: it charges one cycle and always
#: falls through, so its delay slot is just the next instruction.
_STRAIGHT = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.CMP,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.ANDN,
    Opcode.SLL, Opcode.SRL, Opcode.SRA,
    Opcode.ADDR, Opcode.SUBR, Opcode.LUI, Opcode.ORIL,
    Opcode.NOP, Opcode.BN,
})

#: Memory ops (inlined over the ideal port, delegated otherwise).
_MEM_LOADS = frozenset(LOAD_FLAVORS)
_MEM_STORES = frozenset(STORE_FLAVORS)
_MEM = _MEM_LOADS | _MEM_STORES

#: Unconditional redirects compiled to inline PC-chain math.
_UNCOND_EXITS = frozenset({Opcode.BA, Opcode.CALL, Opcode.JMPL})

#: Branch condition source expressions over the local ``psr`` word —
#: the closure tier's tests are built from the same strings.
_COND = {op: condition_source(op) for op in BRANCH_CONDITIONS}

#: The same conditions asked of a pending producer's locals instead
#: (``_Emitter.branch_test``): what ``res`` answers for any kind, what
#: ``_t`` answers for the carry of an add or a subtract, and the
#: comparison of the operands that N != V is after a subtract.
_NEGATIVE = "res & %d" % _SIGN
_ON_RESULT = {
    Opcode.BE: "res == 0",
    Opcode.BNE: "res != 0",
    Opcode.BNEG: _NEGATIVE,
    Opcode.BPOS: "not " + _NEGATIVE,
}
_ON_CARRY = {
    ("add", Opcode.BCS): "_t > %d" % WORD_MASK,
    ("add", Opcode.BCC): "_t <= %d" % WORD_MASK,
    ("sub", Opcode.BCS): "_t < 0",
    ("sub", Opcode.BCC): "_t >= 0",
}
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


class CodeCache:
    """A bounded pc-keyed translation cache with true LRU eviction.

    Shared by the predecode entry cache and the JIT block cache (the
    "same LRU policy" both tiers advertise).  ``data`` is the backing
    :class:`OrderedDict`; hot paths may read it directly (``data.get``
    + ``data.move_to_end``) and must route insertions through
    :meth:`put` so the bound and the eviction counter stay exact.  The
    dict object is never replaced, so callers may alias it.
    """

    __slots__ = ("data", "capacity", "evictions", "invalidations")

    def __init__(self, capacity):
        self.data = OrderedDict()
        self.capacity = capacity
        self.evictions = 0
        self.invalidations = 0

    def get(self, key):
        """LRU lookup: returns the value or None, refreshing recency."""
        data = self.data
        value = data.get(key)
        if value is not None:
            data.move_to_end(key)
        return value

    def put(self, key, value):
        """Insert (refreshing recency), evicting the LRU tail if full."""
        data = self.data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def discard(self, key):
        """Drop one key (an invalidation); returns True if present."""
        if key in self.data:
            del self.data[key]
            self.invalidations += 1
            return True
        return False

    def __len__(self):
        return len(self.data)

    def counters(self):
        """JSON-ready size/eviction/invalidation counters."""
        return {
            "size": len(self.data),
            "capacity": self.capacity,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


#: Process-wide cache of compiled blocks, keyed by
#: ``(pc, words tuple, port spec)``.  Nothing machine-specific is baked
#: into a generated function (see the module docstring), so any machine
#: whose code words at ``pc`` match — and whose port admits the same
#: inline-memory specialization — reuses the block and skips
#: ``compile()``, the dominant cost of warming a fresh machine.
SHARED_BLOCKS = CodeCache(1 << 12)


def _spec_tag(spec):
    """The third field of ``spec`` (see :func:`_port_spec`), if any."""
    return spec[2] if spec is not None and len(spec) > 2 else None


def _has_windows(spec):
    """Whether ``spec`` is a windowed bank's."""
    return _spec_tag(spec) == "windows"


def _port_spec(cpu):
    """Inline-memory specialization key for this CPU's port.

    Two ports are inlined.  The plain ideal port with unit latency:
    its successful loads and stores are pure array reads/writes plus
    full/empty-bit flavor logic, all compile-time known.  And a node's
    :class:`~repro.mem.controller.CacheController`, for the accesses
    its cache answers in the processor's one cycle (a valid line for a
    load, a modified one for a store), which are then the ideal port's
    access (``"coherent"`` and the block size, for the cache probe).
    The spec carries the bank geometry because it is baked into the
    generated bounds checks.  ``None`` means "delegate every memory
    access".

    A bank with :class:`~repro.mem.memory.StackWindows` installed — an
    ideal machine that runs ahead — adds a third field: every inlined
    access that is not a tail access then carries the foreign-window
    test.  Everybody else's key, and so their generated source, is what
    it was without one.
    """
    port = cpu.port
    if type(port) is IdealMemoryPort and port.latency == 1:
        memory = port.memory
        if memory.windows is not None:
            return (memory.base, memory.size_words, "windows")
        return (memory.base, memory.size_words)
    if type(port) is CacheController:
        memory = port.memory
        return (memory.base, memory.size_words, "coherent",
                port.cache.block_bytes)
    return None


class JitBlock:
    """One compiled superblock.

    Attributes:
        fn: the generated ``fn(cpu, frame)`` — executes the whole
            block including accounting and the PC-chain exit; raises
            :class:`TrapSignal` from a guard or a delegated closure.
        count: instructions the block executes on a full pass.
        cost: worst-case 1-cycle instructions the block issues (equal
            to ``count``) — the slice-budget admission test.
        start/end: byte range of code words the block was compiled
            from (invalidation granularity).
        key: the :data:`SHARED_BLOCKS` key — ``(start, words, spec)``;
            a recompile after self-modifying code yields a different
            key.
        source: the generated Python source (debugging / tests).
    """

    __slots__ = ("fn", "count", "cost", "start", "end", "key", "source")

    def __init__(self, fn, count, cost, start, end, key, source):
        self.fn = fn
        self.count = count
        self.cost = cost
        self.start = start
        self.end = end
        self.key = key
        self.source = source

    def __repr__(self):
        return "JitBlock(start=%#x, count=%d, cost=%d)" % (
            self.start, self.count, self.cost)


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
        self.refs = OrderedDict()
        self.dirty = OrderedDict()   # name -> store_stmt
        self._stores = {}
        self._numbers = {}           # name -> encoded register number
        self.psr_used = False
        self.psr_dirty = False
        #: The pending producers — what the PSR *would* hold had the
        #: bits been computed: ``(kind, a, b)`` of the last compute
        #: instruction (see :meth:`produce`), and whether the local
        #: ``_fb`` is the full/empty bit of the last inlined access.
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
        self.delegates = []          # closure default-arg values
        self.instrs = []             # Instruction constants (trap payloads)

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

    def def_reg(self, number):
        """Local name for writing register ``number`` (marked dirty).

        Call it *before* emitting the assignment: a pending add or
        subtract that names the local as an operand loses it here.  One
        lost operand costs nothing — ``_t`` and the other one give it
        back (:func:`_operands`); only when that is gone too (``add r1,
        r1, r1``, or the second operand redefined later) is the local
        copied aside first.
        """
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
        """The access just emitted left its word's full/empty bit, as
        it was *before* the access, in ``_fb``."""
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
                overflow = carry = None
                if kind == "add":
                    a, b = _operands(kind, a, b)
                    overflow = "(%s ^ res) & (%s ^ res) & %d" % (a, b, _SIGN)
                    carry = "_t > %d" % WORD_MASK
                elif kind == "sub":
                    a, b = _operands(kind, a, b)
                    overflow = "(%s ^ %s) & (%s ^ res) & %d" % (a, b, a, _SIGN)
                    carry = "_t < 0"
                elif kind == "mul":
                    overflow = "not %d <= _t < %d" % (-(1 << 31), 1 << 31)
                line(indent, "_cc = %d if res == 0 else (%d if %s else 0)"
                     % (Z_BIT, N_BIT, _NEGATIVE))
                for test, bit in ((overflow, V_BIT), (carry, C_BIT)):
                    if test is not None:
                        line(indent, "if %s:" % test)
                        line(indent + 1, "_cc |= %d" % bit)
                line(indent, "psr = psr & %d | _cc" % _NOT_CC)
        if self.fe:
            line(indent, "psr = psr | %d if _fb else psr & %d" % (
                FE_BIT, ~FE_BIT))
        if indent == 1:
            self.cc = None
            self.fe = False

    def branch_test(self, op):
        """Source of conditional ``op``'s taken test.

        A pending producer answers from the result it already has —
        the PSR is then built only on the exit that publishes it; any
        other pairing settles the PSR and tests its bits
        (:data:`_COND`), as does a branch with nothing pending.
        """
        if op is Opcode.JFULL or op is Opcode.JEMPTY:
            if self.fe:
                return "_fb" if op is Opcode.JFULL else "not _fb"
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
        return _COND[op]

    def add_delegate(self, run):
        """Bind a closure as a default argument; returns its local name."""
        name = "_d%d" % len(self.delegates)
        self.delegates.append(run)
        return name

    def add_instr(self, instr):
        """Bake an Instruction as a namespace constant (trap payloads)."""
        name = "_i%d" % len(self.instrs)
        self.instrs.append(instr)
        return name

    # -- common fragments --------------------------------------------------

    def writeback(self, indent):
        """Emit the write-back of everything dirtied so far — every
        exit starts with it, so this is where a pending PSR is built."""
        for name in self.dirty:
            self.line(indent, self._stores[name])
        self.materialize(indent)
        if self.psr_dirty:
            self.line(indent, "_psr.value = psr")

    def commit(self, indent, count):
        """Emit the batched cycle/useful/instruction accounting.

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
            self.line(indent, "cpu.ahead_tail = (%d, _u, %s)" % (
                count - 1, "_sl" if self.logs else "None"))
            self.line(indent, "cpu.ahead_slices += 1")
            self.line(indent, "cpu.ahead_instructions += %d" % (count - 1))
            if self.tail_loads:
                self.line(indent, "cpu.ahead_loads += %d" % self.tail_loads)
            if self.tail_stores:
                self.line(indent, "cpu.ahead_stores += %d" % self.tail_stores)

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
        ``_sl`` here: ``(index, old word, old full/empty bit)`` per
        change, oldest first.
        """
        at, pc_expr, npc_expr = self.head
        names = list(self.dirty)
        fields = [str(pc_expr), str(npc_expr),
                  "psr" if self.psr_dirty else "None",
                  repr(tuple(self._numbers[name] for name in names))]
        self.body.insert(at, "    _u = (%s)" % ", ".join(fields + names))
        if self.logs:
            self.body.insert(at, "    _sl = []")


def _emit_park(emitter, pending, pc_k, npc_expr):
    """Past the head of a slice: stop *before* the instruction at
    ``pc_k`` — write back, commit what ran, leave the chain there so it
    heads a later slice at its own key."""
    emitter.writeback(2)
    emitter.commit(2, pending)
    emitter.line(2, "frame.pc = %d" % pc_k)
    emitter.line(2, "frame.npc = %s" % npc_expr)
    emitter.line(2, "return")


def _emit_guard(emitter, guard_expr, value_expr, instr, pending, pc_k,
                npc_expr=None):
    """Inline future-detection guard: write back, commit, raise.

    ``pending`` is the number of uncommitted instructions already
    executed when the guard trips.  The tripped guard writes back the
    dirt so far, commits the earned cycles, parks the PC chain at the
    guarded instruction (``npc_expr`` overrides the straight ``pc +
    4`` for a delay-slot guard whose next pc is the branch target),
    and raises the *identical* :class:`TrapSignal` the closure tier's
    strict op would — same kind, instr, pc, value, and cause — which
    the runner takes exactly as ``step()`` does.

    Past the head of a sync-headed slice the guard only parks: the
    trap reads shared state (is the future resolved yet?), so it is
    taken when the instruction heads a later slice, at its own key.
    """
    emitter.line(1, "if %s:" % guard_expr)
    if npc_expr is None:
        npc_expr = "%d" % (pc_k + 4)
    if emitter.sliced and pending:
        _emit_park(emitter, pending, pc_k, npc_expr)
        return
    emitter.writeback(2)
    if pending:
        emitter.commit(2, pending)
    emitter.line(2, "frame.pc = %d" % pc_k)
    emitter.line(2, "frame.npc = %s" % npc_expr)
    name = emitter.add_instr(instr)
    emitter.line(2, "raise _TS(_T(_FC, instr=%s, pc=%d, value=%s,"
                 " cause=%r))" % (name, pc_k, value_expr, instr.op.name))


def _emit_straight(emitter, instr, pending, pc_i, npc_expr=None):
    """Emit one inlined straight-line instruction at ``pc_i``."""
    op = instr.op
    if op is Opcode.NOP or op is Opcode.BN:
        return
    if op is Opcode.LUI:
        if instr.rd:
            name = emitter.def_reg(instr.rd)
            emitter.line(1, "%s = %d" % (name, (instr.imm << 14) & WORD_MASK))
        return
    if op is Opcode.ORIL:
        if instr.rd:
            name = emitter.def_reg(instr.rd)
            if instr.rd < _GLOBAL_BASE:
                # Mirrors the closure: frame regs hold masked words and
                # the 18-bit immediate cannot push them out of range.
                emitter.line(1, "%s |= %d" % (name, instr.imm))
            else:
                emitter.line(1, "%s = (%s | %d) & %d" % (
                    name, name, instr.imm, WORD_MASK))
        return

    a = emitter.use_reg(instr.rs1)
    if instr.use_imm:
        imm_w = instr.imm & WORD_MASK
        b = "%d" % imm_w
        b_const = imm_w
    else:
        b = emitter.use_reg(instr.rs2)
        b_const = 0 if instr.rs2 == 0 else None
    strict = op in STRICT_COMPUTE
    line = emitter.line
    rd = 0 if op is Opcode.CMP else instr.rd

    if instr.rs1 == 0 and b_const is not None and not (strict and b_const & 1):
        # Both operands are literals (how codegen loads every small
        # constant): the reference ALU runs now, not in the block.
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
        _emit_guard(emitter, guard, value, instr, pending, pc_i, npc_expr)

    # The result only: the condition codes wait for a reader.
    if op is Opcode.ADD or op is Opcode.ADDR:
        line(1, "_t = %s + %s" % (a, b))
        line(1, "res = _t & %d" % WORD_MASK)
        emitter.produce("add", a, b)
    elif op is Opcode.SUB or op is Opcode.SUBR or op is Opcode.CMP:
        line(1, "_t = %s - %s" % (a, b))
        line(1, "res = _t & %d" % WORD_MASK)
        emitter.produce("sub", a, b)
    elif op is Opcode.MUL:
        line(1, "_sa = %s - %d if %s & %d else %s" % (a, 1 << 32, a, _SIGN, a))
        line(1, "_sb = %s - %d if %s & %d else %s" % (b, 1 << 32, b, _SIGN, b))
        line(1, "_t = (_sa >> 2) * _sb")
        line(1, "res = _t & %d" % WORD_MASK)
        emitter.produce("mul")
    else:
        if op is Opcode.AND:
            expr = "%s & %s" % (a, b)
        elif op is Opcode.OR:
            # ``mov`` is ``or rs, r0, rd``.
            expr = a if b == "0" else b if a == "0" else "%s | %s" % (a, b)
        elif op is Opcode.XOR:
            expr = "(%s ^ %s) & %d" % (a, b, WORD_MASK)
        elif op is Opcode.ANDN:
            expr = "%s & ~%s & %d" % (a, b, WORD_MASK)
        elif op is Opcode.SLL:
            expr = "(%s << (%s & 31)) & %d" % (a, b, WORD_MASK)
        elif op is Opcode.SRL:
            expr = "(%s & %d) >> (%s & 31)" % (a, WORD_MASK, b)
        else:  # SRA
            expr = "((%s - %d if %s & %d else %s) >> (%s & 31)) & %d" % (
                a, 1 << 32, a, _SIGN, a, b, WORD_MASK)
        line(1, "res = %s" % expr)
        emitter.produce("logic")
    if rd:
        name = emitter.def_reg(rd)
        line(1, "%s = res" % name)


def _emit_mem_delegate(emitter, instr, run, pending, pc_i, npc_expr,
                       install, indent=1):
    """Emit a delegated load/store at ``pc_i``, ending the block.

    Writes back and commits the pending segment, parks the PC chain at
    the instruction (so a raised trap banks exactly the state
    ``step()`` would have), calls the closure, installs the next
    chain, bumps the retired counter, and returns.  When ``install``
    the chain comes from the closure's return value (delay-slot use,
    where the next pc is dynamic); otherwise it is the static
    fall-through.  Used both for every memory access on a port nothing
    is inlined for and for the slow path of an inlined access.
    """
    name = emitter.add_delegate(run)
    emitter.writeback(indent)
    if pending:
        emitter.commit(indent, pending)
    line = emitter.line
    line(indent, "frame.pc = %d" % pc_i)
    line(indent, "frame.npc = %s" % npc_expr)
    call = "%s(cpu, frame, %d, %s)" % (name, pc_i, npc_expr)
    if install:
        line(indent, "_p, _n = %s" % call)
        line(indent, "frame.pc = _p")
        line(indent, "frame.npc = _n")
    else:
        line(indent, "%s" % call)
        line(indent, "frame.pc = %d" % (pc_i + 4))
        line(indent, "frame.npc = %d" % (pc_i + 8))
    line(indent, "cpu.stats.instructions += 1")
    line(indent, "return")


def _emit_mem_inline(emitter, instr, run, pending, pc_i, npc_expr, spec,
                     install, tail=False):
    """Emit an inlined load/store at ``pc_i``.

    The successful single-cycle access runs on the block's locals and
    memory arrays and joins the pending batch; every other case — the
    flavor's trap condition, a future base, a misaligned or
    out-of-bank address, a store into a code-watched word, an attached
    ``watch_hook`` — takes the slow branch, which delegates to the
    closure and ends the block (the inline test mutated nothing, so
    the closure redoes the access from scratch, bit-identically).

    On a bank with stack windows (``spec`` has the third field) one
    more case is slow: an address in a page that holds some thread
    stack, unless it is in the executing frame's own window — the
    closure's access goes through ``Memory._index``, which has whoever
    ran ahead over that word wound back first.

    On a coherent node (``spec`` tagged ``"coherent"``) the access
    must also hit its cache: the line ``Cache.valid`` maps the block
    to, valid for a load and modified for a store, or it is slow.  A
    hit advances the cache's LRU clock, stamps the line and counts
    itself before the ideal port's access.

    ``tail`` emits the access behind a slice's head instead (``run``
    is not used): it happens only inside the executing frame's own
    window (which is inside the bank), any other case *parks* the
    chain at the instruction like a tripped guard, and whatever it
    changes in memory — the word, the full/empty bit — is logged
    first so :meth:`Processor.unrun_tail` can put it back.
    """
    emitter.needs_mem = True
    op = instr.op
    is_load = op in _MEM_LOADS
    flavor = LOAD_FLAVORS[op] if is_load else STORE_FLAVORS[op]
    base, size_words = spec[:2]
    coherent = _spec_tag(spec) == "coherent"
    line = emitter.line

    b = emitter.use_reg(instr.rs1)
    line(1, "_a = (%s + %d) & %d" % (b, instr.imm, WORD_MASK))
    if base:
        line(1, "_x = (_a - %d) >> 2" % base)
    else:
        line(1, "_x = _a >> 2")
    slow = []
    if tail:
        # The window is inside the bank.
        emitter.needs_window = True
        if not flavor.raw and not instr.imm & 3:
            slow.append("%s & 3" % b)    # future bit and alignment
        else:
            if not flavor.raw:
                slow.append("%s & 1" % b)
            slow.append("_a & 3")
        slow.append("not _lo <= _a < _hi")
    else:
        if not flavor.raw:
            slow.append("%s & 1" % b)
        slow.append("_a & 3")
        if base:
            slow.append("_x < 0")
        slow.append("_x >= %d" % size_words)
    # Read once per generated function: nothing a block runs can attach
    # a hook, and a delegate ends the block.
    slow.append("_wh")
    if coherent:
        # Before anything changes: the line the set walk would find.
        line(1, "_l = _cl.get(_a & %d)" % (WORD_MASK & ~(spec[3] - 1)))
        slow.append("_l is None" if is_load
                    else "_l is None or _l.state is not _M")
    if is_load:
        if flavor.trap_on_empty:
            slow.append("not _fe[_x]")
    else:
        slow.append("_x in _ww")
        if flavor.trap_on_full:
            slow.append("_fe[_x]")
    if not tail and _has_windows(spec):
        emitter.needs_window = True
        foreign = ["not _lo <= _a < _hi",
                   "_a >> %d in _ow" % WINDOW_PAGE_SHIFT]
        if instr.rs1 != registers.SP:
            # Not the stack pointer: probably no stack at all, so ask
            # the page table first.
            foreign.reverse()
        slow.append("(%s)" % " and ".join(foreign))
    line(1, "if %s:" % " or ".join(slow))
    if tail:
        _emit_park(emitter, pending, pc_i, npc_expr)
    else:
        _emit_mem_delegate(emitter, instr, run, pending, pc_i, npc_expr,
                           install, indent=2)

    if coherent:
        # A hit, counted and stamped exactly as `CacheController._access`
        # and `Cache.lookup` do.
        line(1, "_ca._clock = _l.last_used = _ca._clock + 1")
        line(1, "_cs.hits += 1")
    # Fast path: the flavor's semantics inline.  The PSR full/empty
    # condition bit reflects the state *before* the access; ``_fb``
    # keeps it for whoever reads the PSR next.
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
            line(1, "_fe[_x] = 0")
    else:
        value = emitter.use_reg(instr.rd)
        line(1, "_mw[_x] = %s" % value)
        if flavor.set_full:
            line(1, "_fe[_x] = 1")


def _classify_delay(decoder, fetch, address):
    """Decode the delay-slot instruction at ``address`` for fusion.

    Returns ``("s", instr, None, word)`` for an inlineable straight
    op, ``("m", instr, run, word)`` for a load/store, or ``None`` when
    the slot cannot be fused (another branch, a system op, an
    unfetchable word) — the exit then leaves the delay slot to
    ``step()``, exactly as the closure tier does.
    """
    try:
        word = fetch(address)
        instr = decoder.decode(word)
    except Exception:
        return None
    if instr.op in _STRAIGHT:
        return ("s", instr, None, word)
    if instr.op in _MEM:
        try:
            run = decoder.predecode(word).run
        except Exception:
            return None
        return ("m", instr, run, word)
    return None


def _rides_tail(instr, spec):
    """Whether a slice may carry ``instr`` behind its head: an inlined
    load or store off the stack pointer, on an ideal port.  Only a
    guess at what will pass the window test at run time — that test
    alone decides, for any program — so that a heap access does not
    drag a tail it always parks.  A coherent node's tails touch no
    memory, so nothing there needs winding back but its registers."""
    return (spec is not None and _spec_tag(spec) != "coherent"
            and instr.op in _MEM and instr.rs1 == registers.SP)


def _scan_block(cpu, pc, spec, sliced=False):
    """Scan the superblock at ``pc`` into a translation plan.

    Returns ``(plan, words, total, end)`` — the classified
    instructions, the code words covered, the instruction count on a
    full pass, and the first byte past the block — without generating
    any source.  The split from emission exists so a
    :data:`SHARED_BLOCKS` hit (the common case on every machine after
    the first) pays only this cheap classification walk, not the
    string building.  Scanning uses side-effect-free instruction
    fetches (the perfect I-cache).

    ``sliced`` scans the second shape, a *sync-headed slice*: whatever
    stands at ``pc``, then only *private* instructions — one cycle,
    unable to trap (a strict op's guard parks instead), touching
    nothing but this CPU's registers, condition codes and PC chain,
    or (:func:`_rides_tail`) a word of the executing frame's stack
    window, tested at run time.  The scan stops *before* any other
    load/store or delegated instruction, and a memory delay slot is
    fused only if it rides, so the head is the only instruction in the
    plan another processor could observe.

    Plan items:
        ``("s", instr, pc)`` — inlined straight-line op;
        ``("mi", instr, run, pc)`` — inlined load/store (ideal port,
        or a coherent cache hit);
        ``("mt", instr, pc)`` — the same behind a slice's head:
        inside the frame's stack window, or the chain parks;
        ``("md", instr, run, pc)`` — delegated memory terminator;
        ``("cb", instr, pc)`` — bare conditional exit;
        ``("c", instr, pc, delay)`` — fused conditional (continues);
        ``("u", instr, pc, delay_or_None)`` — BA/CALL/JMPL exit;
        ``("d", instr, run, pc)`` — delegated terminator.
    """
    decoder = cpu.decoder
    fetch = cpu.port.fetch
    predecode = decoder.predecode
    plan = []
    words = []
    scan = pc
    total = 0

    while total < MAX_JIT_BLOCK:
        try:
            word = fetch(scan)
            instr = decoder.decode(word)
        except Exception:
            # Unfetchable/undecodable word ends the block; executing
            # into it falls to step(), which raises the ILLEGAL trap.
            break
        op = instr.op

        if op in _STRAIGHT:
            plan.append(("s", instr, scan))
            words.append(word)
            total += 1
            scan += 4
            continue

        redirect = op in _UNCOND_EXITS or op in _COND
        if sliced and plan and not redirect:
            if not _rides_tail(instr, spec):
                # Not private: it may only ever be the head of a slice.
                break
            plan.append(("mt", instr, scan))
            words.append(word)
            total += 1
            scan += 4
            continue

        if op in _MEM:
            try:
                run = predecode(word).run
            except Exception:
                break
            words.append(word)
            if spec is not None:
                plan.append(("mi", instr, run, scan))
                total += 1
                scan += 4
                continue
            # A port nothing is inlined for: a delegated terminator.
            plan.append(("md", instr, run, scan))
            total += 1
            scan += 4
            break

        if redirect:
            delay = _classify_delay(decoder, fetch, scan + 4)
            if delay is not None and delay[0] == "m" and (
                    spec is None
                    or sliced and not _rides_tail(delay[1], spec)):
                # A delegated delay slot ends the block anyway; fusing
                # it buys nothing over the bare exit, so keep the exit
                # simple where nothing is inlined.  A slice fuses only what
                # may ride its tail.
                delay = None
            if op in _COND:
                if delay is None:
                    plan.append(("cb", instr, scan))
                    words.append(word)
                    total += 1
                    scan += 4
                    break
                plan.append(("c", instr, scan, delay))
                words.append(word)
                words.append(delay[3])
                total += 2
                scan += 8
                continue
            plan.append(("u", instr, scan, delay))
            words.append(word)
            total += 1
            scan += 4
            if delay is not None:
                words.append(delay[3])
                total += 1
                scan += 4
            break

        # Anything else decodable (frame ops, system ops, DIV/REM, IO):
        # a delegated terminator ending the block.
        try:
            run = predecode(word).run
        except Exception:
            break
        plan.append(("d", instr, run, scan))
        words.append(word)
        total += 1
        scan += 4
        break

    return plan, words, total, scan


def compile_block(cpu, pc, sliced=False):
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
    """
    spec = _port_spec(cpu)
    plan, words, total, end = _scan_block(cpu, pc, spec, sliced)
    if total < (1 if sliced else 2):
        # A slice of one still beats step(): an inlined head skips the
        # closure tier's port call, a delegated one its dispatch.
        return None

    key = (pc, tuple(words), spec)
    if sliced:
        key += ("slice",)
    shared = SHARED_BLOCKS.get(key)
    if shared is not None:
        return shared

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
            _, instr, run, pc_i = item
            _emit_mem_inline(emitter, instr, run, pending, pc_i,
                             "%d" % (pc_i + 4), spec, install=False)
            pending += 1
            emitter.mark_head(pc_i + 4, pc_i + 8)
        elif kind == "mt":
            _, instr, pc_i = item
            _emit_mem_inline(emitter, instr, None, pending, pc_i,
                             "%d" % (pc_i + 4), spec, install=False,
                             tail=True)
            pending += 1
        elif kind == "md":
            _, instr, run, pc_i = item
            _emit_mem_delegate(emitter, instr, run, pending, pc_i,
                               "%d" % (pc_i + 4), install=False)
            term_emitted = True
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
            dkind, dinstr, drun, _dword = delay
            if dkind == "s":
                _emit_straight(emitter, dinstr, pending, pc_i + 4,
                               npc_expr="_nn")
            else:
                _emit_mem_inline(emitter, dinstr, drun, pending,
                                 pc_i + 4, "_nn", spec, install=True,
                                 tail=emitter.sliced)
            pending += 1
            line(1, "if _tk:")
            emitter.writeback(2)
            emitter.commit(2, pending)
            line(2, "frame.pc = %d" % target)
            line(2, "frame.npc = %d" % (target + 4))
            line(2, "return")
        elif kind == "u":
            # Unconditional redirect: BA/CALL/JMPL, delay slot fused
            # when possible.
            _, instr, pc_i, delay = item
            op = instr.op
            pending += 1
            if op is Opcode.CALL:
                name = emitter.def_reg(registers.RA)
                line(1, "%s = %d" % (name, (pc_i + 8) & WORD_MASK))
                target_expr = "%d" % (pc_i + 4 * instr.imm)
            elif op is Opcode.JMPL:
                base = emitter.use_reg(instr.rs1)
                line(1, "_nn = (%s + %d) & %d" % (
                    base, instr.imm, WORD_MASK))
                if instr.rd:
                    name = emitter.def_reg(instr.rd)
                    line(1, "%s = %d" % (name, (pc_i + 8) & WORD_MASK))
                target_expr = "_nn"
            else:  # BA
                target_expr = "%d" % (pc_i + 4 * instr.imm)
            emitter.mark_head(pc_i + 4, target_expr)
            if delay is None:
                emitter.writeback(1)
                emitter.commit(1, pending)
                line(1, "frame.pc = %d" % (pc_i + 4))
                line(1, "frame.npc = %s" % target_expr)
                line(1, "return")
            else:
                dkind, dinstr, drun, _dword = delay
                if dkind == "s":
                    _emit_straight(emitter, dinstr, pending, pc_i + 4,
                                   npc_expr=target_expr)
                else:
                    _emit_mem_inline(emitter, dinstr, drun, pending,
                                     pc_i + 4, target_expr, spec,
                                     install=True, tail=emitter.sliced)
                pending += 1
                emitter.writeback(1)
                emitter.commit(1, pending)
                line(1, "frame.pc = %s" % target_expr)
                if target_expr == "_nn":
                    line(1, "frame.npc = _nn + 4")
                else:
                    line(1, "frame.npc = %d" % (int(target_expr) + 4))
                line(1, "return")
            term_emitted = True
        else:  # "d": delegated terminator
            _, instr, run, pc_i = item
            name = emitter.add_delegate(run)
            emitter.writeback(1)
            if pending:
                emitter.commit(1, pending)
            line(1, "frame.pc = %d" % pc_i)
            line(1, "frame.npc = %d" % (pc_i + 4))
            line(1, "_p, _n = %s(cpu, frame, %d, %d)" % (
                name, pc_i, pc_i + 4))
            line(1, "frame.pc = _p")
            line(1, "frame.npc = _n")
            line(1, "cpu.stats.instructions += 1")
            line(1, "return")
            term_emitted = True

    scan = end
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

    params = ["cpu", "frame"]
    for index in range(len(emitter.delegates)):
        params.append("_d%d=_D%d" % (index, index))
    header = ["def _jit(%s):" % ", ".join(params)]
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
            "    _mw, _fe, _ww, _ow = cpu.port.memory.windows.view")
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
        if tag == "coherent":
            prologue.append("    _ca = _po.cache")
            prologue.append("    _cl = _ca.valid")
            prologue.append("    _cs = _ca.stats")
    if emitter.needs_window:
        prologue.append("    _lo, _hi = frame.window")
    if emitter.needs_mem:
        hooked = "cpu.watch_hook is not None"
        if tag == "coherent":
            # The transaction tracer records every access the controller
            # serves (`fe_sync`): with one attached, it serves them all.
            hooked += " or _po.events.txn is not None"
        prologue.append("    _wh = " + hooked)
    prologue.extend("    " + load for load in emitter.refs.values())
    source = "\n".join(header + prologue + emitter.body) + "\n"

    # Trap machinery and Instruction payloads resolve through the
    # generated function's globals — cold path, so dict lookups are
    # fine there (the hot path only touches locals and default args,
    # and a coherent store the MODIFIED state ``_M``).
    namespace = {
        "_TS": TrapSignal,
        "_T": Trap,
        "_FC": TrapKind.FUTURE_COMPUTE,
        "_M": LineState.MODIFIED,
    }
    for index, instr_const in enumerate(emitter.instrs):
        namespace["_i%d" % index] = instr_const
    for index, run in enumerate(emitter.delegates):
        namespace["_D%d" % index] = run
    code = compile(source, "<jit:%#x>" % pc, "exec")
    exec(code, namespace)
    fn = namespace["_jit"]

    jb = JitBlock(fn, total, total, pc, scan, key, source)
    SHARED_BLOCKS.put(key, jb)
    return jb
