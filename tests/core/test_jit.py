"""Superblock JIT unit tests: generated code vs. the reference step.

The machine-level lockstep harness (``test_lockstep.py``) proves the
JIT tier end-to-end on whole Mul-T runs; this file pins the mechanism
at the processor level — codegen parity on hand-written assembly,
future-guard trap payloads, process-wide block sharing, and
self-modifying-code invalidation.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core.jit import MAX_JIT_BLOCK, SHARED_BLOCKS, compile_block
from repro.core.processor import Processor
from repro.core.traps import TrapAction, TrapKind
from repro.isa import registers
from repro.isa.assembler import assemble
from repro.isa.instructions import STORE_FLAVORS
from repro.isa.optable import (
    CONDITIONAL,
    LOAD,
    PRODUCERS,
    REDIRECT,
    STORE,
    STRAIGHT,
    TABLE,
)
from repro.isa.tags import WORD_MASK, make_fixnum
from repro.lang.compiler import compile_source
from repro.machine.config import MachineConfig
from repro.mem.ideal import IdealMemoryPort
from repro.mem.memory import CodeWatch, Memory, StackWindows
from repro.mem.system import CoherentMemorySystem
from repro.obs.events import EventBus
from repro.obs.txn import TransactionTracer

from tests.helpers import (
    DEFAULT_MEMORY_WORDS,
    build_cpu,
    ignore_trap_handler,
    run_to_halt,
)


#: How generated code asks whether an address is in the executing
#: frame's own stack window.
WINDOW_TEST = "not _lo <= _a < _hi"


def build_jit_cpu(source, **kwargs):
    """A :func:`build_cpu` whose memory carries a code watch (as the
    machine attaches one)."""
    cpu, memory, program = build_cpu(source, **kwargs)
    watch = CodeWatch()
    memory.code_watch = watch
    cpu.translations.attach_code_watch(watch)
    return cpu, memory, program


def coherent_system(memory):
    """A one-node coherent memory system over ``memory``: every miss is
    local, and the controller holds the processor."""
    config = MachineConfig(num_processors=1, memory_mode="coherent")
    return CoherentMemorySystem(config, memory, EventBus())


def build_coherent_cpu(source):
    """Node 0 of a one-node :func:`coherent_system` running ``source``,
    its bank under a code watch; returns (cpu, fabric, program)."""
    program = assemble(source)
    memory = Memory(DEFAULT_MEMORY_WORDS)
    memory.load_program(program)
    watch = CodeWatch()
    memory.code_watch = watch
    fabric = coherent_system(memory)
    cpu = fabric.cpus[0]
    cpu.translations.attach_code_watch(watch)
    cpu.frame.pc = program.base
    cpu.frame.npc = program.base + 4
    return cpu, fabric, program


#: Patches its own loop body with a store, then runs the patched loop:
#: r1 ends 8 + 8 * 5.
SMC_STORE_SOURCE = """
        set 0, r1
        set 0, r2
    phase1:
        addr r1, 1, r1
        addr r2, 1, r2
        cmpr r2, 8
        bl phase1
        set donor, r3
        ldr [r3+0], r4
        set target, r5
        str r4, [r5+0]       ; overwrite the phase2 body word
        set 0, r2
    phase2:
    target:
        addr r1, 1, r1       ; becomes "addr r1, 5, r1"
        addr r2, 1, r2
        cmpr r2, 8
        bl phase2
        halt
    donor:
        addr r1, 5, r1
"""


def run_jit_to_halt(cpu, max_blocks=200000):
    """Drive the processor through ``step_block`` until HALT."""
    blocks = 0
    while not cpu.halted:
        cpu.step_block(1 << 30)
        blocks += 1
        if blocks > max_blocks:
            raise AssertionError("program did not halt in %d blocks" % blocks)
    return cpu


def run_slices_to_halt(cpu, max_slices=200000):
    """Drive the processor through sync-headed slices until HALT."""
    slices = 0
    while not cpu.halted:
        cpu.step_block(0, True)
        slices += 1
        if slices > max_slices:
            raise AssertionError("program did not halt in %d slices" % slices)
    return cpu


def assert_same_outcome(source, check=None, build_ref=build_cpu,
                        build_jit=build_jit_cpu, prepare=None):
    """Run ``source`` under step() and under the JIT; compare everything.

    ``prepare(cpu, memory)`` (applied to both machines) seeds registers
    or memory; ``check(cpu)`` adds scenario assertions on the JIT run.
    """
    ref_cpu, ref_mem, _ = build_ref(source)
    jit_cpu, jit_mem, _ = build_jit(source)
    if prepare is not None:
        prepare(ref_cpu, ref_mem)
        prepare(jit_cpu, jit_mem)
    run_to_halt(ref_cpu)
    run_jit_to_halt(jit_cpu)
    assert jit_cpu.cycles == ref_cpu.cycles
    assert jit_cpu.stats.snapshot() == ref_cpu.stats.snapshot()
    assert jit_cpu.stats.instructions == ref_cpu.stats.instructions
    assert jit_cpu.globals == ref_cpu.globals
    for jit_frame, ref_frame in zip(jit_cpu.frames, ref_cpu.frames):
        assert jit_frame.regs == ref_frame.regs
        assert jit_frame.psr.value == ref_frame.psr.value
    if check is not None:
        check(jit_cpu)
    return jit_cpu


class TestCodegenParity:
    def test_straight_line_and_loop(self):
        cpu = assert_same_outcome("""
                set 0, r1
                set 1, r2
            loop:
                cmpr r2, 50
                bg done
                addr r1, r2, r1
                addr r2, 1, r2
                ba loop
            done:
                halt
        """, check=lambda cpu: None)
        assert cpu.jit_runs > 0
        assert cpu.jit_compiles > 0
        assert cpu.read_reg(1) == sum(range(1, 51))

    def test_logic_shift_and_wide_constants(self):
        assert_same_outcome("""
            set 0x0FABCDEC, r1
            and r1, 0xFF, r2
            or r2, 0x100, r3
            xor r3, r1, r4
            sll r1, 3, r5
            srl r1, 5, r6
            sra r1, 2, r7
            andn r1, r2, r8
            halt
        """)

    def test_memory_flavors_inline(self):
        # Raw and trapping loads/stores over the ideal port: the inline
        # fast path must be bit-identical, full/empty bits included.
        def prepare(cpu, memory):
            memory.write_word(0x4000, 77)
            memory.set_full(0x4004, False)

        assert_same_outcome("""
                set 0x4000, r1
                set 10, r9
            loop:
                ldnt [r1+0], r2      ; trapping-flavor load (full word)
                addr r2, 1, r2
                stnt r2, [r1+0]      ; trapping-flavor store (leaves full)
                ldr  [r1+0], r3      ; raw load
                str  r3, [r1+8]      ; raw store
                stfnt r3, [r1+4]     ; fill the empty word, set full
                ldent [r1+4], r4     ; empty-setting load
                subr r9, 1, r9
                cmpr r9, 0
                bg loop
                halt
        """, prepare=prepare)

    def test_branch_delay_slots(self):
        assert_same_outcome("""
                set 5, r1
                set 0, r2
            loop:
                cmpr r1, 0
                ble out
                @addr r2, 1, r2      ; conditional-exit delay slot
                subr r1, 1, r1
                ba loop
                @addr r2, 10, r2     ; unconditional-exit delay slot
            out:
                halt
        """)

    def test_call_return_chain(self):
        assert_same_outcome("""
                set 3, r1
                call double
                @nop
                call double
                @nop
                halt
            double:
                addr r1, r1, r1
                jmpl [ra+0], r0
                @nop
        """)


#: Each computes r4 from r1/r2 (any words), r5/r6 (even words: the
#: strict ops trap on a future-tagged operand) or an immediate.
_STORED_RESULTS = (
    "addr r1, r2, r4", "subr r1, r2, r4", "subr r0, r1, r4",
    "addr r1, -1, r4", "subr r1, 5, r4", "addr r2, 6, r4",    # tag arithmetic
    "add r5, r6, r4", "sub r5, r6, r4", "sub r0, r6, r4", "mul r5, r6, r4",
    "sll r1, 1, r4", "sll r1, 31, r4", "sll r1, r2, r4",
    "srl r1, r2, r4", "sra r1, 3, r4", "sra r1, r2, r4",
    "xor r1, -1, r4", "andn r2, r1, r4", "or r1, r2, r4",
    "set {imm:#x}, r4",                                       # LUI + ORIL
    "lui r4, {hi}", "or r0, r0, r4\n    oril r4, {lo}",
)
_STORE_BASE = 0x8000
_STORE_OPS = sorted(STORE_FLAVORS, key=int)
_words = st.one_of(
    st.integers(min_value=0, max_value=WORD_MASK),
    st.sampled_from([0, 1, 2, WORD_MASK, WORD_MASK - 1, 1 << 31,
                     (1 << 31) - 1, (1 << 31) + 1, 0xFFFF0000, 0x0000FFFF]))
# Unmasked on purpose: ``write_reg`` is the choke point for register
# writes from outside the instruction stream.
_seeds = st.one_of(_words, st.integers(min_value=-(1 << 40),
                                       max_value=1 << 40))


class TestStoredWordsStayWords:
    """The bank's words are an ``'I'`` view of a mapping: a stored value
    outside ``[0, 2**32)`` raises ``ValueError`` where a list widened the
    word.  The JIT's inlined ``_mw[_x] = reg`` carries no mask of its
    own — it relies on every register write in every tier being masked
    — so this drives each result-producing instruction class into each
    store flavor, on all three tiers."""

    @staticmethod
    def _source(imm):
        lines = ["    set %#x, r10" % _STORE_BASE]
        for i, compute in enumerate(_STORED_RESULTS):
            store = _STORE_OPS[i % len(_STORE_OPS)].name.lower()
            lines.append("    " + compute.format(
                imm=imm, hi=imm >> 14, lo=imm & 0x3FFF))
            lines.append("    %s r4, [r10+%d]" % (store, 4 * i))
        lines.append("    halt")
        return "\n".join(lines)

    @settings(max_examples=60, deadline=None)
    @given(a=_seeds, b=_seeds, c=_seeds, d=_seeds, imm=_words)
    def test_every_tier_stores_masked_words(self, a, b, c, d, imm):
        source = self._source(imm)

        def prepare(cpu, memory):
            for number, value in ((1, a), (2, b), (5, c & ~1), (6, d & ~1)):
                cpu.write_reg(number, value)
            for i in range(len(_STORED_RESULTS)):
                # Trap-on-full flavors must find their word empty.
                memory.set_full(_STORE_BASE + 4 * i, False)

        reference, ref_mem, _ = build_cpu(source)
        reference.use_reference_interpreter()
        closure, closure_mem, _ = build_cpu(source)
        jit, jit_mem, _ = build_jit_cpu(source)
        for cpu, memory in ((reference, ref_mem), (closure, closure_mem),
                            (jit, jit_mem)):
            prepare(cpu, memory)
        run_to_halt(reference)              # none may raise ValueError
        run_to_halt(closure)
        run_jit_to_halt(jit)
        assert jit.jit_runs > 0 and not closure.jit_runs
        for cpu, memory in ((closure, closure_mem), (jit, jit_mem)):
            assert cpu.cycles == reference.cycles
            assert cpu.frames[0].regs == reference.frames[0].regs
            assert (memory._words == ref_mem._words) is True
            assert (memory._full == ref_mem._full) is True
        stored = ref_mem.dump(_STORE_BASE, len(_STORED_RESULTS))
        mask = WORD_MASK
        a, b, c, d = a & mask, b & mask, c & mask & ~1, d & mask & ~1
        assert stored[:10] == [
            (a + b) & mask, (a - b) & mask, -a & mask, (a - 1) & mask,
            (a - 5) & mask, (b + 6) & mask, (c + d) & mask, (c - d) & mask,
            -d & mask, stored[9]]
        assert stored[-3:] == [imm, (imm >> 14 << 14) & mask,
                               imm & 0x3FFF]
        assert all(0 <= word <= mask for word in reference.frames[0].regs)


class TestGuardTrapParity:
    FUTURE_WORD = 0x2005     # tagged pointer with the future LSB set

    def _resolver(self, log):
        def resolve(cpu, frame, trap):
            log.append((trap.kind, trap.pc, trap.value, trap.cause,
                        trap.instr.op))
            cpu.write_reg(1, make_fixnum(10), frame)
            return TrapAction.RETRY
        return resolve

    def test_guard_raises_identical_trap(self):
        source = """
            set %d, r1
            addr r0, 0, r2
            add r1, 4, r2
            halt
        """ % self.FUTURE_WORD
        logs = []

        def build_with_log(builder):
            cpu, memory, program = builder(source)
            log = []
            logs.append(log)
            cpu.trap_table.register(
                TrapKind.FUTURE_COMPUTE, self._resolver(log))
            return cpu, memory, program

        assert_same_outcome(
            source,
            build_ref=lambda s: build_with_log(build_cpu),
            build_jit=lambda s: build_with_log(build_jit_cpu))
        ref_log, jit_log = logs
        assert ref_log == jit_log
        assert len(jit_log) == 1
        kind, pc, value, cause, op = jit_log[0]
        assert kind is TrapKind.FUTURE_COMPUTE
        assert value == self.FUTURE_WORD
        assert cause == "ADD"

    def test_guard_mid_block_commits_prefix(self):
        # The guard trips after two straight instructions: their
        # effects and cycles must be banked before the trap is taken.
        source = """
            set %d, r1
            addr r0, 7, r3
            addr r3, 1, r4
            add r1, 4, r2
            halt
        """ % self.FUTURE_WORD
        cpu, _, _ = build_jit_cpu(source)
        cpu.trap_table.register(TrapKind.FUTURE_COMPUTE, self._resolver([]))
        run_jit_to_halt(cpu)
        assert cpu.read_reg(3) == 7
        assert cpu.read_reg(4) == 8


class TestCodeCache:
    def test_lru_eviction_and_counters(self):
        """The process-wide block cache is a bounded LRU: a hit
        refreshes a key, a put past the bound evicts the least recent."""
        cache = type(SHARED_BLOCKS)(2)
        cache.put(0, "a")
        cache.put(4, "b")
        assert cache.get(0) == "a"         # refreshes 0's recency
        cache.put(8, "c")                  # evicts 4, the LRU tail
        assert 4 not in cache and len(cache) == 2
        assert cache.get(4) is None
        assert cache.get(0) == "a"
        assert cache.get(8) == "c"
        assert cache.counters() == {"hits": 3, "misses": 1, "size": 2}
        assert SHARED_BLOCKS.capacity == 1 << 12


class TestSharedBlocks:
    SOURCE = """
            set 0, r1
            set 1, r2
        loop:
            cmpr r2, 20
            bg done
            addr r1, r2, r1
            addr r2, 1, r2
            ba loop
        done:
            halt
    """

    def test_identical_translations_are_shared(self):
        first, _, program = build_jit_cpu(self.SOURCE)
        second, _, _ = build_jit_cpu(self.SOURCE)
        jb_first = compile_block(first, program.base)
        jb_second = compile_block(second, program.base)
        assert jb_first is not None
        assert jb_first is jb_second        # same object: no recompile
        assert jb_first.key in SHARED_BLOCKS

    def test_generated_function_is_machine_independent(self):
        cpu, _, program = build_jit_cpu(self.SOURCE)
        jb = compile_block(cpu, program.base)
        # Nothing machine-specific may be baked into the code object:
        # registers, memory, and the PSR all come off (cpu, frame).
        assert "cpu" in jb.fn.__code__.co_varnames
        assert jb.source.startswith("def _jit(cpu, frame")


class TestSharedTranslations:
    """Two processors over one memory, the way a machine wires them:
    one :class:`Translations`, one code-watch listener."""

    def _pair(self):
        first, memory, program = build_jit_cpu(TestSharedBlocks.SOURCE)
        second = Processor(node_id=1, port=first.port)
        assert second.translations is not first.translations
        second.share_translations(first.translations)
        second.frame.pc, second.frame.npc = program.base, program.base + 4
        return first, second, memory, program

    def test_second_cpu_runs_what_the_first_compiled(self):
        first, second, _, _ = self._pair()
        run_jit_to_halt(first)
        assert first.jit_compiles > 0
        run_jit_to_halt(second)          # every block already compiled
        assert second.jit_runs == first.jit_runs
        assert second.jit_compiles == 0
        assert second.cycles == first.cycles
        assert second.frame.regs == first.frame.regs

    def test_a_patch_invalidates_once_for_both(self):
        first, second, memory, program = self._pair()
        run_jit_to_halt(first)
        tables = first.translations
        assert len(memory.code_watch._listeners) == 1
        loop = program.address_of("loop")
        covering = [key for key, block in tables.jit.items()
                    if block and block.covers(loop)]
        memory.write_word(loop, memory.read_word(loop))
        assert tables.jit_invalidations == len(covering) > 0
        assert not any(key in second._jit_map for key in covering)
        run_jit_to_halt(second)
        assert second.jit_compiles > 0   # it retranslated, for both
        assert second.frame.regs == first.frame.regs


class TestSelfModifyingCode:
    def _smc_source(self):
        return """
                set 0, r1
                set 0, r2
            loop:
                addr r1, 1, r1       ; the word patched mid-test
                addr r2, 1, r2
                cmpr r2, 10
                bl loop
                halt
            donor:
                addr r1, 2, r1
        """

    def test_patch_invalidates_compiled_block(self):
        cpu, memory, program = build_jit_cpu(self._smc_source())
        run_jit_to_halt(cpu)
        assert cpu.read_reg(1) == 10
        assert cpu.jit_runs > 0
        stale_keys = set(SHARED_BLOCKS._entries)

        # Patch the loop body with the donor word (through the watched
        # write path, as a store instruction would).
        body = program.address_of("loop")
        donor = program.address_of("donor")
        memory.write_word(body, memory.read_word(donor))
        assert cpu.translations.jit_invalidations > 0

        # Re-run from the top: the stale translation must not execute.
        frame = cpu.frame
        frame.pc = program.base
        frame.npc = program.base + 4
        cpu.halted = False
        run_jit_to_halt(cpu)
        assert cpu.read_reg(1) == 20     # 10 iterations of +2

        # The recompiled block has different words, hence a new
        # shared-cache key; the stale entry can never be looked up
        # again (the key embeds the translated words).
        fresh = [key for key in SHARED_BLOCKS._entries
                 if key not in stale_keys and key[0] == body]
        assert fresh

    def test_store_instruction_invalidates(self):
        # The program patches its *own* loop body with a raw store,
        # then loops again: classic self-modifying code, JIT-compiled.
        source = SMC_STORE_SOURCE
        ref_cpu, _, _ = build_cpu(source)
        run_to_halt(ref_cpu)
        jit_cpu, jit_memory, program = build_jit_cpu(source)
        assembled = list(program.words)
        run_jit_to_halt(jit_cpu)
        assert jit_cpu.read_reg(1) == ref_cpu.read_reg(1) == 8 + 8 * 5
        # The patch landed in the memory bank, not in the assembled
        # Program — which the compile cache shares between runs.
        target = program.address_of("target")
        assert jit_memory.read_word(target) != assembled[
            (target - program.base) >> 2]
        assert program.words == assembled
        assert jit_cpu.cycles == ref_cpu.cycles
        assert jit_cpu.stats.snapshot() == ref_cpu.stats.snapshot()
        assert jit_cpu.translations.jit_invalidations > 0

        # The same on the slice shape, where the patched word is not
        # the head the slice is keyed by but sits in its private tail:
        # the second pass over `body` must not run the stale tail.
        source = """
                set 0, r1
                set 0, r7
                set donor, r3
            again:
                set 0, r2
            body:
                ldr [r3+0], r6       ; the slice's head
            target:
                addr r1, 1, r1       ; its tail; becomes "addr r1, 5, r1"
                addr r2, 1, r2
                cmpr r2, 8
                bl body
                cmpr r7, 0
                bne done
                addr r7, 1, r7
                ldr [r3+0], r4
                set target, r5
                str r4, [r5+0]
                ba again
            done:
                halt
            donor:
                addr r1, 5, r1
        """
        ref_cpu, _, _ = build_jit_cpu(source)    # step() needs the watch too
        run_to_halt(ref_cpu)
        cpu, _, program = build_jit_cpu(source)
        body, target = program.address_of("body"), program.address_of("target")
        first = compile_block(cpu, body, sliced=True)
        assert first.start == body < target and first.covers(target)
        run_slices_to_halt(cpu)
        assert cpu.read_reg(1) == ref_cpu.read_reg(1) == 8 + 8 * 5
        assert cpu.cycles == ref_cpu.cycles
        assert cpu.stats.snapshot() == ref_cpu.stats.snapshot()
        assert cpu.ahead_instructions > 0
        assert cpu.translations.jit_invalidations > 0
        assert cpu._jit_map[~body].key != first.key

    #: The caller's translations follow ``call callee`` into the callee,
    #: which the program then patches; ``between`` is a data word
    #: between the two that nothing runs.
    FOLLOWED = """
            set 0, r1
            set 0, r7
            set donor, r3
        caller:
            addr r2, 1, r2
            call callee
            @nop
            cmpr r7, 0
            bne done
            @nop
            addr r7, 1, r7
            ldr [r3+0], r4
            set target, r5
            str r4, [r5+0]       ; patch the callee
            ba caller
            @nop
        done:
            halt
        between:
            .word 0
        callee:
        target:
            addr r1, 1, r1       ; becomes "addr r1, 5, r1"
            jmpl [ra+0], r0
            @nop
        donor:
            addr r1, 5, r1
    """

    @pytest.mark.parametrize("sliced", [False, True])
    def test_a_store_into_a_followed_callee(self, sliced):
        cpu, memory, program = build_jit_cpu(self.FOLLOWED)
        caller, target, between = (program.address_of(label) for label in
                                   ("caller", "target", "between"))
        first = {key: cpu._compile_jit(caller, key < 0)
                 for key in (caller, ~caller)}
        for jb in first.values():
            assert len(jb.runs) == 2 and jb.covers(target)
            assert jb.runs[0][0] == caller < between < jb.runs[1][0]
            assert not jb.covers(between)

        # Lockstep against the reference interpreter, one generated
        # block or slice at a time.
        ref, ref_memory, _ = build_jit_cpu(self.FOLLOWED)
        ref.use_reference_interpreter()
        end = program.base + 4 * len(program.words)
        while not cpu.halted:
            cpu.step_block(0 if sliced else 1 << 30, sliced)
            while ref.stats.instructions < cpu.stats.instructions:
                ref.step()
            assert (cpu.frame.pc, cpu.frame.npc) == (ref.frame.pc,
                                                     ref.frame.npc)
            assert cpu.cycles == ref.cycles
            assert cpu.stats.snapshot() == ref.stats.snapshot()
            assert cpu.frame.regs == ref.frame.regs
            assert cpu.frame.psr.value == ref.frame.psr.value
            assert all(memory.read_word(a) == ref_memory.read_word(a)
                       for a in range(program.base, end, 4))
        assert ref.halted and cpu.read_reg(1) == 1 + 5

        # The patch dropped both translations that followed the call,
        # and whatever is left was compiled from the words now there.
        assert all(cpu._jit_map.get(key) is not jb
                   for key, jb in first.items())
        counters = cpu.translation_counters()["jit"]
        assert counters["invalidations"] > 0
        for jb in cpu._jit_map.values():
            if jb:
                covered = {memory.read_word(address)
                           for lo, hi in jb.runs
                           for address in range(lo, hi, 4)}
                assert covered == set(jb.key[1])

        # Coverage is the runs, not their hull: a store between the
        # caller and the callee drops nothing.
        kept = dict(cpu._jit_map)
        memory.write_word(between, 7)
        assert cpu.translation_counters()["jit"] == counters
        assert cpu._jit_map == kept

    def test_deopt_counter_stays_zero(self):
        # Current codegen never returns without progress (guards raise,
        # delegates charge), so the deopt safety net must stay cold.
        cpu, _, _ = build_jit_cpu(self._smc_source())
        run_jit_to_halt(cpu)
        assert cpu.jit_deopts == 0


class TestSyncHeadedSlices:
    """The JIT tier's second shape (``compile_block(..., sliced=True)``,
    run by ``step_block(budget, True)``): one instruction another
    processor may observe, then private ones only."""

    FUTURE_WORD = TestGuardTrapParity.FUTURE_WORD

    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    @pytest.mark.parametrize("program", ["fib", "queens", "factor"])
    def test_only_the_head_can_be_seen_from_outside(self, program, mode):
        # Behind the head: private instructions, and loads and stores
        # that happen only inside the executing frame's stack window —
        # each one window-tested at run time, each store logged first.
        compiled = compile_source(workloads.get(program).source(), mode=mode)
        words = compiled.program.words
        base = compiled.program.base
        cpu, _, _ = build_jit_cpu("halt")
        cpu.port.memory.load_program(compiled.program)
        private = {row.op for row in TABLE
                   if row.shape in (STRAIGHT, REDIRECT, CONDITIONAL)}
        memory = {row.op for row in TABLE if row.shape in (LOAD, STORE)}
        stores = {row.op for row in TABLE if row.shape == STORE}
        slices = tails = memory_tails = followed = 0
        for pc in range(base, base + 4 * len(words), 4):
            jb = compile_block(cpu, pc, sliced=True)
            if jb is None:
                continue
            slices += 1
            assert jb.start == pc and jb.covers(pc)
            # One word per instruction run, in the order they run: the
            # slice follows CALL and BA into their targets, so its words
            # need not be one range, but it covers exactly the words it
            # was compiled from.
            code = jb.key[1]
            assert len(code) == jb.count <= MAX_JIT_BLOCK
            covered = {words[(address - base) >> 2]
                       for lo, hi in jb.runs for address in range(lo, hi, 4)}
            assert covered == set(code)
            followed += len(jb.runs) > 1
            loaded = stored = 0
            for word in code[1:]:
                tails += 1
                instr = cpu.translations.decode(word)
                if instr.op in private:
                    continue
                assert instr.op in memory, (hex(pc), instr.op)
                assert instr.rs1 == registers.SP
                if instr.op in stores:
                    stored += 1
                else:
                    loaded += 1
            assert jb.source.count(WINDOW_TEST) == loaded + stored
            assert jb.source.count("_sl.append(") == stored
            # A windowless bank: nothing tests for foreign windows.
            assert "_ow" not in jb.source
            memory_tails += loaded + stored
        assert slices > 50 and tails > slices and memory_tails > 20
        assert followed > 0

    def test_slices_match_step(self):
        # Loads, stores, calls and taken/untaken branches, each leg
        # entered as a slice head and run through as a tail.  The
        # SP-relative accesses are tail candidates: ``frame`` is in the
        # frame's stack window and rides, ``frame + 8`` is outside it
        # and parks the chain every time, to head the next slice.
        source = """
                set 0, r1
                set 0, r2
                set buffer, r3
                set frame, sp
            loop:
                str r2, [r3+0]
                addr r2, 3, r2
                ldr [r3+0], r4
                addr r1, r4, r1
                st r1, [sp+0]
                stfnt r2, [sp+4]
                ld [sp+0], r5
                st r5, [sp+8]
                ldent [sp+4], r6
                addr r1, r6, r1
                call bump
                cmpr r2, 30
                bl loop
                halt
            bump:
                addr r1, 1, r1
                ret
            buffer:
                .word 0
            frame:
                .word 0
                .word 0
                .word 0
        """
        ref_cpu, ref_memory, _ = build_cpu(source)
        run_to_halt(ref_cpu)
        cpu, memory, program = build_jit_cpu(source)
        frame = program.address_of("frame")
        cpu.frame.window = (frame, frame + 8)
        run_slices_to_halt(cpu)
        assert cpu.cycles == ref_cpu.cycles
        assert cpu.stats.snapshot() == ref_cpu.stats.snapshot()
        assert cpu.frame.regs == ref_cpu.frame.regs
        assert cpu.frame.psr.value == ref_cpu.frame.psr.value
        assert memory._words == ref_memory._words
        assert memory._full == ref_memory._full
        assert cpu.ahead_slices > 0
        assert cpu.ahead_instructions >= cpu.ahead_slices
        # Ten trips: the two in-window loads and stores ride a tail
        # most times; the out-of-window store (the loop's eighth
        # instruction) never does — it heads a slice of its own.
        assert 10 < cpu.ahead_loads <= 20 and 10 < cpu.ahead_stores <= 20
        outside = program.address_of("loop") + 28
        assert ~outside in cpu.translations.jit

    def test_without_a_window_every_access_parks(self):
        # A frame that owns no window (any machine that does not run
        # ahead): the candidates all park, the slices are today's.
        source = """
                set frame, sp
                st r0, [sp+0]
                addr r0, 5, r1
                st r1, [sp+4]
                ld [sp+4], r2
                halt
            frame:
                .word 0
                .word 0
        """
        ref_cpu, _, _ = build_cpu(source)
        run_to_halt(ref_cpu)
        cpu, _, _ = build_jit_cpu(source)
        run_slices_to_halt(cpu)
        assert cpu.frame.regs == ref_cpu.frame.regs
        assert cpu.cycles == ref_cpu.cycles
        assert cpu.ahead_loads == cpu.ahead_stores == 0

    @pytest.mark.parametrize("keep", [0, 1, 2, 3])
    def test_unrun_tail_puts_words_and_full_empty_bits_back(self, keep):
        source = """
                set frame, sp
                st r0, [sp+0]
                addr r0, 20, r1
                stfnt r1, [sp+4]
                ldent [sp+4], r2
                st r2, [sp+0]
                halt
            frame:
                .word 0
                .word 0
        """
        def build():
            cpu, memory, program = build_jit_cpu(source)
            frame = program.address_of("frame")
            cpu.frame.window = (frame, frame + 8)
            memory.set_full(frame + 4, False)
            for _ in range(2):                 # `set` is two words
                cpu.step()
            return cpu, memory

        cpu, memory = build()
        spent = cpu.step_block(0, True)
        count, _, stores = cpu.ahead_tail
        assert count == spent - 1 == 4 and len(stores) == 3
        cpu.unrun_tail(keep)
        ref_cpu, ref_memory = build()
        for _ in range(1 + keep):
            ref_cpu.step()
        assert cpu.frame.regs == ref_cpu.frame.regs
        assert cpu.frame.psr.value == ref_cpu.frame.psr.value
        assert (cpu.frame.pc, cpu.cycles) == (ref_cpu.frame.pc,
                                              ref_cpu.cycles)
        assert memory._words == ref_memory._words
        assert memory._full == ref_memory._full
        assert cpu.ahead_undone_by == {
            "run_end": count - keep, "foreign": 0, "steal": 0, "ipi": 0}

    def _guarded(self):
        source = """
            set %d, r1
            addr r0, 7, r3
            addr r3, 1, r4
            add r1, 4, r2
            halt
        """ % self.FUTURE_WORD
        cpu, _, program = build_jit_cpu(source)
        log = []
        cpu.trap_table.register(
            TrapKind.FUTURE_COMPUTE,
            TestGuardTrapParity()._resolver(log))
        guarded = next(
            pc for pc in range(program.base, program.base + 64, 4)
            if cpu.translations.decode(cpu.port.fetch(pc)).op.name == "ADD")
        return cpu, log, guarded

    def test_guard_past_the_head_parks_without_trapping(self):
        cpu, log, guarded = self._guarded()
        spent = cpu.step_block(0, True)
        # Everything before the strict ADD ran; the ADD did not, and
        # its trap was not taken: that waits until it heads a slice.
        assert cpu.stats.traps_taken == 0 and not log
        assert (cpu.frame.pc, cpu.frame.npc) == (guarded, guarded + 4)
        assert (cpu.read_reg(3), cpu.read_reg(4)) == (7, 8)
        assert cpu.read_reg(1) == self.FUTURE_WORD
        assert spent == cpu.cycles == cpu.stats.instructions
        assert cpu.ahead_tail[0] == spent - 1 > 0

        cpu.step_block(0, True)
        assert cpu.stats.traps_taken == 1 and len(log) == 1
        assert log[0][1] == guarded
        assert cpu.ahead_tail is None

    @pytest.mark.parametrize("keep", [0, 1, 2])
    def test_unrun_tail_restores_the_state_after_the_head(self, keep):
        cpu, _, _ = self._guarded()
        spent = cpu.step_block(0, True)
        assert keep < spent - 1
        cpu.unrun_tail(keep)
        ref_cpu, _, _ = self._guarded()
        for _ in range(1 + keep):
            ref_cpu.step()
        assert cpu.cycles == ref_cpu.cycles == 1 + keep
        assert cpu.stats.snapshot() == ref_cpu.stats.snapshot()
        assert cpu.frame.regs == ref_cpu.frame.regs
        assert cpu.frame.psr.value == ref_cpu.frame.psr.value
        assert (cpu.frame.pc, cpu.frame.npc) == (
            ref_cpu.frame.pc, ref_cpu.frame.npc)
        assert cpu.ahead_tail is None
        assert cpu.ahead_undone == spent - 1 - keep

    def test_slices_live_in_the_block_table_under_complemented_pcs(self):
        # One table for both shapes of the tier: slices sit under ~pc.
        cpu, _, _ = build_jit_cpu(TestSelfModifyingCode()._smc_source())
        run_slices_to_halt(cpu)
        assert cpu.read_reg(1) == 10
        jit = cpu.translations.jit
        assert jit and all(key < 0 for key in jit)

    def test_slices_are_shared_under_their_own_key(self):
        source = """
            addr r0, 1, r1
            addr r1, 1, r2
            halt
        """
        first, _, program = build_jit_cpu(source)
        second, _, _ = build_jit_cpu(source)
        block = compile_block(first, program.base)
        sliced = compile_block(first, program.base, sliced=True)
        assert sliced is compile_block(second, program.base, sliced=True)
        assert sliced is not block
        assert sliced.key[0] == block.key[0] and sliced.key[-1] == "slice"


class TestWhoPaysForWindows:
    """Memory-op run-ahead is keyed on ``_port_spec``: a bank with
    :class:`StackWindows` installed (a machine that runs ahead, ideal
    or coherent) gets the foreign-window test in its plain blocks and
    slice heads; every other machine — one processor, say — compiles
    no window test at all."""

    class _OtherPort(IdealMemoryPort):
        """Not a port generated code inlines: every access is
        delegated."""

    #: sha256 over the plain-block source at every pc of fib, queens
    #: and factor in all three modes.  A change that means to alter
    #: what these machines compile re-pins it (last: ``div``/``rem``
    #: are inlined, so 27 more pcs start a block, and what generated
    #: code delegates is an ``Instruction`` the reference runs); any
    #: other must not.
    PINNED = {
        "ideal": (5510, "86c448acc7232434563fb489e3663ce2"
                        "c1a20465fd0f1669569ca350ba750723"),
        "delegating": (3512, "33e0333f1fb3089f99c8b117aa264cec"
                             "c15a950eb6b71b83ee26abc38f298d5a"),
        "coherent": (5510, "af02ba1b4a29903e7cea1f603c757b76"
                           "0730bf6a25d22c51b215106f0830b218"),
    }

    #: The same over the slice source (``compile_block(..., sliced=True)``)
    #: at every pc of the same corpus, on a bank with
    #: :class:`StackWindows` installed: an ideal one (tails carry stack
    #: accesses) and a coherent node's (tails carry the stack accesses
    #: its cache hits; last re-pinned with :data:`PINNED`, for the
    #: same reasons).  Same rule as :data:`PINNED`.
    SLICES = {
        "coherent": (5558, "096478e3f439dc220d61cd65b3a13fe7"
                           "7f0f72ec30ad55ef3d0a3ba892122ca6"),
        "windows": (5558, "7b35f8f6dcf4ce8dc1c906dddcaf1002"
                          "ead80d680dd50bb5ef559c51e5a1f88a"),
    }

    @staticmethod
    def _sources(prepare, sliced=False):
        for program in ("fib", "queens", "factor"):
            for mode in ("sequential", "eager", "lazy"):
                compiled = compile_source(workloads.get(program).source(),
                                          mode=mode)
                cpu, memory, _ = build_cpu("halt")
                prepare(cpu, memory)
                memory.load_program(compiled.program)
                base = compiled.program.base
                for pc in range(base, base + 4 * len(compiled.program.words),
                                4):
                    jb = compile_block(cpu, pc, sliced=sliced)
                    if jb is not None:
                        yield jb

    @pytest.mark.parametrize("port", sorted(PINNED))
    def test_windowless_source_is_byte_identical_to_the_parents(self, port):
        def prepare(cpu, memory):
            if port == "delegating":
                cpu.port = self._OtherPort(memory)
            elif port == "coherent":
                cpu.port = coherent_system(memory).controllers[0]

        digest = hashlib.sha256()
        blocks = 0
        for jb in self._sources(prepare):
            blocks += 1
            digest.update(jb.source.encode())
            assert "_ow" not in jb.source and WINDOW_TEST not in jb.source
            # PSR bits are built where the block publishes them: on the
            # fall-through path nothing produces after the first build.
            path = [line for line in jb.source.split("\n")
                    if line.startswith("    ") and line[4] != " "]
            built = [index for index, line in enumerate(path)
                     if line.startswith(("    _cc = ", "    psr = psr "))]
            if built:
                assert not any(
                    line.startswith(("    res = ", "    _fb = "))
                    for line in path[built[0]:])
        assert (blocks, digest.hexdigest()) == self.PINNED[port]

    @pytest.mark.parametrize("port", sorted(SLICES))
    def test_slice_source_is_byte_identical_to_the_parents(self, port):
        def prepare(cpu, memory):
            memory.windows = StackWindows(memory, cpu.step)
            if port == "coherent":
                cpu.port = coherent_system(memory).controllers[0]

        digest = hashlib.sha256()
        slices = 0
        for jb in self._sources(prepare, sliced=True):
            slices += 1
            digest.update(jb.source.encode())
        assert (slices, digest.hexdigest()) == self.SLICES[port]

    def test_windowed_bank_tests_every_inlined_access(self):
        def prepare(cpu, memory):
            memory.windows = StackWindows(memory, cpu.step)

        tested = 0
        for jb in self._sources(prepare):
            assert jb.key[2] == (0, jb.key[2][1], "windows")
            inlined = jb.source.count("_fb = _fe[_x]")
            assert jb.source.count(WINDOW_TEST) == inlined
            assert jb.source.count("in _ow") == inlined
            tested += inlined
        assert tested > 1000


class TestCoherentHits:
    """On a coherent node, generated code answers an access its cache
    hits — a valid line for a load, a modified one for a store — in
    one cycle itself, stamping the line and counting the hit as the
    controller would; everything else is the controller's, through the
    reference's statement.  Per case below, a loop whose later passes
    hit inline and whose case-access delegates, run by ``step_block``
    and by ``step()`` (the ``jit=False`` tier): counters, registers, memory,
    every cache line, the LRU clock and whatever an attached observer
    records must be equal, and the accesses the controller served in
    the generated-code run must be exactly the case's."""

    LOOP = """
            set 0x4000, r1
            set 6, r9
        loop:
        %s
            subr r9, 1, r9
            cmpr r9, 0
            bg loop
            halt
    """

    #: case -> (loop body, prepare(cpu, memory), expected controller
    #: calls of the generated-code run as ``{(kind, address): count}``;
    #: ``None`` is every access).
    CASES = {
        # First pass: two misses.  Then hits.
        "miss": ("""
            ldnt [r1+0], r2
            ldnt [r1+16], r3        ; the next block
            addr r2, r3, r4
        """, None, {("load", 0x4000): 1, ("load", 0x4010): 1}),
        # First pass: the load brings the block in shared, the store
        # upgrades it.  Then both hit the modified line.
        "store-to-shared": ("""
            ldnt [r1+0], r2
            addr r2, 1, r2
            stnt r2, [r1+0]
        """, None, {("load", 0x4000): 1, ("store", 0x4000): 1}),
        # The block hits, but a flavor that traps on the word's
        # full/empty bit goes to the controller every pass.
        "full-empty-trap": ("""
            ldnt [r1+0], r2
            ldtt [r1+4], r3         ; empty: traps
            stnt r2, [r1+12]
            sttt r2, [r1+8]         ; full: traps
        """, "_empty_word", {("load", 0x4000): 1, ("load", 0x4004): 6,
                             ("store", 0x400C): 1, ("store", 0x4008): 6}),
        # A transaction tracer finishes a full/empty record at the
        # next access that succeeds: with one attached, every access
        # is the controller's.
        "txn": ("""
            ldtt [r1+4], r3         ; empty: faults
            stfnt r9, [r1+4]        ; fills it: the fault's record ends
            ldent [r1+4], r4        ; empties it again
        """, "_traced", None),
        "watch-hook": ("""
            ldnt [r1+0], r2
            addr r2, 1, r2
            stnt r2, [r1+0]
        """, "_watched", None),
    }

    @staticmethod
    def _empty_word(cpu, memory):
        memory.set_full(0x4004, False)
        for kind in (TrapKind.EMPTY_LOAD, TrapKind.FULL_STORE):
            cpu.trap_table.register(
                kind, ignore_trap_handler(TrapAction.RESUME, cycles=2))

    def _traced(self, cpu, memory):
        self._empty_word(cpu, memory)
        tracer = cpu.events.txn = TransactionTracer()
        return lambda: ([record.to_dict() for record in tracer.finished],
                        tracer.summary())

    @staticmethod
    def _watched(cpu, memory):
        seen = []
        cpu.watch_hook = lambda cpu, pc, address, is_load, outcome: (
            seen.append((pc, address, is_load, outcome.value,
                         outcome.fe_full, cpu.cycles)))
        return lambda: seen

    @staticmethod
    def _served(controller):
        """Count the accesses ``controller`` serves, by (kind, address)."""
        served = {}
        for kind in ("load", "store"):
            serve = getattr(controller, kind)

            def counted(address, *args, _serve=serve, _kind=kind, **kwargs):
                key = (_kind, address)
                served[key] = served.get(key, 0) + 1
                return _serve(address, *args, **kwargs)
            setattr(controller, kind, counted)
        return served

    def _run(self, source, prepare, drive):
        cpu, fabric, program = build_coherent_cpu(source)
        recorded = None
        if prepare is not None:
            recorded = getattr(self, prepare)(cpu, cpu.port.memory)
        served = self._served(cpu.port)
        drive(cpu)
        cache = fabric.caches[0]
        fabric.check_coherence_invariants()
        state = dict(
            cycles=cpu.cycles, stats=cpu.stats.snapshot(),
            traps=cpu.stats.trap_counts, regs=cpu.frame.regs,
            psr=cpu.frame.psr.value, words=cpu.port.memory._words,
            full=cpu.port.memory._full,
            lines=[(line.tag, line.state, line.last_used)
                   for lines in cache._sets for line in lines or ()],
            clock=cache._clock, cache=cache.stats.to_dict(),
            controller=cpu.port.stats.to_dict(),
            recorded=recorded() if recorded is not None else None)
        return cpu, state, served

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_generated_code_serves_hits_and_delegates_the_rest(self, case):
        body, prepare, expected = self.CASES[case]
        source = self.LOOP % body
        _, stepped, every = self._run(source, prepare, run_to_halt)
        cpu, state, served = self._run(source, prepare, run_jit_to_halt)
        assert state == stepped
        assert cpu.jit_runs > 0
        # The rest hit, inline.
        assert served == (every if expected is None else expected)

    def test_a_code_watched_word_is_the_controllers(self):
        # The loop patches the loop after it with one of two donor
        # words in turn: from the second pass the patch is a store to a
        # modified line, yet each must reach the code watch, or a stale
        # translation runs.
        source = """
                set 0, r1
                set donor, r3
                set other, r6
                set target, r5
                set 6, r9
            again:
                ldnt [r3+0], r4
                stnt r4, [r5+0]
                mov r3, r8
                mov r6, r3
                mov r8, r6
                set 0, r2
            target:
                addr r1, 1, r1          ; patched every pass
                addr r2, 1, r2
                cmpr r2, 3
                bl target
                subr r9, 1, r9
                cmpr r9, 0
                bg again
                halt
            donor:
                addr r1, 5, r1
            other:
                addr r1, 7, r1
        """
        _, stepped, _ = self._run(source, None, run_to_halt)
        cpu, state, served = self._run(source, None, run_jit_to_halt)
        assert state == stepped
        assert cpu.read_reg(1) == 3 * (3 * 5 + 3 * 7)
        target = assemble(source).address_of("target")
        assert served[("store", target)] == 6
        assert cpu.translations.jit_invalidations >= 6


class TestCoherentTails:
    """Behind a slice's head on a coherent node, a load or store off
    ``sp`` rides when its node's cache hits a block wholly inside the
    executing frame's stack window.  The hit stamps its line, advances
    the cache's clock and counts itself, so the tail's undo record
    logs each line's old stamp: :meth:`Processor.unrun_tail` takes the
    LRU back with the registers and words."""

    #: Warmed by five steps: ``set`` (two words) and three misses that
    #: bring the frame's three blocks in, two modified and one shared.
    #: Then the head and five stack accesses, one per block kind.
    SOURCE = """
            set frame, sp
            st r0, [sp+0]
            st r0, [sp+20]
            ld [sp+32], r3
            addr r0, 20, r1         ; the head
            st r1, [sp+4]
        second:
            ld [sp+16], r2
            ld [sp+36], r4
            st r2, [sp+24]
            ld [sp+4], r5
            halt
            .align 16
        frame:
            .space 12
    """

    def _warm(self, window_bytes):
        cpu, fabric, program = build_coherent_cpu(self.SOURCE)
        frame = program.address_of("frame")
        cpu.frame.window = (frame, frame + window_bytes)
        for _ in range(5):
            cpu.step()
        return cpu, fabric.caches[0], program

    @staticmethod
    def _state(cpu, cache):
        memory = cpu.port.memory
        return dict(
            lines=[(line.tag, line.state, line.last_used)
                   for lines in cache._sets for line in lines or ()],
            clock=cache._clock, cache=cache.stats.to_dict(),
            words=memory._words.tobytes(), full=bytes(memory._full))

    @pytest.mark.parametrize("keep", [0, 2, 5])
    def test_unrun_tail_puts_stamps_clock_and_hits_back(self, keep):
        cpu, cache, _ = self._warm(48)
        before = self._state(cpu, cache)
        spent = cpu.step_block(0, True)
        count, _, stores, hits = cpu.ahead_tail
        assert count == spent - 1 == 5
        assert len(hits) == 5 and len(stores) == 2
        assert (cpu.ahead_loads, cpu.ahead_stores) == (3, 2)
        assert cache._clock == before["clock"] + 5
        cpu.unrun_tail(keep)
        if keep == 0:
            # The head touched no memory: the slice left nothing.
            assert self._state(cpu, cache) == before
        ref_cpu, ref_cache, _ = self._warm(48)
        for _ in range(1 + keep):
            ref_cpu.step()
        assert self._state(cpu, cache) == self._state(ref_cpu, ref_cache)
        assert cpu.frame.regs == ref_cpu.frame.regs
        assert cpu.frame.psr.value == ref_cpu.frame.psr.value
        assert (cpu.frame.pc, cpu.cycles) == (ref_cpu.frame.pc,
                                              ref_cpu.cycles)
        assert cpu.stats.snapshot() == ref_cpu.stats.snapshot()

    def test_a_block_that_straddles_the_window_parks(self):
        # The window ends four bytes into the frame's second block: its
        # first word is inside, but another node may write the rest of
        # the block — and invalidate this line — without touching the
        # window, so no access to that block rides.
        cpu, _, program = self._warm(20)
        cpu.step_block(0, True)
        assert (cpu.ahead_loads, cpu.ahead_stores) == (0, 1)
        assert cpu.frame.pc == program.address_of("second")
        assert cpu.frame.window[1] - cpu.read_reg(registers.SP) == 20


# -- the PSR at every exit -----------------------------------------------------

#: Instructions that set the PSR, over r1..r6 (any words).  The three
#: register fields are drawn independently, so the aliased forms (rd ==
#: rs1, rd == rs2, all three one register) come up by themselves; the
#: r0 forms are spelled out.  The loads redefine a register a pending
#: producer may have named as an operand (and set the full/empty bit).
_FLAG_PRODUCERS = (
    "add {a}, {b}, {d}", "sub {a}, {b}, {d}", "mul {a}, {b}, {d}",
    "cmp {a}, {b}", "add {a}, {even}, {d}", "sub {a}, {even}, {d}",
    "cmp {a}, {even}", "mul {a}, {even}, {d}",
    "addr {a}, {b}, {d}", "subr {a}, {b}, {d}", "addr {a}, {imm}, {d}",
    "subr {a}, {imm}, {d}", "cmpr {a}, {b}", "cmpr {a}, {imm}",
    "and {a}, {b}, {d}", "or {a}, {b}, {d}", "xor {a}, {b}, {d}",
    "andn {a}, {b}, {d}", "xor {a}, {imm}, {d}",
    "sll {a}, {sh}, {d}", "srl {a}, {sh}, {d}", "sra {a}, {sh}, {d}",
    "sll {a}, {b}, {d}", "sra {a}, {b}, {d}",
    "add r0, {even}, {d}", "sub r0, {even}, {d}", "addr r0, {imm}, {d}",
    "or r0, r0, {d}", "subr r0, {a}, {d}", "or {a}, r0, {d}",
    "sub {a}, r0, {d}", "cmp r0, {even}", "xor r0, {imm}, {d}",
    "ld [r10+{off}], {d}", "ldent [r10+{off}], {d}",
)
#: Inside the executing frame's stack window, so they ride a slice's tail.
_STACK_ACCESSES = ("ld [sp+{off}], {d}", "st {a}, [sp+{off}]",
                   "stfnt {a}, [sp+{off}]", "ldent [sp+{off}], {d}")
_DATA_BASE = 0x8000          # r10: eight data words, full or empty
_STACK_BASE = 0x9000         # sp: eight words, the frame's window
_FUTURE = TestGuardTrapParity.FUTURE_WORD
#: Each condition with its negation: one of the two is taken.
_CONDITIONS = (("be", "bne"), ("bl", "bge"), ("ble", "bg"),
               ("bneg", "bpos"), ("bcs", "bcc"), ("bvs", "bvc"))


@st.composite
def _producers(draw, pool=_FLAG_PRODUCERS, min_size=1, max_size=8):
    """A run of PSR producers, as source lines."""
    reg = st.sampled_from(["r1", "r2", "r3", "r4", "r5", "r6"])
    lines = []
    for template in draw(st.lists(st.sampled_from(pool), min_size=min_size,
                                  max_size=max_size)):
        lines.append("    " + template.format(
            a=draw(reg), b=draw(reg), d=draw(reg),
            imm=draw(st.integers(-1024, 1023)),
            even=2 * draw(st.integers(-512, 511)),
            sh=draw(st.integers(0, 31)),
            off=4 * draw(st.integers(0, 7))))
    return "\n".join(lines)


def _producer_runs(examples=40, **body):
    """Hypothesis: a run of producers, six register seeds and the eight
    data words' full/empty bits."""
    def decorate(test):
        return settings(max_examples=examples, deadline=None)(given(
            body=_producers(**body), seeds=st.tuples(*[_words] * 6),
            full=st.tuples(*[st.booleans()] * 8))(test))
    return decorate


class TestFlagsAtEveryExit:
    """Generated code computes PSR bits when somebody reads them, so
    the contract is about exits: whenever a generated function returns
    or raises — any kind of exit, with any producers pending — PSR,
    registers, PC chain and memory are ``step_reference``'s."""

    @staticmethod
    def _build(source, seeds, full, reference=False):
        """One processor over ``source``: r1..r6 seeded, r7 a future,
        r10 the data words (full/empty bits from ``full``), r11 the
        program's ``target`` label, sp a stack the frame owns; every
        trap fixes or skips what it tripped over and is logged with
        the PSR it found."""
        cpu, memory, program = (build_cpu if reference
                                else build_jit_cpu)(source)
        if reference:
            cpu.use_reference_interpreter()
        for number, value in enumerate(seeds, start=1):
            cpu.write_reg(number, value)
        cpu.write_reg(7, _FUTURE)
        cpu.write_reg(10, _DATA_BASE)
        cpu.write_reg(11, program.labels.get("target", 0))
        cpu.write_reg(registers.SP, _STACK_BASE)
        cpu.frame.window = (_STACK_BASE, _STACK_BASE + 32)
        for index, bit in enumerate(full):
            memory.write_word(_DATA_BASE + 4 * index, 0x1234 * (index + 1))
            memory.set_full(_DATA_BASE + 4 * index, bit)
        cpu.trap_log = log = []

        def future(cpu, frame, trap):
            log.append((trap.kind, trap.pc, trap.value, frame.psr.value))
            instr = trap.instr
            for number in {instr.rs1} | (set() if instr.use_imm
                                         else {instr.rs2}):
                cpu.write_reg(number, cpu.read_reg(number, frame) & ~1, frame)
            return TrapAction.RETRY

        def skip(cpu, frame, trap):
            log.append((trap.kind, trap.pc, trap.address, frame.psr.value))
            return TrapAction.RESUME

        cpu.trap_table.register(TrapKind.FUTURE_COMPUTE, future)
        for kind in (TrapKind.ALIGNMENT, TrapKind.EMPTY_LOAD,
                     TrapKind.FULL_STORE, TrapKind.FUTURE_ADDRESS):
            cpu.trap_table.register(kind, skip)
        cpu.trap_table.register_software(3, skip)
        return cpu, memory, program

    @staticmethod
    def _assert_same(cpu, memory, ref, ref_memory):
        assert cpu.cycles == ref.cycles
        assert cpu.frame.psr.value == ref.frame.psr.value
        assert cpu.frame.regs == ref.frame.regs
        assert cpu.globals == ref.globals
        assert (cpu.frame.pc, cpu.frame.npc) == (ref.frame.pc, ref.frame.npc)
        assert cpu.trap_log == ref.trap_log
        assert cpu.stats.snapshot() == ref.stats.snapshot()
        assert memory._words == ref_memory._words
        assert memory._full == ref_memory._full

    def _lockstep(self, source, seeds, full):
        """Run ``source`` block by block, the reference catching up
        after every exit of a generated function."""
        cpu, memory, _ = self._build(source, seeds, full)
        ref, ref_memory, _ = self._build(source, seeds, full, reference=True)
        exits = 0
        while not cpu.halted:
            cpu.step_block(1 << 30)
            while ref.cycles < cpu.cycles and not ref.halted:
                ref.step()
            self._assert_same(cpu, memory, ref, ref_memory)
            exits += 1
            assert exits < 100
        assert cpu.jit_runs > 0 and cpu.jit_deopts == 0
        return cpu

    @_producer_runs()
    def test_tripped_future_guard(self, body, seeds, full):
        # r7 holds a future: the guard bails with the producers before
        # it pending, and the handler reads the PSR they left.
        cpu = self._lockstep(body + """
            add r7, 4, r8
            halt
        """, seeds, full)
        assert any(pc_value[2] == _FUTURE for pc_value in cpu.trap_log)

    @pytest.mark.parametrize("access", [
        "ld [r10+2], r8",             # misaligned
        "st r8, [r10+2]",
        "ldtt [r10+{off}], r8",       # traps if the word is empty
        "sttt r8, [r10+{off}]",       # traps if it is full
        "ld [r7+0], r8",              # future base address
        "st r8, [r11+0]",             # a code-watched word: no trap
    ])
    @_producer_runs()
    def test_inlined_access_slow_path(self, access, body, seeds, full):
        self._lockstep(body + """
            %s
            rdpsr r8
            halt
        target:
            nop
        """ % access.format(off=4 * (seeds[0] & 7)), seeds, full)

    @pytest.mark.parametrize("delay", ["addr r1, 1, r1", "cmp r2, r4",
                                       "ld [r10+4], r3", "nop", "rdpsr r8"])
    @pytest.mark.parametrize("pair", _CONDITIONS)
    @_producer_runs()
    def test_conditional_branch_taken_and_untaken(self, pair, delay, body,
                                                  seeds, full):
        # A fused branch (and, with ``rdpsr`` in the slot, a bare one)
        # reading whatever producer comes last, with another producer
        # in its delay slot; ``rdpsr`` publishes the PSR either way.
        for condition in pair:
            self._lockstep(body + """
                %s over
                @%s
                subr r5, r6, r5
                rdpsr r9
            over:
                rdpsr r8
                halt
            """ % (condition, delay), seeds, full)

    @pytest.mark.parametrize("between", ["", "addr r1, r2, r1", "cmp r1, r1"])
    @_producer_runs()
    def test_jfull_jempty_after_a_lazy_full_empty_bit(self, between, body,
                                                      seeds, full):
        for branch in ("jfull", "jempty"):
            self._lockstep(body + """
                ld [r10+%d], r3
                %s
                %s over
                @ld [r10+8], r4
                or r0, r0, r5
            over:
                rdpsr r8
                halt
            """ % (4 * (seeds[1] & 7), between, branch), seeds, full)

    @pytest.mark.parametrize("terminator", ["rdpsr r8", "trap 3",
                                            "jmpl [r11+0], r8", "call target"])
    @_producer_runs()
    def test_delegated_or_inlined_terminator(self, terminator, body, seeds,
                                             full):
        self._lockstep(body + """
            %s
            rdpsr r9
        target:
            halt
        """ % terminator, seeds, full)

    @pytest.mark.parametrize("stop", [
        "add r7, 4, r8",              # a tripped guard parks
        "ld [sp+64], r8",             # so does a stack access off the window
        "ld [r10+0], r8",             # not private: the scan stops before it
    ])
    @_producer_runs(examples=25, min_size=2,
                    pool=_FLAG_PRODUCERS[:-2] + _STACK_ACCESSES)
    def test_slice_park_and_unrun_tail(self, stop, body, seeds, full):
        source = body + "\n    %s\n    halt\n" % stop
        probe, _, _ = self._build(source, seeds, full)
        probe.step_block(0, True)
        if probe.ahead_tail is None:
            # The head itself trapped, or stands alone: no tail to test.
            return
        count = probe.ahead_tail[0]
        ref, ref_memory, _ = self._build(source, seeds, full, reference=True)
        for _ in range(1 + count):
            ref.step()
        self._assert_same(probe, probe.port.memory, ref, ref_memory)  # parked
        for keep in range(count + 1):
            cpu, memory, _ = self._build(source, seeds, full)
            cpu.step_block(0, True)
            cpu.unrun_tail(keep)
            ref, ref_memory, _ = self._build(source, seeds, full,
                                             reference=True)
            for _ in range(1 + keep):
                ref.step()
            self._assert_same(cpu, memory, ref, ref_memory)

    def test_one_materialisation_per_exit_not_per_producer(self):
        # Eight back-to-back producers, a guard in the middle: the
        # condition codes are built in the guard's bail and at the
        # terminator — twice, not eight times.  The terminator builds
        # them inline, the only `_cc` on the fall-through path; the
        # bail, a slow exit, through one `_psr_<kind>` helper call.
        body = "\n".join("    addr r%d, %d, r%d" % (n, n, n + 1)
                         for n in range(1, 5))
        source = body + "\n    add r5, 4, r6\n" + body.replace(
            "addr", "subr") + "\n    halt\n"
        cpu, _, program = build_jit_cpu(source)
        jb = compile_block(cpu, program.base)
        assert jb.count == 10
        lines = jb.source.split("\n")
        assert sum(line.lstrip().startswith("_cc = ") for line in lines) == 1
        assert sum(line.startswith("    _cc = ") for line in lines) == 1
        assert sum(jb.source.count("_psr_%s(" % kind)
                   for kind in PRODUCERS) == 1
        assert jb.source.count("_psr.value = ") == 2
        assert "_c = " not in jb.source            # nothing copied aside
        # ... and a loaded constant is a literal, flags and all.
        cpu, _, program = build_jit_cpu("""
            add r0, 8, r1
            or r0, r0, r2
            halt
        """)
        jb = compile_block(cpu, program.base)
        assert "    r1 = 8\n    r2 = 0\n" in jb.source
        assert "res" not in jb.source and "_cc" not in jb.source
