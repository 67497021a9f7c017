"""Memory bank + full/empty bit semantics (the Table 2 matrix)."""

import ctypes
import gc
import io
import mmap
import multiprocessing
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core.traps import TrapKind
from repro.errors import MemoryError_
from repro.isa.assembler import assemble
from repro.isa.instructions import LOAD_FLAVORS, Opcode, STORE_FLAVORS
from repro.isa.tags import WORD_MASK
from repro.lang.compiler import compile_source
from repro.lang.run import build_mult_machine
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.mem.controller import IO_BT_DST, IO_BT_GO, IO_BT_SRC
from repro.mem.memory import CodeWatch, Memory
from repro.obs.monitor import Monitor
from repro.runtime import stubs

#: Values a Python ``list`` bank would have swallowed whole: negative,
#: at and beyond 2**32, and the 32-bit boundaries themselves.
unmasked_words = st.one_of(
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
    st.sampled_from([0, 1, -1, (1 << 31) - 1, 1 << 31, -(1 << 31),
                     WORD_MASK, WORD_MASK + 1, WORD_MASK + 2,
                     -WORD_MASK, -(WORD_MASK + 1), 1 << 63, -(1 << 63)]))


@pytest.fixture
def memory():
    return Memory(1024)


class TestRawAccess:
    def test_roundtrip(self, memory):
        memory.write_word(64, 0xDEADBEEF)
        assert memory.read_word(64) == 0xDEADBEEF

    def test_masks_to_32_bits(self, memory):
        memory.write_word(0, 0x1FFFFFFFF)
        assert memory.read_word(0) == 0xFFFFFFFF

    def test_misaligned_raises(self, memory):
        with pytest.raises(MemoryError_):
            memory.read_word(2)

    def test_out_of_range_raises(self, memory):
        with pytest.raises(MemoryError_):
            memory.read_word(4096)

    def test_defaults_to_full(self, memory):
        assert memory.is_full(0)

    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_write_read_property(self, index, value):
        memory = Memory(256)
        memory.write_word(index * 4, value)
        assert memory.read_word(index * 4) == value


class TestTable2LoadMatrix:
    """Every load flavor against both full/empty states (Table 2)."""

    @pytest.mark.parametrize("opcode", sorted(LOAD_FLAVORS, key=int))
    def test_full_location_always_loads(self, memory, opcode):
        flavor = LOAD_FLAVORS[opcode]
        memory.write_word(40, 123)
        value, was_full, trap = memory.sync_load(40, flavor)
        assert value == 123
        assert was_full
        assert trap is None
        if flavor.set_empty and not flavor.raw:
            assert not memory.is_full(40)
        else:
            assert memory.is_full(40)

    @pytest.mark.parametrize("opcode", sorted(LOAD_FLAVORS, key=int))
    def test_empty_location(self, memory, opcode):
        flavor = LOAD_FLAVORS[opcode]
        memory.write_word(40, 77)
        memory.set_full(40, False)
        value, was_full, trap = memory.sync_load(40, flavor)
        assert not was_full
        if flavor.trap_on_empty:
            assert trap is TrapKind.EMPTY_LOAD
            # The access did not complete: state untouched.
            assert not memory.is_full(40)
        else:
            assert trap is None
            assert value == 77


class TestTable2StoreMatrix:
    @pytest.mark.parametrize("opcode", sorted(STORE_FLAVORS, key=int))
    def test_empty_location_always_stores(self, memory, opcode):
        flavor = STORE_FLAVORS[opcode]
        memory.set_full(40, False)
        was_full, trap = memory.sync_store(40, 55, flavor)
        assert not was_full
        assert trap is None
        assert memory.read_word(40) == 55
        if flavor.set_full:
            assert memory.is_full(40)
        elif not flavor.raw:
            assert not memory.is_full(40)

    @pytest.mark.parametrize("opcode", sorted(STORE_FLAVORS, key=int))
    def test_full_location(self, memory, opcode):
        flavor = STORE_FLAVORS[opcode]
        memory.write_word(40, 1)
        was_full, trap = memory.sync_store(40, 99, flavor)
        assert was_full
        if flavor.trap_on_full and not flavor.raw:
            assert trap is TrapKind.FULL_STORE
            assert memory.read_word(40) == 1   # store did not complete
        else:
            assert trap is None
            assert memory.read_word(40) == 99


class TestProducerConsumer:
    """The I-structure idiom: stf fills, lde empties (Section 3.3)."""

    def test_handoff(self, memory):
        produce = STORE_FLAVORS[Opcode.STFTT]   # store, set full, trap if full
        consume = LOAD_FLAVORS[Opcode.LDETT]    # load, set empty, trap if empty

        memory.set_full(80, False)
        # Consumer arrives first: traps.
        _, _, trap = memory.sync_load(80, consume)
        assert trap is TrapKind.EMPTY_LOAD
        # Producer fills.
        _, trap = memory.sync_store(80, 42, produce)
        assert trap is None
        # Consumer retries: gets the value and re-empties the slot.
        value, _, trap = memory.sync_load(80, consume)
        assert trap is None and value == 42
        assert not memory.is_full(80)
        # Producer can fill again (the slot is a one-word channel).
        _, trap = memory.sync_store(80, 43, produce)
        assert trap is None

    def test_double_produce_traps(self, memory):
        produce = STORE_FLAVORS[Opcode.STFTT]
        memory.set_full(80, False)
        memory.sync_store(80, 1, produce)
        _, trap = memory.sync_store(80, 2, produce)
        assert trap is TrapKind.FULL_STORE


def tiny_machine(mode, **overrides):
    program = assemble(stubs.thread_start_stub()
                       + "main:\n    set 0, a0\n    ret\n")
    return AlewifeMachine(program, MachineConfig(
        num_processors=2, memory_mode=mode, **overrides))


def _reach(root):
    """Every object a cycle-collector pass walks from ``root`` (types,
    which a pass visits anyway, left out)."""
    seen, todo = [], [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, type) or any(obj is old for old in seen):
            continue
        seen.append(obj)
        todo.extend(gc.get_referents(obj))
    return seen


class TestWordStorage:
    """The bank is Section 3.3's 33 bits per word on two private
    anonymous mappings: an ``'I'`` view of the data fields and a byte
    view of the full/empty bits, stored *empty* (1 = empty) so that an
    untouched page, which reads zero, reads full.  Nothing for the
    cycle collector to walk, and a store of an unmasked value is an
    error rather than a wider word — so every write path must mask."""

    def test_bank_shape(self):
        memory = Memory(1024)
        assert memory._words.format == "I" and memory._words.itemsize == 4
        assert memory._full.format == "B" and memory._full.itemsize == 1
        assert len(memory._words) == len(memory._full) == 1024
        assert isinstance(memory._words.obj, mmap.mmap)
        assert isinstance(memory._full.obj, mmap.mmap)
        # Through the API: every word reads 0 and full.
        assert memory.dump(0, 1024) == [0] * 1024
        assert all(memory.is_full(4 * i) for i in range(1024))
        assert memory.peek(4 * 1023) == (True, 0)

    def test_bank_gives_the_collector_nothing_to_walk(self):
        # A view reaches its buffer manager and the mapping, whatever
        # the bank's size: no per-word object.  A list bank answers
        # with one entry per word.
        memory = Memory(1024)
        for view in (memory._words, memory._full):
            reached = _reach(view)
            assert len(reached) == 3
            assert reached[-1] is view.obj

    @pytest.mark.parametrize("mode", ["ideal", "coherent"])
    def test_collector_sees_no_bank_sized_container_in_a_machine(self, mode):
        machine = tiny_machine(mode)
        words = machine.config.memory_words
        assert len(machine.memory._words) == len(machine.memory._full) == words
        walked = [type(obj) for obj in gc.get_objects()
                  if isinstance(obj, (list, tuple, dict, set, frozenset))
                  and len(obj) >= words]
        assert walked == []
        for view in (machine.memory._words, machine.memory._full):
            assert len(_reach(view)) == 3

    def test_an_unmasked_store_into_the_bank_is_an_error(self):
        # The contract the masks below (and the JIT's inlined stores)
        # live by: the bank itself refuses what a list used to widen.
        memory = Memory(16)
        for value in (-1, WORD_MASK + 1):
            with pytest.raises(ValueError, match="invalid value for format 'I'"):
                memory._words[0] = value

    @given(unmasked_words)
    def test_write_word_masks(self, value):
        memory = Memory(16)
        memory.write_word(8, value)
        assert memory.read_word(8) == value & WORD_MASK

    @given(st.sampled_from(sorted(STORE_FLAVORS, key=int)), unmasked_words)
    def test_every_store_flavor_masks(self, opcode, value):
        memory = Memory(16)
        memory.set_full(8, False)       # no flavor traps on an empty word
        was_full, trap = memory.sync_store(8, value, STORE_FLAVORS[opcode])
        assert (was_full, trap) == (False, None)
        assert memory.read_word(8) == value & WORD_MASK

    @settings(max_examples=25, deadline=None)
    @given(st.lists(unmasked_words, min_size=1, max_size=8))
    def test_block_transfer_masks(self, values):
        machine = tiny_machine("coherent", memory_words=1 << 18)
        controller = machine.fabric.controllers[0]
        cpu = machine.cpus[0]
        src, dst = 0x5000, 0x6000
        for i, value in enumerate(values):
            machine.memory.write_word(src + 4 * i, value)
        controller.stio(IO_BT_SRC, src, context=cpu)
        controller.stio(IO_BT_DST, dst, context=cpu)
        controller.stio(IO_BT_GO, len(values), context=cpu)
        assert machine.memory.dump(dst, len(values)) == [
            value & WORD_MASK for value in values]

    @pytest.mark.parametrize("mode", ["ideal", "coherent"])
    @settings(max_examples=10, deadline=None)
    @given(value=unmasked_words)
    def test_monitor_poke_masks(self, mode, value):
        machine, compiled = build_mult_machine(
            "(define (main) 42)",
            config=MachineConfig(num_processors=2, memory_mode=mode,
                                 memory_words=1 << 18))
        monitor = Monitor(machine, entry=compiled.entry_label("main"),
                          out=io.StringIO())
        monitor.dispatch("poke mem 0x21004 %d" % value)
        monitor.dispatch("poke reg r5 %d" % value)
        assert machine.memory.read_word(0x21004) == value & WORD_MASK
        assert machine.cpus[0].read_reg(5) == value & WORD_MASK
        monitor.dispatch("run")
        assert "result 42" in monitor.out.getvalue()


class TestLoadProgram:
    def test_equals_per_word_writes(self):
        program = assemble("""
            set 0x12345678, r1
            addr r1, 1, r2
            halt
            .word 0xFFFFFFFF
        """, base=0x100)
        sliced, looped = Memory(1024), Memory(1024)
        sliced.load_program(program)
        for i, word in enumerate(program.words):
            looped.write_word(program.base + 4 * i, word)
        assert sliced._words == looped._words
        assert sliced._full == looped._full

    def test_masks_program_words(self):
        class Program:
            base = 8
            words = [-1, WORD_MASK + 2]

        memory = Memory(16)
        memory.load_program(Program)
        assert memory.dump(8, 2) == [WORD_MASK, 1]

    @pytest.mark.parametrize("base", [4 * 14, 4 * 16, 4 * 100])
    def test_overrun_raises_and_never_resizes_the_bank(self, base):
        class Program:
            words = [1, 2, 3]

        Program.base = base
        memory = Memory(16)
        with pytest.raises(MemoryError_):
            memory.load_program(Program)
        assert len(memory._words) == len(memory._full) == 16
        assert not any(memory._words)

    def test_exact_fit_and_empty_program(self):
        class Program:
            base = 4 * 13
            words = [1, 2, 3]

        memory = Memory(16)
        memory.load_program(Program)
        assert memory.dump(4 * 13, 3) == [1, 2, 3]
        Program.words = []
        Program.base = 4 * 400          # nothing to write: nothing checked
        memory.load_program(Program)
        assert len(memory._words) == 16

    def test_notifies_the_code_watch_once_per_watched_word(self):
        class Listener:
            def __init__(self):
                self.seen = []

            def on_write(self, address):
                self.seen.append(address)

        class Program:
            base = 0x20
            words = [7] * 8

        memory = Memory(64)
        memory.code_watch = CodeWatch()
        listener = Listener()
        memory.code_watch.add_listener(listener.on_write)
        memory.code_watch.cover(0x18, 0x28)     # words 0x18..0x24
        memory.code_watch.cover(0x3C, 0x48)     # 0x3C inside, rest past it
        memory.load_program(Program)
        assert listener.seen == [0x20, 0x24, 0x3C]

    def test_the_code_watch_keeps_its_highest_word(self):
        watch = CodeWatch()
        assert watch.top == -1
        watch.cover(0x40, 0x48)
        assert watch.top == 0x44 >> 2 == max(watch.words)
        watch.cover(0x10, 0x18)                 # below: top stays
        watch.cover(0x80, 0x80)                 # empty: nothing watched
        assert watch.top == 0x44 >> 2 == max(watch.words)
        watch.cover(0x10000, 0x10006)           # a partial last word
        assert watch.top == 0x10004 >> 2 == max(watch.words)


def _statm_resident_pages():
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1])
    except OSError:
        pytest.skip("no /proc/self/statm")


def _resident_pages(view):
    """Pages of ``view``'s buffer that are resident (or swapped out),
    from this process's page map."""
    view = memoryview(view)
    address = ctypes.addressof(ctypes.c_char.from_buffer(view))
    first = address // mmap.PAGESIZE
    last = (address + view.nbytes - 1) // mmap.PAGESIZE
    try:
        with open("/proc/self/pagemap", "rb") as handle:
            handle.seek(8 * first)
            entries = handle.read(8 * (last - first + 1))
    except OSError:
        pytest.skip("no /proc/self/pagemap")
    # Bit 63: present; bit 62: swapped.
    return sum(1 for entry, in struct.iter_unpack("<Q", entries)
               if entry >> 62)


class TestResidentCost:
    """Building a bank writes nothing: a machine is resident only in
    the pages its program touches."""

    def test_fresh_banks_cost_no_resident_memory(self):
        before = _statm_resident_pages()
        banks = [Memory(1 << 21) for _ in range(8)]     # 80 MiB mapped
        grown = (_statm_resident_pages() - before) * mmap.PAGESIZE
        assert grown < 1 << 20, (len(banks), grown)

    def test_a_finished_machine_holds_the_pages_it_touched(self):
        fib = workloads.get("fib")
        compiled = compile_source(fib.source(), mode="eager")
        machine = AlewifeMachine(compiled.program,
                                 MachineConfig(num_processors=4))
        result = machine.run(entry=compiled.entry_label("main"),
                             args=fib.args(8))
        assert result.value == fib.reference(8)
        memory = machine.memory
        pages = _resident_pages(memory._words) + _resident_pages(memory._full)
        # 27 word pages and 11 bit pages of the 2048 + 512 mapped.
        assert pages < 48


def _scribble(memory):
    memory.write_word(0x100, 0xBAD)
    memory.set_full(0x104, False)
    assert memory.read_word(0x100) == 0xBAD


class TestForkedChildren:
    def test_a_child_writes_its_own_copy_of_the_bank(self):
        # Python maps anonymous memory MAP_SHARED unless told otherwise;
        # a pool worker forked from a parent holding a machine must not
        # write the parent's bank.
        memory = Memory(1 << 16)
        memory.write_word(0x100, 7)
        child = multiprocessing.get_context("fork").Process(
            target=_scribble, args=(memory,))
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert memory.read_word(0x100) == 7
        assert memory.is_full(0x104)


class TestEmptyBank:
    def test_every_access_to_a_zero_word_bank_is_out_of_bounds(self):
        memory = Memory(0)
        assert len(memory._words) == len(memory._full) == 0
        assert memory.limit == 0
        load, store = LOAD_FLAVORS[Opcode.LDNT], STORE_FLAVORS[Opcode.STNT]
        for access in (lambda: memory.read_word(0),
                       lambda: memory.write_word(0, 1),
                       lambda: memory.is_full(0),
                       lambda: memory.set_full(0, True),
                       lambda: memory.peek(0),
                       lambda: memory.sync_load(0, load),
                       lambda: memory.sync_store(0, 1, store),
                       lambda: memory.new_cell(0, 0),
                       lambda: memory.fill_cell(0, 1),
                       lambda: memory.dump(0, 1)):
            with pytest.raises(MemoryError_):
                access()
        assert memory.dump(0, 0) == []
