"""Simulated main memory with full/empty bits (paper Section 3.3).

"Words in memory have a 32 bit data field, and have an additional
synchronization bit called the full/empty bit."  A bit associated with
each memory word indicates the state of the word: full or empty.  The
load of an empty location or the store into a full location can trap
the processor.

Addresses are byte addresses; words live at multiples of 4.  The
full/empty state of every word defaults to *full*, so ordinary data is
unaffected; the run-time system allocates synchronization slots (future
value cells, I-structure elements, lock words) in the empty state.

Storage is the paper's 33 bits per word, on two private anonymous
mappings: the data fields are an ``'I'`` view (four bytes each) of one,
the full/empty bits a byte view of the other.  Mapping writes nothing,
so a bank costs resident memory only in the pages its program touches
(a fib run on the default 2 Mi-word bank: a few dozen 4 KiB pages of
its 10 MiB), and an untouched page reads zero.  Every word must read
*full*, so the bit map is stored in the *empty* sense: 1 is empty.
``_full`` keeps its name — it is the full/empty map — and every reader
of it (the methods here, :attr:`StackWindows.view`, the JIT's inlined
accesses, ``Processor.unrun_tail``'s undo log) reads 0 as full.

Neither view holds Python object references, so a cycle collector pass
finds nothing to walk in a bank however large it is (a 2 Mi-entry
``list`` cost one pass ~8 ms, about once per short job), and a
finished machine's bank is two ``munmap()``.  The price is a contract:
a value stored into a word must already be a masked 32-bit unsigned
integer — every write choke point here masks with ``WORD_MASK``, and
the JIT's inlined stores rely on registers only ever holding masked
words — because an unmasked value raises ``ValueError`` where a
``list`` would have silently widened the word.

The :meth:`Memory.sync_load` / :meth:`Memory.sync_store` helpers apply
the Table 2 flavor semantics; both the ideal memory port and the full
cache/directory controller are built on them so the synchronization
behavior is identical in every machine mode.

Every word and synchronizing method resolves its address through
:meth:`Memory._index`, which is therefore the one gate a machine that
runs processors ahead (:class:`StackWindows`) needs: an access that is
not a run-ahead tail's own and lands in a loaded thread's stack asks
first that whoever ran ahead over it be wound back.  The exception is
a cell the run-time system allocated itself (:meth:`Memory.new_cell`,
:meth:`Memory.fill_cell`): it is an arena allocation disjoint from
every stack, so no window can hold it and the gate is skipped.
"""

import mmap
import weakref
from array import array

from repro.core.traps import TrapKind
from repro.errors import MemoryError_
from repro.isa.tags import WORD_MASK

if memoryview(bytes(4)).cast("I").itemsize != 4:   # pragma: no cover
    raise ImportError("repro.mem.memory needs a 4-byte 'I' item")


def _anonymous(nbytes):
    """``nbytes`` of zero-filled private anonymous memory, as a byte
    view.  Mapping writes nothing: a page takes memory when it is first
    written (a read of an untouched one maps the kernel's shared zero
    page).  ``MAP_PRIVATE`` because Python's default for an
    anonymous map is ``MAP_SHARED``, which would let a ``fork``-ed
    child write its parent's bank.  ``mmap`` refuses length 0, so an
    empty bank is an empty buffer."""
    if not nbytes:
        return memoryview(bytearray())
    bank = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    try:
        # Where transparent huge pages are "always", one touch would
        # make a whole 2 MiB resident.
        bank.madvise(mmap.MADV_NOHUGEPAGE)
    except (AttributeError, OSError):           # pragma: no cover
        pass                                    # no THP here
    return memoryview(bank)


class CodeWatch:
    """Write-watch over words that processors have translated.

    Self-modifying-code support for the translation caches (the
    :mod:`repro.core.jit` one-instruction forms, blocks and slices):
    each processor registers the word ranges it has compiled
    via :meth:`cover`; :class:`Memory` calls :meth:`notify` from its
    write choke points (:meth:`Memory.sync_store`,
    :meth:`Memory.write_word` — every store flavor, block transfer, and
    monitor poke lands on one of them — and :meth:`Memory.load_program`)
    whenever a watched word is written, and every registered listener
    drops its stale translations.  Word-granular, so data stores never
    false-positive; the set only grows with the translated code
    footprint.  Purely a host-level mechanism: no cycle accounting is
    involved, so the lockstep schedules are unaffected.
    """

    __slots__ = ("words", "_listeners")

    def __init__(self):
        self.words = set()
        self._listeners = []

    def add_listener(self, callback):
        """Register the bound method ``callback(address)`` for writes
        to watched words.  Held weakly: the watch hangs off the memory
        bank its listeners reach, and a strong reference would close a
        cycle that keeps a finished machine's bank alive until the
        cycle collector runs."""
        self._listeners.append(weakref.WeakMethod(callback))

    def cover(self, start, end):
        """Watch the byte range ``[start, end)`` (word granular)."""
        self.words.update(range(start >> 2, (end + 3) >> 2))

    def notify(self, address):
        for listener in self._listeners:
            callback = listener()
            if callback is not None:
                callback(address)


#: log2 of the bytes in one :class:`StackWindows` page (256 words).
WINDOW_PAGE_SHIFT = 10


class StackWindows:
    """Which loaded thread owns which stretch of stack.

    The bookkeeping behind memory-op run-ahead (see
    :meth:`repro.machine.alewife.AlewifeMachine._run_fast`), on ideal
    and coherent banks alike.  A loaded thread's *window* is
    ``[stolen_base, stack_limit)``; the frame it is loaded in carries
    the bounds (``frame.window``), and generated code lets a load or
    store inside the executing frame's window ride a slice's private
    tail (on a coherent node: a hit of its own cache on a block wholly
    inside the window).  What makes that exact is this registry.
    :attr:`owners` maps every :data:`WINDOW_PAGE_SHIFT` page that a
    stack region was ever carved over to the regions' base addresses —
    a page-granular "may be somebody's stack" — and :attr:`loaded`
    maps the base of a stack whose thread is loaded to ``(node,
    frame)``.  Every access that is *not* a tail access —
    :meth:`Memory._index`, the cache controller's ``load`` and
    ``store`` (before their protocol walk), and the inlined head and
    plain-block accesses of generated code, which test ``owners``
    themselves and fall to the former — calls :meth:`touch` before it
    reads or writes, so the machine can take an owner's tail back to
    the toucher's place in the schedule first.

    Regions are registered once, as ``RuntimeSystem.allocate_stack``
    carves them (freed stacks are reused, never returned).  Windows
    appear, shrink and disappear only through :meth:`open`
    (``Scheduler.load_thread``), :meth:`moved`
    (``RuntimeSystem.steal_lazy_task`` moving ``stolen_base`` up) and
    :meth:`close` (``unload_thread`` / ``retire_thread``) — a
    dictionary entry each; distinct threads' stacks are disjoint, so
    windows are.  The size is that of the stacks, never the bank's.
    ``wind_back(node, frame, cause)`` is the machine's bound method,
    held weakly: the registry hangs off the bank the machine owns.

    :attr:`view` is what generated code on such a bank reads in one
    go: the word view, the full/empty view (1 = empty, as
    :class:`Memory` stores it), the code-watched word set and
    :attr:`owners` — four objects that live as long as the bank.
    """

    __slots__ = ("owners", "loaded", "view", "_wind_back")

    def __init__(self, memory, wind_back):
        #: page -> bases of the stack regions overlapping it.
        self.owners = {}
        #: stack base of a loaded thread -> ``(node, frame)``.
        self.loaded = {}
        watch = memory.code_watch
        self.view = (memory._words, memory._full,
                     watch.words if watch is not None else (), self.owners)
        self._wind_back = weakref.WeakMethod(wind_back)

    def carve(self, base, limit):
        """``[base, limit)`` is a thread stack from now on."""
        owners = self.owners
        for page in range(base >> WINDOW_PAGE_SHIFT,
                          ((limit - 1) >> WINDOW_PAGE_SHIFT) + 1):
            owners.setdefault(page, []).append(base)

    def open(self, node, frame, thread):
        """``thread`` was loaded into ``frame`` of ``node``."""
        frame.window = (thread.stolen_base, thread.stack_limit)
        self.loaded[thread.stack_base] = (node, frame)

    def close(self, thread):
        """``thread`` left its frame (unloaded or retired)."""
        _, frame = self.loaded.pop(thread.stack_base)
        frame.window = (0, 0)

    def moved(self, thread):
        """``thread.stolen_base`` changed; a no-op unless it is loaded."""
        entry = self.loaded.get(thread.stack_base)
        if entry is not None:
            self.open(*entry, thread)

    def touch(self, address, cause="foreign"):
        """Something other than a tail is about to access ``address``."""
        for base in self.owners.get(address >> WINDOW_PAGE_SHIFT, ()):
            entry = self.loaded.get(base)
            if entry is not None:
                node, frame = entry
                lo, hi = frame.window
                if lo <= address < hi:
                    wind_back = self._wind_back()
                    if wind_back is not None:
                        wind_back(node, frame, cause)
                    return


class Memory:
    """A bank of 32-bit words, each with a full/empty bit.

    Args:
        size_words: capacity in words.
        base: byte address of the first word (banks in a distributed
            machine each cover a slice of the global address space).
    """

    def __init__(self, size_words, base=0):
        if base % 4:
            raise MemoryError_("memory base must be word aligned")
        self.base = base
        self.size_words = size_words
        self._words = _anonymous(4 * size_words).cast("I")
        # The full/empty bits, one byte per word in the *empty* sense
        # (1 = empty): an untouched page reads 0, so every word starts
        # full.
        self._full = _anonymous(size_words)
        #: Optional :class:`CodeWatch` (the machine attaches one per
        #: bank); None keeps both write paths check-free.
        self.code_watch = None
        #: Optional :class:`StackWindows` (a machine installs one for a
        #: run that runs ahead); None keeps :meth:`_index` check-free.
        self.windows = None

    @property
    def limit(self):
        """First byte address past this bank."""
        return self.base + 4 * self.size_words

    def _index(self, address):
        if address % 4:
            raise MemoryError_("misaligned word access: %#x" % address)
        index = (address - self.base) >> 2
        if not 0 <= index < self.size_words:
            raise MemoryError_(
                "address %#x outside bank [%#x, %#x)" % (address, self.base, self.limit)
            )
        windows = self.windows
        if (windows is not None
                and address >> WINDOW_PAGE_SHIFT in windows.owners):
            windows.touch(address)
        return index

    def peek(self, address):
        """``(whether full, word)`` at a byte address, through the
        window gate once."""
        index = self._index(address)
        return not self._full[index], self._words[index]

    def contains(self, address):
        """True if the byte address falls in this bank."""
        return self.base <= address < self.limit and address % 4 == 0

    # -- raw word access (no synchronization semantics) --------------------

    def read_word(self, address):
        """Read the 32-bit word at a byte address."""
        return self._words[self._index(address)]

    def write_word(self, address, value):
        """Write the 32-bit word at a byte address."""
        self._words[self._index(address)] = value & WORD_MASK
        watch = self.code_watch
        if watch is not None and (address >> 2) in watch.words:
            watch.notify(address)

    # -- full/empty bits ------------------------------------------------------

    def is_full(self, address):
        """State of the word's full/empty bit."""
        return not self._full[self._index(address)]

    def set_full(self, address, full):
        """Set the word's full/empty bit."""
        self._full[self._index(address)] = 0 if full else 1

    # -- Table 2 semantics ------------------------------------------------------

    def sync_load(self, address, flavor):
        """Apply a load flavor at this word.

        Returns ``(value, was_full, trap_kind)``.  When ``trap_kind`` is
        not ``None`` the access did not complete (the word state is
        untouched) and the caller must trap the processor.
        """
        index = self._index(address)
        was_full = not self._full[index]
        if flavor.raw:
            return self._words[index], was_full, None
        if flavor.trap_on_empty and not was_full:
            return 0, was_full, TrapKind.EMPTY_LOAD
        value = self._words[index]
        if flavor.set_empty:
            self._full[index] = 1
        return value, was_full, None

    def sync_store(self, address, value, flavor):
        """Apply a store flavor at this word.

        Returns ``(was_full, trap_kind)``; semantics mirror
        :meth:`sync_load` (stores trap on *full* locations).
        """
        index = self._index(address)
        was_full = not self._full[index]
        if flavor.raw:
            self._words[index] = value & WORD_MASK
            if flavor.set_full:
                self._full[index] = 0
        else:
            if flavor.trap_on_full and was_full:
                return was_full, TrapKind.FULL_STORE
            self._words[index] = value & WORD_MASK
            if flavor.set_full:
                self._full[index] = 0
        watch = self.code_watch
        if watch is not None and (address >> 2) in watch.words:
            watch.notify(address)
        return was_full, None

    # -- cells the run-time system allocated itself ----------------------------
    #
    # A future cell comes from a node's kernel heap, as thread stacks
    # do, but arena allocations are disjoint, so no stack window ever
    # holds one and the window gate of :meth:`_index` would find nothing
    # to wind back: these skip it, with one bounds check straight on the
    # bank, and keep the code-watch test.  A word a program names — a
    # future pointer it hands a trap handler, say — could be forged into
    # a stack, and goes through the gate.

    def _cell_index(self, address, words):
        index = (address - self.base) >> 2
        if address & 3 or index < 0 or index + words > self.size_words:
            raise MemoryError_(
                "cell %#x outside bank [%#x, %#x)"
                % (address, self.base, self.limit))
        return index

    def new_cell(self, address, state):
        """Set up the two-word future cell the run-time system just
        allocated at ``address``: its value slot 0 and *empty*, its state
        word ``state``."""
        index = self._cell_index(address, 2)
        words = self._words
        words[index] = 0
        self._full[index] = 1
        words[index + 1] = state & WORD_MASK
        watch = self.code_watch
        if watch is not None:
            word = address >> 2
            if word in watch.words:
                watch.notify(address)
            if word + 1 in watch.words:
                watch.notify(address + 4)

    def fill_cell(self, address, value):
        """Store ``value`` into the run-time system's cell at ``address``
        and set its bit full.  Returns ``False``, changing nothing, when
        the bit was full already."""
        index = self._cell_index(address, 1)
        empty = self._full
        if not empty[index]:
            return False
        self._words[index] = value & WORD_MASK
        empty[index] = 0
        watch = self.code_watch
        if watch is not None and (address >> 2) in watch.words:
            watch.notify(address)
        return True

    # -- program loading --------------------------------------------------------

    def load_program(self, program):
        """Copy an assembled :class:`~repro.isa.assembler.Program` in:
        one bounds check, one slice assignment, one code-watch pass."""
        words = program.words
        if not words:
            return
        base = program.base
        start = self._index(base)
        self._index(base + 4 * (len(words) - 1))    # raises past the end
        # In bounds, so both sides are equally long: a slice assignment
        # of any other length would resize the bank.
        self._words[start:start + len(words)] = array(
            "I", [word & WORD_MASK for word in words])
        watch = self.code_watch
        if watch is not None and watch.words:
            first = base >> 2
            for hit in sorted(watch.words.intersection(
                    range(first, first + len(words)))):
                watch.notify(hit << 2)

    def dump(self, address, count):
        """Read ``count`` words starting at a byte address (debugging)."""
        return [self.read_word(address + 4 * i) for i in range(count)]
