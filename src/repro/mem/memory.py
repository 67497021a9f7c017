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

Storage is the paper's 33 bits per word, literally: the data fields are
one ``array('I')`` (four bytes each) and the full/empty bits one
``bytearray``.  Neither holds Python object references, so a cycle
collector pass finds nothing to walk in a bank however large it is (a
2 Mi-entry ``list`` cost one pass ~8 ms, about once per short job), and
a finished machine's bank is one ``free()``.  The price is a contract:
a value stored into a word must already be a masked 32-bit unsigned
integer — every write choke point here masks with ``WORD_MASK``, and
the JIT's inlined stores rely on registers only ever holding masked
words — because an unmasked value raises ``OverflowError`` where a
``list`` would have silently widened the word.

The :meth:`Memory.sync_load` / :meth:`Memory.sync_store` helpers apply
the Table 2 flavor semantics; both the ideal memory port and the full
cache/directory controller are built on them so the synchronization
behavior is identical in every machine mode.
"""

import weakref
from array import array

from repro.core.traps import TrapKind
from repro.errors import MemoryError_
from repro.isa.tags import WORD_MASK

if array("I").itemsize != 4:                    # pragma: no cover
    raise ImportError("repro.mem.memory needs a 4-byte array('I') item")


class CodeWatch:
    """Write-watch over words that processors have translated.

    Self-modifying-code support for the translation-cache tiers
    (:mod:`repro.core.execops` closures and :mod:`repro.core.jit`
    blocks): each processor registers the word ranges it has compiled
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
        # Both repeats fill in place: no per-word temporary is built.
        self._words = array("I", (0,)) * size_words
        # full/empty bits: 1 = full (the default for ordinary data)
        self._full = bytearray(b"\x01") * size_words
        #: Optional :class:`CodeWatch` (the machine attaches one per
        #: bank); None keeps both write paths check-free.
        self.code_watch = None

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
        return index

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
        return bool(self._full[self._index(address)])

    def set_full(self, address, full):
        """Set the word's full/empty bit."""
        self._full[self._index(address)] = 1 if full else 0

    # -- Table 2 semantics ------------------------------------------------------

    def sync_load(self, address, flavor):
        """Apply a load flavor at this word.

        Returns ``(value, was_full, trap_kind)``.  When ``trap_kind`` is
        not ``None`` the access did not complete (the word state is
        untouched) and the caller must trap the processor.
        """
        index = self._index(address)
        was_full = bool(self._full[index])
        if flavor.raw:
            return self._words[index], was_full, None
        if flavor.trap_on_empty and not was_full:
            return 0, was_full, TrapKind.EMPTY_LOAD
        value = self._words[index]
        if flavor.set_empty:
            self._full[index] = 0
        return value, was_full, None

    def sync_store(self, address, value, flavor):
        """Apply a store flavor at this word.

        Returns ``(was_full, trap_kind)``; semantics mirror
        :meth:`sync_load` (stores trap on *full* locations).
        """
        index = self._index(address)
        was_full = bool(self._full[index])
        if flavor.raw:
            self._words[index] = value & WORD_MASK
            if flavor.set_full:
                self._full[index] = 1
        else:
            if flavor.trap_on_full and was_full:
                return was_full, TrapKind.FULL_STORE
            self._words[index] = value & WORD_MASK
            if flavor.set_full:
                self._full[index] = 1
        watch = self.code_watch
        if watch is not None and (address >> 2) in watch.words:
            watch.notify(address)
        return was_full, None

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
