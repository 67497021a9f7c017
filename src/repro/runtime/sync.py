"""Fine-grain synchronization on full/empty bits (paper Section 3.3).

"APRIL adopts the full/empty bit approach used in the HEP to reduce
both the storage requirements and the number of memory accesses...
The load of an empty location or the store into a full location can
trap the processor causing a context switch, which helps hide
synchronization delay."

This module provides the classic structures as APRIL assembly routines
(linked into programs that want them) plus Python-side allocators that
lay the structures out in simulated memory:

* **I-structures** [3] — write-once slots: ``__istore`` traps on double
  writes, ``__ifetch`` waits (switch-spinning) for the producer.
* **L-structure locks** — a lock is one word whose full/empty bit *is*
  the lock: ``ldett`` atomically takes it (trapping while empty),
  ``stftt`` releases.  No test&set loop, no separate lock storage —
  the Section 3.3 argument.
* **Barriers** — a lock-protected counter with a sense word; arrivers
  decrement, the last one fills the sense word, and waiters ride the
  full/empty trap on it rather than busy-polling.  Barriers are
  single-generation: allocate one per phase (they are four words; the
  paper's data-parallel argument is precisely that such word-grain
  synchronization is cheap enough to allocate freely).
"""

from repro.errors import RuntimeSystemError
from repro.isa import tags

#: Lock layout: 1 word; full = free, empty = held.
LOCK_WORDS = 2       # padded to 8-byte alignment

#: Barrier layout: [0] lock, [1] remaining count, [2] total, [3] sense.
BARRIER_WORDS = 4

SYNC_ASM = """
; --- I-structures ----------------------------------------------------
__istore:            ; a0 = slot address, a1 = value; once only
    stftt a1, [a0+0] ; store + set full; traps FULL_STORE on reuse
    ret

__ifetch:            ; a0 = slot address -> a0 = value
    ldtt [a0+0], a0  ; traps EMPTY_LOAD (switch-spin) until produced
    ret

; --- L-structure locks ------------------------------------------------
__lock_acquire:      ; a0 = lock address
    ldett [a0+0], t0 ; atomically read-and-empty; traps while held
    ret

__lock_release:      ; a0 = lock address
    stftt r0, [a0+0] ; refill; traps FULL_STORE on double release
    ret

; --- barriers ----------------------------------------------------------
; a0 = barrier address.  Layout: +0 lock, +4 remaining, +8 total,
; +12 sense (full/empty bit used as the generation flag).
__barrier_wait:
    st ra, [sp+0]
    st a0, [sp+4]
    addr sp, 8, sp
    call __lock_acquire
    ldr [sp-4], a0       ; reload barrier pointer
    ldr [a0+4], t0       ; remaining
    subr t0, 4, t0       ; one fixnum less
    cmpr t0, 0
    be __barrier_last
    str t0, [a0+4]
    call __lock_release
    ldr [sp-4], a0
    ldtt [a0+12], t0     ; wait on the sense word (empty until release)
    ba __barrier_done
__barrier_last:
    ldr [a0+8], t1       ; reset remaining = total
    str t1, [a0+4]
    call __lock_release
    ldr [sp-4], a0
    stfnt r0, [a0+12]    ; fill the sense word: releases the waiters
__barrier_done:
    subr sp, 8, sp
    ld [sp+0], ra
    ret
"""


class SyncAllocator:
    """Allocates synchronization structures in a machine's memory."""

    def __init__(self, machine):
        self.heap = machine.runtime.kernel_heap(0)
        self.memory = machine.memory
        self.istructure_arrays = 0
        self.istructure_slots = 0
        self.locks = 0
        self.barriers = 0
        self.words_allocated = 0
        machine.runtime.sync = self

    def counters(self):
        """Counter snapshot for reports."""
        return {
            "istructure_arrays": self.istructure_arrays,
            "istructure_slots": self.istructure_slots,
            "locks": self.locks,
            "barriers": self.barriers,
            "words_allocated": self.words_allocated,
        }

    @staticmethod
    def empty_counters():
        """The all-zero snapshot for machines with no allocator."""
        return {
            "istructure_arrays": 0,
            "istructure_slots": 0,
            "locks": 0,
            "barriers": 0,
            "words_allocated": 0,
        }

    def new_istructure_array(self, length):
        """An array of empty I-structure slots; returns the base address."""
        base = self.heap.arena.allocate(max(length, 2))
        for i in range(length):
            self.memory.write_word(base + 4 * i, 0)
            self.memory.set_full(base + 4 * i, False)
        self.istructure_arrays += 1
        self.istructure_slots += length
        self.words_allocated += max(length, 2)
        return base

    def new_lock(self):
        """A free lock (full word); returns its address."""
        base = self.heap.arena.allocate(LOCK_WORDS)
        self.memory.write_word(base, 0)
        self.memory.set_full(base, True)
        self.locks += 1
        self.words_allocated += LOCK_WORDS
        return base

    def new_barrier(self, parties):
        """A barrier for ``parties`` threads; returns its address."""
        if parties < 1:
            raise RuntimeSystemError("barrier needs at least one party")
        self.barriers += 1
        self.words_allocated += BARRIER_WORDS
        base = self.heap.arena.allocate(BARRIER_WORDS)
        self.memory.write_word(base + 0, 0)
        self.memory.set_full(base + 0, True)                    # lock free
        self.memory.write_word(base + 4, tags.make_fixnum(parties))
        self.memory.write_word(base + 8, tags.make_fixnum(parties))
        self.memory.write_word(base + 12, 0)
        self.memory.set_full(base + 12, False)                  # sense empty
        return base

    def lock_is_free(self, address):
        return self.memory.is_full(address)

    def istructure_value(self, base, index):
        address = base + 4 * index
        if not self.memory.is_full(address):
            raise RuntimeSystemError("I-structure slot %d still empty" % index)
        return self.memory.read_word(address)
