"""Per-node processor cache (paper Sections 2.1, 3.4).

A set-associative cache holding coherence *state* (the MSI lattice) and
tags with LRU replacement.  Data always lives in the shared
:class:`~repro.mem.memory.Memory` — the directory protocol's
single-writer invariant makes memory the correct value source at every
instant, so the cache governs **timing** (hit vs. miss, local vs.
remote) while the memory governs **values** (including full/empty
bits).  See DESIGN.md: this is the standard "timing-first" simulator
factorization.

Also implements the Section 3.4 mechanisms that live cache-side:
``FLUSH`` (software write-back + invalidate) and the per-context
*fence counter*, incremented per dirty flush and decremented as the
(simulated) write-back acknowledgments arrive, readable through LDIO.
"""

import enum

from repro.errors import ConfigError, SimulationError
from repro.obs.events import EventBus, EventKind


class LineState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


class CacheLine:
    __slots__ = ("tag", "state", "last_used")

    def __init__(self):
        self.tag = None
        self.state = LineState.INVALID
        self.last_used = 0


class CacheStats:
    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations_received = 0
        self.flushes = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def to_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "evictions": self.evictions,
            "invalidations_received": self.invalidations_received,
            "flushes": self.flushes,
        }


def check_geometry(size_bytes, block_bytes, assoc):
    """Raise :class:`ConfigError` unless positive sizes make whole sets
    of power-of-two blocks."""
    if size_bytes % (block_bytes * assoc):
        raise ConfigError("cache geometry does not divide evenly")
    if block_bytes & (block_bytes - 1):
        raise ConfigError("block size must be a power of two")


class Cache:
    """State/tag array of one node's cache."""

    def __init__(self, size_bytes=64 * 1024, block_bytes=16, assoc=4,
                 node_id=0, events=None):
        check_geometry(size_bytes, block_bytes, assoc)
        self.node_id = node_id
        self.block_bytes = block_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (block_bytes * assoc)
        #: One list of ``assoc`` lines per set, built by the first
        #: :meth:`install` into the set (``None`` until then: a set
        #: nothing was ever filled into holds only invalid lines, and
        #: most of a 4096-line cache is never touched by a short run).
        self._sets = [None] * self.num_sets
        #: block -> the line :meth:`lookup` finds for it, for every
        #: block some line holds validly: generated code asks it whether
        #: an access hits (:mod:`repro.core.jit`), the oracle walks the
        #: set.  Kept by :meth:`install`, :meth:`invalidate` and
        #: :meth:`flush`; :meth:`downgrade` leaves the line valid.
        self.valid = {}
        self._clock = 0
        self.stats = CacheStats()
        #: The machine's observer surface (:mod:`repro.obs.events`).
        self.events = events if events is not None else EventBus()
        # Fence counters, one per hardware context (Section 3.4).
        self.fence_counters = {}

    def block_address(self, address):
        """The block-aligned address containing a byte address."""
        return address & ~(self.block_bytes - 1)

    def _locate(self, address, build=False):
        """``(lines of the address's set, block address)``; an unbuilt
        set reads as empty unless ``build`` asks for its lines."""
        block = self.block_address(address)
        set_index = (block // self.block_bytes) % self.num_sets
        lines = self._sets[set_index]
        if lines is None:
            if not build:
                return (), block
            lines = self._sets[set_index] = [
                CacheLine() for _ in range(self.assoc)]
        return lines, block

    def lookup(self, address):
        """The line holding this address if present and valid."""
        lines, block = self._locate(address)
        self._clock += 1
        for line in lines:
            if line.tag == block and line.state is not LineState.INVALID:
                line.last_used = self._clock
                return line
        return None

    def probe(self, address):
        """Like lookup but without touching LRU (for the directory)."""
        lines, block = self._locate(address)
        for line in lines:
            if line.tag == block and line.state is not LineState.INVALID:
                return line
        return None

    def _relink(self, block):
        """``block`` just lost a line: point :attr:`valid` at the one
        the set walk finds now, or drop it.  Usually there is none, but
        an upgrade may install the block into an invalid line ahead of
        its old shared copy, which stays valid behind it."""
        line = self.probe(block)
        if line is None:
            self.valid.pop(block, None)
        else:
            self.valid[block] = line

    def check_valid(self):
        """Raise unless :attr:`valid` is exactly what the set walk
        finds: every valid block, mapped to its first valid line."""
        walk = {}
        for lines in self._sets:
            for line in lines or ():
                if line.state is not LineState.INVALID:
                    walk.setdefault(line.tag, line)
        if walk.keys() != self.valid.keys() or any(
                self.valid[block] is not line for block, line in walk.items()):
            raise SimulationError(
                "cache %d: valid-line map disagrees with its sets"
                % self.node_id)

    def install(self, address, state, now=0):
        """Fill a line (evicting LRU if needed); returns the victim's
        ``(tag, state)`` when a valid line was displaced, else None."""
        lines, block = self._locate(address, build=True)
        self._clock += 1
        victim = None
        for line in lines:
            if line.state is LineState.INVALID or line.tag == block:
                victim = line
                break
        if victim is None:
            victim = min(lines, key=lambda l: l.last_used)
        displaced = None
        if victim.state is not LineState.INVALID and victim.tag != block:
            displaced = (victim.tag, victim.state)
            self.stats.evictions += 1
            bus = self.events
            if bus.active and EventKind.CACHE_EVICT in bus.active:
                bus.emit(EventKind.CACHE_EVICT, now, self.node_id,
                         block=victim.tag, state=victim.state.value)
        victim.tag = block
        victim.state = state
        victim.last_used = self._clock
        # Every line ahead of the victim is valid and holds another
        # block, so the walk finds the block here.
        self.valid[block] = victim
        if displaced is not None:
            self._relink(displaced[0])
        return displaced

    def invalidate(self, address, now=0):
        """Drop the line (coherence invalidation); returns its old state."""
        line = self.probe(address)
        if line is None:
            return LineState.INVALID
        old = line.state
        line.state = LineState.INVALID
        self._relink(line.tag)
        self.stats.invalidations_received += 1
        bus = self.events
        if bus.active and EventKind.CACHE_INVALIDATE in bus.active:
            bus.emit(EventKind.CACHE_INVALIDATE, now, self.node_id,
                     block=line.tag, state=old.value)
        txn = bus.txn
        if txn is not None:
            txn.inv_leg(self.node_id, line.tag, old.value, now)
        return old

    def downgrade(self, address):
        """M -> S (another reader appeared); returns True if it was M."""
        line = self.probe(address)
        if line is not None and line.state is LineState.MODIFIED:
            line.state = LineState.SHARED
            return True
        return False

    def flush(self, address, context=0):
        """FLUSH: write back + invalidate; bumps the fence counter for
        dirty lines (decremented when the ack 'arrives' — the caller
        schedules that)."""
        line = self.probe(address)
        self.stats.flushes += 1
        if line is None:
            return False
        dirty = line.state is LineState.MODIFIED
        line.state = LineState.INVALID
        self._relink(line.tag)
        if dirty:
            self.fence_counters[context] = (
                self.fence_counters.get(context, 0) + 1)
        return dirty

    def fence_ack(self, context=0):
        """A write-back acknowledgment arrived for a context."""
        current = self.fence_counters.get(context, 0)
        if current > 0:
            self.fence_counters[context] = current - 1

    def fence_count(self, context=0):
        """Outstanding write-backs (the LDIO-readable fence counter)."""
        return self.fence_counters.get(context, 0)

    def contents(self):
        """All valid (block, state) pairs — for invariant checking."""
        result = {}
        for lines in self._sets:
            for line in lines or ():
                if line.state is not LineState.INVALID:
                    result[line.tag] = line.state
        return result
