"""The one bounded least-recently-used cache of the package.

Every process-wide cache that must not grow without bound is one of
these: compiled blocks (:data:`repro.core.jit.SHARED_BLOCKS`), compiled
programs (:data:`repro.lang.compiler.COMPILE_CACHE`), and the serve
front end's hot results and spec memo
(:class:`repro.serve.server.SweepServer`).  A machine's own translation
tables are plain dicts: its loaded program bounds them
(:class:`repro.core.processor.Translations`).
"""

from collections import OrderedDict


class LRU:
    """A mapping of at most ``capacity`` entries that evicts the least
    recently used one; ``None`` is never a value.  Capacity 0 stores
    nothing.  ``hits`` and ``misses`` count :meth:`get` answers."""

    __slots__ = ("capacity", "hits", "misses", "_entries")

    def __init__(self, capacity):
        self.capacity = max(0, int(capacity))
        self.hits = 0
        self.misses = 0
        self._entries = OrderedDict()

    def get(self, key):
        """The value under ``key`` (now the most recent), or None."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return value

    def put(self, key, value):
        """Store ``value`` as the most recent, evicting the least
        recent entry when that makes one too many."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def clear(self):
        """Drop every entry (the counters keep running)."""
        self._entries.clear()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        """Membership without touching recency or the counters."""
        return key in self._entries

    def counters(self):
        """JSON-ready hit/miss/size counts."""
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._entries)}
