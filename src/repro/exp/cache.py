"""Content-addressed on-disk result cache.

One JSON file per job under ``<root>/<hh>/<hash>.json`` where
``<hash>`` is :meth:`repro.exp.job.Job.content_hash` and ``<hh>`` is
its first two hex characters — 256 shard directories, so the cache
survives service-scale entry counts (a flat directory degrades badly
once ``april serve`` has pushed a few hundred thousand results into
it).  Caches are disposable: nothing reads another layout.  A file is
one line of :func:`~repro.exp.job.canonical_json`, written in a single
``write`` and read back as bytes in a single ``read`` (``json.loads``
decodes the UTF-8 itself); files from before that (``", "``
separators) read back the same.

The cache is what makes sweeps resumable and the serve hot path cheap:
an interrupted or edited sweep re-executes only the cells whose hashes
have no file yet, and a restarted server resumes warm.  Writes are
atomic (tmp file + ``os.replace``) so a killed worker never leaves a
truncated entry; a corrupt or truncated entry (a server killed
mid-``put`` on a filesystem that reordered the replace, a stray
editor) degrades to a cache miss *and is unlinked*, so one bad file
can never permanently poison every future request with that hash.
Bytes that are not UTF-8 count as corrupt: ``UnicodeDecodeError`` is
a ``ValueError``.
"""

import json
import os

from repro.exp.job import canonical_json


def default_cache_dir():
    """``$REPRO_CACHE_DIR``, else ``results/cache``."""
    return os.environ.get("REPRO_CACHE_DIR",
                          os.path.join("results", "cache"))


def default_cache():
    """A :class:`ResultCache` rooted at :func:`default_cache_dir`."""
    return ResultCache(default_cache_dir())


class ResultCache:
    """Content-addressed store of finished job payloads."""

    def __init__(self, root):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.dropped = 0
        #: Shard directories this cache has made (or found) already.
        self._shards = set()

    def path_for(self, content_hash):
        """Where the payload for ``content_hash`` lives (sharded by its
        two-hex-char prefix)."""
        return os.path.join(self.root, content_hash[:2],
                            "%s.json" % content_hash)

    def get(self, content_hash):
        """The cached payload dict, or ``None`` on any kind of miss."""
        payload = self._read(self.path_for(content_hash))
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _read(self, path):
        """Parse one entry file; corrupt/non-dict entries are unlinked
        so they can never poison future lookups of that hash."""
        try:
            with open(path, "rb") as handle:
                payload = json.loads(handle.read())
        except OSError:
            return None
        except ValueError:
            self._drop(path)
            return None
        if not isinstance(payload, dict):
            self._drop(path)
            return None
        return payload

    def _drop(self, path):
        try:
            os.unlink(path)
            self.dropped += 1
        except OSError:
            pass

    def put(self, content_hash, payload, encoded=None):
        """Atomically store ``payload`` as one line of canonical JSON;
        returns its path.  A caller that already holds
        ``canonical_json(payload)`` as UTF-8 bytes passes it as
        ``encoded`` and the payload is not serialised again.  Each
        shard directory is made once per cache; one removed underneath
        it is made again when the write finds it missing."""
        if encoded is None:
            encoded = canonical_json(payload).encode("utf-8")
        path = self.path_for(content_hash)
        shard = os.path.dirname(path)
        if shard not in self._shards:
            os.makedirs(shard, exist_ok=True)
            self._shards.add(shard)
        try:
            self._write(path, encoded)
        except FileNotFoundError:
            # The shard was removed underneath this cache.
            os.makedirs(shard, exist_ok=True)
            self._write(path, encoded)
        self.writes += 1
        return path

    @staticmethod
    def _write(path, encoded):
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "wb") as handle:
            handle.write(encoded + b"\n")
        os.replace(tmp, path)

    def counters(self):
        """JSON-ready hit/miss/write counts for the sweep summary."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "dropped": self.dropped}
