"""Content-addressed on-disk result cache.

One file per job under ``<root>/<hh>/<hash>.json`` where ``<hash>`` is
:meth:`repro.exp.job.Job.content_hash` and ``<hh>`` is its first two
hex characters — 256 shard directories, so the cache survives
service-scale entry counts (a flat directory degrades badly once
``april serve`` has pushed a few hundred thousand results into it).

A file is two lines, written in a single ``write`` and read back as
bytes in a single ``read``::

    {"crc":1234567890,"cycles":14512,"status":"ok","value":55}
    {"critpath":...,"cycles":14512,"report":...,"status":"ok",...}

The second, the *payload line*, is
:func:`~repro.exp.job.canonical_json` of the job's payload: the bytes
``april serve`` sends as a response's ``result``.  The first, the
*head*, is ``canonical_json`` of the payload's ``status``, ``cycles``
and ``value`` (those it has) plus ``crc``: :func:`zlib.crc32` of the
head's own bytes after the ``crc`` member, continued over the payload
line.  So a changed byte in either line — a flipped digit that still
parses included — fails the check.

:meth:`ResultCache.get` decodes the head and checks the CRC, and no
more: it returns a :class:`CachedPayload`, a read-only mapping that
answers ``status``, ``cycles`` and ``value`` from the head (what
``run_table3``, ``april sweep`` and the serve status check read) and
decodes the payload line the first time anything else is asked of it
— another key, iteration, ``len``, ``==`` — once.

The cache is what makes sweeps resumable and the serve hot path cheap:
an interrupted or edited sweep re-executes only the cells whose hashes
have no file yet, and a restarted server resumes warm.  Writes are
atomic (tmp file + ``os.replace``) so a killed worker never leaves a
truncated entry; a bad entry (a server killed mid-``put`` on a
filesystem that reordered the replace, a stray editor, a flipped bit)
degrades to a cache miss *and is unlinked*, so one bad file can never
permanently poison every future request with that hash.  A write that
fails — a read-only or full cache directory — removes its temp file
and is counted (``write_errors``); the caller keeps its result, which
is only not cached.  Bad is
anything but two newline-terminated lines whose head is canonical
JSON with a matching CRC — which takes in an entry written before the
head existed: caches are disposable, and nothing reads another layout.
"""

from collections.abc import Mapping
import json
import os
import zlib

from repro.exp.job import canonical_json

#: The payload members a head carries, answered without decoding the
#: payload line.
HEAD_KEYS = ("cycles", "status", "value")

#: What every head line starts with: ``crc`` sorts before the others.
_CRC = b'{"crc":'


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
        self.write_errors = 0
        #: Shard directories this cache has made (or found) already.
        self._shards = set()

    def path_for(self, content_hash):
        """Where the payload for ``content_hash`` lives (sharded by its
        two-hex-char prefix)."""
        return os.path.join(self.root, content_hash[:2],
                            "%s.json" % content_hash)

    def get(self, content_hash):
        """The cached payload as a :class:`CachedPayload`, or ``None``
        on any kind of miss."""
        payload = self._read(self.path_for(content_hash))
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _read(self, path):
        """Check one entry file; a bad entry is unlinked so it can never
        poison future lookups of that hash."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        payload = _parse(data)
        if payload is None:
            self._drop(path)
        return payload

    def _drop(self, path):
        try:
            os.unlink(path)
            self.dropped += 1
        except OSError:
            pass

    def put(self, content_hash, payload, encoded=None):
        """Atomically store ``payload`` as a head and a payload line;
        returns its path.  A caller that already holds
        ``canonical_json(payload)`` as UTF-8 bytes passes it as
        ``encoded`` and the payload is not serialised again.  Each
        shard directory is made once per cache; one removed underneath
        it is made again when the write finds it missing.  A write that
        fails with an ``OSError`` is counted in ``write_errors`` and
        returns ``None``."""
        if encoded is None:
            encoded = canonical_json(payload).encode("utf-8")
        entry = _entry(payload, encoded)
        path = self.path_for(content_hash)
        shard = os.path.dirname(path)
        try:
            if shard not in self._shards:
                os.makedirs(shard, exist_ok=True)
                self._shards.add(shard)
            try:
                self._write(path, entry)
            except FileNotFoundError:
                # The shard was removed underneath this cache.
                os.makedirs(shard, exist_ok=True)
                self._write(path, entry)
        except OSError:
            self.write_errors += 1
            return None
        self.writes += 1
        return path

    @staticmethod
    def _write(path, entry):
        """Write ``entry`` to a temp file and move it to ``path``; on
        any failure the temp file is removed."""
        tmp = "%s.tmp.%d" % (path, os.getpid())
        try:
            with open(tmp, "wb") as handle:
                handle.write(entry)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def counters(self):
        """JSON-ready hit/miss/write counts for the sweep summary."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "dropped": self.dropped,
                "write_errors": self.write_errors}


class CachedPayload(Mapping):
    """A cached payload, read-only, decoded as far as it is read.

    ``status``, ``cycles`` and ``value`` come from the entry's head;
    any other key, iteration, ``len`` or ``==`` decodes the payload
    line, once.  ``encoded`` is the payload line's bytes: the payload's
    ``canonical_json``, UTF-8.
    """

    __slots__ = ("encoded", "_head", "_payload")

    def __init__(self, head, encoded):
        self.encoded = encoded
        self._head = head
        self._payload = None

    def _decoded(self):
        if self._payload is None:
            self._payload = json.loads(self.encoded)
        return self._payload

    def __getitem__(self, key):
        if key in HEAD_KEYS:
            return self._head[key]
        return self._decoded()[key]

    def __iter__(self):
        return iter(self._decoded())

    def __len__(self):
        return len(self._decoded())

    def __eq__(self, other):
        if isinstance(other, CachedPayload):
            other = other._decoded()
        return self._decoded() == other

    def __repr__(self):
        return "CachedPayload(%r, %d bytes)" % (self._head,
                                                len(self.encoded))


def _entry(payload, encoded):
    """The bytes of one entry file: the head over ``payload``, then
    ``encoded``, its payload line."""
    fields = {key: payload[key] for key in HEAD_KEYS if key in payload}
    # The head after its crc member: canonical_json(fields) with "{"
    # dropped, after a "," when there is a member to separate.
    rest = canonical_json(fields)[1:].encode("utf-8")
    if fields:
        rest = b"," + rest
    crc = zlib.crc32(encoded, zlib.crc32(rest))
    return b"%s%d%s\n%s\n" % (_CRC, crc, rest, encoded)


def _parse(data):
    """The :class:`CachedPayload` of an entry file's bytes, or ``None``
    when they are not a good entry."""
    cut = data.find(b"\n")
    if cut < 0 or cut == len(data) - 1 or not data.endswith(b"\n"):
        return None
    line = data[:cut]
    try:
        head = json.loads(line)
    except ValueError:
        return None
    crc = head.get("crc") if type(head) is dict else None
    if type(crc) is not int:
        return None
    prefix = b"%s%d" % (_CRC, crc)
    if not line.startswith(prefix):
        return None
    encoded = data[cut + 1:-1]
    if zlib.crc32(encoded, zlib.crc32(line[len(prefix):])) != crc:
        return None
    del head["crc"]
    return CachedPayload(head, encoded)
