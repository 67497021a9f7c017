"""The content-addressed on-disk result cache."""

import errno
import json
import os
import shutil
import types
import zlib

import pytest

from repro.exp import cache as cache_module
from repro.exp.cache import (HEAD_KEYS, CachedPayload, ResultCache,
                             default_cache, default_cache_dir)
from repro.exp.job import canonical_json


def _plant(cache, content_hash, text):
    """Write raw text at the sharded location for ``content_hash``."""
    path = cache.path_for(content_hash)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _lines(path):
    """An entry file's head and payload line."""
    with open(path, "rb") as handle:
        head, payload, end = handle.read().split(b"\n")
    assert end == b""
    return head, payload


class CountingLoads:
    """Counts the cache module's ``json.loads`` calls: heads (the lines
    that start ``{"crc":``) and payload lines."""

    def __init__(self, monkeypatch):
        self.heads = 0
        self.payloads = 0
        loads = json.loads

        def counting(data):
            if data.startswith(b'{"crc":'):
                self.heads += 1
            else:
                self.payloads += 1
            return loads(data)

        monkeypatch.setattr(cache_module, "json",
                            types.SimpleNamespace(loads=counting))


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        payload = {"status": "ok", "value": 13, "cycles": 1234}
        path = cache.put("abc123", payload)
        assert os.path.exists(path)
        assert cache.get("abc123") == payload
        assert cache.counters() == {"hits": 1, "misses": 0, "writes": 1,
                                    "dropped": 0, "write_errors": 0}

    def test_missing_entry_is_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("nope") is None
        assert cache.counters()["misses"] == 1

    def test_corrupt_entry_is_miss_and_unlinked(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = _plant(cache, "bad", "{truncated")
        assert cache.get("bad") is None
        assert not os.path.exists(path)
        assert cache.counters()["dropped"] == 1

    def test_non_dict_entry_is_miss_and_unlinked(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = _plant(cache, "list", "[1,2]\n{}\n")
        assert cache.get("list") is None
        assert not os.path.exists(path)
        assert cache.counters()["dropped"] == 1

    def test_non_utf8_entry_is_miss_and_unlinked(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.path_for("latin1")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(b'{"crc":0,"status":"ok","value":"caf\xe9"}\n'
                         b'{"status":"ok","value":"caf\xe9"}\n')
        assert cache.get("latin1") is None
        assert not os.path.exists(path)
        assert cache.counters() == {"hits": 0, "misses": 1, "writes": 0,
                                    "dropped": 1, "write_errors": 0}

    def test_truncated_entry_is_miss_and_unlinked(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.put("cut", {"status": "ok", "value": 55,
                                 "cycles": 1234, "report": {"a": [1, 2]}})
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-9])
        assert cache.get("cut") is None
        assert not os.path.exists(path)
        assert cache.counters() == {"hits": 0, "misses": 1, "writes": 1,
                                    "dropped": 1, "write_errors": 0}

    def test_same_length_parseable_corrupt_payload_is_miss_and_unlinked(
            self, tmp_path):
        """A flipped digit in the payload line's ``cycles``: the file
        still parses, is as long as before, and must not be served."""
        cache = ResultCache(str(tmp_path))
        path = cache.put("flip", {"status": "ok", "value": 55,
                                  "cycles": 1234, "report": {"a": [1, 2]}})
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        # The payload line is the last one, whatever comes before it.
        lines[-2] = lines[-2].replace(b'"cycles":1234', b'"cycles":1235')
        corrupt = b"\n".join(lines)
        with open(path, "wb") as handle:
            handle.write(corrupt)
        assert json.loads(corrupt.split(b"\n")[-2])["cycles"] == 1235
        assert cache.get("flip") is None
        assert not os.path.exists(path)
        assert cache.counters() == {"hits": 0, "misses": 1, "writes": 1,
                                    "dropped": 1, "write_errors": 0}

    def test_same_length_parseable_corrupt_head_is_miss_and_unlinked(
            self, tmp_path):
        """The head's fields are under the CRC too: a flipped digit in
        its ``cycles`` is a miss, not a wrong answer."""
        cache = ResultCache(str(tmp_path))
        path = cache.put("flip", {"status": "ok", "value": 55,
                                  "cycles": 1234})
        head, payload = _lines(path)
        with open(path, "wb") as handle:
            handle.write(head.replace(b'"cycles":1234', b'"cycles":1235')
                         + b"\n" + payload + b"\n")
        assert cache.get("flip") is None
        assert not os.path.exists(path)
        assert cache.counters()["dropped"] == 1

    def test_a_non_canonical_head_is_miss_and_unlinked(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.put("sp", {"status": "ok", "value": 55})
        head, payload = _lines(path)
        with open(path, "wb") as handle:
            handle.write(json.dumps(json.loads(head)).encode() + b"\n"
                         + payload + b"\n")
        assert cache.get("sp") is None
        assert not os.path.exists(path)
        assert cache.counters()["dropped"] == 1

    def test_corrupt_entry_recomputed_roundtrip(self, tmp_path):
        """A poisoned hash is usable again right after the miss."""
        cache = ResultCache(str(tmp_path))
        _plant(cache, "h", "not json at all")
        assert cache.get("h") is None
        cache.put("h", {"status": "ok", "value": 7})
        assert cache.get("h")["value"] == 7

    def test_put_creates_root(self, tmp_path):
        cache = ResultCache(str(tmp_path / "deep" / "cache"))
        cache.put("k", {"status": "ok"})
        assert cache.get("k") == {"status": "ok"}

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"status": "ok"})
        shard = os.path.dirname(cache.path_for("k"))
        assert [name for name in os.listdir(shard)
                if ".tmp" in name] == []

    def test_a_failed_write_is_counted_and_leaves_no_tmp(
            self, tmp_path, monkeypatch):
        # A full disk: the temp file is written, the move fails.
        def full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        cache = ResultCache(str(tmp_path))
        monkeypatch.setattr(cache_module.os, "replace", full)
        assert cache.put("k", {"status": "ok"}) is None
        monkeypatch.undo()
        shard = os.path.dirname(cache.path_for("k"))
        assert os.listdir(shard) == []
        assert cache.counters() == {"hits": 0, "misses": 0, "writes": 0,
                                    "dropped": 0, "write_errors": 1}
        assert cache.get("k") is None

    def test_an_unmakeable_shard_is_a_counted_failed_write(self, tmp_path):
        # The cache root is a file: no shard directory can be made under
        # it (as with a read-only directory, for a user that is not
        # root).
        root = tmp_path / "cache"
        root.write_text("")
        cache = ResultCache(str(root))
        assert cache.put("k", {"status": "ok"}) is None
        assert cache.counters()["write_errors"] == 1
        assert root.read_text() == ""

    def test_overwrite(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"status": "ok", "value": 1})
        cache.put("k", {"status": "ok", "value": 2})
        assert cache.get("k")["value"] == 2


class TestFileLayout:
    """An entry is a head line, then the payload's one canonical line;
    an entry in any layout from before the head is a clean miss."""

    PAYLOAD = {"status": "ok", "value": 13, "output": ["caf\u00e9", "a\"b"],
               "stats": {"per_cpu": [{"cycles": 5}, {"cycles": 7}],
                         "utilization": 0.25}}

    #: What earlier caches held: one canonical line, and the spaced
    #: ``json.dump`` layout before that (its non-ASCII text escaped or
    #: raw UTF-8).
    OLD = {
        "one-line": canonical_json(PAYLOAD).encode("utf-8") + b"\n",
        "spaced": (json.dumps(PAYLOAD, sort_keys=True) + "\n").encode(),
        "spaced-utf8": json.dumps(PAYLOAD, sort_keys=True,
                                  ensure_ascii=False).encode("utf-8")
        + b"\n",
    }

    def test_put_writes_a_canonical_head_then_the_payload_line(
            self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.put("abc123", self.PAYLOAD)
        head, payload = _lines(path)
        # The payload line is the whole of what the cache held before.
        assert payload + b"\n" == self.OLD["one-line"]
        fields = json.loads(head)
        assert head == canonical_json(fields).encode("utf-8")
        crc = fields.pop("crc")
        assert fields == {"status": "ok", "value": 13}
        rest = head[len(b'{"crc":%d' % crc):]
        assert rest == b"," + canonical_json(fields)[1:].encode("utf-8")
        assert crc == zlib.crc32(payload, zlib.crc32(rest))

    def test_a_head_holds_the_head_keys_the_payload_has(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for name, payload in (("none", {"stats": {}}),
                              ("all", dict(self.PAYLOAD, cycles=9))):
            head, _ = _lines(cache.put(name, payload))
            fields = json.loads(head)
            del fields["crc"]
            assert fields == {key: payload[key] for key in HEAD_KEYS
                              if key in payload}
            assert cache.get(name) == payload

    def test_put_takes_the_callers_encoding(self, tmp_path, monkeypatch):
        # The head is encoded (a few fields); the payload is not again.
        def no_encode(data):
            if data == self.PAYLOAD:
                raise AssertionError("payload was serialised a second time")
            return canonical_json(data)

        encoded = canonical_json(self.PAYLOAD).encode("utf-8")
        monkeypatch.setattr(cache_module, "canonical_json", no_encode)
        cache = ResultCache(str(tmp_path))
        path = cache.put("abc123", self.PAYLOAD, encoded=encoded)
        assert _lines(path)[1] == encoded
        assert cache.get("abc123") == self.PAYLOAD
        assert cache.counters()["writes"] == 1

    @pytest.mark.parametrize("layout", sorted(OLD))
    def test_an_old_layout_is_a_miss_then_reput(self, tmp_path, layout):
        cache = ResultCache(str(tmp_path))
        path = cache.path_for("old")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(self.OLD[layout])
        assert cache.get("old") is None
        assert not os.path.exists(path)
        cache.put("old", self.PAYLOAD)
        assert _lines(path)[1] + b"\n" == self.OLD["one-line"]
        assert cache.get("old") == self.PAYLOAD
        assert cache.counters() == {"hits": 1, "misses": 1, "writes": 1,
                                    "dropped": 1, "write_errors": 0}


class TestDecodedOnDemand:
    """``get`` decodes a head; the payload line waits for a reader."""

    PAYLOAD = TestFileLayout.PAYLOAD

    def _entry(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        cache.put("k", dict(self.PAYLOAD, cycles=321))
        loads = CountingLoads(monkeypatch)
        payload = cache.get("k")
        assert isinstance(payload, CachedPayload)
        assert (loads.heads, loads.payloads) == (1, 0)
        return payload, loads

    def test_head_keys_decode_nothing(self, tmp_path, monkeypatch):
        payload, loads = self._entry(tmp_path, monkeypatch)
        assert (payload["status"], payload["cycles"], payload["value"]) == (
            "ok", 321, 13)
        assert payload.get("value") == 13 and "cycles" in payload
        assert payload.encoded == canonical_json(
            dict(self.PAYLOAD, cycles=321)).encode("utf-8")
        assert (loads.heads, loads.payloads) == (1, 0)

    def test_a_head_key_the_payload_lacks_decodes_nothing(
            self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"status": "ok", "stats": {}})
        loads = CountingLoads(monkeypatch)
        payload = cache.get("k")
        assert payload.get("cycles") is None
        assert payload.get("value", 7) == 7
        assert "value" not in payload
        with pytest.raises(KeyError):
            payload["cycles"]
        assert (loads.heads, loads.payloads) == (1, 0)

    @pytest.mark.parametrize("read", [
        lambda payload: payload["output"],
        lambda payload: payload.get("stats"),
        lambda payload: "stats" in payload,
        lambda payload: list(payload),
        len,
        lambda payload: payload == {},
    ], ids=["item", "get", "contains", "iter", "len", "eq"])
    def test_anything_else_decodes_the_payload_line_once(
            self, tmp_path, monkeypatch, read):
        payload, loads = self._entry(tmp_path, monkeypatch)
        read(payload)
        read(payload)
        assert payload["stats"]["utilization"] == 0.25
        assert dict(payload) == dict(self.PAYLOAD, cycles=321)
        assert (loads.heads, loads.payloads) == (1, 1)

    def test_equality_both_ways_and_read_only(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("a", self.PAYLOAD)
        cache.put("b", self.PAYLOAD)
        payload = cache.get("a")
        assert payload == self.PAYLOAD and self.PAYLOAD == payload
        assert payload == cache.get("b")
        assert payload != dict(self.PAYLOAD, value=14)
        with pytest.raises(TypeError):
            payload["value"] = 14
        with pytest.raises(TypeError):
            hash(payload)


class TestSharding:
    def test_path_is_sharded_by_hash_prefix(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.path_for("abcdef") == os.path.join(
            str(tmp_path), "ab", "abcdef.json")

    def test_put_lands_in_shard_directory(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("deadbeef", {"status": "ok"})
        assert os.path.exists(
            os.path.join(str(tmp_path), "de", "deadbeef.json"))
        assert not os.path.exists(
            os.path.join(str(tmp_path), "deadbeef.json"))

    def test_puts_into_one_shard_make_one_directory(self, tmp_path,
                                                     monkeypatch):
        made = []
        makedirs = os.makedirs

        def counting(path, *args, **kwargs):
            made.append(path)
            return makedirs(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", counting)
        cache = ResultCache(str(tmp_path))
        for index in range(8):
            cache.put("ab%02d" % index, {"status": "ok", "value": index})
        assert made == [os.path.join(str(tmp_path), "ab")]
        assert cache.counters()["writes"] == 8
        assert cache.get("ab07")["value"] == 7

    def test_put_after_the_shard_is_removed_still_lands(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = cache.put("cd01", {"status": "ok", "value": 1})
        shutil.rmtree(os.path.dirname(first))
        cache.put("cd02", {"status": "ok", "value": 2})
        assert cache.get("cd02")["value"] == 2
        assert cache.get("cd01") is None
        assert cache.counters()["writes"] == 2

    def test_sharded_entry_wins_over_flat(self, tmp_path):
        # A flat-layout file (a cache from before sharding) is never
        # read: caches are disposable, not migrated.
        cache = ResultCache(str(tmp_path))
        flat = os.path.join(str(tmp_path), "k.json")
        with open(flat, "w") as handle:
            json.dump({"status": "ok", "value": "old"}, handle)
        assert cache.get("k") is None
        cache.put("k", {"status": "ok", "value": "new"})
        assert cache.get("k")["value"] == "new"
        assert os.path.exists(flat)


class TestDefaults:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "mine"))
        assert default_cache_dir() == str(tmp_path / "mine")
        assert default_cache().root == str(tmp_path / "mine")

    def test_default_location(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() == os.path.join("results", "cache")
