"""The content-addressed on-disk result cache."""

import json
import os
import shutil

from repro.exp.cache import ResultCache, default_cache, default_cache_dir
from repro.exp.job import canonical_json


def _plant(cache, content_hash, text):
    """Write raw text at the sharded location for ``content_hash``."""
    path = cache.path_for(content_hash)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)
    return path


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        payload = {"status": "ok", "value": 13, "cycles": 1234}
        path = cache.put("abc123", payload)
        assert os.path.exists(path)
        assert cache.get("abc123") == payload
        assert cache.counters() == {"hits": 1, "misses": 0, "writes": 1,
                                    "dropped": 0}

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
        path = _plant(cache, "list", json.dumps([1, 2]))
        assert cache.get("list") is None
        assert not os.path.exists(path)
        assert cache.counters()["dropped"] == 1

    def test_non_utf8_entry_is_miss_and_unlinked(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.path_for("latin1")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(b'{"status":"ok","value":"caf\xe9"}\n')
        assert cache.get("latin1") is None
        assert not os.path.exists(path)
        assert cache.counters() == {"hits": 0, "misses": 1, "writes": 0,
                                    "dropped": 1}

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

    def test_overwrite(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"status": "ok", "value": 1})
        cache.put("k", {"status": "ok", "value": 2})
        assert cache.get("k")["value"] == 2


class TestFileLayout:
    """An entry is one line of canonical JSON; the spaced layout that
    ``json.dump`` wrote before stays readable."""

    PAYLOAD = {"status": "ok", "value": 13, "output": ["caf\u00e9", "a\"b"],
               "stats": {"per_cpu": [{"cycles": 5}, {"cycles": 7}],
                         "utilization": 0.25}}

    def test_put_writes_one_canonical_line(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.put("abc123", self.PAYLOAD)
        with open(path, "rb") as handle:
            data = handle.read()
        assert data == canonical_json(self.PAYLOAD).encode("utf-8") + b"\n"

    def test_put_takes_the_callers_encoding(self, tmp_path, monkeypatch):
        import repro.exp.cache as cache_module

        def no_encode(payload):
            raise AssertionError("payload was serialised a second time")

        encoded = canonical_json(self.PAYLOAD).encode("utf-8")
        monkeypatch.setattr(cache_module, "canonical_json", no_encode)
        cache = ResultCache(str(tmp_path))
        path = cache.put("abc123", self.PAYLOAD, encoded=encoded)
        with open(path, "rb") as handle:
            assert handle.read() == encoded + b"\n"
        assert cache.get("abc123") == self.PAYLOAD
        assert cache.counters()["writes"] == 1

    def test_spaced_utf8_entry_reads_back_equal(self, tmp_path):
        # The spaced layout with its non-ASCII text as raw UTF-8 bytes
        # (the escaped form is the next test's).
        cache = ResultCache(str(tmp_path))
        path = cache.path_for("old")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(json.dumps(self.PAYLOAD, sort_keys=True,
                                    ensure_ascii=False).encode("utf-8")
                         + b"\n")
        assert cache.get("old") == self.PAYLOAD
        assert cache.counters()["dropped"] == 0

    def test_both_layouts_read_back_equal(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spaced = json.dumps(self.PAYLOAD, sort_keys=True) + "\n"
        assert ", " in spaced and ": " in spaced
        _plant(cache, "old", spaced)
        cache.put("new", self.PAYLOAD)
        assert cache.get("old") == cache.get("new") == self.PAYLOAD
        # Rewriting an old entry converts it; nothing is dropped.
        cache.put("old", cache.get("old"))
        with open(cache.path_for("old"), "rb") as old, \
                open(cache.path_for("new"), "rb") as new:
            assert old.read() == new.read()
        assert cache.counters()["dropped"] == 0


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
