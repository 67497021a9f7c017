"""Cache array and directory protocol unit tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.mem.cache import Cache, LineState
from repro.mem.directory import Directory, DirState


class TestCache:
    def make(self, **kwargs):
        defaults = dict(size_bytes=1024, block_bytes=16, assoc=2)
        defaults.update(kwargs)
        return Cache(**defaults)

    def test_miss_then_hit(self):
        cache = self.make()
        assert cache.lookup(0x100) is None
        cache.install(0x100, LineState.SHARED)
        line = cache.lookup(0x100)
        assert line is not None and line.state is LineState.SHARED

    def test_block_granularity(self):
        cache = self.make()
        cache.install(0x100, LineState.SHARED)
        assert cache.lookup(0x10C) is not None    # same 16-byte block
        assert cache.lookup(0x110) is None        # next block

    def test_lru_eviction(self):
        cache = self.make()  # 2-way: set count = 1024/32 = 32 sets
        stride = 16 * 32     # same set
        cache.install(0x0, LineState.SHARED)
        cache.install(stride, LineState.SHARED)
        cache.lookup(0x0)    # touch: 0x0 is now MRU
        displaced = cache.install(2 * stride, LineState.SHARED)
        assert displaced == (stride, LineState.SHARED)
        assert cache.lookup(0x0) is not None
        assert cache.lookup(stride) is None

    def test_sets_are_built_by_their_first_install(self):
        cache = self.make(assoc=4, size_bytes=4096)
        assert cache._sets == [None] * cache.num_sets
        # Reading builds nothing: an unbuilt set only ever misses.
        assert cache.lookup(0x100) is None and cache.probe(0x100) is None
        assert cache.invalidate(0x100) is LineState.INVALID
        assert not cache.flush(0x100) and not cache.downgrade(0x100)
        assert cache._sets == [None] * cache.num_sets
        stride = 16 * cache.num_sets
        for way in range(4):
            cache.install(0x100 + way * stride, LineState.SHARED)
        built = [lines for lines in cache._sets if lines is not None]
        assert len(built) == 1
        # Filled in way order, so the victim choice is what it was.
        assert [line.tag for line in built[0]] == [
            0x100 + way * stride for way in range(4)]
        assert cache.install(0x100 + 4 * stride, LineState.SHARED) == (
            0x100, LineState.SHARED)
        assert len(cache.contents()) == 4

    def test_invalidate(self):
        cache = self.make()
        cache.install(0x40, LineState.MODIFIED)
        old = cache.invalidate(0x40)
        assert old is LineState.MODIFIED
        assert cache.lookup(0x40) is None
        assert cache.stats.invalidations_received == 1

    def test_downgrade(self):
        cache = self.make()
        cache.install(0x40, LineState.MODIFIED)
        assert cache.downgrade(0x40)
        assert cache.lookup(0x40).state is LineState.SHARED
        assert not cache.downgrade(0x40)  # already shared

    def test_flush_dirty_raises_fence(self):
        cache = self.make()
        cache.install(0x40, LineState.MODIFIED)
        assert cache.flush(0x40, context=1)
        assert cache.fence_count(1) == 1
        cache.fence_ack(1)
        assert cache.fence_count(1) == 0

    def test_flush_clean_no_fence(self):
        cache = self.make()
        cache.install(0x40, LineState.SHARED)
        assert not cache.flush(0x40, context=0)
        assert cache.fence_count(0) == 0

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            Cache(size_bytes=1000, block_bytes=16, assoc=2)
        with pytest.raises(ConfigError):
            Cache(size_bytes=1024, block_bytes=12, assoc=2)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    def test_install_then_lookup_property(self, blocks):
        cache = self.make(size_bytes=4096, assoc=4)
        for b in blocks:
            cache.install(b * 16, LineState.SHARED)
        # The most recently installed block is always present.
        assert cache.lookup(blocks[-1] * 16) is not None
        # Capacity is respected.
        assert len(cache.contents()) <= 4096 // 16

    _OPERATIONS = st.lists(st.tuples(
        st.sampled_from(["install-s", "install-m", "invalidate", "flush",
                         "downgrade", "lookup"]),
        st.integers(min_value=0, max_value=5)), max_size=120)

    @settings(max_examples=300, deadline=None)
    @given(_OPERATIONS)
    @example([("install-s", 0), ("install-s", 2), ("invalidate", 0),
              ("install-m", 2), ("invalidate", 2)])
    def test_valid_map_is_the_set_walk(self, operations):
        # Two sets of two ways and six blocks: evictions, re-installs of
        # a resident block and upgrades of a shared copy that sits
        # behind an invalid way (the example: block 2 must be upgraded
        # in place, not copied into way 0) all come up.  After every
        # operation the block has one valid line at most, and the map
        # generated code probes is what `lookup` walks to.
        cache = self.make(size_bytes=64, assoc=2)
        for operation, block in operations:
            address = block * 16
            if operation == "install-s":
                cache.install(address, LineState.SHARED)
            elif operation == "install-m":
                cache.install(address, LineState.MODIFIED)
            elif operation == "invalidate":
                cache.invalidate(address)
            elif operation == "flush":
                cache.flush(address)
            elif operation == "downgrade":
                cache.downgrade(address)
            else:
                assert cache.valid.get(address) is cache.lookup(address)
            cache.check_valid()
            for known in range(6):
                assert cache.valid.get(known * 16) is cache.probe(known * 16)

    def test_check_valid_catches_a_stale_entry(self):
        cache = self.make()
        cache.install(0x40, LineState.SHARED)
        cache.valid.pop(0x40)
        with pytest.raises(SimulationError, match="valid-line map"):
            cache.check_valid()

    def test_upgrade_behind_an_invalid_way_rewrites_the_shared_copy(self):
        # One set of two ways: block 0x00 in way 0, block 0x20 in way
        # 1, then way 0 invalidated.  Upgrading block 0x20 must take its
        # own line, not the invalid way ahead of it.
        cache = self.make(size_bytes=32, assoc=2)
        cache.install(0x00, LineState.SHARED)
        cache.install(0x20, LineState.SHARED)
        shared = cache.valid[0x20]
        cache.invalidate(0x00)
        assert cache.install(0x20, LineState.MODIFIED) is None
        assert cache.valid[0x20] is shared
        assert shared.state is LineState.MODIFIED
        assert cache.contents() == {0x20: LineState.MODIFIED}
        cache.check_valid()

    def test_check_valid_catches_a_second_valid_line(self):
        cache = self.make(size_bytes=32, assoc=2)
        cache.install(0x00, LineState.SHARED)
        cache.install(0x20, LineState.SHARED)
        lines = cache._sets[0]
        lines[0].tag = 0x20
        with pytest.raises(SimulationError, match="two valid lines"):
            cache.check_valid()


class TestDirectory:
    def test_first_read_uncached_to_shared(self):
        directory = Directory(0)
        assert directory.handle_read(0x100, requester=1) is None
        entry = directory.entry(0x100)
        assert entry.state is DirState.SHARED
        assert entry.sharers == {1}

    def test_write_invalidates_sharers(self):
        directory = Directory(0)
        directory.handle_read(0x100, 1)
        directory.handle_read(0x100, 2)
        directory.handle_read(0x100, 3)
        invalidees, fetch = directory.handle_write(0x100, 1)
        assert invalidees == {2, 3}
        assert fetch is None
        entry = directory.entry(0x100)
        assert entry.state is DirState.MODIFIED and entry.owner == 1

    def test_read_of_modified_fetches_owner(self):
        directory = Directory(0)
        directory.handle_write(0x100, 2)
        fetch = directory.handle_read(0x100, 1)
        assert fetch == 2
        entry = directory.entry(0x100)
        assert entry.state is DirState.SHARED
        assert entry.sharers == {1, 2}

    def test_write_after_write_fetches_previous_owner(self):
        directory = Directory(0)
        directory.handle_write(0x100, 2)
        invalidees, fetch = directory.handle_write(0x100, 3)
        assert fetch == 2
        assert invalidees == {2}
        assert directory.entry(0x100).owner == 3

    def test_owner_rewrite_is_free(self):
        directory = Directory(0)
        directory.handle_write(0x100, 2)
        invalidees, fetch = directory.handle_write(0x100, 2)
        assert invalidees == set() and fetch is None

    def test_eviction_clears_sharer(self):
        directory = Directory(0)
        directory.handle_read(0x100, 1)
        directory.handle_read(0x100, 2)
        directory.handle_eviction(0x100, 1, was_modified=False)
        assert directory.entry(0x100).sharers == {2}
        directory.handle_eviction(0x100, 2, was_modified=False)
        assert directory.entry(0x100).state is DirState.UNCACHED

    def test_modified_eviction(self):
        directory = Directory(0)
        directory.handle_write(0x100, 1)
        directory.handle_eviction(0x100, 1, was_modified=True)
        assert directory.entry(0x100).state is DirState.UNCACHED

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=3)),
                    max_size=60))
    def test_single_owner_invariant(self, operations):
        """After any op sequence, at most one owner, and sharers only in
        the shared state."""
        directory = Directory(0)
        for is_write, node in operations:
            if is_write:
                directory.handle_write(0x40, node)
            else:
                directory.handle_read(0x40, node)
        entry = directory.entry(0x40)
        if entry.state is DirState.MODIFIED:
            assert entry.owner is not None
            assert not entry.sharers
        elif entry.state is DirState.SHARED:
            assert entry.owner is None
            assert entry.sharers
