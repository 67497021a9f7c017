"""Directory-based cache coherence (paper Section 2, reference [5]).

"Cache coherence is maintained using a directory-based protocol over a
low-dimension direct network.  The directory is distributed with the
processing nodes."

Each block's *home* node (address-interleaved) keeps a directory entry:
uncached, shared-by-a-set-of-readers, or modified-by-one-owner — the
full-map Chaiken-style directory.  The protocol enforces strong
coherence (Section 2.1): a write invalidates every cached copy and
collects acknowledgments before the writer proceeds; a read of a
modified block first retrieves/downgrades the owner's copy.

The directory records state transitions and returns the *message plan*
(who must be invalidated / fetched from) to the controller, which
charges the network for each leg.
"""

import enum

from repro.errors import SimulationError
from repro.obs.events import EventBus, EventKind


class DirState(enum.Enum):
    UNCACHED = "uncached"
    SHARED = "shared"
    MODIFIED = "modified"


class DirectoryEntry:
    __slots__ = ("state", "sharers", "owner")

    def __init__(self):
        self.state = DirState.UNCACHED
        self.sharers = set()
        self.owner = None


class Directory:
    """The directory slice owned by one home node."""

    def __init__(self, node_id, events=None):
        self.node_id = node_id
        self._entries = {}       # block address -> DirectoryEntry
        self.read_requests = 0
        self.write_requests = 0
        self.invalidations_sent = 0
        self.owner_fetches = 0
        #: The machine's observer surface (:mod:`repro.obs.events`).
        self.events = events if events is not None else EventBus()

    def counters(self):
        """Counter snapshot for reports."""
        return {
            "read_requests": self.read_requests,
            "write_requests": self.write_requests,
            "invalidations_sent": self.invalidations_sent,
            "owner_fetches": self.owner_fetches,
            "entries": len(self._entries),
        }

    def entry(self, block):
        item = self._entries.get(block)
        if item is None:
            item = DirectoryEntry()
            self._entries[block] = item
        return item

    def handle_read(self, block, requester, now=0):
        """A read request arrives; returns ``(fetch_from_owner,)``.

        ``fetch_from_owner`` is the previous owner's node id when the
        block was modified elsewhere (the home must retrieve the copy
        and downgrade the owner), else None.  The requester ends up a
        sharer.
        """
        self.read_requests += 1
        item = self.entry(block)
        bus = self.events
        if bus.active and EventKind.DIRECTORY_READ in bus.active:
            bus.emit(EventKind.DIRECTORY_READ, now, self.node_id, block=block,
                     requester=requester, state=item.state.value)
        txn = bus.txn
        if txn is not None:
            txn.dir_leg(self.node_id, block, "read", item.state.value, 0, now)
        fetch_from = None
        if item.state is DirState.MODIFIED and item.owner != requester:
            fetch_from = item.owner
            item.sharers = {item.owner, requester}
            item.owner = None
            item.state = DirState.SHARED
            self.owner_fetches += 1
        else:
            if item.state is DirState.MODIFIED:
                # Owner re-reading its own block.
                item.sharers = {requester}
                item.owner = None
            item.sharers.add(requester)
            item.state = DirState.SHARED
        return fetch_from

    def handle_write(self, block, requester, now=0):
        """A write request arrives; returns ``(invalidees, fetch_from)``.

        ``invalidees`` is the set of nodes whose copies must be
        invalidated and acknowledged before the grant; ``fetch_from``
        the previous modified owner (if some *other* node owned it).
        The requester becomes the exclusive owner.
        """
        self.write_requests += 1
        item = self.entry(block)
        invalidees = set()
        fetch_from = None
        if item.state is DirState.MODIFIED:
            if item.owner != requester:
                fetch_from = item.owner
                invalidees = {item.owner}
                self.owner_fetches += 1
        elif item.state is DirState.SHARED:
            invalidees = item.sharers - {requester}
        self.invalidations_sent += len(invalidees)
        bus = self.events
        if bus.active and EventKind.DIRECTORY_WRITE in bus.active:
            bus.emit(EventKind.DIRECTORY_WRITE, now, self.node_id, block=block,
                     requester=requester, invalidations=len(invalidees))
        txn = bus.txn
        if txn is not None:
            txn.dir_leg(self.node_id, block, "write", item.state.value,
                        len(invalidees), now)
        item.state = DirState.MODIFIED
        item.owner = requester
        item.sharers = set()
        return invalidees, fetch_from

    def handle_eviction(self, block, node, was_modified):
        """A cache notified the home that it dropped the block."""
        item = self._entries.get(block)
        if item is None:
            return
        if item.state is DirState.MODIFIED and item.owner == node:
            item.state = DirState.UNCACHED
            item.owner = None
        elif item.state is DirState.SHARED:
            item.sharers.discard(node)
            if not item.sharers:
                item.state = DirState.UNCACHED
        elif was_modified:
            raise SimulationError(
                "modified eviction of block %#x from non-owner %d"
                % (block, node))

    def check_invariants(self, caches):
        """Verify the single-writer / matching-state invariants against
        the actual cache contents (used by tests)."""
        from repro.mem.cache import LineState
        for block, item in self._entries.items():
            holders = {
                node: cache.contents().get(block)
                for node, cache in enumerate(caches)
                if cache.contents().get(block) is not None
            }
            modified = [n for n, s in holders.items()
                        if s is LineState.MODIFIED]
            if len(modified) > 1:
                raise SimulationError(
                    "block %#x modified in several caches: %s"
                    % (block, modified))
            if item.state is DirState.MODIFIED:
                if modified and modified != [item.owner]:
                    raise SimulationError(
                        "block %#x owner mismatch: dir=%s caches=%s"
                        % (block, item.owner, modified))
            if item.state is DirState.SHARED and modified:
                raise SimulationError(
                    "block %#x shared in directory but modified in cache %d"
                    % (block, modified[0]))
