"""The cache/directory controller (paper Sections 2.1 and 5).

One per node.  It answers the processor's memory port, maintains strong
coherence through the home directories, and decides — per access flavor
— whether to **hold** the processor (local misses, wait-flavors) or to
**trap** it (remote misses, full/empty mismatches), the MHOLD/MEXC
split of Section 5.

Transaction timing is computed at issue: the controller walks the
protocol legs (request to home, owner fetch, invalidation round trips,
response) over the contention-modeling network and obtains the
completion time; a trapped processor that switch-spins back before then
simply traps again — exactly the paper's switch-spinning behavior.
Directory state is updated at issue, which serializes protocol races at
transaction granularity (the simulation event loop already serializes
the issuing processors); see DESIGN.md.

Values live in shared memory (see :mod:`repro.mem.cache`); full/empty
semantics are applied at the memory on every completed access, so
synchronization behavior is identical to the ideal-mode port.
"""

from repro.core.memport import MemOutcome, MemoryPort
from repro.core.traps import TrapKind
from repro.errors import SimulationError
from repro.mem.cache import LineState
from repro.mem.memory import WINDOW_PAGE_SHIFT
from repro.obs.events import EventBus, EventKind

#: Memory-mapped I/O register offsets (LDIO/STIO space).
IO_BASE = 0xFFFF0000
IO_FENCE = IO_BASE + 0x00        # read: outstanding write-backs
IO_NODE_ID = IO_BASE + 0x04      # read: this node's id
IO_IPI_TARGET = IO_BASE + 0x08   # write: target node for the next IPI
IO_IPI_SEND = IO_BASE + 0x0C     # write: send IPI with this payload
IO_BT_SRC = IO_BASE + 0x10       # write: block-transfer source
IO_BT_DST = IO_BASE + 0x14       # write: block-transfer destination
IO_BT_GO = IO_BASE + 0x18        # write: length in words; starts copy

#: Message sizes in flits (header ~2, block data = words + header).
REQUEST_FLITS = 2
ACK_FLITS = 2


class ControllerStats:
    def __init__(self):
        self.local_misses = 0
        self.remote_misses = 0
        self.write_upgrades = 0
        self.holds = 0
        self.traps = 0
        self.block_transfers = 0
        self.ipis_sent = 0

    def to_dict(self):
        return {
            "local_misses": self.local_misses,
            "remote_misses": self.remote_misses,
            "write_upgrades": self.write_upgrades,
            "holds": self.holds,
            "traps": self.traps,
            "block_transfers": self.block_transfers,
            "ipis_sent": self.ipis_sent,
        }


class CacheController(MemoryPort):
    """One node's cache + directory controller."""

    #: Its one reach into another processor is an IPI, and
    #: :meth:`stio` tells the machine before it posts one
    #: (:meth:`~repro.mem.system.Interconnect.reach`).  Invalidations
    #: and downgrades change another node's cache, which nothing a
    #: processor runs ahead reads.
    reaches_processors = False

    def __init__(self, node_id, memory, cache, system, events=None):
        self.node_id = node_id
        self.memory = memory
        self.cache = cache
        self.system = system          # Interconnect (peers, net)
        self.pending = {}             # block -> completion time
        self.stats = ControllerStats()
        #: The machine's observer surface (:mod:`repro.obs.events`).
        self.events = events if events is not None else EventBus()
        self._fence_acks = []         # (ack time, context id)
        self._ipi_target = 0
        self._bt_src = 0
        self._bt_dst = 0

    # -- address geometry ---------------------------------------------------

    def _block(self, address):
        return self.cache.block_address(address)

    def _home(self, block):
        return self.system.home_of(block)

    def _data_flits(self):
        return 1 + self.cache.block_bytes // 4

    def _now(self, context):
        return context.cycles if context is not None else 0

    # -- MemoryPort interface -------------------------------------------------

    def fetch(self, address):
        # Perfect instruction cache (see DESIGN.md).
        return self.memory.read_word(address)

    def _reach(self, windows, address, context):
        """``address`` is in a page some thread stack overlaps: before
        the protocol walk changes any cache, the owner of a loaded
        window over it has its tail wound back
        (:meth:`~repro.mem.memory.StackWindows.touch`), while the lines
        that tail hit are still what it saw.  Windows are disjoint, so
        an address in the accessing frame's own window asks nobody."""
        if context is not None:
            lo, hi = context.frames[context.fp].window
            if lo <= address < hi:
                return
        windows.touch(address)

    def load(self, address, flavor, context=None):
        windows = self.memory.windows
        if (windows is not None
                and address >> WINDOW_PAGE_SHIFT in windows.owners):
            self._reach(windows, address, context)
        outcome = self._access(address, context, is_write=False,
                               wait=flavor.wait_on_miss or flavor.raw)
        if outcome is not None:
            return outcome
        value, was_full, trap_kind = self.memory.sync_load(address, flavor)
        txn = self.events.txn
        if trap_kind is not None:
            if txn is not None:
                txn.fe_fault(self.node_id, address, trap_kind.name,
                             self._now(context), cpu=context)
            return MemOutcome.trap(trap_kind, cycles=1, fe_full=was_full)
        if txn is not None:
            txn.fe_sync(self.node_id, address, self._now(context))
        return MemOutcome.hit(value=value, cycles=self._last_cycles,
                              fe_full=was_full)

    def store(self, address, value, flavor, context=None):
        windows = self.memory.windows
        if (windows is not None
                and address >> WINDOW_PAGE_SHIFT in windows.owners):
            self._reach(windows, address, context)
        outcome = self._access(address, context, is_write=True,
                               wait=flavor.wait_on_miss or flavor.raw)
        if outcome is not None:
            return outcome
        was_full, trap_kind = self.memory.sync_store(address, value, flavor)
        txn = self.events.txn
        if trap_kind is not None:
            if txn is not None:
                txn.fe_fault(self.node_id, address, trap_kind.name,
                             self._now(context), cpu=context)
            return MemOutcome.trap(trap_kind, cycles=1, fe_full=was_full)
        if txn is not None:
            txn.fe_sync(self.node_id, address, self._now(context))
        return MemOutcome.hit(cycles=self._last_cycles, fe_full=was_full)

    # -- the coherence walk ------------------------------------------------------

    def _access(self, address, context, is_write, wait):
        """Bring the block into the right state.

        Returns ``None`` on success, setting ``_last_cycles`` to the
        access cost; returns a trap outcome when the controller chose
        to trap the processor instead (the MEXC path).
        """
        now = self._now(context)
        block = self._block(address)
        line = self.cache.lookup(address)

        if line is not None:
            if not is_write or line.state is LineState.MODIFIED:
                self.cache.stats.hits += 1
                self._last_cycles = 1
                return None
            # Write hit on a shared line: upgrade (invalidate peers).
            self.stats.write_upgrades += 1

        if block not in self.pending:
            self.cache.stats.misses += 1

        bus = self.events
        txn = bus.txn
        completion = self.pending.get(block)
        if completion is None:
            if txn is not None:
                txn.begin(self.node_id, block, self._home(block), is_write,
                          now, cpu=context, upgrade=line is not None)
            completion, local = self._start_transaction(
                block, is_write, now)
            if txn is not None:
                txn.commit(completion, local)
            if local:
                # Local miss: the controller holds the processor (MHOLD).
                self.stats.local_misses += 1
                self.stats.holds += 1
                self._fill(block, is_write, now)
                self._last_cycles = max(completion - now, 1)
                if txn is not None:
                    txn.complete(self.node_id, block, completion)
                return None
            self.stats.remote_misses += 1
            self.pending[block] = completion
            if bus.active and EventKind.REMOTE_MISS in bus.active:
                bus.emit(EventKind.REMOTE_MISS, now, self.node_id, block=block,
                         home=self._home(block), write=is_write,
                         ready_at=completion)

        if now >= completion:
            del self.pending[block]
            self._fill(block, is_write, now)
            self._last_cycles = 1
            if txn is not None:
                txn.complete(self.node_id, block, now)
            return None

        if wait:
            # Wait-flavor: hold the processor until the data arrives.
            del self.pending[block]
            self._fill(block, is_write, now)
            self.stats.holds += 1
            self._last_cycles = max(completion - now, 1)
            if txn is not None:
                txn.complete(self.node_id, block, completion)
            return None

        # Trap the processor (MEXC): it will switch-spin and retry.
        self.stats.traps += 1
        if txn is not None:
            txn.trap_retry(self.node_id, block, now, cpu=context)
        return MemOutcome.trap(TrapKind.CACHE_MISS, cycles=1,
                               detail="block %#x ready at %d" % (
                                   block, completion))

    def _start_transaction(self, block, is_write, now):
        """Walk the protocol legs; returns (completion time, was_local).

        Directory state and peer cache states update immediately; the
        returned time reflects request, directory/memory service, owner
        fetch, invalidation acknowledgments, and the data response,
        each over the contended network.  The phase boundaries tile the
        transaction exactly — request / service / coherence / response —
        and are reported to the transaction tracer when one is active.
        """
        system = self.system
        network = system.network
        home = self._home(block)
        directory = system.directories[home]
        data_flits = self._data_flits()

        arrive = network.send(self.node_id, home, REQUEST_FLITS, now)
        service_done = arrive + system.memory_latency
        coherence_done = service_done
        remote_legs = home != self.node_id

        if is_write:
            invalidees, fetch_from = directory.handle_write(
                block, self.node_id, now=arrive)
            for victim in invalidees:
                system.caches[victim].invalidate(block, now=service_done)
                ack = network.round_trip(
                    home, victim, REQUEST_FLITS, ACK_FLITS, service_done)
                coherence_done = max(coherence_done, ack)
                remote_legs = remote_legs or victim != self.node_id
            if fetch_from is not None and fetch_from != self.node_id:
                fetched = network.round_trip(
                    home, fetch_from, REQUEST_FLITS, data_flits, service_done)
                coherence_done = max(coherence_done, fetched)
                remote_legs = True
        else:
            fetch_from = directory.handle_read(block, self.node_id,
                                               now=arrive)
            if fetch_from is not None and fetch_from != self.node_id:
                system.caches[fetch_from].downgrade(block)
                coherence_done = network.round_trip(
                    home, fetch_from, REQUEST_FLITS, data_flits, service_done)
                remote_legs = True

        done = network.send(home, self.node_id, data_flits, coherence_done)
        txn = self.events.txn
        if txn is not None:
            txn.mark_phases(now, arrive, service_done, coherence_done, done)
        return done, not remote_legs

    def _fill(self, block, is_write, now=0):
        """Install the granted line, notifying the home of any victim."""
        state = LineState.MODIFIED if is_write else LineState.SHARED
        displaced = self.cache.install(block, state, now=now)
        if displaced is not None:
            victim_block, victim_state = displaced
            home = self._home(victim_block)
            self.system.directories[home].handle_eviction(
                victim_block, self.node_id,
                victim_state is LineState.MODIFIED)

    # -- out-of-band mechanisms (Section 3.4) --------------------------------------

    def flush(self, address, context=None):
        """FLUSH: write back + invalidate; dirty flushes raise the fence
        counter until the (simulated) home acknowledgment lands."""
        now = self._now(context)
        block = self._block(address)
        ctx = context.fp if context is not None else 0
        dirty = self.cache.flush(address, context=ctx)
        home = self._home(block)
        self.system.directories[home].handle_eviction(
            block, self.node_id, dirty)
        if dirty:
            txn = self.events.txn
            if txn is not None:
                txn.begin(self.node_id, block, home, True, now, cpu=context,
                          kind="writeback")
            ack = self.system.network.round_trip(
                self.node_id, home, self._data_flits(), ACK_FLITS, now)
            if txn is not None:
                txn.commit(ack, home == self.node_id, kind="writeback")
            self._fence_acks.append((ack, ctx))
        return MemOutcome.hit(cycles=2)

    def ldio(self, address, context=None):
        now = self._now(context)
        ctx = context.fp if context is not None else 0
        if address == IO_FENCE:
            self._drain_fence_acks(now)
            return MemOutcome.hit(value=self.cache.fence_count(ctx),
                                  cycles=1)
        if address == IO_NODE_ID:
            return MemOutcome.hit(value=self.node_id, cycles=1)
        raise SimulationError("LDIO of unmapped register %#x" % address)

    def stio(self, address, value, context=None):
        now = self._now(context)
        if address == IO_IPI_TARGET:
            self._ipi_target = value % len(self.system.ipi_queues)
            return MemOutcome.hit(cycles=1)
        if address == IO_IPI_SEND:
            latency = self.system.network.send(
                self.node_id, self._ipi_target, REQUEST_FLITS, now) - now
            self.system.reach(self._ipi_target)
            self.system.ipi_queues[self._ipi_target].append(value)
            self.stats.ipis_sent += 1
            return MemOutcome.hit(cycles=max(latency // 4, 1))
        if address == IO_BT_SRC:
            self._bt_src = value
            return MemOutcome.hit(cycles=1)
        if address == IO_BT_DST:
            self._bt_dst = value
            return MemOutcome.hit(cycles=1)
        if address == IO_BT_GO:
            return self._block_transfer(value, now)
        raise SimulationError("STIO to unmapped register %#x" % address)

    def _block_transfer(self, length_words, now):
        """Block transfer (Section 3.4): copy words through the network
        at block granularity, far cheaper than per-word remote misses."""
        for i in range(length_words):
            word = self.memory.read_word(self._bt_src + 4 * i)
            self.memory.write_word(self._bt_dst + 4 * i, word)
        dst_home = self._home(self._bt_dst)
        flits = REQUEST_FLITS + length_words
        done = self.system.network.send(self.node_id, dst_home, flits, now)
        self.stats.block_transfers += 1
        return MemOutcome.hit(cycles=max(done - now, length_words))

    def _drain_fence_acks(self, now):
        remaining = []
        for ack_time, ctx in self._fence_acks:
            if ack_time <= now:
                self.cache.fence_ack(ctx)
            else:
                remaining.append((ack_time, ctx))
        self._fence_acks = remaining
