"""The coherent memory system: all nodes' caches, directories, and the
network, wired to the processors (the full ALEWIFE of Figure 1/4).

Address-to-home interleaving is by block: block ``b`` is homed at node
``(b / block_bytes) mod N``, spreading the directory and memory traffic
evenly — the "distributed, globally-shared memory" of Section 2.
"""

from repro.core.processor import Processor
from repro.mem.cache import Cache
from repro.mem.controller import CacheController
from repro.mem.directory import Directory
from repro.net.network import Network
from repro.net.topology import KAryNCube


class Interconnect:
    """What a node's controller reaches of its peers: the network,
    every node's cache and directory slice, and the processors'
    IPI queues.

    It holds no controller and no processor — they point here, not the
    other way round — and the machine only weakly, so the memory system
    has no reference cycle and a finished machine's memory bank is
    freed with the machine rather than by a later cycle-collector pass.
    """

    def __init__(self, config, events):
        self.memory_latency = config.coherent_memory_latency
        self.block_bytes = config.cache_block_bytes
        self.network = Network(
            KAryNCube.fitting(config.num_processors, dim=config.network_dim),
            hop_cycles=config.network_hop_cycles, events=events)
        self.caches = []
        self.directories = []
        #: Each processor's ``ipi_queue``, by node: posting an IPI is
        #: an append here (see :meth:`Processor.post_ipi`).
        self.ipi_queues = []
        #: The machine's ``_wind_back``, as a :class:`weakref.WeakMethod`
        #: (set by the machine; None for a bare memory system).
        self.wind_back = None

    def reach(self, node):
        """Something is about to land in ``node``'s processor (an IPI):
        the machine first takes back what that processor ran ahead of
        the sender's step."""
        wind_back = self.wind_back() if self.wind_back is not None else None
        if wind_back is not None:
            wind_back(node, cause="ipi")

    def home_of(self, block_address):
        """The home node of a block (block-interleaved)."""
        return (block_address // self.block_bytes) % len(self.caches)


class CoherentMemorySystem:
    """Builds and owns the per-node memory hierarchy."""

    def __init__(self, config, memory, events):
        peers = self.interconnect = Interconnect(config, events)
        self.network = peers.network
        self.caches = peers.caches
        self.directories = peers.directories
        self.home_of = peers.home_of

        self.controllers = []
        self.cpus = []
        for node in range(config.num_processors):
            cache = Cache(size_bytes=config.cache_bytes,
                          block_bytes=config.cache_block_bytes,
                          assoc=config.cache_assoc,
                          node_id=node, events=events)
            controller = CacheController(node, memory, cache, peers, events)
            cpu = Processor(node_id=node, port=controller,
                            num_frames=config.num_task_frames,
                            events=events)
            cpu.trap_squash_cycles = config.trap_squash_cycles
            self.caches.append(cache)
            self.directories.append(Directory(node, events))
            peers.ipi_queues.append(cpu.ipi_queue)
            self.controllers.append(controller)
            self.cpus.append(cpu)

    def check_coherence_invariants(self):
        """Machine-wide single-writer check (tests and debugging), and
        each cache's valid-line map against its sets."""
        for directory in self.directories:
            directory.check_invariants(self.caches)
        for cache in self.caches:
            cache.check_valid()

    def aggregate_miss_rate(self):
        """Data-access miss rate across all caches."""
        hits = sum(c.stats.hits for c in self.caches)
        misses = sum(c.stats.misses for c in self.caches)
        total = hits + misses
        return misses / total if total else 0.0
