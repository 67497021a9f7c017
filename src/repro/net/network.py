"""The packet-switched direct network simulator (paper Section 2.1).

Models a wormhole-routed mesh at message granularity: a message of
``size`` flits traversing ``h`` hops is charged ``h`` switch cycles plus
``size`` serialization cycles, and each directed link it crosses is
*occupied* for ``size`` cycles — a later message wanting the same link
waits for it.  That per-link occupancy schedule is what produces
contention, replacing cycle-by-cycle flit simulation at a fraction of
the cost (the shape of the latency-vs-load curve is the same to first
order, which is all the experiments use).
"""

from repro.net.topology import KAryNCube
from repro.obs.events import EventBus, EventKind


class NetworkStats:
    """Aggregate traffic counters."""

    def __init__(self):
        self.messages = 0
        self.flit_hops = 0
        self.total_latency = 0
        self.total_hops = 0
        self.contention_cycles = 0

    @property
    def average_latency(self):
        return self.total_latency / self.messages if self.messages else 0.0

    def to_dict(self):
        return {
            "messages": self.messages,
            "flit_hops": self.flit_hops,
            "total_hops": self.total_hops,
            "total_latency": self.total_latency,
            "average_latency": self.average_latency,
            "contention_cycles": self.contention_cycles,
        }


class Network:
    """Mesh interconnect with per-link occupancy-based contention."""

    def __init__(self, topology, hop_cycles=1, events=None):
        self.topology = topology
        self.hop_cycles = hop_cycles
        self._link_free = {}     # (node, axis, dir) -> next free cycle
        #: (src, dst) -> ``topology.route(src, dst)`` as a tuple, built
        #: at the pair's first message (e-cube routes never change).
        self._routes = {}
        self.stats = NetworkStats()
        #: The machine's observer surface (:mod:`repro.obs.events`).
        self.events = events if events is not None else EventBus()

    def send(self, src, dst, size_flits, now):
        """Deliver a message; returns its arrival time.

        The message advances hop by hop; at each directed link it waits
        until the link frees, then occupies it for ``size_flits``
        cycles.  ``src == dst`` (local) costs nothing.
        """
        if src == dst:
            return now
        links = self._routes.get((src, dst))
        if links is None:
            links = self._routes[src, dst] = tuple(
                self.topology.route(src, dst))
        time = now
        contention = 0
        for link in links:
            free_at = self._link_free.get(link, 0)
            if free_at > time:
                contention += free_at - time
                time = free_at
            self._link_free[link] = time + size_flits
            time += self.hop_cycles
        time += size_flits  # serialize the body at the destination
        self.stats.messages += 1
        self.stats.total_hops += len(links)
        self.stats.flit_hops += len(links) * size_flits
        self.stats.total_latency += time - now
        self.stats.contention_cycles += contention
        bus = self.events
        if bus.active:
            if EventKind.NET_SEND in bus.active:
                bus.emit(EventKind.NET_SEND, now, src, dst=dst,
                         flits=size_flits, hops=len(links),
                         contention=contention)
            if EventKind.NET_DELIVER in bus.active:
                bus.emit(EventKind.NET_DELIVER, time, dst, src=src,
                         flits=size_flits)
        txn = bus.txn
        if txn is not None:
            txn.net_leg(src, dst, size_flits, len(links), now, time,
                        contention)
        return time

    def round_trip(self, src, dst, request_flits, reply_flits, now,
                   service_cycles=0):
        """Request to ``dst``, service there, reply back; returns the
        completion time at ``src``."""
        arrive = self.send(src, dst, request_flits, now)
        done = arrive + service_cycles
        return self.send(dst, src, reply_flits, done)


def build_network(num_nodes, dim=2, hop_cycles=1):
    """A mesh just big enough for ``num_nodes`` (module-level helper)."""
    return Network(KAryNCube.fitting(num_nodes, dim=dim),
                   hop_cycles=hop_cycles)
