"""The event bus: a machine's one observer surface.

Every machine owns one :class:`EventBus` (``AlewifeMachine.events``),
built with it, never ``None`` and never replaced, and hands it to each
emitting component's constructor, so observers *subscribe* to one object
instead of being installed on every component.  The bus is dispatch
only.  ``bus.active`` is the frozenset of kinds somebody wants — every
kind once anybody subscribes to all of them, empty (falsy) when nobody
listens — and a site builds its payload only for a wanted kind::

    if bus.active and EventKind.THREAD_LOAD in bus.active:
        bus.emit(EventKind.THREAD_LOAD, ...)

The leading truth test keeps the dormant path one attribute test
(reading an ``EventKind`` member off its class goes through the enum
metaclass, which costs more than the test itself), and the membership
test keeps a run whose observers want a few kinds from building the
payloads of all the others.  ``tests/integration/test_emit_gates.py``
holds every ``bus.emit`` in the package to a test naming its own kind.
The two consumers that are called directly rather than sent events ride
on the bus as plain attributes, ``bus.txn`` and ``bus.lifetime``,
``None`` when absent.

Events are *typed* (:class:`EventKind`) and *structured* (a payload
dict of plain ints/strings), timestamped in simulated cycles and tagged
with the originating node.  What keeps them is a subscriber:
:class:`EventLog` is the bounded ring — oldest dropped first — an
:class:`~repro.obs.session.Observation` subscribes for all kinds (the
Perfetto exporter reads it); online reductions subscribe to the kinds
they want and see every event regardless of any ring's capacity.

No event is per-instruction.  Every :class:`EventKind` is emitted from
the head of a slice, a trap, the run-time system or the memory system —
never from inside a generated block or a run-ahead tail — so a subscriber
sees the same stream, in the same order with the same stamps, under both
machine schedules, and subscribing does not select the oracle
(``tests/core/test_lockstep.py::TestObserversRideTheFastForm``).  A
new kind emitted per instruction would break that: give it a hook that
``AlewifeMachine._hooks_dormant`` names instead.
"""

import enum
from collections import deque

from repro.errors import ConfigError


class EventKind(enum.Enum):
    """Every event type the simulator can emit."""

    # Members are singletons and compare by identity, so the identity
    # hash is correct — and it is C-speed, unlike Enum's default
    # Python-level ``__hash__``, which shows up in profiles because the
    # bus and the log key their per-kind dicts by member on every emit.
    __hash__ = object.__hash__

    # Processor / trap machinery.
    TRAP_ENTER = "trap_enter"
    TRAP_EXIT = "trap_exit"
    CONTEXT_SWITCH = "context_switch"
    # Memory system.
    REMOTE_MISS = "remote_miss"
    CACHE_EVICT = "cache_evict"
    CACHE_INVALIDATE = "cache_invalidate"
    DIRECTORY_READ = "directory_read"
    DIRECTORY_WRITE = "directory_write"
    # Network.
    NET_SEND = "net_send"
    NET_DELIVER = "net_deliver"
    # Futures.
    FUTURE_CREATE = "future_create"
    FUTURE_TOUCH = "future_touch"
    FUTURE_RESOLVE = "future_resolve"
    # Thread lifecycle / scheduling.
    THREAD_SPAWN = "thread_spawn"
    THREAD_LOAD = "thread_load"
    THREAD_UNLOAD = "thread_unload"
    THREAD_STEAL = "thread_steal"
    THREAD_EXIT = "thread_exit"
    THREAD_WAKE = "thread_wake"


class Event:
    """One emitted event: kind, cycle timestamp, node, payload."""

    __slots__ = ("kind", "cycle", "node", "data")

    def __init__(self, kind, cycle, node, data):
        self.kind = kind
        self.cycle = cycle
        self.node = node
        self.data = data

    def to_dict(self):
        record = {"kind": self.kind.value, "cycle": self.cycle,
                  "node": self.node}
        record.update(self.data)
        return record

    def __repr__(self):
        extras = " ".join("%s=%r" % kv for kv in sorted(self.data.items()))
        return "[%10d] n%s %s %s" % (
            self.cycle, self.node, self.kind.value, extras)


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`.

    Calling :meth:`cancel` detaches the callback (idempotent), so
    monitor/flight-recorder hooks never leak across runs.  Also usable
    as a context manager: the subscription lives for the ``with`` body.
    """

    __slots__ = ("_bus", "_callback", "_kind", "active")

    def __init__(self, bus, callback, kind):
        self._bus = bus
        self._callback = callback
        self._kind = kind
        self.active = True

    def cancel(self):
        """Detach the callback from the bus (safe to call twice)."""
        if not self.active:
            return
        self.active = False
        bus = self._bus
        callbacks = bus._subscribers[self._kind]
        callbacks.remove(self._callback)
        if not callbacks:
            del bus._subscribers[self._kind]
            bus._want()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.cancel()
        return False


class EventBus:
    """Subscriptions and dispatch for one machine.

    ``active`` is the frozenset of kinds with a subscriber (all of
    them while anybody subscribes to every kind); ``txn`` and
    ``lifetime`` hold the machine's one tracer and one accountant.
    """

    __slots__ = ("active", "txn", "lifetime", "_subscribers")

    def __init__(self):
        self.active = frozenset()
        self.txn = None
        self.lifetime = None
        self._subscribers = {}      # EventKind, or None for all -> [callables]

    def __setattr__(self, name, value):
        # A second tracer or accountant must not silently take the
        # sites away from the first.
        if name in ("txn", "lifetime") and value is not None:
            held = getattr(self, name)
            if held is not None and held is not value:
                raise ConfigError("machine already has a %s attached" % name)
        object.__setattr__(self, name, value)

    def emit(self, kind, cycle, node, **data):
        """Send an event to the subscribers of all kinds, then of its
        own; builds no :class:`Event` when there are neither."""
        subscribers = self._subscribers
        to_all, to_kind = subscribers.get(None), subscribers.get(kind)
        if to_all is None and to_kind is None:
            return
        event = Event(kind, cycle, node, data)
        for callback in to_all or ():
            callback(event)
        for callback in to_kind or ():
            callback(event)

    def subscribe(self, callback, kind=None):
        """Call ``callback(event)`` on every event (or one kind only).

        Returns a :class:`Subscription`; call its :meth:`~Subscription.
        cancel` (or use it as a context manager) to detach the callback.
        If the same callback is subscribed twice, each cancel removes
        one registration.
        """
        self._subscribers.setdefault(kind, []).append(callback)
        self._want()
        return Subscription(self, callback, kind)

    def _want(self):
        """Recompute :attr:`active` from the subscription table."""
        subscribers = self._subscribers
        self.active = frozenset(EventKind if None in subscribers
                                else subscribers)


class EventLog:
    """Bounded ring of :class:`Event` records; subscribe :meth:`record`.

    Args:
        capacity: ring size; oldest records are dropped past it.
            ``None`` keeps everything (tests, short runs).
    """

    def __init__(self, capacity=1_000_000):
        self.records = deque(maxlen=capacity)
        self.emitted = 0
        #: Events pushed out of the ring by capacity: counted at each
        #: overflowing append, not derived from ``emitted - len``, which
        #: drifts if the ring is ever consumed or resized out-of-band.
        self.dropped = 0
        self._counts = {}

    @property
    def capacity(self):
        return self.records.maxlen

    def record(self, event):
        """Keep one event."""
        records = self.records
        # ``len == None`` is False, so an unbounded ring skips the
        # dropped-counter bump without a separate maxlen test.
        if len(records) == records.maxlen:
            self.dropped += 1
        records.append(event)
        self.emitted += 1
        counts = self._counts
        counts[event.kind] = counts.get(event.kind, 0) + 1

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def select(self, *kinds):
        """Recorded events of the given kinds, in emission order."""
        wanted = set(kinds)
        return [e for e in self.records if e.kind in wanted]

    def counts(self):
        """Mapping of kind name to number of events emitted (ever)."""
        return {kind.value: count for kind, count in self._counts.items()}

    def to_dicts(self):
        """The ring contents as JSON-ready dicts."""
        return [event.to_dict() for event in self.records]
