"""EventBus and EventLog unit tests plus the determinism contract of
the stream."""

import pytest

from repro.errors import ConfigError
from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import EventBus, EventKind, EventLog
from repro.obs import events as events_module
from repro.obs.txn import TransactionTracer

from tests.obs.conftest import FIB, observed_run


def logged_bus(capacity=1_000_000):
    """A dispatcher with a log subscribed for all kinds, as
    ``Observation.attach`` leaves a machine's: ``(bus, log)``."""
    bus, log = EventBus(), EventLog(capacity)
    bus.subscribe(log.record)
    return bus, log


class TestEventBus:
    def test_dormant_until_subscribed(self, monkeypatch):
        """`active` iff somebody listens, and no Event is allocated for
        a kind nobody listens to."""
        built = []

        class CountedEvent(events_module.Event):
            def __init__(self, kind, *rest):
                built.append(kind)
                super().__init__(kind, *rest)

        monkeypatch.setattr(events_module, "Event", CountedEvent)
        bus = EventBus()
        assert not bus.active
        assert bus.txn is None and bus.lifetime is None
        bus.emit(EventKind.NET_SEND, 1, 0, dst=1)
        seen = []
        with bus.subscribe(seen.append, kind=EventKind.TRAP_ENTER):
            assert bus.active
            bus.emit(EventKind.NET_SEND, 2, 0, dst=1)
            assert built == []
            bus.emit(EventKind.TRAP_ENTER, 3, 0)
        assert built == [EventKind.TRAP_ENTER] and len(seen) == 1
        assert not bus.active

    def test_second_direct_consumer_raises(self):
        bus = EventBus()
        first, second = object(), object()
        for slot in ("txn", "lifetime"):
            setattr(bus, slot, first)
            setattr(bus, slot, first)           # the holder may re-set
            with pytest.raises(ConfigError):
                setattr(bus, slot, second)
            assert getattr(bus, slot) is first
            setattr(bus, slot, None)
            setattr(bus, slot, second)          # free again

    def test_ring_capacity(self):
        bus, log = logged_bus(capacity=10)
        for cycle in range(25):
            bus.emit(EventKind.NET_SEND, cycle, 0, dst=1)
        assert len(log) == 10
        assert log.emitted == 25
        assert log.dropped == 15
        # Oldest records fell off the front; the counts survive.
        assert [e.cycle for e in log] == list(range(15, 25))
        assert log.counts() == {"net_send": 25}

    def test_dropped_exact_after_wraparound(self):
        """`dropped` counts overflow appends explicitly: it stays exact
        even when the ring is consumed out-of-band, and `counts()` still
        reflects every event ever emitted."""
        bus, log = logged_bus(capacity=4)
        for cycle in range(4):
            bus.emit(EventKind.NET_SEND, cycle, 0)
        assert log.dropped == 0
        for cycle in range(4, 10):
            bus.emit(EventKind.TRAP_ENTER, cycle, 0)
        assert log.dropped == 6
        # Out-of-band consumption must not inflate the drop count.
        log.records.popleft()
        log.records.popleft()
        bus.emit(EventKind.NET_SEND, 10, 0)
        assert log.dropped == 6          # ring had room again
        bus.emit(EventKind.NET_SEND, 11, 0)
        bus.emit(EventKind.NET_SEND, 12, 0)
        assert log.dropped == 7          # exactly one more overflow
        assert log.emitted == 13
        assert log.counts() == {"net_send": 7, "trap_enter": 6}
        assert sum(log.counts().values()) == log.emitted

    def test_unbounded_when_capacity_none(self):
        bus, log = logged_bus(capacity=None)
        for cycle in range(1000):
            bus.emit(EventKind.TRAP_ENTER, cycle, 0)
        assert len(log) == 1000
        assert log.dropped == 0

    def test_subscribe_all_and_by_kind(self):
        bus = EventBus()
        seen_all, seen_traps = [], []
        bus.subscribe(seen_all.append)
        bus.subscribe(seen_traps.append, kind=EventKind.TRAP_ENTER)
        bus.emit(EventKind.TRAP_ENTER, 1, 0, trap="FUTURE_TOUCH")
        bus.emit(EventKind.NET_SEND, 2, 0, dst=3)
        assert len(seen_all) == 2
        assert len(seen_traps) == 1
        assert seen_traps[0].data["trap"] == "FUTURE_TOUCH"

    def test_select_filters_by_kind(self):
        bus, log = logged_bus()
        bus.emit(EventKind.THREAD_LOAD, 5, 0, tid=1)
        bus.emit(EventKind.THREAD_UNLOAD, 9, 0, tid=1)
        bus.emit(EventKind.THREAD_LOAD, 12, 1, tid=2)
        loads = log.select(EventKind.THREAD_LOAD)
        assert [e.cycle for e in loads] == [5, 12]

    def test_to_dicts_round_trip(self):
        bus, log = logged_bus()
        bus.emit(EventKind.REMOTE_MISS, 42, 3, block=7, home=1, write=False)
        (record,) = log.to_dicts()
        assert record == {"kind": "remote_miss", "cycle": 42, "node": 3,
                          "block": 7, "home": 1, "write": False}


class TestDeterminism:
    def test_identical_runs_identical_streams(self):
        result_a, obs_a = observed_run(n=8, processors=2)
        result_b, obs_b = observed_run(n=8, processors=2)
        assert result_a.value == result_b.value == 21
        assert result_a.cycles == result_b.cycles
        # Raw records, tids and all: a tid is a spawn index in its run.
        stream_a, stream_b = obs_a.bus.to_dicts(), obs_b.bus.to_dicts()
        assert len(stream_a) > 100
        assert stream_a == stream_b

    def test_identical_coherent_runs_identical_streams(self):
        _, obs_a = observed_run(n=7, processors=2, coherent=True)
        _, obs_b = observed_run(n=7, processors=2, coherent=True)
        # The coherent fabric adds miss/directory/network events.
        counts = obs_a.bus.counts()
        assert counts.get("remote_miss", 0) > 0
        assert counts.get("net_send", 0) > 0
        assert obs_a.bus.to_dicts() == obs_b.bus.to_dicts()


class TestSubscription:
    """subscribe() returns a cancellable handle (satellite of the
    flight-recorder PR: attach must be fully reversible)."""

    def test_cancel_stops_delivery(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(seen.append, kind=EventKind.TRAP_ENTER)
        bus.emit(EventKind.TRAP_ENTER, 1, 0)
        sub.cancel()
        bus.emit(EventKind.TRAP_ENTER, 2, 0)
        assert [e.cycle for e in seen] == [1]
        assert not sub.active and not bus.active
        sub.cancel()                        # idempotent
        bus.emit(EventKind.TRAP_ENTER, 3, 0)
        assert len(seen) == 1

    def test_cancel_all_kinds_subscription(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(seen.append)
        bus.emit(EventKind.NET_SEND, 1, 0)
        sub.cancel()
        bus.emit(EventKind.NET_SEND, 2, 0)
        assert len(seen) == 1

    def test_context_manager_detaches(self):
        bus = EventBus()
        seen = []
        with bus.subscribe(seen.append, kind=EventKind.THREAD_WAKE) as sub:
            bus.emit(EventKind.THREAD_WAKE, 1, 0)
            assert sub.active
        bus.emit(EventKind.THREAD_WAKE, 2, 0)
        assert len(seen) == 1

    def test_cancel_leaves_other_subscribers(self):
        bus = EventBus()
        keep, drop = [], []
        bus.subscribe(keep.append, kind=EventKind.TRAP_ENTER)
        sub = bus.subscribe(drop.append, kind=EventKind.TRAP_ENTER)
        sub.cancel()
        assert bus.active                   # somebody is still listening
        bus.emit(EventKind.TRAP_ENTER, 1, 0)
        assert len(keep) == 1 and not drop


class TestWantedKinds:
    """``bus.active`` is the set of kinds somebody wants."""

    def test_active_tracks_the_subscribed_kinds(self):
        bus = EventBus()
        assert bus.active == frozenset()
        trap = bus.subscribe(list().append, kind=EventKind.TRAP_ENTER)
        wake = bus.subscribe(list().append, kind=EventKind.THREAD_WAKE)
        assert bus.active == {EventKind.TRAP_ENTER, EventKind.THREAD_WAKE}
        catch_all = bus.subscribe(list().append)
        assert bus.active == frozenset(EventKind)   # every kind counts
        catch_all.cancel()
        assert bus.active == {EventKind.TRAP_ENTER, EventKind.THREAD_WAKE}
        trap.cancel()
        assert bus.active == {EventKind.THREAD_WAKE}
        wake.cancel()
        assert not bus.active and bus.active == frozenset()


#: (mode, memory mode, fib argument): an eager and a lazy ideal run and
#: a coherent one; between them every kind but none is emitted.
GATED_RUNS = (("eager", "ideal", 8), ("lazy", "ideal", 8),
              ("eager", "coherent", 6))


def _gated_run(mode, memory, n, attach):
    """fib(n) on four CPUs with ``attach(bus)`` called before the run
    (the coherent run with a transaction tracer too); returns
    ``(cycles, bus)``."""
    compiled = compile_source(FIB, mode=mode)
    config = MachineConfig(num_processors=4, memory_mode=memory,
                           lazy_futures=compiled.wants_lazy_scheduling)
    machine = AlewifeMachine(compiled.program, config)
    if memory == "coherent":
        machine.events.txn = TransactionTracer()
    attach(machine.events)
    result = machine.run(entry=compiled.entry_label(), args=(n,))
    assert result.value == {6: 8, 8: 21}[n]
    return result.cycles, machine.events


def _reference(mode, memory, n):
    """The all-kinds stream of a run: ``(cycles, [event dicts])``."""
    log = EventLog(capacity=None)
    cycles, _ = _gated_run(mode, memory, n,
                           lambda bus: bus.subscribe(log.record))
    return cycles, log.to_dicts()


class TestPerKindGates:
    """A site builds its payload only for a wanted kind; a subscriber of
    one kind must still see exactly what an all-kinds log would."""

    def test_the_runs_cover_every_kind(self):
        seen = set()
        for run in GATED_RUNS:
            seen.update(record["kind"] for record in _reference(*run)[1])
        assert seen == {kind.value for kind in EventKind}

    @pytest.mark.parametrize("run", GATED_RUNS,
                             ids=["-".join(map(str, r)) for r in GATED_RUNS])
    def test_one_kind_alone_sees_the_filtered_stream(self, run):
        cycles, reference = _reference(*run)
        for kind in EventKind:
            seen = []
            alone, bus = _gated_run(
                *run, lambda bus: bus.subscribe(seen.append, kind))
            assert alone == cycles, kind
            assert bus.active == {kind}
            assert [event.to_dict() for event in seen] == [
                record for record in reference
                if record["kind"] == kind.value], kind

    def test_catch_all_mixed_with_per_kind_subscribers(self):
        run = GATED_RUNS[2]
        cycles, reference = _reference(*run)
        log = EventLog(capacity=None)
        kinds = (EventKind.TRAP_ENTER, EventKind.THREAD_LOAD,
                 EventKind.NET_DELIVER)
        seen = {kind: [] for kind in kinds}
        handles = []

        def attach(bus):
            handles.extend(bus.subscribe(seen[kind].append, kind)
                           for kind in kinds)
            handles.append(bus.subscribe(log.record))

        mixed, bus = _gated_run(*run, attach)
        assert mixed == cycles
        assert log.to_dicts() == reference
        for kind in kinds:
            assert [event.to_dict() for event in seen[kind]] == [
                record for record in reference
                if record["kind"] == kind.value], kind
        handles.pop().cancel()                   # the catch-all
        assert bus.active == set(kinds)
        for handle in handles:
            handle.cancel()
        assert not bus.active
