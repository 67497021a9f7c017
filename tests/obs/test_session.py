"""Observation wiring: the one observer surface, attach/detach in any
order, report shape."""

import itertools
from collections import deque

import pytest

from repro.errors import ConfigError
from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import EventBus, FlightRecorder, Observation, Watchdog

from tests.obs.conftest import FIB, observed_run


def build_machine(processors=2, coherent=False):
    compiled = compile_source(FIB, mode="eager")
    config = MachineConfig(
        num_processors=processors,
        memory_mode="coherent" if coherent else "ideal")
    return compiled, AlewifeMachine(compiled.program, config)


def bus_holders(root):
    """``(holder, bus)`` for every attribute holding an EventBus on any
    ``repro`` object reachable from ``root`` through attributes and
    plain containers — found by walking, not by listing components."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            children = list(obj.values())
        elif isinstance(obj, (list, tuple, set, deque)):
            children = list(obj)
        elif type(obj).__module__.startswith("repro."):
            children = list(getattr(obj, "__dict__", {}).values())
            found.extend((obj, child) for child in children
                         if isinstance(child, EventBus))
        else:                       # a bound method reaches its object
            children = [getattr(obj, "__self__", None)]
        stack.extend(child for child in children
                     if child is not None and not isinstance(child, EventBus))
    return found


class TestDormantHooks:
    def test_everything_disabled_by_default(self):
        _, machine = build_machine(coherent=True)
        bus = machine.events
        assert not bus.active
        assert bus.txn is None and bus.lifetime is None
        assert machine.sampler is None
        for cpu in machine.cpus:
            assert cpu.profile_hook is None

    def test_every_emitting_component_holds_the_machines_bus(self):
        """What replaced the per-component enumerations: there is one
        bus, and whatever emits was built with it."""
        _, machine = build_machine(processors=4, coherent=True)
        holders = bus_holders(machine)
        assert all(bus is machine.events for _, bus in holders)
        counts = {}
        for holder, _ in holders:
            name = type(holder).__name__
            counts[name] = counts.get(name, 0) + 1
        assert counts == {
            "AlewifeMachine": 1, "RuntimeSystem": 1, "Scheduler": 1,
            "FutureTable": 1, "Network": 1, "Processor": 4, "Cache": 4,
            "CacheController": 4, "Directory": 4}

    def test_unobserved_run_emits_nothing(self, monkeypatch):
        """Dormant means no site even calls ``emit``."""
        calls = []
        monkeypatch.setattr(EventBus, "emit",
                            lambda self, *args, **data: calls.append(args))
        compiled, machine = build_machine(coherent=True)
        result = machine.run(entry=compiled.entry_label(), args=(8,))
        assert result.value == 21
        assert not machine.events.active and not calls

    def test_observed_and_unobserved_runs_agree(self):
        compiled, machine = build_machine()
        bare = machine.run(entry=compiled.entry_label(), args=(8,))
        result, obs = observed_run(n=8, processors=2, profile=True)
        # Instrumentation must not perturb the simulation itself.
        assert result.value == bare.value
        assert result.cycles == bare.cycles
        assert obs.bus.emitted > 0


class TestAttachDetach:
    def test_attach_wires_all_components(self):
        _, machine = build_machine(coherent=True)
        obs = Observation(profile=True)
        obs.attach(machine)
        assert machine.events.active
        assert machine.sampler is obs.sampler
        for cpu in machine.cpus:
            assert cpu.profile_hook is not None
        # One subscription reaches every component: each kind a coherent
        # machine emits lands in the observation's log.
        compiled = compile_source(FIB, mode="eager")
        machine.run(entry=compiled.entry_label(), args=(7,))
        assert set(obs.bus.counts()) >= {
            "trap_enter", "context_switch", "thread_spawn", "thread_load",
            "future_create", "future_resolve", "remote_miss",
            "cache_invalidate", "directory_read", "directory_write",
            "net_send", "net_deliver"}

    def test_attach_wires_transaction_tracer(self):
        _, machine = build_machine(coherent=True)
        obs = Observation(txn=True)
        obs.attach(machine)
        tracer = obs.txn
        assert tracer is not None
        assert obs.hist is tracer.histograms
        assert machine.events.txn is tracer

    def test_detach_restores_dormancy(self):
        _, machine = build_machine(coherent=True)
        obs = Observation(profile=True, txn=True, threads=True)
        obs.attach(machine)
        obs.detach()
        bus = machine.events
        assert not bus.active
        assert bus.txn is None and bus.lifetime is None
        assert machine.sampler is None
        for cpu in machine.cpus:
            assert cpu.profile_hook is None

    def test_txn_disabled_by_default(self):
        obs = Observation()
        assert obs.txn is None
        assert obs.hist is None
        with pytest.raises(ValueError):
            obs.write_txn("nowhere.json")

    def test_perfetto_requires_events(self):
        obs = Observation(events=False, window=0, profile=True)
        with pytest.raises(ValueError):
            obs.perfetto()


MACHINES = {"ideal-p2": (2, False), "coherent-p4": (4, True)}
#: The order ``run_mult`` attaches in: the reference recording.
RUN_MULT_ORDER = ("observation", "flight", "watchdog")
OTHER_ORDERS = [order for order in itertools.permutations(RUN_MULT_ORDER)
                if order != RUN_MULT_ORDER]


def _rings(flight):
    return {node: [event.to_dict() for event in ring]
            for node, ring in flight.rings.items()}


#: What each observer recorded, as comparable plain data.
RECORDED = {
    "observation": lambda observation: {
        "log": observation.bus.to_dicts(),
        "transactions": [record.to_dict()
                         for record in observation.txn.finished],
        "explain": observation.explain()},
    "flight": _rings,
    "watchdog": lambda watchdog: _rings(watchdog.flight),
}


class TestAttachOrder:
    """Observers share one surface, so the order they attach in — and
    whether one of them leaves mid-run — cannot change what the others
    record.  (With per-component slots, a recorder attached before an
    Observation ended the run with empty rings, and so did one whose
    Observation detached.)"""

    def _run(self, name, order, leaver=None):
        """fib(8) with the three observers attached in ``order``; a
        ``leaver`` detaches partway through.  Returns the machine, the
        observers and what each recorded (the leaver: at its detach)."""
        processors, coherent = MACHINES[name]
        compiled, machine = build_machine(processors, coherent)
        observers = {
            "observation": Observation(events=True, capacity=None, window=0,
                                       txn=True, txn_capacity=None,
                                       threads=True),
            "flight": FlightRecorder(per_node=1 << 16),
            "watchdog": Watchdog(per_node=1 << 16),
        }
        for key in order:
            observers[key].attach(machine)
        recorded = {}
        stepper = machine.stepper(entry=compiled.entry_label(), args=(8,))
        while stepper.step_machine() is not None:
            if leaver is not None and machine.time >= 2000:
                observers[leaver].detach()
                assert machine.events.active        # the others stay
                if leaver != "observation":         # explain() needs the end
                    recorded[leaver] = RECORDED[leaver](observers[leaver])
                leaver = None
        assert stepper.result().value == 21
        for key in observers:
            recorded.setdefault(key, RECORDED[key](observers[key]))
        return machine, observers, recorded

    @pytest.fixture
    def baseline(self, request):
        _, _, recorded = self._run(request.param, RUN_MULT_ORDER)
        assert len(recorded["observation"]["log"]) > 1000
        coherent = MACHINES[request.param][1]
        assert bool(recorded["observation"]["transactions"]) == coherent
        assert all(recorded["flight"].values())
        assert recorded["flight"] == recorded["watchdog"]
        return request.param, recorded

    @pytest.mark.parametrize("baseline", sorted(MACHINES), indirect=True)
    @pytest.mark.parametrize("order", OTHER_ORDERS, ids="-".join)
    def test_every_order_records_the_same(self, baseline, order):
        name, expected = baseline
        _, _, recorded = self._run(name, order)
        assert recorded == expected

    @pytest.mark.parametrize("baseline", sorted(MACHINES), indirect=True)
    @pytest.mark.parametrize("leaver", RUN_MULT_ORDER)
    def test_one_detaching_leaves_the_others_recording(self, baseline,
                                                       leaver):
        name, expected = baseline
        machine, observers, recorded = self._run(
            name, RUN_MULT_ORDER, leaver=leaver)
        for key in RUN_MULT_ORDER:
            if key != leaver:
                assert recorded[key] == expected[key]
        # The one that left holds a proper prefix of what it would have.
        if leaver == "observation":
            left, full = recorded[leaver]["log"], expected[leaver]["log"]
            assert 0 < len(left) < len(full) and left == full[:len(left)]
        else:
            for node, ring in recorded[leaver].items():
                full = expected[leaver][node]
                assert 0 < len(ring) < len(full) and ring == full[:len(ring)]
        assert machine.watchdog is (None if leaver == "watchdog"
                                    else observers["watchdog"])
        for observer in observers.values():
            observer.detach()
        bus = machine.events
        assert not bus.active
        assert bus.txn is None and bus.lifetime is None

    def test_second_tracer_or_accountant_raises(self):
        _, machine = build_machine(coherent=True)
        first = Observation(window=0, txn=True, threads=True)
        first.attach(machine)
        for kwargs in ({"txn": True}, {"threads": True}):
            second = Observation(events=False, window=0, **kwargs)
            with pytest.raises(ConfigError):
                second.attach(machine)
            second.detach()         # undoing the failed attach is safe
            assert machine.events.txn is first.txn
            assert machine.events.lifetime is first.lifetime
        first.detach()
        assert not machine.events.active
        Observation(window=0, txn=True, threads=True).attach(machine)


class TestReport:
    def test_report_sections(self):
        result, obs = observed_run(n=8, processors=2, coherent=True,
                                   profile=True)
        report = obs.report(result=result)
        assert set(report) >= {"config", "stats", "components", "result",
                               "events", "timeline", "profile"}
        assert report["result"]["value"] == 21
        assert report["stats"]["num_processors"] == 2
        components = report["components"]
        assert set(components) >= {"scheduler", "futures", "caches",
                                   "controllers", "directories", "network"}
        assert len(components["caches"]) == 2
        assert report["events"]["emitted"] == obs.bus.emitted

    def test_ideal_memory_report_has_no_fabric(self):
        result, obs = observed_run(n=7, processors=2)
        components = obs.report(result=result)["components"]
        assert "network" not in components
        assert "scheduler" in components

    def test_to_dict_respects_disabled_consumers(self):
        _, obs = observed_run(n=6, events=True, window=0, profile=False)
        data = obs.to_dict()
        assert "events" in data
        assert "timeline" not in data
        assert "profile" not in data
        assert "transactions" not in data
        assert "histograms" not in data

    def test_report_includes_transaction_sections(self):
        result, obs = observed_run(n=7, processors=2, coherent=True,
                                   txn=True)
        report = obs.report(result=result)
        txn = report["transactions"]
        assert txn["emitted"] > 0
        assert txn["emitted"] == sum(txn["by_kind"].values())
        assert set(txn["anomalies"]) >= {"switch_spin_storms",
                                         "invalidation_hot_lines"}
        hist = report["histograms"]
        assert set(hist) == {"kinds", "hops", "nodes"}
        assert sum(h["count"] for h in hist["kinds"].values()) \
            == txn["emitted"]

    def test_report_includes_sync_and_lazy_counters(self):
        result, obs = observed_run(n=7, processors=2)
        components = obs.report(result=result)["components"]
        sync = components["sync"]
        assert set(sync) == {"istructure_arrays", "istructure_slots",
                             "locks", "barriers", "words_allocated"}
        lazy = components["lazy"]
        assert set(lazy) >= {"pushed", "stolen", "discards", "peak_depth",
                             "live", "queues"}
        assert len(lazy["queues"]) == 2
