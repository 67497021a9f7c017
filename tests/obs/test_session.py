"""Observation wiring: dormant hooks, attach/detach, report shape."""

import pytest

from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import Observation

from tests.obs.conftest import FIB, observed_run


def build_machine(processors=2, coherent=False):
    compiled = compile_source(FIB, mode="eager")
    config = MachineConfig(
        num_processors=processors,
        memory_mode="coherent" if coherent else "ideal")
    return compiled, AlewifeMachine(compiled.program, config)


class TestDormantHooks:
    def test_everything_disabled_by_default(self):
        _, machine = build_machine(coherent=True)
        assert machine.events is None
        assert machine.sampler is None
        assert machine.runtime.events is None
        assert machine.runtime.scheduler.events is None
        assert machine.runtime.futures.events is None
        for cpu in machine.cpus:
            assert cpu.events is None
            assert cpu.profile_hook is None
        fabric = machine.fabric
        assert fabric.network.events is None
        for component in (fabric.caches + fabric.controllers
                          + fabric.directories):
            assert component.events is None
        # The transaction-tracer slots are just as dormant.
        assert fabric.network.txn is None
        for cpu in machine.cpus:
            assert cpu.txn is None
        for component in (fabric.caches + fabric.controllers
                          + fabric.directories):
            assert component.txn is None

    def test_unobserved_run_emits_nothing(self):
        compiled, machine = build_machine()
        result = machine.run(entry=compiled.entry_label(), args=(8,))
        assert result.value == 21
        assert machine.events is None

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
        bus = obs.bus
        assert machine.events is bus
        assert machine.sampler is obs.sampler
        assert machine.runtime.events is bus
        assert machine.runtime.scheduler.events is bus
        assert machine.runtime.futures.events is bus
        fabric = machine.fabric
        assert fabric.network.events is bus
        for cpu in machine.cpus:
            assert cpu.events is bus
            assert cpu.profile_hook is not None
        for component in (fabric.caches + fabric.controllers
                          + fabric.directories):
            assert component.events is bus

    def test_attach_wires_transaction_tracer(self):
        _, machine = build_machine(coherent=True)
        obs = Observation(txn=True)
        obs.attach(machine)
        tracer = obs.txn
        assert tracer is not None
        assert obs.hist is tracer.histograms
        fabric = machine.fabric
        assert fabric.network.txn is tracer
        for cpu in machine.cpus:
            assert cpu.txn is tracer
        for component in (fabric.caches + fabric.controllers
                          + fabric.directories):
            assert component.txn is tracer

    def test_detach_restores_dormancy(self):
        _, machine = build_machine(coherent=True)
        obs = Observation(profile=True, txn=True)
        obs.attach(machine)
        obs.detach()
        assert machine.events is None
        assert machine.sampler is None
        for cpu in machine.cpus:
            assert cpu.events is None
            assert cpu.profile_hook is None
            assert cpu.txn is None
        assert machine.fabric.network.events is None
        assert machine.fabric.network.txn is None
        for component in (machine.fabric.caches + machine.fabric.controllers
                          + machine.fabric.directories):
            assert component.txn is None

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
