"""machine_report: drop counts and sampler config are always visible."""

from repro.lang.run import run_mult
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import EventLog, IntervalSampler, machine_report
from repro.lang.compiler import compile_source
from tests.obs.conftest import FIB, observed_run


class TestObservationSections:
    def test_event_section_reports_capacity_and_drops(self):
        _, obs = observed_run(capacity=64)
        report = machine_report(obs.machine, observation=obs)
        events = report["events"]
        assert events["capacity"] == 64
        assert events["recorded"] <= 64
        assert events["dropped"] == events["emitted"] - events["recorded"]

    def test_timeline_section_reports_window(self):
        _, obs = observed_run(window=512)
        report = machine_report(obs.machine, observation=obs)
        assert report["timeline"]["window"] == 512


class TestFallbackSections:
    """A sampler wired without an Observation still gets surfaced; a log
    subscribed by hand answers for its own drops."""

    def _bare_machine(self):
        compiled = compile_source(FIB)
        machine = AlewifeMachine(compiled.program,
                                 MachineConfig(num_processors=2))
        return compiled, machine

    def test_subscribed_log_without_observation(self):
        compiled, machine = self._bare_machine()
        log = EventLog(capacity=32)
        machine.events.subscribe(log.record)
        machine.run(entry=compiled.entry_label("main"), args=(6,))
        assert log.emitted > 32 == log.capacity == len(log)
        assert log.dropped == log.emitted - len(log)
        assert sum(log.counts().values()) == log.emitted
        # The machine's bus keeps nothing, so the report has no section
        # to truncate silently: the log's owner reads the log.
        assert "events" not in machine_report(machine)

    def test_attached_sampler_without_observation(self):
        compiled, machine = self._bare_machine()
        sampler = IntervalSampler(256)
        sampler.attach(machine.cpus)
        machine.sampler = sampler
        machine.run(entry=compiled.entry_label("main"), args=(6,))
        report = machine_report(machine)
        assert report["timeline"] == {"window": 256,
                                      "windows": len(sampler.windows)}

    def test_plain_machine_has_no_observability_sections(self):
        compiled, machine = self._bare_machine()
        machine.run(entry=compiled.entry_label("main"), args=(6,))
        report = machine_report(machine)
        assert "events" not in report
        assert "timeline" not in report
