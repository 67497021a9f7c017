"""CLI observability surface: --json, --profile, --events, report."""

import json

import pytest

from repro import cli
from repro.cli import main


class TestRunJson:
    def test_json_payload(self, fib_program, capsys):
        assert main(["run", fib_program, "-p", "2", "--args", "8",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == 21
        assert payload["cycles"] > 0
        assert payload["stats"]["num_processors"] == 2
        # No observability flags: no observation sections.
        assert "events" not in payload

    def test_json_with_profile_and_events(self, fib_program, capsys,
                                          tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(["run", fib_program, "-p", "2", "--args", "8",
                     "--json", "--profile", "--timeline",
                     "--events", str(trace_path)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["events"]["emitted"] > 0
        assert payload["profile"]["total_cycles"] > 0
        assert payload["timeline"]["windows"]
        trace = json.loads(trace_path.read_text())
        assert trace["otherData"]["nodes"] == 2
        assert "ui.perfetto.dev" in captured.err

    def test_human_output_with_profile(self, fib_program, capsys):
        assert main(["run", fib_program, "--args", "6",
                     "--profile", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "result: 8" in out
        assert "hot paths" in out
        assert "utilization timeline" in out


class TestTxnOption:
    def test_txn_file_written(self, fib_program, capsys, tmp_path):
        txn_path = tmp_path / "txn.json"
        assert main(["run", fib_program, "-p", "4", "--coherent",
                     "--args", "6", "--txn", str(txn_path)]) == 0
        err = capsys.readouterr().err
        assert "coherence transactions" in err
        payload = json.loads(txn_path.read_text())
        remote = [t for t in payload["transactions"] if t["remote"]]
        assert remote, "coherent 4-node run wrote no remote transaction"
        for txn in remote:
            span = sum(p["end"] - p["start"] for p in txn["phases"])
            assert span == txn["latency"]
        assert set(payload) >= {"transactions", "open", "emitted",
                                "dropped", "by_kind", "histograms",
                                "anomalies"}


@pytest.fixture
def built(monkeypatch):
    """Every Observation the CLI builds, in order."""
    seen = []
    build = cli._build_observation

    def spy(args, force=False):
        seen.append(build(args, force=force))
        return seen[-1]

    monkeypatch.setattr(cli, "_build_observation", spy)
    return seen


class TestSamplerOnlyWhenRead:
    """The sampler selects the per-instruction oracle, so the CLI
    attaches it only for a flag that reads its windows."""

    RUN = ["-p", "4", "--coherent", "--args", "6"]

    @pytest.mark.parametrize("extra", ([], ["--json"]), ids=("text", "json"))
    def test_txn_alone_rides_the_fast_loop(self, fib_program, capsys,
                                           tmp_path, built, extra):
        sampled = tmp_path / "sampled.json"
        assert main(["run", fib_program, *self.RUN, "--txn", str(sampled),
                     "--window", "4096", "--timeline"]) == 0
        assert built[-1].machine.loop_used == "reference"
        capsys.readouterr()

        alone = tmp_path / "alone.json"
        assert main(["run", fib_program, *self.RUN, "--txn", str(alone),
                     *extra]) == 0
        assert built[-1].machine.loop_used == "fast"
        assert alone.read_bytes() == sampled.read_bytes()
        if extra:
            payload = json.loads(capsys.readouterr().out)
            assert "transactions" in payload
            assert "timeline" not in payload

    @pytest.mark.parametrize("flag", ("--timeline", "--profile", "--events"))
    def test_flags_that_read_the_sampler_keep_it(self, fib_program, capsys,
                                                 tmp_path, built, flag):
        argv = ["run", fib_program, *self.RUN, "--json", flag]
        if flag == "--events":
            argv.append(str(tmp_path / "trace.json"))
        assert main(argv) == 0
        assert built[-1].machine.loop_used == "reference"
        assert json.loads(capsys.readouterr().out)["timeline"]["windows"]


class TestReportCommand:
    def test_report_stdout(self, fib_program, capsys):
        assert main(["report", fib_program, "-p", "2", "--args", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["value"] == 13
        assert set(report) >= {"config", "stats", "components", "events",
                               "timeline", "profile"}

    def test_report_out_file(self, fib_program, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["report", fib_program, "--args", "6", "--coherent",
                     "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert "network" in report["components"]
        assert report["result"]["value"] == 8

    def test_report_histograms(self, fib_program, capsys):
        assert main(["report", fib_program, "-p", "2", "--coherent",
                     "--args", "6", "--histograms"]) == 0
        report = json.loads(capsys.readouterr().out)
        hist = report["histograms"]
        assert hist["kinds"], "no per-kind latency histograms"
        for summary in hist["kinds"].values():
            assert set(summary) >= {"count", "p50", "p90", "p99",
                                    "buckets"}
        assert report["components"]["sync"]["locks"] == 0


class TestExplainCommand:
    def test_explain_text_report(self, fib_program, capsys):
        assert main(["explain", fib_program, "-p", "2", "--args", "8"]) == 0
        out = capsys.readouterr().out
        assert "conservation: exact" in out
        assert "why not linear" in out
        assert "critical path:" in out

    def test_explain_json_byte_stable(self, fib_program, capsys):
        argv = ["explain", fib_program, "-p", "2", "--args", "8", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["result"] == 21
        assert payload["threads"]["conservation"]["exact"]
        path = payload["critical_path"]
        assert 0 < path["length"] <= payload["cycles"]
        assert path["why"]

    def test_explain_writes_perfetto_trace(self, fib_program, capsys,
                                           tmp_path):
        trace_path = tmp_path / "explain.json"
        assert main(["explain", fib_program, "-p", "2", "--args", "8",
                     "--events", str(trace_path)]) == 0
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert "block-flow" in cats


class TestReportThreadFlags:
    def test_report_threads_section(self, fib_program, capsys):
        assert main(["report", fib_program, "-p", "2", "--args", "8",
                     "--threads"]) == 0
        report = json.loads(capsys.readouterr().out)
        threads = report["threads"]
        assert threads["conservation"]["exact"]
        assert threads["threads"]

    def test_report_critical_path_implies_threads(self, fib_program,
                                                  capsys):
        assert main(["report", fib_program, "-p", "2", "--args", "8",
                     "--critical-path"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "threads" in report
        path = report["critical_path"]
        assert path["length"] <= report["result"]["cycles"]
        assert not path["truncated"]

    def test_report_without_flags_has_no_thread_section(self, fib_program,
                                                        capsys):
        assert main(["report", fib_program, "-p", "2", "--args", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "threads" not in report
        assert "critical_path" not in report


class TestWatchdogOption:
    def test_deadlock_exits_3_with_postmortem(self, capsys, tmp_path):
        pm_path = tmp_path / "hang.json"
        code = main(["run", "examples/deadlock.mult", "-p", "2",
                     "--watchdog", "--postmortem", str(pm_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "== HANG DETECTED: deadlock" in captured.out
        assert "wait-for cycle:" in captured.out
        assert "disassembly:" in captured.out
        assert "wrote post-mortem JSON" in captured.err
        pm = json.loads(pm_path.read_text())
        assert pm["kind"] == "deadlock"
        assert pm["wait_for"]["cycles"]
        assert pm["disassembly"]

    def test_watchdog_quiet_on_healthy_run(self, fib_program, capsys):
        code = main(["run", fib_program, "-p", "2", "--args", "8",
                     "--watchdog", "--watchdog-interval", "512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: 21" in out
        assert "HANG" not in out


class TestMonitorCommand:
    def test_scripted_session_transcript(self, fib_program, capsys,
                                         tmp_path):
        script = tmp_path / "session.script"
        script.write_text("where\nstep 3\nthreads\nquit\n")
        code = main(["monitor", fib_program, "--args", "5",
                     "--script", str(script)])
        out = capsys.readouterr().out
        assert code == 0
        assert "april monitor:" in out
        assert "(april) step 3" in out
        assert out.count("(april)") == 4
        assert "  main" in out

    def test_shipped_fixture_is_deterministic(self, capsys):
        """The committed CI fixture: two in-process runs, byte-equal
        transcripts (the same check CI does across processes)."""
        argv = ["monitor", "examples/fib.mult", "--args", "6",
                "--script", "examples/monitor_fib.script"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "program finished: result 8" in first


    def test_takes_the_machine_options_but_no_observation_ones(self):
        parser = cli.build_parser()
        args = parser.parse_args([
            "monitor", "x.mult", "-p", "4", "--mode", "lazy", "--encore",
            "--coherent", "--args", "1", "2", "--script", "s"])
        assert (args.program, args.processors, args.mode, args.encore,
                args.coherent, args.args, args.script) == (
            "x.mult", 4, "lazy", True, True, [1, 2], "s")
        for flag in ("--events", "--txn", "--window", "--top"):
            with pytest.raises(SystemExit):
                parser.parse_args(["monitor", "x.mult", flag, "1"])


class TestUsageErrors:
    """What the command line got wrong is one ``error:`` line and exit
    2 — a usage error, never a traceback."""

    @pytest.mark.parametrize("argv,complaint", [
        (["run", "{missing}"], "No such file"),
        (["run", "{fib}", "-p", "0"], "at least one processor"),
        (["run", "{fib}", "--timeline", "--window", "-5"], "--window"),
        (["asm", "{fib}"], "unknown mnemonic"),
        (["speedup", "--programs", "nope"], "unknown program 'nope'"),
        (["serve", "--no-cache", "--tcp", "nohost"], "--tcp wants HOST:PORT"),
        (["loadgen", "--tcp", "localhost:http"], "--tcp wants HOST:PORT"),
        (["top", "--once", "--tcp", "7010:"], "--tcp wants HOST:PORT"),
    ], ids=["missing-file", "no-processors", "negative-window",
            "asm-of-mult", "unknown-workload", "serve-tcp", "loadgen-tcp",
            "top-tcp"])
    def test_one_error_line_exit_2(self, argv, complaint, fib_program,
                                   tmp_path, capsys):
        argv = [arg.format(fib=fib_program, missing=tmp_path / "nope.mult")
                for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse rejects --window itself
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and complaint in errors[0]
        assert "Traceback" not in captured.err

    def test_sweep_with_an_unknown_knob(self, tmp_path, capsys):
        """A spec whose cells cannot build exits 2 before any runs."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "grid": {"programs": ["fib"], "args": {"fib": [5]}},
            "config": {"bogus_knob": 1}}))
        assert main(["sweep", str(spec), "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "bogus_knob" in captured.err
        assert "Traceback" not in captured.err
        assert "sweep:" not in captured.err     # no cell ran

    def test_asm_of_a_bare_directive(self, tmp_path, capsys):
        source = tmp_path / "bare.s"
        source.write_text("    .space\n")
        assert main(["asm", str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: line 1: expected 1 operands, got 0"]
