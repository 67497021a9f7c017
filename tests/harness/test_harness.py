"""Harness tests: Table 3 rows on tiny instances and at the paper's
size, the Figure 5 report, the sweep-engine wiring, and the CLI."""

import json
import pathlib

import pytest

from repro.harness.figure5 import headline_numbers, render_report
from repro.harness.table3 import (
    Table3Row, render_table3, row_jobs, rows_from_sweep, run_table3,
)
from repro import workloads

TINY = dict(cpus_by_system={"APRIL": (1, 2)}, args_by_program={"fib": (7,)})

RESULTS = pathlib.Path(__file__).parents[2] / "results"


def table3_row(program, system, cpus, args):
    """One Table 3 row through ``run_table3``; no cell may fail."""
    result = run_table3(program_names=[program], systems=(system,),
                        cpus_by_system={system: cpus},
                        args_by_program={program: args})
    assert result.failures == []
    (row,) = result.rows
    return row


class TestTable3Harness:
    def test_april_row_tiny_fib(self):
        row = table3_row("fib", "APRIL", cpus=(1, 2), args=(7,))
        assert row.t_seq == 1.0
        assert row.mult_seq == pytest.approx(1.0, abs=0.01)
        assert row.parallel[1] > 1.0       # eager overhead
        assert row.parallel[2] < row.parallel[1]

    def test_encore_row_has_check_overhead(self):
        row = table3_row("fib", "Encore", cpus=(1,), args=(7,))
        assert row.mult_seq > 1.3          # software future detection

    def test_lazy_row_is_cheap(self):
        row = table3_row("fib", "Apr-lazy", cpus=(1,), args=(8,))
        assert row.parallel[1] < 2.0

    def test_result_checked(self):
        # Every configuration must return the sequential baseline's
        # value; a mismatch is a failed cell, never a reported number.
        row = table3_row("factor", "APRIL", cpus=(1,), args=(2, 9))
        assert row.program == "factor"

    def test_render(self):
        row = Table3Row("fib", "APRIL", 1.0, 1.0, {1: 13.0, 2: 6.5})
        text = render_table3([row])
        assert "fib" in text and "13.00" in text
        assert "Mul-T seq" in text

    def test_as_dict(self):
        row = Table3Row("fib", "APRIL", 1.0, 1.0, {1: 13.0})
        data = row.as_dict()
        assert data["T seq"] == 1.0 and data["1"] == 13.0

    def test_fib_rows_match_paper_and_golden(self):
        """Table 3's fib rows at the table's size (Section 7).

        fib is the finest grain of the four programs, so its rows carry
        the paper's three fib claims: software future detection costs
        the Encore about 2x with no future created ("Mul-T seq"), eager
        futures cost about 14x on APRIL and about twice that on the
        Encore, and lazy task creation cuts the overhead to about 1.5x.
        ``april table3`` prints the whole table; CI compares it with
        ``results/table3.txt`` byte for byte.
        """
        rows = {row.system: row for row in run_table3(program_names=["fib"])}
        encore, april, lazy = rows["Encore"], rows["APRIL"], rows["Apr-lazy"]
        for row in rows.values():
            assert row.t_seq == 1.0
            assert row.mult_seq >= 0.99
            times = [row.parallel[n] for n in sorted(row.parallel)]
            assert times == sorted(times, reverse=True), row.system
        assert 1.3 < encore.mult_seq < 2.5
        assert april.mult_seq == 1.0           # tag hardware: no checks
        assert 10 < april.parallel[1] < 18
        assert 1.5 < encore.parallel[1] / april.parallel[1] < 2.5
        assert lazy.parallel[1] < 2.0
        golden = (RESULTS / "table3.txt").read_text().splitlines()
        assert render_table3(rows.values()).splitlines() == golden[:5]


class _FakeOutcome:
    """Just enough of a JobResult/JobFailed for rows_from_sweep."""

    def __init__(self, key, value=None, cycles=None, ok=True, kind="crash",
                 message="boom"):
        from repro.machine.config import MachineConfig

        class _J:
            config = MachineConfig()
            label = "/".join(str(part) for part in key)
        _J.key = key
        self.key = key
        self.value = value
        self.cycles = cycles
        self.ok = ok
        self.kind = kind
        self.message = message
        self.context = {}
        self.job = _J()
        self.hash = "0" * 64
        self.attempts = 1


class TestTable3Engine:
    def test_run_table3_through_engine(self):
        result = run_table3(program_names=["fib"], systems=("APRIL",),
                            **TINY)
        (row,) = result.rows
        assert row.parallel[2] < row.parallel[1]
        summary = result.summary()
        assert summary["jobs"] == 4 and summary["failed"] == 0
        # seq_plain and mult_seq are the same run on APRIL: deduped.
        assert summary["deduped"] == 1

    def test_pool_matches_serial(self):
        serial = render_table3(run_table3(
            program_names=["fib"], systems=("APRIL",), **TINY))
        pooled = render_table3(run_table3(
            program_names=["fib"], systems=("APRIL",), pool_size=2, **TINY))
        assert serial == pooled

    def test_cache_resume(self, tmp_path):
        from repro.exp.cache import ResultCache
        cache = ResultCache(str(tmp_path))
        first = run_table3(program_names=["fib"], systems=("APRIL",),
                           cache=cache, **TINY)
        second = run_table3(program_names=["fib"], systems=("APRIL",),
                            cache=cache, **TINY)
        assert second.summary()["executed"] == 0
        assert second.summary()["cache_hits"] == second.summary()["jobs"]
        assert render_table3(first) == render_table3(second)

    def test_check_failure_becomes_failed_cell(self):
        outcomes = [
            _FakeOutcome(("table3", "fib", "APRIL", "seq_plain", 1),
                         value=13, cycles=100),
            _FakeOutcome(("table3", "fib", "APRIL", "mult_seq", 1),
                         value=13, cycles=100),
            _FakeOutcome(("table3", "fib", "APRIL", "parallel", 2),
                         value=999, cycles=50),
        ]
        rows, failures = rows_from_sweep(outcomes)
        (row,) = rows
        assert row.parallel == {}            # bad cell left blank
        (failure,) = failures
        assert failure.kind == "WorkloadCheckError"
        assert failure.context["actual"] == "999"
        assert "fib" in failure.message

    def test_crashed_cell_leaves_blank(self):
        outcomes = [
            _FakeOutcome(("table3", "fib", "APRIL", "seq_plain", 1),
                         value=13, cycles=100),
            _FakeOutcome(("table3", "fib", "APRIL", "mult_seq", 1),
                         value=13, cycles=110),
            _FakeOutcome(("table3", "fib", "APRIL", "parallel", 1),
                         value=13, cycles=500),
            _FakeOutcome(("table3", "fib", "APRIL", "parallel", 2),
                         ok=False, kind="timeout", message="too slow"),
        ]
        rows, failures = rows_from_sweep(outcomes)
        (row,) = rows
        assert row.parallel == {1: 5.0}
        assert failures[0].kind == "timeout"
        text = render_table3(rows)
        assert "5.00" in text

    def test_row_jobs_layout(self):
        jobs = row_jobs(workloads.get("fib"), "Encore")
        variants = [job.key[-2] for job in jobs]
        assert variants == ["seq_plain", "mult_seq"] + ["parallel"] * 4
        assert all(job.key[-3] == "Encore" for job in jobs)
        # Encore rows compile software checks into the checked variants.
        assert jobs[0].software_checks is False
        assert jobs[1].software_checks is True


class TestFigure5Harness:
    def test_report_sections(self):
        text = render_report(max_threads=4)
        assert "Table 4" in text
        assert "Figure 5" in text
        assert "U=" in text

    def test_headline_numbers(self):
        numbers = headline_numbers()
        assert numbers["base_round_trip"] == 55
        assert 0.75 < numbers["U(3)"] < 0.85
        assert numbers["plateau_at"] <= 4

    def test_headline_numbers_golden(self):
        """Pin the Section 8 claims to exact model output.

        The paper's prose: single-threaded utilization is poor at a
        55-cycle round trip, "close to 80%" utilization with three
        resident threads, and the curve plateaus there (network
        bandwidth caps further gains).  A drift in any model term
        moves these values and must be a deliberate change.
        """
        numbers = headline_numbers()
        assert numbers["base_round_trip"] == 55
        assert numbers["U(1)"] == pytest.approx(0.4296365058727859,
                                                rel=1e-9)
        assert numbers["U(3)"] == pytest.approx(0.8086551370133459,
                                                rel=1e-9)
        assert numbers["U(8)"] == pytest.approx(0.7529134958273591,
                                                rel=1e-9)
        assert numbers["U_max"] == numbers["U(3)"]    # the plateau peak
        assert numbers["plateau_at"] == 3

    def test_report_golden(self):
        """``april figure5`` prints exactly ``results/figure5.txt``."""
        golden = (RESULTS / "figure5.txt").read_text()
        assert render_report() + "\n" == golden


class TestCLI:
    def test_run_command(self, tmp_path, capsys):
        from repro.cli import main
        program = tmp_path / "prog.mult"
        program.write_text(
            "(define (main a) (* a a))")
        code = main(["run", str(program), "--mode", "sequential",
                     "--args", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: 36" in out
        assert "cycles:" in out

    def test_run_lazy_multiprocessor(self, tmp_path, capsys):
        from repro.cli import main
        program = tmp_path / "prog.mult"
        program.write_text("""
        (define (fib n)
          (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
        (define (main n) (fib n))
        """)
        code = main(["run", str(program), "-p", "2", "--mode", "lazy",
                     "--args", "8"])
        assert code == 0
        assert "result: 21" in capsys.readouterr().out

    def test_asm_command(self, tmp_path, capsys):
        from repro.cli import main
        source = tmp_path / "prog.s"
        source.write_text("start:\n    add r1, r2, r3\n    halt\n")
        assert main(["asm", str(source)]) == 0
        out = capsys.readouterr().out
        assert "add r1, r2, r3" in out and "start:" in out

    def test_figure5_command(self, capsys):
        from repro.cli import main
        assert main(["figure5"]) == 0
        assert "Table 4" in capsys.readouterr().out


class TestSpeedupHarness:
    def test_curve_matches_table3_cells(self):
        from repro.harness.speedup import render_speedup, run_speedup
        curves, sweep = run_speedup(program_names=["fib"],
                                    system="Apr-lazy", cpus=(1, 2),
                                    args_by_program={"fib": (7,)})
        (curve,) = curves
        assert curve.seq_cycles > 0
        assert curve.speedups[2] > curve.speedups[1]
        assert sweep.summary()["failed"] == 0
        text = render_speedup(curves)
        assert "fib" in text and "x" in text
        data = curve.as_dict()
        assert data["speedup"]["2"] == round(curve.speedups[2], 4)

    def test_cells_carry_dominant_blocker(self):
        from repro.harness.speedup import render_speedup, run_speedup
        curves, _ = run_speedup(program_names=["fib"], system="Apr-lazy",
                                cpus=(2,), args_by_program={"fib": (7,)},
                                force=True)
        (curve,) = curves
        summary = curve.critpath[2]
        assert summary["conservation_exact"]
        assert 0 < summary["length"] <= curve.cycles[2]
        assert curve.dominant_blockers()[2] == summary["why"][0]
        assert summary["why"][0]["cause"] in (
            "blocked-on-future", "critical-chain-compute")
        text = render_speedup(curves)
        assert "dominant critical-path blocker" in text
        assert curve.as_dict()["critical_path"]["2"] == summary

    def test_shares_cache_with_table3(self, tmp_path):
        from repro.exp.cache import ResultCache
        from repro.harness.speedup import run_speedup
        cache = ResultCache(str(tmp_path))
        run_table3(program_names=["fib"], systems=("Apr-lazy",),
                   cpus_by_system={"Apr-lazy": (1, 2)},
                   args_by_program={"fib": (7,)}, cache=cache)
        _, sweep = run_speedup(program_names=["fib"], system="Apr-lazy",
                               cpus=(1, 2), args_by_program={"fib": (7,)},
                               cache=cache)
        assert sweep.summary()["executed"] == 0    # all cells shared


class TestSweepCLI:
    def _spec(self, tmp_path, cpus=(1, 2)):
        spec = {
            "name": "clismoke",
            "grid": {"programs": ["fib"], "systems": ["APRIL"],
                     "cpus": list(cpus), "args": {"fib": [7]}},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_sweep_command_and_resume(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = self._spec(tmp_path)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["sweep", spec, "--jobs", "2",
                     "--out", str(out1)]) == 0
        assert main(["sweep", spec, "--out", str(out2)]) == 0
        first = json.loads(out1.read_text())
        second = json.loads(out2.read_text())
        assert first["cells"] == second["cells"]
        assert second["summary"]["cache_hits"] == 2
        assert second["summary"]["executed"] == 0
        assert "cache_hits=2" in capsys.readouterr().err

    def test_sweep_bad_spec_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["sweep", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_table3_filters_single_cell(self, tmp_path, monkeypatch,
                                        capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(
            "repro.harness.table3.APRIL_CPUS", (1, 2))
        monkeypatch.setattr(
            "repro.workloads.fib.args", lambda n=7: (7,))
        assert main(["table3", "--programs", "fib",
                     "--systems", "APRIL"]) == 0
        captured = capsys.readouterr()
        assert "fib" in captured.out
        assert "Encore" not in captured.out
        assert "sweep:" in captured.err

    def test_table3_comma_separated_filters(self, capsys):
        from repro.cli import main
        assert main(["table3", "--programs", "fib,nope"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_table3_unknown_system(self, capsys):
        from repro.cli import main
        assert main(["table3", "--systems", "VAX"]) == 2
        assert "unknown system" in capsys.readouterr().err
