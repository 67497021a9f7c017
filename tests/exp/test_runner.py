"""The sweep runner: pool/serial parity, caching, dedupe, typed
failures, timeout + bounded retry."""

import os
import time

import pytest

from repro.exp.cache import ResultCache
from repro.exp.job import CallJob, Job
from repro.exp.runner import JobFailed, JobResult, run_jobs
from repro.machine.config import MachineConfig
from repro import workloads
from tests.exp.test_cache import CountingLoads

FIB = workloads.get("fib").source()


def fib_job(processors=1, n=7, **overrides):
    kwargs = dict(
        key=("t", "fib", processors), source=FIB,
        config=MachineConfig(num_processors=processors), args=(n,))
    kwargs.update(overrides)
    return Job(**kwargs)


# Module-level call targets: the serial path resolves them through
# ``importlib`` just like a worker would.
def add(a, b):
    return a + b


def boom():
    raise ValueError("deliberate")


def sleep_once_then_add(marker, a, b):
    """Times out on the first attempt, succeeds on the retry."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted\n")
        time.sleep(5)
    return a + b


def call_job(func, key=("call",), **kwargs):
    return CallJob(key, __name__, func, kwargs=kwargs)


class TestSerialRunner:
    def test_results_in_submission_order(self):
        jobs = [fib_job(1), fib_job(2)]
        sweep = run_jobs(jobs)
        assert [o.key for o in sweep] == [j.key for j in jobs]
        assert all(isinstance(o, JobResult) and o.ok for o in sweep)
        assert sweep.outcomes[0].value == 13
        assert sweep.outcomes[0].cycles > sweep.outcomes[1].cycles

    def test_report_captured(self):
        (outcome,) = run_jobs([fib_job(2)])
        report = outcome.report
        assert report["config"]["num_processors"] == 2
        assert report["stats"]["instructions"] > 0
        assert "scheduler" in report["components"]

    def test_call_jobs(self):
        (outcome,) = run_jobs([call_job("add", a=2, b=3)])
        assert outcome.ok and outcome.value == 5

    def test_failure_is_typed_not_raised(self):
        sweep = run_jobs([call_job("boom"), call_job("add", a=1, b=1)])
        failed, ok = sweep.outcomes
        assert isinstance(failed, JobFailed)
        assert failed.kind == "exception"
        assert "deliberate" in failed.message
        assert ok.value == 2
        assert sweep.summary()["failed"] == 1

    def test_expect_mismatch_is_workload_check_error(self):
        (outcome,) = run_jobs([fib_job(expect=999)])
        assert isinstance(outcome, JobFailed)
        assert outcome.kind == "WorkloadCheckError"
        assert outcome.context["expected"] == "999"
        assert outcome.context["actual"] == "13"
        assert outcome.context["config"]["num_processors"] == 1

    def test_simulation_error_is_typed(self):
        (outcome,) = run_jobs([fib_job(max_cycles=50)])
        assert isinstance(outcome, JobFailed)
        assert outcome.kind == "SimulationError"


class TestCacheAndDedupe:
    def test_cache_roundtrip_and_hit_counter(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = run_jobs([fib_job()], cache=cache)
        assert first.summary() == {
            "jobs": 1, "executed": 1, "cache_hits": 0, "deduped": 0,
            "retries": 0, "failed": 0}
        second = run_jobs([fib_job()], cache=cache)
        assert second.summary()["cache_hits"] == 1
        assert second.summary()["executed"] == 0
        assert second.outcomes[0].cached
        assert second.outcomes[0].value == first.outcomes[0].value
        assert second.outcomes[0].cycles == first.outcomes[0].cycles

    def test_force_reexecutes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs([fib_job()], cache=cache)
        forced = run_jobs([fib_job()], cache=cache, force=True)
        assert forced.summary()["executed"] == 1
        assert forced.summary()["cache_hits"] == 0

    def test_a_cache_that_cannot_be_written_keeps_the_result(self,
                                                             tmp_path):
        # The cache root is a file: the write fails (as on a read-only
        # or full directory), the sweep still has the job's value.
        root = tmp_path / "cache"
        root.write_text("")
        cache = ResultCache(str(root))
        sweep = run_jobs([fib_job()], cache=cache)
        assert sweep.summary()["executed"] == 1
        assert sweep.outcomes[0].ok and sweep.outcomes[0].value == 13
        assert cache.counters()["write_errors"] == 1

    def test_failures_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs([fib_job(expect=999)], cache=cache)
        again = run_jobs([fib_job(expect=999)], cache=cache)
        assert again.summary()["executed"] == 1     # no stale failure hit

    def test_identical_cells_execute_once(self):
        sweep = run_jobs([fib_job(key=("a",)), fib_job(key=("b",))])
        summary = sweep.summary()
        assert summary == {
            "jobs": 2, "executed": 1, "cache_hits": 0, "deduped": 1,
            "retries": 0, "failed": 0}
        a, b = sweep.outcomes
        assert a.cycles == b.cycles and a.key != b.key

    def test_compile_counters_on_the_trailer_only(self):
        from repro.harness.reporting import sweep_summary_line
        from repro.lang.compiler import COMPILE_CACHE
        COMPILE_CACHE.clear()
        jobs = [fib_job(processors=p, key=("t", p)) for p in (1, 2, 4)]
        sweep = run_jobs(jobs)
        # One program: compiled once, reused by the other two hashes
        # and by all three executions.
        assert sweep.compile_cache == {"hits": 5, "misses": 1, "size": 1}
        assert "compile_cache" not in sweep.summary()
        line = sweep_summary_line(sweep.timing_summary())
        assert "compile_hits=5 compile_misses=1 compile_size=1" in line

    def test_uncacheable_jobs_bypass_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs([call_job("add", a=1, b=2)], cache=cache)
        again = run_jobs([call_job("add", a=1, b=2)], cache=cache)
        assert again.summary()["executed"] == 1
        assert cache.counters()["writes"] == 0


class TestWarmPass:
    """A warm ``run_table3`` over the fib rows, structurally: one cache
    read per distinct content hash, each decoding its head and not its
    payload line, and one program encode per compiled program and
    entry."""

    def test_fib_rows_read_each_hash_once_and_encode_each_program_once(
            self, tmp_path, monkeypatch):
        from repro.exp import job as job_module
        from repro.harness.table3 import run_table3
        from repro.lang.compiler import COMPILE_CACHE

        built = []
        encode = job_module._encode_program
        monkeypatch.setattr(job_module, "_encode_program",
                            lambda *a: built.append(a) or encode(*a))
        COMPILE_CACHE.clear()
        root = str(tmp_path)
        cold = run_table3(program_names=["fib"], pool_size=1,
                          cache=ResultCache(root))
        assert cold.sweep.summary()["executed"] == 17
        assert len(built) == 5          # five distinct fib programs

        del built[:]
        cache = ResultCache(root)
        loads = CountingLoads(monkeypatch)
        warm = run_table3(program_names=["fib"], pool_size=1, cache=cache)
        assert warm.sweep.summary() == {
            "jobs": 20, "executed": 0, "cache_hits": 20, "deduped": 0,
            "retries": 0, "failed": 0}
        assert cache.counters() == {"hits": 17, "misses": 0, "writes": 0,
                                    "dropped": 0, "write_errors": 0}
        assert built == []
        # 17 heads read, no payload line decoded: the table reads
        # status, cycles and value only.
        assert (loads.heads, loads.payloads) == (17, 0)
        # Cells with one hash share the one payload read for it.
        by_hash = {}
        for outcome in warm.sweep:
            assert by_hash.setdefault(outcome.hash,
                                      outcome.payload) is outcome.payload
        assert len(by_hash) == 17
        assert ([row.as_dict() for row in warm.rows]
                == [row.as_dict() for row in cold.rows])
        assert (loads.heads, loads.payloads) == (17, 0)
        # Read past its head, an entry decodes once for every cell that
        # shares it, and equals what the cold pass executed.
        cold_by_hash = {outcome.hash: outcome.payload
                        for outcome in cold.sweep}
        for content_hash, payload in by_hash.items():
            assert payload == cold_by_hash[content_hash]
        assert (loads.heads, loads.payloads) == (17, 17)


class TestPoolParity:
    def test_pool_matches_serial(self, tmp_path):
        jobs = [fib_job(n) for n in (1, 2, 4)]
        serial = run_jobs(jobs)
        pooled = run_jobs([fib_job(n) for n in (1, 2, 4)], pool_size=3)
        assert ([(o.key, o.value, o.cycles) for o in serial]
                == [(o.key, o.value, o.cycles) for o in pooled])

    def test_pool_fills_cache_for_serial(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs([fib_job(1), fib_job(2)], pool_size=2, cache=cache)
        resumed = run_jobs([fib_job(1), fib_job(2)], cache=cache)
        assert resumed.summary()["cache_hits"] == 2

    def test_pool_failure_stays_typed(self):
        sweep = run_jobs([fib_job(expect=999), fib_job(2)], pool_size=2)
        failed = [o for o in sweep if not o.ok]
        assert len(failed) == 1
        assert failed[0].kind == "WorkloadCheckError"


@pytest.mark.skipif(not hasattr(__import__("signal"), "SIGALRM"),
                    reason="needs SIGALRM")
class TestTimeoutAndRetry:
    def test_timeout_becomes_failed_cell(self, tmp_path):
        marker = str(tmp_path / "marker")
        job = call_job("sleep_once_then_add", marker=marker, a=1, b=1)
        sweep = run_jobs([job], timeout_s=1, retries=0)
        (outcome,) = sweep.outcomes
        assert isinstance(outcome, JobFailed)
        assert outcome.kind == "timeout"

    def test_bounded_retry_recovers(self, tmp_path):
        marker = str(tmp_path / "marker")
        job = call_job("sleep_once_then_add", marker=marker, a=1, b=1)
        sweep = run_jobs([job], timeout_s=1, retries=1)
        (outcome,) = sweep.outcomes
        assert outcome.ok and outcome.value == 2
        assert outcome.attempts == 2
        assert sweep.summary()["retries"] == 1


class TestResumeAfterInterrupt:
    def test_partial_cache_runs_only_missing_cells(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        grid = lambda: [fib_job(n) for n in (1, 2, 4)]     # noqa: E731
        run_jobs(grid()[:2], cache=cache)                  # "interrupted"
        resumed = run_jobs(grid(), cache=cache)
        summary = resumed.summary()
        assert summary["cache_hits"] == 2
        assert summary["executed"] == 1
        assert all(o.ok for o in resumed)
