"""The determinism gate: what a content-addressed cell stores does not
depend on how the host ran it.

A cell's payload is cached under a hash of its *inputs*, so everything
in it that anything may key on must be a function of those inputs —
not of the interpreter tier, the machine schedule, or the process or
thread that ran it.  One block is exempt by declaration:
``report.components.translation`` describes the host run (JIT compiles
and runs, cache sizes; see :func:`repro.obs.report.component_counters`)
and is removed before comparing.
"""

import concurrent.futures as futures
import copy

import pytest

from repro import workloads
from repro.exp import runner
from repro.exp.job import canonical_json
from repro.exp.runner import run_jobs
from repro.harness.table3 import SYSTEMS, cell_job
from repro.machine import alewife
from tests.core.test_lockstep import _step_to_completion

SIZES = {"fib": (8,), "queens": (4,)}


def _cells():
    jobs = []
    for name in sorted(SIZES):
        module = workloads.get(name)
        args = module.args(*SIZES[name])
        for system in SYSTEMS:
            for processors in (1, 2, 4):
                jobs.append(cell_job(module, system, "parallel", processors,
                                     args=args))
    fib = workloads.get("fib")
    for system, processors in (("APRIL", 2), ("Apr-lazy", 4)):
        jobs.append(cell_job(
            fib, system, "parallel", processors, args=fib.args(8),
            config_overrides={"memory_mode": "coherent"},
            key_prefix=("coherent",)))
    return jobs


JOBS = _cells()


def _stored(payload):
    """The canonical bytes of a payload, host-run diagnostics removed."""
    payload = copy.deepcopy(payload)
    if "report" in payload:
        del payload["report"]["components"]["translation"]
    return canonical_json(payload)


@pytest.fixture
def loops(monkeypatch):
    """``loop_used`` of every machine ``execute_payload`` runs."""
    used = []
    real = alewife.AlewifeMachine.run

    def recording(machine, *args, **kwargs):
        try:
            return real(machine, *args, **kwargs)
        finally:
            used.append(machine.loop_used)

    monkeypatch.setattr(alewife.AlewifeMachine, "run", recording)
    return used


@pytest.mark.parametrize("job", JOBS, ids=lambda job: "-".join(
    str(part) for part in job.key))
def test_payload_independent_of_tier_and_schedule(job, loops, monkeypatch):
    stored = _stored(alewife.execute_payload(job.payload()))
    assert loops == ["fast"]            # observers and all: every cell
    for knob, loop in (("fastpath", "reference"), ("jit", "fast")):
        payload = job.payload()
        payload[knob] = False
        assert _stored(alewife.execute_payload(payload)) == stored, knob
        assert loops[-1] == loop

    # ... and under a caller-driven stepper in place of ``run()``.
    monkeypatch.setattr(alewife.AlewifeMachine, "run", _step_to_completion)
    assert _stored(alewife.execute_payload(job.payload())) == stored


def test_translation_block_is_the_only_host_dependent_part():
    """Why the block is exempt: it differs between tiers on a cell
    whose every other byte is equal (and nothing reads it back)."""
    job = JOBS[1]
    assert job.config.num_processors == 2
    fast = alewife.execute_payload(job.payload())
    slow = alewife.execute_payload(dict(job.payload(), fastpath=False))
    translation = fast["report"]["components"]["translation"]
    assert translation != slow["report"]["components"]["translation"]
    assert sum(cpu["jit"]["runs"] for cpu in translation) > 0
    assert _stored(fast) == _stored(slow)


def test_thread_and_process_dispatch_agree_byte_for_byte():
    inline = run_jobs(JOBS, pool_size=1)
    pooled = run_jobs(JOBS, pool_size=2)
    with futures.ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(runner.execute_payload,
                                 [job.payload() for job in JOBS]))
    assert all(outcome.ok for outcome in inline)
    expected = [_stored(outcome.payload) for outcome in inline]
    assert [_stored(outcome.payload) for outcome in pooled] == expected
    assert [_stored(payload) for payload in threaded] == expected
