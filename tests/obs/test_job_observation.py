"""What the per-job observation costs, counted rather than timed.

A sweep worker attaches :func:`repro.obs.session.for_job`'s observation
to every multiprocessor cell.  Its lifetime accountant subscribes to
nothing: the run-time system and the scheduler call it directly, once
per scheduling event, and nothing keeps an event log.  So over a fixed
grid of cells no site calls ``EventBus.emit`` or builds an ``Event``,
and the calls into the accountant and the settles that move a counter
are exact, host-independent figures: a log subscribed again, a site
gated on "anybody subscribed" rather than on its kind, or per-event
work added back to the accountant moves one of them.
"""

import collections

import pytest

from repro import workloads
from repro.exp.job import canonical_json
from repro.harness.table3 import SYSTEMS, cell_job
from repro.lang import compiler
from repro.lru import LRU
from repro.machine import alewife
from repro.obs import events as events_module
from repro.obs import session
from repro.obs.events import EventBus
from repro.obs.lifetime import LifetimeAccountant
from tests.exp.test_determinism import JOBS

#: The accountant's entry points: the scheduling calls and ``settle``.
ENTRY_POINTS = ("spawn", "load", "unload", "retire", "wake", "steal",
                "credit", "settle")

#: Over :func:`_grid`: the calls into the accountant, by entry point
#: (one per scheduling event of the six thread kinds, whose events
#: number 1 449), and its settles that moved a counter (``"moves"``).
PINNED_WORK = {"spawn": 310, "load": 469, "unload": 159, "retire": 310,
               "wake": 159, "steal": 42, "credit": 15, "settle": 20,
               "moves": 536}


def _grid():
    """fib(8) on every system at 2 and 4 CPUs, plus a coherent fib(6)
    cell (whose observation traces transactions too)."""
    fib = workloads.get("fib")
    jobs = [cell_job(fib, system, "parallel", processors, args=fib.args(8))
            for system in SYSTEMS for processors in (2, 4)]
    jobs.append(cell_job(fib, "APRIL", "parallel", 2, args=fib.args(6),
                         config_overrides={"memory_mode": "coherent"},
                         key_prefix=("coherent",)))
    return jobs


@pytest.fixture
def counted(monkeypatch):
    """``(emits, built)``: Counters by kind of every ``EventBus.emit``
    call and every ``Event`` constructed while the fixture is live."""
    emits, built = collections.Counter(), collections.Counter()
    real_emit = EventBus.emit

    def emit(bus, kind, *args, **data):
        emits[kind] += 1
        return real_emit(bus, kind, *args, **data)

    class CountedEvent(events_module.Event):
        __slots__ = ()

        def __init__(self, kind, *rest):
            built[kind] += 1
            super().__init__(kind, *rest)

    monkeypatch.setattr(EventBus, "emit", emit)
    monkeypatch.setattr(events_module, "Event", CountedEvent)
    # A compile cache of its own, so the process-wide one's hit and miss
    # counts stay what the compile-cache tests expect.
    monkeypatch.setattr(compiler, "COMPILE_CACHE", LRU(64))
    return emits, built


def test_job_observation_emits_only_the_accountants_kinds(counted):
    emits, built = counted
    for job in _grid():
        payload = alewife.execute_payload(job.payload())
        assert "critpath" in payload
        assert "events" not in payload["report"]
    assert sum(emits.values()) == 0
    assert sum(built.values()) == 0


@pytest.fixture
def accountant_work(monkeypatch):
    """A Counter of the calls into every accountant the observations
    build while the fixture is live, by entry point, and of the settles
    that moved a counter (``"moves"``)."""
    work = collections.Counter()

    def counting(name, real):
        def entry(self, *args):
            work[name] += 1
            return real(self, *args)
        return entry

    class Counting(LifetimeAccountant):
        _settle = counting("moves", LifetimeAccountant._settle)

    for name in ENTRY_POINTS:
        setattr(Counting, name,
                counting(name, getattr(LifetimeAccountant, name)))
    monkeypatch.setattr(session, "LifetimeAccountant", Counting)
    monkeypatch.setattr(compiler, "COMPILE_CACHE", LRU(64))
    return work


def test_accountant_work_is_one_call_per_scheduling_event(accountant_work):
    for job in _grid():
        assert "critpath" in alewife.execute_payload(job.payload())
    assert dict(accountant_work) == PINNED_WORK


PARALLEL = [job for job in JOBS if job.config.num_processors > 1]


@pytest.mark.parametrize("job", PARALLEL, ids=lambda job: "-".join(
    str(part) for part in job.key))
def test_accounting_does_not_depend_on_what_else_is_attached(job,
                                                             monkeypatch):
    """``explain()`` and the critical-path summary are the same with the
    accountant alone and with an event log subscribed beside it."""
    exports = []
    for events in (False, True):
        built = []

        def for_job(config, events=events):
            observation = session.Observation(
                events=events, capacity=None, window=0, threads=True,
                txn=config.memory_mode == "coherent")
            built.append(observation)
            return observation

        monkeypatch.setattr(session, "for_job", for_job)
        alewife.execute_payload(job.payload())
        observation, = built
        if events:
            assert observation.bus.counts()["thread_load"] > 0
        exports.append((canonical_json(observation.explain()),
                        canonical_json(observation.critpath_summary())))
    assert exports[0] == exports[1]
