"""What the per-job observation costs, counted rather than timed.

A sweep worker attaches :func:`repro.obs.session.for_job`'s observation
to every multiprocessor cell; its lifetime accountant subscribes to six
thread kinds and nothing keeps an event log.  Every other site tests
its own kind and builds nothing, so over a fixed grid of cells the
number of ``EventBus.emit`` calls and of ``Event`` objects built is an
exact, host-independent figure: a log subscribed again, or a site gated
on "anybody subscribed" rather than on its kind, moves it.
"""

import collections

import pytest

from repro import workloads
from repro.harness.table3 import SYSTEMS, cell_job
from repro.lang import compiler
from repro.lru import LRU
from repro.machine import alewife
from repro.obs import events as events_module
from repro.obs.events import EventBus, EventKind

#: The accountant's kinds (``LifetimeAccountant.subscribe``).
THREAD_KINDS = {EventKind.THREAD_SPAWN, EventKind.THREAD_LOAD,
                EventKind.THREAD_UNLOAD, EventKind.THREAD_EXIT,
                EventKind.THREAD_WAKE, EventKind.THREAD_STEAL}

#: ``emit`` calls (= ``Event`` objects built) over :func:`_grid`.
PINNED_EMITS = 1449


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
    assert set(emits) == THREAD_KINDS
    assert built == emits
    assert sum(emits.values()) == PINNED_EMITS
