"""LazyQueue unit behavior: steal discipline and counter snapshots."""

import pytest

from repro import workloads
from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.runtime.lazy import LazyMarker, LazyQueue


class FakeThread:
    def __init__(self):
        self.lazy_markers = []


def push_marker(queue, thread, sp=0x1000):
    marker = LazyMarker(thread, sp, resume_pc=0x2000, node=queue.node)
    thread.lazy_markers.append(marker)
    queue.push(marker)
    return marker


class TestCounters:
    def test_initial_snapshot_is_zero(self):
        queue = LazyQueue(0)
        assert queue.counters() == {"pushes": 0, "steals": 0, "discards": 0,
                                    "peak_depth": 0, "live": 0}

    def test_push_steal_discard_accounting(self):
        queue = LazyQueue(0)
        thread = FakeThread()
        first = push_marker(queue, thread)
        second = push_marker(queue, thread, sp=0x1100)
        assert queue.counters()["pushes"] == 2
        assert queue.counters()["peak_depth"] == 2
        assert len(queue) == 2

        stolen = queue.steal()
        assert stolen is first            # oldest-first
        queue.discard(second)
        counters = queue.counters()
        assert counters["steals"] == 1
        assert counters["discards"] == 1
        assert counters["live"] == 0
        # Peak depth is sticky: it remembers the high-water mark.
        assert counters["peak_depth"] == 2

    def test_steal_skips_dead_markers_without_counting(self):
        queue = LazyQueue(0)
        thread = FakeThread()
        first = push_marker(queue, thread)
        second = push_marker(queue, thread, sp=0x1100)
        first.active = False              # invalidated in place
        stolen = queue.steal()
        assert stolen is second
        assert queue.counters()["steals"] == 1
        assert queue.steal() is None
        assert queue.counters()["steals"] == 1


def _scan(queue):
    """What ``len(queue)`` was before the running count: the queued
    markers still active and unstolen."""
    return sum(1 for m in queue._markers if m.active and not m.stolen)


class TestLiveCountIsTheScan:
    """``live`` moves by one at each push, discard and steal.  Over
    whole eager and lazy runs it must equal the scan of the deque after
    every one of them, and ``peak_depth`` the scan's high-water mark."""

    @pytest.mark.parametrize("mode, program, n", [
        ("eager", "fib", 8),
        ("lazy", "fib", 9),
        ("lazy", "queens", 4),
    ])
    def test_running_count_equals_the_scan(self, monkeypatch, mode, program,
                                           n):
        peaks = {}
        operations = []

        def checked(method):
            def run(queue, *args):
                result = method(queue, *args)
                depth = _scan(queue)
                assert queue.live == len(queue) == depth
                peaks[queue.node] = max(peaks.get(queue.node, 0), depth)
                operations.append(method.__name__)
                return result
            return run

        for name in ("push", "discard", "steal"):
            monkeypatch.setattr(LazyQueue, name,
                                checked(getattr(LazyQueue, name)))
        workload = workloads.get(program)
        compiled = compile_source(workload.source(), mode=mode)
        config = MachineConfig(
            num_processors=4,
            lazy_futures=compiled.wants_lazy_scheduling)
        machine = AlewifeMachine(compiled.program, config)
        result = machine.run(entry=compiled.entry_label("main"),
                             args=workload.args(n))
        assert result.value == workload.reference(n)
        for queue in machine.runtime.lazy_queues:
            counters = queue.counters()
            assert counters["live"] == _scan(queue) == 0
            assert counters["peak_depth"] == peaks.get(queue.node, 0)
            assert counters["pushes"] == (counters["steals"]
                                          + counters["discards"])
        if mode == "lazy":
            assert {"push", "discard"} <= set(operations)
            assert sum(q.steals for q in machine.runtime.lazy_queues) > 0
        else:
            assert not operations
