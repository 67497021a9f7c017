"""What the trap round trip costs the host, counted rather than timed.

Three legs of the repo benchmark at its ``--quick`` sizes — eager fib
on four processors, lazy fib on four, and eager fib on four coherent
nodes — each run once on a fresh machine.  Per leg: the traps taken, by
kind (simulated: no host-side change may move them); the
:class:`~repro.core.traps.TrapSignal` objects built, which only the
reference interpreter raises — generated code, ``step()``'s
one-instruction forms included, takes its traps in place, and runs the
reference only for what it delegates (a memory slow path, a delegated
row) or in a delay slot; the calls of the window gate,
``Memory._index``, and of the :class:`~repro.mem.memory.StackWindows`
walk behind it, which the cells the run-time system allocated itself
and the accesses generated code inlines skip; and the
:class:`~repro.runtime.thread.Thread` objects built.

A tripped guard or a ``TRAP`` that raises again moves the signals; a
future cell written through the gated word methods again moves the gate
and the walk.  ``step()`` running one-instruction forms in place of
the closures that raised and called the gate moved them last: eager
signals 9 -> 0 and coherent 59 -> 54, lazy gate 443 -> 428 and walks
132 -> 117.  A change that means to move a count re-pins it here and
says why; any other must not move one.
"""

import pytest

from repro import workloads
from repro.core.traps import TrapSignal
from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.mem.memory import Memory, StackWindows
from repro.runtime.thread import Thread

#: ``(mode, fib's n, processors, memory mode)`` -> the run's counts.
PINNED = {
    ("eager", 8, 4, "ideal"): {
        "traps": {"FUTURE_COMPUTE": 158, "SOFTWARE": 133},
        "signals": 0, "gated": 577, "touches": 156, "threads": 67},
    ("lazy", 9, 4, "ideal"): {
        "traps": {"FUTURE_COMPUTE": 36, "SOFTWARE": 217},
        "signals": 0, "gated": 428, "touches": 117, "threads": 13},
    ("eager", 7, 4, "coherent"): {
        "traps": {"CACHE_MISS": 54, "FUTURE_COMPUTE": 105, "SOFTWARE": 81},
        "signals": 54, "gated": 1087, "touches": 153, "threads": 41},
}

#: What each count is read from: ``(class, method)``.
COUNTED = {
    "signals": (TrapSignal, "__init__"),
    "gated": (Memory, "_index"),
    "touches": (StackWindows, "touch"),
    "threads": (Thread, "__init__"),
}


def _counter(counts, name, original):
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    return counted


def _counts(monkeypatch, mode, n, processors, memory_mode):
    counts = dict.fromkeys(COUNTED, 0)
    for name, (owner, method) in COUNTED.items():
        monkeypatch.setattr(owner, method, _counter(
            counts, name, getattr(owner, method)))
    fib = workloads.get("fib")
    compiled = compile_source(fib.source(), mode=mode)
    config = MachineConfig(num_processors=processors,
                           lazy_futures=compiled.wants_lazy_scheduling,
                           memory_mode=memory_mode)
    machine = AlewifeMachine(compiled.program, config)
    result = machine.run(entry=compiled.entry_label("main"),
                         args=fib.args(n))
    assert result.value == fib.reference(n)
    traps = {}
    for cpu in machine.cpus:
        for kind, taken in cpu.stats.trap_counts.items():
            traps[kind.name] = traps.get(kind.name, 0) + taken
    counts["traps"] = traps
    return counts


@pytest.mark.parametrize("leg", sorted(PINNED))
def test_trap_path_counts_are_pinned(monkeypatch, leg):
    assert _counts(monkeypatch, *leg) == PINNED[leg]
