"""Coherent machines whose caches are small enough to evict.

A write upgrade used to take the first invalid way of its set even when
the block's shared copy sat in a later way, leaving two valid lines for
one block.  Once LRU evicted the shared duplicate, the directory marked
the block uncached while the node still held it modified, and evicting
that copy raised ``modified eviction ... from non-owner``.  Seven of the
sixty runs of this grid raised.  The grid runs every one on ``run()``,
and the runs that raised on the caller-driven stepper as well; each
must compute its reference value and leave the caches and directories
coherent.
"""

import itertools

import pytest

from repro import workloads
from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig

CACHE_BYTES = (128, 256, 512, 1024, 2048)

#: ``(program, n)``, the sizes the grid runs.
PROGRAMS = (("fib", 10), ("queens", 5))

#: ``(program, mode, processors, cache bytes)`` of the runs that raised
#: before upgrades rewrote their own line.
RAISED = (
    ("fib", "eager", 2, 512),
    ("fib", "eager", 4, 512),
    ("fib", "eager", 8, 128),
    ("fib", "eager", 8, 256),
    ("fib", "eager", 8, 1024),
    ("queens", "eager", 2, 1024),
    ("queens", "eager", 4, 2048),
)

def _machine(compiled, processors, cache_bytes):
    config = MachineConfig(num_processors=processors,
                           memory_mode="coherent", cache_bytes=cache_bytes,
                           lazy_futures=compiled.wants_lazy_scheduling)
    return AlewifeMachine(compiled.program, config)


def _check(machine, result, name, n):
    assert result.value == workloads.get(name).reference(n)
    machine.fabric.check_coherence_invariants()


@pytest.mark.parametrize("name,n", PROGRAMS)
@pytest.mark.parametrize("mode", ("eager", "lazy"))
def test_grid_on_run(name, n, mode):
    compiled = compile_source(workloads.get(name).source(), mode=mode)
    for processors, cache_bytes in itertools.product((2, 4, 8),
                                                     CACHE_BYTES):
        machine = _machine(compiled, processors, cache_bytes)
        result = machine.run(entry=compiled.entry_label("main"),
                             args=workloads.get(name).args(n))
        _check(machine, result, name, n)


@pytest.mark.parametrize("name,mode,processors,cache_bytes", RAISED)
def test_runs_that_raised_on_the_stepper(name, mode, processors,
                                         cache_bytes):
    n = dict(PROGRAMS)[name]
    compiled = compile_source(workloads.get(name).source(), mode=mode)
    machine = _machine(compiled, processors, cache_bytes)
    stepper = machine.stepper(entry=compiled.entry_label("main"),
                              args=workloads.get(name).args(n))
    while stepper.step_machine() is not None:
        pass
    _check(machine, stepper.result(), name, n)
