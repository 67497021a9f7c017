"""End-to-end tests of the full ALEWIFE configuration: caches,
directory coherence, network, and switch-on-remote-miss."""

import pytest

from repro.lang.run import run_mult
from repro.machine.config import MachineConfig
from repro import workloads

FIB = """
(define (fib n)
  (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(define (main) (fib 8))
"""


def coherent_config(processors, **overrides):
    defaults = dict(num_processors=processors, memory_mode="coherent")
    defaults.update(overrides)
    return MachineConfig(**defaults)


def run_coherent(source, processors=2, mode="eager", args=(), **overrides):
    return run_mult(source, mode=mode, args=args,
                    config=coherent_config(processors, **overrides))


class TestCorrectness:
    def test_fib_sequential(self):
        result = run_coherent(FIB, processors=1, mode="sequential")
        assert result.value == 21

    def test_fib_eager_two_nodes(self):
        result = run_coherent(FIB, processors=2)
        assert result.value == 21

    def test_fib_lazy_four_nodes(self):
        result = run_coherent(FIB, processors=4, mode="lazy")
        assert result.value == 21

    @pytest.mark.parametrize("name", ["factor", "speech"])
    def test_other_workloads(self, name):
        module = workloads.get(name)
        args = (2, 9) if name == "factor" else (3, 4)
        expected = (module.reference(2, 8) if name == "factor"
                    else module.reference(3, 4))
        result = run_coherent(module.source(), processors=2, args=args)
        assert result.value == expected


class TestCoherenceBehavior:
    def test_remote_misses_cause_context_switch_traps(self):
        from repro.lang.compiler import compile_source
        from repro.machine.alewife import AlewifeMachine
        compiled = compile_source(FIB, mode="eager")
        machine = AlewifeMachine(compiled.program, coherent_config(2))
        machine.run(entry=compiled.entry_label())
        controllers = machine.fabric.controllers
        assert sum(c.stats.remote_misses for c in controllers) > 0
        assert sum(c.stats.traps for c in controllers) > 0

    def test_invariants_hold_after_run(self):
        from repro.lang.compiler import compile_source
        from repro.machine.alewife import AlewifeMachine
        compiled = compile_source(FIB, mode="eager")
        machine = AlewifeMachine(compiled.program, coherent_config(4))
        machine.run(entry=compiled.entry_label())
        machine.fabric.check_coherence_invariants()

    def test_network_carried_traffic(self):
        from repro.lang.compiler import compile_source
        from repro.machine.alewife import AlewifeMachine
        compiled = compile_source(FIB, mode="eager")
        machine = AlewifeMachine(compiled.program, coherent_config(2))
        machine.run(entry=compiled.entry_label())
        assert machine.fabric.network.stats.messages > 0

    def test_miss_rate_reported(self):
        from repro.lang.compiler import compile_source
        from repro.machine.alewife import AlewifeMachine
        compiled = compile_source(FIB, mode="sequential")
        machine = AlewifeMachine(compiled.program, coherent_config(1))
        machine.run(entry=compiled.entry_label())
        rate = machine.fabric.aggregate_miss_rate()
        assert 0 < rate < 0.5

    def test_coherent_slower_than_ideal(self):
        ideal = run_mult(FIB, mode="sequential",
                         config=MachineConfig(num_processors=1))
        coherent = run_coherent(FIB, processors=1, mode="sequential")
        assert coherent.cycles > ideal.cycles

    def test_bigger_cache_fewer_misses(self):
        from repro.lang.compiler import compile_source
        from repro.machine.alewife import AlewifeMachine
        module = workloads.get("speech")
        rates = {}
        for size in (256, 64 * 1024):
            compiled = compile_source(module.source(), mode="sequential")
            machine = AlewifeMachine(
                compiled.program, coherent_config(1, cache_bytes=size))
            machine.run(entry=compiled.entry_label(), args=(4, 8))
            rates[size] = machine.fabric.aggregate_miss_rate()
        assert rates[64 * 1024] < rates[256]


class TestMultithreadingHidesLatency:
    def test_more_frames_better_utilization(self):
        """The paper's core claim, on the executable machine: with
        remote latencies, multiple hardware contexts raise utilization."""
        module = workloads.get("factor")
        args = (2, 17)
        results = {}
        for frames in (1, 4):
            result = run_coherent(module.source(), processors=2,
                                  mode="eager", args=args,
                                  num_task_frames=frames)
            results[frames] = result.stats.utilization
        assert results[4] >= results[1]

    def test_more_contexts_no_fewer_misses(self):
        """Section 8's m(p): the cache term has a component that grows
        with the contexts sharing a cache."""
        from repro.lang.compiler import compile_source
        from repro.machine.alewife import AlewifeMachine
        module = workloads.get("speech")
        compiled = compile_source(module.source(), mode="eager")
        rates = {}
        for frames in (1, 4):
            machine = AlewifeMachine(compiled.program, coherent_config(
                2, num_task_frames=frames, cache_bytes=512))
            machine.run(entry=compiled.entry_label(), args=(4, 8))
            rates[frames] = machine.fabric.aggregate_miss_rate()
        assert rates[4] >= rates[1]
