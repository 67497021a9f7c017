"""MachineConfig validation and MachineStats aggregation."""

import pytest

from repro.errors import ConfigError
from repro.lang.run import run_mult
from repro.machine.config import MachineConfig


class TestConfig:
    def test_defaults_match_paper(self):
        config = MachineConfig()
        assert config.num_task_frames == 4
        assert config.trap_squash_cycles == 5
        assert config.switch_handler_cycles == 6       # 11-cycle switch
        assert config.future_touch_resolved_cycles == 23
        assert config.cache_bytes == 64 * 1024         # Table 4
        assert config.cache_block_bytes == 16

    def test_custom_april_switch(self):
        config = MachineConfig(custom_april_switch=True)
        assert config.trap_squash_cycles + config.switch_handler_cycles == 4

    def test_replace_preserves_and_overrides(self):
        base = MachineConfig(num_processors=4)
        derived = base.replace(lazy_futures=True)
        assert derived.num_processors == 4
        assert derived.lazy_futures
        assert not base.lazy_futures

    def test_replace_keeps_custom_switch(self):
        config = MachineConfig(custom_april_switch=True).replace(
            num_processors=2)
        assert config.trap_squash_cycles + config.switch_handler_cycles == 4

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            MachineConfig(num_processors=0)
        with pytest.raises(ConfigError):
            MachineConfig(placement="random")
        with pytest.raises(ConfigError):
            MachineConfig(memory_mode="magic")
        with pytest.raises(ConfigError):
            MachineConfig(num_processors=64, memory_words=1 << 16)
        with pytest.raises(ConfigError):
            MachineConfig(stack_words=1 << 20)

    @pytest.mark.parametrize("knobs, fragment", [
        ({"network_dim": 0}, "network_dim"),
        ({"cache_bytes": 0}, "cache_bytes"),
        ({"cache_block_bytes": 0}, "cache_block_bytes"),
        ({"cache_assoc": 0}, "cache_assoc"),
        ({"memory_mode": "coherent", "cache_bytes": 1000},
         "divide evenly"),
        ({"memory_mode": "coherent", "cache_block_bytes": 12,
          "cache_assoc": 1, "cache_bytes": 1200}, "power of two"),
    ])
    def test_build_knobs_are_checked_up_front(self, knobs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            MachineConfig(**knobs)

    @pytest.mark.parametrize("name", [
        name for name in MachineConfig().to_dict()
        if name.endswith(("_cycles", "_latency"))])
    def test_no_cycle_count_or_latency_is_negative(self, name):
        with pytest.raises(ConfigError, match=name):
            MachineConfig(**{name: -1})

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"],
                             ids=["float", "whole-float", "bool", "str"])
    @pytest.mark.parametrize("name", [
        name for name, value in MachineConfig().to_dict().items()
        if type(value) is int])
    def test_integer_knobs_take_only_integers(self, name, value):
        # network_dim=1.5 on a coherent machine once passed here and
        # killed the worker with a TypeError.
        with pytest.raises(ConfigError, match="%s must be an integer" % name):
            MachineConfig(memory_mode="coherent", **{name: value})

    def test_flags_stay_flags(self):
        config = MachineConfig(custom_april_switch=True, lazy_futures=True)
        assert config.custom_april_switch is True
        assert config.lazy_futures is True

    def test_cache_knobs_of_an_ideal_machine_need_not_divide(self):
        # An ideal machine builds no cache; only its sizes are checked.
        assert MachineConfig(cache_bytes=1000).cache_bytes == 1000


class TestMachineStats:
    FIB = """
    (define (fib n)
      (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
    (define (main) (fib 8))
    """

    def test_counters_consistent(self):
        result = run_mult(self.FIB, mode="eager", processors=2)
        stats = result.stats
        assert stats.futures_created == stats.futures_resolved
        assert stats.thread_loads >= stats.threads_created - 1
        assert stats.instructions > 0
        assert stats.run_cycles > 0

    def test_utilization_in_range(self):
        result = run_mult(self.FIB, mode="eager", processors=2)
        assert 0 < result.stats.utilization <= 1
        assert result.stats.system_power == pytest.approx(
            2 * result.stats.utilization)

    def test_render_mentions_fields(self):
        result = run_mult(self.FIB, mode="lazy", processors=2)
        text = result.stats.render()
        for fragment in ("processors", "utilization", "futures",
                         "lazy", "context switches"):
            assert fragment in text

    def test_cycle_conservation_per_cpu(self):
        """Every cycle a processor spends is attributed to a category."""
        from repro.lang.compiler import compile_source
        from repro.machine.alewife import AlewifeMachine
        compiled = compile_source(self.FIB, mode="eager")
        machine = AlewifeMachine(compiled.program,
                                 MachineConfig(num_processors=2))
        machine.run(entry=compiled.entry_label())
        for cpu in machine.cpus:
            assert cpu.stats.total_cycles == cpu.cycles

    def test_output_collected(self):
        result = run_mult("""
        (define (main) (begin (print 1) (print 2) 3))
        """, mode="sequential")
        assert result.output == [1, 2]
        assert result.value == 3
