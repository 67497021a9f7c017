"""Analytical model tests: Table 4, Equation 1, Figure 5 claims."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.model import cache_model, figure5, network_model
from repro.model.params import ModelParams
from repro.model.utilization import (
    equation1, saturation_utilization, solve, utilization_curve,
)


class TestParams:
    def test_table4_derived_values(self):
        params = ModelParams()
        assert params.avg_hops == 20            # nk/3
        assert params.base_round_trip == 55     # the paper's 55 cycles
        assert params.cache_blocks == 4096      # 64KB / 16B

    def test_render_table4_mentions_every_row(self):
        text = ModelParams().render_table4()
        for fragment in ("10 cycles", "20", "2%", "16 bytes",
                         "250 blocks", "64 Kbytes"):
            assert fragment in text

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelParams(network_radix=1)
        with pytest.raises(ConfigError):
            ModelParams(fixed_miss_rate=1.5)

    def test_replace(self):
        params = ModelParams().replace(context_switch=4)
        assert params.context_switch == 4
        assert params.memory_latency == 10


class TestCacheModel:
    def test_single_thread_is_fixed_rate(self):
        params = ModelParams()
        assert cache_model.miss_rate(params, 1) == params.fixed_miss_rate

    def test_monotone_in_threads(self):
        params = ModelParams()
        rates = [cache_model.miss_rate(params, p) for p in range(1, 9)]
        assert rates == sorted(rates)

    def test_bigger_cache_less_interference(self):
        small = ModelParams(cache_bytes=16 * 1024)
        large = ModelParams(cache_bytes=256 * 1024)
        assert cache_model.miss_rate(small, 4) > cache_model.miss_rate(large, 4)

    def test_sustains_four_threads_at_64kb(self):
        # Section 8: "caches greater than 64 Kbytes comfortably sustain
        # the working sets of four processes."
        params = ModelParams()
        assert cache_model.sustainable_threads(params) >= 4

    def test_small_cache_does_not_sustain_four(self):
        params = ModelParams(cache_bytes=16 * 1024)
        assert cache_model.sustainable_threads(params) < 4

    def test_saturates_at_one(self):
        params = ModelParams(cache_interference_coeff=10.0)
        assert cache_model.miss_rate(params, 100) == 1.0


class TestNetworkModel:
    def test_unloaded_latency_is_base(self):
        params = ModelParams()
        assert network_model.latency(params, 0.0) == params.base_round_trip

    def test_latency_monotone_in_load(self):
        params = ModelParams()
        rates = [0.0, 0.002, 0.005, 0.01]
        latencies = [network_model.latency(params, r) for r in rates]
        assert latencies == sorted(latencies)

    def test_saturation_is_infinite(self):
        params = ModelParams()
        rate = network_model.saturation_request_rate(params)
        assert network_model.latency(params, rate * 1.01) == float("inf")

    def test_higher_dimension_more_bandwidth(self):
        lo = ModelParams(network_dim=2, network_radix=90)   # ~8100 nodes
        hi = ModelParams(network_dim=3, network_radix=20)
        assert (network_model.saturation_request_rate(hi)
                > network_model.saturation_request_rate(lo) * 0.5)


class TestEquation1:
    def test_single_thread_formula(self):
        # U(1) = 1 / (1 + m(1) T(1)): the paper's explicit special case.
        u = equation1(1, 0.02, 55, 10)
        assert u == pytest.approx(1 / (1 + 0.02 * 55))

    def test_saturated_region_formula(self):
        u = equation1(100, 0.02, 55, 10)
        assert u == pytest.approx(1 / (1 + 10 * 0.02))

    def test_linear_region_scales_with_p(self):
        u1 = equation1(1, 0.02, 200, 10)
        u2 = equation1(2, 0.02, 200, 10)
        assert u2 == pytest.approx(2 * u1)

    @given(st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.001, max_value=0.2),
           st.floats(min_value=10, max_value=500),
           st.floats(min_value=0, max_value=64))
    def test_bounded_by_both_regimes(self, p, m, t, c):
        u = equation1(p, m, t, c)
        assert 0 < u <= 1
        assert u <= 1 / (1 + c * m) + 1e-9


class TestSection8Claims:
    """The headline numbers of the paper's scalability analysis."""

    def test_single_thread_utilization_near_half(self):
        u, _, _ = solve(ModelParams(), 1)
        assert 0.40 <= u <= 0.50     # 1/(1+0.02*55) = 0.476 less contention

    def test_three_threads_near_80_percent(self):
        # "as few as three processes yield close to 80% utilization
        # for a ten-cycle context-switch overhead"
        u, _, _ = solve(ModelParams(), 3)
        assert 0.75 <= u <= 0.85

    def test_plateau_then_gentle_decline(self):
        # "The marginal benefits of additional processes is seen to
        # decrease due to network and cache interference."
        curve = utilization_curve(ModelParams(), max_threads=8)
        peak = max(curve)
        assert curve.index(peak) <= 3          # peak by p=3..4
        assert curve[-1] < peak                # declines after
        assert curve[-1] > 0.65                # but only gently

    def test_utilization_capped_near_080(self):
        # "Why is utilization limited to a maximum of about 0.80?"
        curve = utilization_curve(ModelParams(), max_threads=16)
        assert max(curve) < 0.85

    def test_cs_overhead_cap(self):
        assert saturation_utilization(ModelParams()) == pytest.approx(
            1 / (1 + 10 * 0.02))

    def test_ten_cycle_switch_not_harmful(self):
        # "The relatively large ten-cycle context switch overhead does
        # not significantly impact performance."
        u10, _, _ = solve(ModelParams(), 3)
        u4, _, _ = solve(ModelParams(), 3, context_switch=4)
        assert 0 <= u4 - u10 < 0.05

    def test_huge_switch_cost_does_hurt(self):
        u10, _, _ = solve(ModelParams(), 4)
        u100, _, _ = solve(ModelParams(), 4, context_switch=100)
        assert u10 - u100 > 0.2
        u16, _, _ = solve(ModelParams(), 3, context_switch=16)
        u64, _, _ = solve(ModelParams(), 3, context_switch=64)
        assert u16 > u64

    def test_small_caches_reduce_multithreading_benefit(self):
        # "Smaller caches suffer more interference and reduce the
        # benefits of multithreading."
        u_small, _, _ = solve(ModelParams(cache_bytes=16 * 1024), 4)
        u_large, _, _ = solve(ModelParams(cache_bytes=256 * 1024), 4)
        assert u_large > u_small

    def test_four_frames_tolerate_long_latencies(self):
        # Section 3: with four task frames, switching every 50-100
        # cycles, APRIL tolerates latencies of 150-300 cycles.
        for radix in (20, 60, 110):          # round trip 55, 135, 235
            params = ModelParams(network_radix=radix)
            u1, _, _ = solve(params, 1, vary_network=False)
            u4, _, _ = solve(params, 4, vary_network=False)
            assert u4 > 0.4
            if params.base_round_trip >= 150:
                assert u4 > 2.5 * u1


class TestFigure5:
    def test_bands_stack_to_ideal(self):
        for pt in figure5.compute(ModelParams()):
            total = (pt.useful + pt.band_cs + pt.band_cache
                     + pt.band_network)
            assert total == pytest.approx(pt.ideal, abs=1e-6)

    def test_curves_are_ordered(self):
        for pt in figure5.compute(ModelParams()):
            assert pt.useful <= pt.cache_network + 1e-9
            assert pt.cache_network <= pt.network + 1e-9
            assert pt.network <= pt.ideal + 1e-9

    def test_ideal_reaches_one(self):
        points = figure5.compute(ModelParams())
        assert points[-1].ideal == pytest.approx(1.0, abs=1e-6)

    def test_ideal_single_thread_matches_formula(self):
        pt = figure5.compute(ModelParams())[0]
        assert pt.ideal == pytest.approx(1 / (1 + 0.02 * 55), abs=1e-3)

    def test_render_and_plot(self):
        points = figure5.compute(ModelParams(), max_threads=4)
        assert "p" in figure5.render(points)
        assert "U=" in figure5.ascii_plot(points)

    def test_custom_context_switch(self):
        points = figure5.compute(ModelParams(), context_switch=16)
        assert points[3].band_cs > 0
