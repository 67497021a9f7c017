"""k-ary n-cube topology and contention-network tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net.network import Network, build_network
from repro.net.topology import KAryNCube


class TestTopology:
    def test_node_count(self):
        assert KAryNCube(3, 4).num_nodes == 64

    def test_coordinates_roundtrip(self):
        topo = KAryNCube(3, 5)
        for node in range(topo.num_nodes):
            assert topo.node_at(topo.coordinates(node)) == node

    def test_distance_self_is_zero(self):
        topo = KAryNCube(2, 4)
        assert topo.distance(5, 5) == 0

    def test_distance_neighbors(self):
        topo = KAryNCube(2, 4)
        assert topo.distance(0, 1) == 1
        assert topo.distance(0, 4) == 1  # next row

    def test_route_length_equals_distance(self):
        topo = KAryNCube(2, 5)
        for src in (0, 7, 24):
            for dst in (0, 3, 13, 24):
                assert len(topo.route(src, dst)) == topo.distance(src, dst)

    def test_route_is_dimension_ordered(self):
        topo = KAryNCube(2, 4)
        links = topo.route(0, 15)  # (0,0) -> (3,3)
        axes = [axis for _node, axis, _d in links]
        assert axes == sorted(axes)

    def test_fitting(self):
        topo = KAryNCube.fitting(10, dim=2)
        assert topo.num_nodes >= 10
        assert topo.radix == 4

    def test_average_distance_close_to_nk_over_3(self):
        topo = KAryNCube(3, 20)
        assert topo.average_distance() == pytest.approx(20, rel=0.05)

    def test_degenerate_raises(self):
        with pytest.raises(ConfigError):
            KAryNCube(0, 4)

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=6),
           st.data())
    def test_distance_symmetric(self, dim, radix, data):
        topo = KAryNCube(dim, radix)
        src = data.draw(st.integers(0, topo.num_nodes - 1))
        dst = data.draw(st.integers(0, topo.num_nodes - 1))
        assert topo.distance(src, dst) == topo.distance(dst, src)

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=6),
           st.data())
    def test_triangle_inequality(self, dim, radix, data):
        topo = KAryNCube(dim, radix)
        nodes = [data.draw(st.integers(0, topo.num_nodes - 1))
                 for _ in range(3)]
        a, b, c = nodes
        assert topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c)


class TestNetwork:
    def test_local_message_is_free(self):
        net = build_network(4)
        assert net.send(0, 0, 4, 100) == 100

    def test_latency_hops_plus_size(self):
        net = Network(KAryNCube(2, 4), hop_cycles=1)
        hops = net.topology.distance(0, 15)
        assert net.send(0, 15, 4, 0) == hops + 4

    def test_contention_delays_second_message(self):
        net = Network(KAryNCube(1, 8))
        first = net.send(0, 7, 8, 0)
        second = net.send(0, 7, 8, 0)
        assert second > first
        assert net.stats.contention_cycles > 0

    def test_disjoint_paths_no_contention(self):
        net = Network(KAryNCube(2, 4))
        net.send(0, 3, 4, 0)     # row 0
        net.send(12, 15, 4, 0)   # row 3
        assert net.stats.contention_cycles == 0

    def test_round_trip(self):
        net = Network(KAryNCube(1, 4))
        done = net.round_trip(0, 3, 2, 6, 0, service_cycles=10)
        # 3 hops + 2 flits out, 10 service, 3 hops + 6 flits back.
        assert done == (3 + 2) + 10 + (3 + 6)

    def test_stats_accumulate(self):
        net = build_network(9)
        net.send(0, 8, 4, 0)
        assert net.stats.messages == 1
        assert net.stats.average_latency > 0
        assert net.stats.flit_hops == net.stats.total_hops * 4

    def test_offered_load_raises_latency(self):
        # Section 8's T(p) has a term linear in the traffic: the same
        # 200 messages injected closer together wait longer on average.
        latency = {}
        for gap in (40, 2):          # cycles between injections
            net = Network(KAryNCube(2, 4))
            for i in range(200):
                net.send(i % 16, (i * 7 + 3) % 16, 5, i * gap)
            latency[gap] = net.stats.average_latency
        assert latency[2] > latency[40]

    def test_link_frees_over_time(self):
        net = Network(KAryNCube(1, 4))
        net.send(0, 1, 4, 0)
        # Much later, the link is free again: no contention.
        before = net.stats.contention_cycles
        net.send(0, 1, 4, 1000)
        assert net.stats.contention_cycles == before

    def test_routes_are_memoized_exactly(self):
        # Each (src, dst) pair's e-cube route is built once, at its
        # first message, and is the topology's route link for link.
        topology = KAryNCube(2, 4)
        net = Network(topology)
        pairs = [(src, dst) for src in range(16) for dst in range(16)
                 if src != dst]
        for round_ in range(2):
            for src, dst in pairs:
                net.send(src, dst, 2, 1000 * round_)
        assert sorted(net._routes) == pairs
        for (src, dst), links in net._routes.items():
            assert links == tuple(topology.route(src, dst))
        first = dict(net._routes)
        net.send(0, 15, 2, 5000)
        assert net._routes[0, 15] is first[0, 15]
