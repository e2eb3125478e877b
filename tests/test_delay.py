import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncsim.delay import (PathBlocked, propagation_delay, total_path_delay,
                           transmission_delay)
from syncsim.netview import NetworkView
from syncsim.timebase import seconds_to_ps
from syncsim.topology import FailureModel, LinkSpec, NetworkGraph, NodeSpec

from conftest import line_graph


def line_view(router_delays, failure_models=None, **kwargs):
    return NetworkView(line_graph(router_delays, failure_models=failure_models,
                                  **kwargs), seed=3)


def full_path(view):
    ids = list(view.graph.nodes)
    return ids  # line_graph inserts nodes in path order


# -- single-hop formulas -----------------------------------------------------

def test_transmission_direct_division():
    assert transmission_delay(12000, 1e6) == 0.012


def test_transmission_zero_size():
    assert transmission_delay(0, 5e9) == 0.0


def test_transmission_rejects_bad_inputs():
    with pytest.raises(ValueError):
        transmission_delay(100, 0.0)
    with pytest.raises(ValueError):
        transmission_delay(-1, 1e6)


def test_propagation_direct_division():
    assert propagation_delay(3e5, 2e8) == 1.5e-3


def test_propagation_zero_distance():
    assert propagation_delay(0.0, 2e8) == 0.0


def test_propagation_rejects_bad_speed():
    with pytest.raises(ValueError):
        propagation_delay(10.0, 0.0)


# -- path sums ----------------------------------------------------------------

def test_two_hop_transmission_sum():
    # 12000 bits over 1e6 then 1e9 bps: 0.012 + 0.000012
    graph = NetworkGraph(
        [NodeSpec("a", "router"), NodeSpec("b", "router"), NodeSpec("c", "router")],
        [LinkSpec("a", "b", 1e6, 0.0), LinkSpec("b", "c", 1e9, 0.0)])
    view = NetworkView(graph)
    breakdown = total_path_delay(view, ["a", "b", "c"], 12000, 0)
    assert breakdown.transmission_ps == 12_012_000_000


def test_two_hop_propagation_sum():
    # 100 km + 200 km of fiber at 2e8 m/s: 1.5 ms
    graph = NetworkGraph(
        [NodeSpec("a", "router"), NodeSpec("b", "router"), NodeSpec("c", "router")],
        [LinkSpec("a", "b", 1e9, 100_000.0), LinkSpec("b", "c", 1e9, 200_000.0)])
    view = NetworkView(graph)
    breakdown = total_path_delay(view, ["a", "b", "c"], 12000, 0)
    assert breakdown.propagation_ps == 1_500_000_000


def test_router_path_delay_sums_active_routers():
    view = line_view([50e-6, 50e-6, 500e-6])
    breakdown = total_path_delay(view, full_path(view), 12000, 0)
    assert breakdown.router_ps == 600_000_000


def test_router_path_delay_empty_sum_without_routers():
    graph = NetworkGraph(
        [NodeSpec("a", "client", clock=None), NodeSpec("b", "client", clock=None)],
        [LinkSpec("a", "b", 1e6, 10.0)])
    view = NetworkView(graph)
    assert total_path_delay(view, ["a", "b"], 12000, 0).router_ps == 0


def test_inactive_router_blocks_path():
    view = line_view([50e-6, 50e-6, 500e-6],
                     failure_models={"r2": FailureModel("always_failed")})
    with pytest.raises(PathBlocked) as excinfo:
        total_path_delay(view, full_path(view), 12000, 0)
    assert excinfo.value.router_id == "r2"


# -- composition ----------------------------------------------------------------

def test_three_hop_hand_composition():
    # 2 x 100 km fiber at 1 Gbps around a 50 us router, 12000-bit message:
    # propagation 1.0 ms, transmission 2 x 12 us, router 50 us -> 1.074 ms
    view = line_view([50e-6])
    breakdown = total_path_delay(view, full_path(view), 12000, 0)
    assert breakdown.propagation_ps == 1_000_000_000
    assert breakdown.transmission_ps == 24_000_000
    assert breakdown.router_ps == 50_000_000
    assert breakdown.total_ps == 1_074_000_000
    assert breakdown.total == 1.074e-3


def test_zero_everything_path():
    graph = NetworkGraph(
        [NodeSpec("a", "client", clock=None), NodeSpec("b", "client", clock=None)],
        [LinkSpec("a", "b", 1e9, 0.0)])
    view = NetworkView(graph)
    breakdown = total_path_delay(view, ["a", "b"], 0, 0)
    assert breakdown.total_ps == 0


def test_breakdown_is_deterministic():
    view = line_view([50e-6, 500e-6])
    path = full_path(view)
    assert total_path_delay(view, path, 12000, seconds_to_ps(1.0)) == total_path_delay(
        view, path, 12000, seconds_to_ps(1.0))


def test_per_hop_components_sum_to_totals():
    view = line_view([50e-6, 500e-6])
    breakdown = total_path_delay(view, full_path(view), 12000, 0)
    by_kind = {"router": 0, "transmission": 0, "propagation": 0}
    for hop in breakdown.per_hop:
        by_kind[hop.component] += hop.ps
    assert by_kind["router"] == breakdown.router_ps
    assert by_kind["transmission"] == breakdown.transmission_ps
    assert by_kind["propagation"] == breakdown.propagation_ps


# -- properties -------------------------------------------------------------------

path_params = st.tuples(
    st.lists(st.sampled_from([10e-6, 50e-6, 120e-6, 500e-6]), min_size=0, max_size=5),
    st.sampled_from([1e6, 1e7, 1e8, 1e9]),
    st.sampled_from([0.0, 10.0, 1e3, 1e5, 5e5]),
    st.integers(min_value=0, max_value=10**6))


@settings(max_examples=200)
@given(path_params)
def test_additivity_is_exact_in_ps(params):
    delays, bandwidth, distance, size = params
    view = line_view(delays, bandwidth_bps=bandwidth, distance_m=distance)
    breakdown = total_path_delay(view, full_path(view), size, 0)
    assert breakdown.total_ps == (breakdown.router_ps + breakdown.transmission_ps
                                  + breakdown.propagation_ps)
    assert breakdown.router_ps >= 0
    assert breakdown.transmission_ps >= 0
    assert breakdown.propagation_ps >= 0


@given(path_params)
def test_doubling_size_doubles_transmission_only(params):
    delays, bandwidth, distance, size = params
    view = line_view(delays, bandwidth_bps=bandwidth, distance_m=distance)
    path = full_path(view)
    one = total_path_delay(view, path, size, 0)
    two = total_path_delay(view, path, 2 * size, 0)
    assert two.transmission_ps == 2 * one.transmission_ps
    assert two.router_ps == one.router_ps
    assert two.propagation_ps == one.propagation_ps


def test_monotonicity_in_distance_bandwidth_and_routers():
    base = line_view([50e-6]).graph
    reference = total_path_delay(NetworkView(base), ["c1", "r1", "s1"], 12000, 0)

    longer = line_graph([50e-6], distance_m=200_000.0)
    slower = line_graph([50e-6], bandwidth_bps=1e6)
    more_routers = line_graph([50e-6, 50e-6])

    assert total_path_delay(NetworkView(longer), ["c1", "r1", "s1"], 12000,
                            0).total_ps > reference.total_ps
    assert total_path_delay(NetworkView(slower), ["c1", "r1", "s1"], 12000,
                            0).total_ps > reference.total_ps
    assert total_path_delay(NetworkView(more_routers), ["c1", "r1", "r2", "s1"],
                            12000, 0).total_ps > reference.total_ps
