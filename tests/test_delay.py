import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncsim.attacks import AttackSpec
from syncsim.delay import PathBlocked, total_path_delay
from syncsim.netview import NetworkView
from syncsim.sync import SyncOptions
from syncsim.timebase import seconds_to_ps
from syncsim.topology import (FailureModel, LinkSpec, NetworkGraph, NodeSpec, link_terms_ps,
                              up_router_ps)

from conftest import line_graph, make_node


def line_view(router_delays, failure_models=None, **kwargs):
    return NetworkView(line_graph(router_delays, failure_models=failure_models,
                                  **kwargs), seed=3)


def full_path(view):
    ids = list(view.graph.nodes)
    return ids  # line_graph inserts nodes in path order


# -- single-hop formulas -----------------------------------------------------
# link_terms_ps returns one traversal's (transmission, propagation) terms

def test_transmission_direct_division():
    # 12,000 bits at 1 Mb/s: 12 ms
    assert link_terms_ps(LinkSpec("a", "b", 1e6, 0.0), 12000) == (12_000_000_000, 0)


def test_transmission_zero_size():
    assert link_terms_ps(LinkSpec("a", "b", 5e9, 0.0), 0) == (0, 0)


@pytest.mark.parametrize("bandwidth_bps, size_bits, problem", [
    (0.0, 100, "link a--b: bandwidth must be > 0"),
    (math.nan, 100, "link a--b: bandwidth must be > 0"),
    (1e6, -1, "link a--b: message size must be >= 0 bits, got -1"),
    (math.inf, 100, "bandwidth_bps must be finite, got inf"),
], ids=["zero_bandwidth", "nan_bandwidth", "negative_size", "infinite_bandwidth"])
def test_transmission_rejects_bad_inputs(bandwidth_bps, size_bits, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        link_terms_ps(LinkSpec("a", "b", bandwidth_bps, 10.0), size_bits)


def test_propagation_direct_division():
    # 300 km at the default fiber speed, 2e8 m/s: 1.5 ms
    assert link_terms_ps(LinkSpec("a", "b", 1e6, 3e5), 0) == (0, 1_500_000_000)
    assert link_terms_ps(LinkSpec("a", "b", 1e6, 3e5), 12000) == (12_000_000_000,
                                                                  1_500_000_000)


def test_propagation_zero_distance():
    assert link_terms_ps(LinkSpec("a", "b", 1e6, 0.0), 0, {"fiber": 1.0}) == (0, 0)


@pytest.mark.parametrize("distance_m, speeds, problem", [
    (10.0, {"fiber": 0.0}, "link a--b: fiber speed must be > 0"),
    (10.0, {"fiber": -2e8}, "link a--b: fiber speed must be > 0"),
    (10.0, {"fiber": math.nan}, "link a--b: fiber speed must be > 0"),
    (-1.0, None, "link a--b: distance must be >= 0"),
    (math.nan, None, "link a--b: distance must be >= 0"),
    (math.inf, {"fiber": math.inf}, "distance_m must be finite, got inf"),
], ids=["zero_speed", "negative_speed", "nan_speed", "negative_distance", "nan_distance",
        "inf_over_inf"])
def test_propagation_rejects_bad_speed(distance_m, speeds, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        link_terms_ps(LinkSpec("a", "b", 1e6, distance_m), 0, speeds)


# -- exact terms at any magnitude -----------------------------------------------

# from the smallest subnormal up to 1e300
MAGNITUDES = st.floats(min_value=5e-324, max_value=1e300)


@settings(max_examples=300)
@given(size_bits=st.integers(min_value=0, max_value=10**30), bandwidth=MAGNITUDES,
       distance=st.just(0.0) | MAGNITUDES, speed=MAGNITUDES,
       router_delay=st.just(0.0) | MAGNITUDES, added=st.just(0.0) | MAGNITUDES,
       multipliers=st.lists(st.floats(min_value=1.0, max_value=1e300), max_size=3),
       factor=MAGNITUDES | st.sampled_from([0.5, 1.5, 2.5]), rtt_ps=st.integers(0, 10**40))
def test_link_router_and_timeout_terms_are_exact_ratios_rounded_half_even(
        size_bits, bandwidth, distance, speed, router_delay, added, multipliers, factor,
        rtt_ps):
    # each overflowed a float product, or was rounded twice, before
    link = LinkSpec("a", "b", bandwidth, distance)
    assert link_terms_ps(link, size_bits, {"fiber": speed}) == (
        round(Fraction(size_bits * 10**12) / Fraction(bandwidth)),
        round(Fraction(distance) * 10**12 / Fraction(speed)))
    attacks = (AttackSpec("router_hijack", "r1", 0.0, 1.0, mode="added_delay", added_delay=added),
               *(AttackSpec("ddos", "r1", 0.0, 1.0, delay_multiplier=m) for m in multipliers))
    delay = (Fraction(router_delay) + Fraction(added)) * math.prod(map(Fraction, multipliers))
    node = NodeSpec("r1", "router", router_delay=router_delay)
    assert up_router_ps(node, attacks, 0) == up_router_ps(node, attacks[::-1], 0) == round(
        delay * 10**12)
    timeout_ps = SyncOptions(timeout_factor=factor).timeout_ps(rtt_ps)
    assert timeout_ps == round(Fraction(factor) * rtt_ps)


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
        [make_node("a"), make_node("b")],
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


def test_zero_everything_path():
    graph = NetworkGraph(
        [make_node("a"), make_node("b")],
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
    # every hop: 12 us transmission + 500 us propagation + the router it enters
    view = line_view([50e-6, 500e-6])
    path = full_path(view)
    breakdown = total_path_delay(view, path, 12000, 0)
    arrivals = breakdown.arrivals_ps
    assert list(arrivals) == sorted(arrivals)
    assert arrivals[-1] == breakdown.total_ps
    hops = [total_path_delay(view, [a, b], 12000, 0) for a, b in zip(path, path[1:])]
    assert [(h.transmission_ps, h.propagation_ps, h.router_ps) for h in hops] == [
        (12_000_000, 500_000_000, 50_000_000),
        (12_000_000, 500_000_000, 500_000_000),
        (12_000_000, 500_000_000, 0)]
    steps = [b - a for a, b in zip((0,) + arrivals, arrivals)]
    assert steps == [h.total_ps for h in hops]


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
