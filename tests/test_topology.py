import math
import re
from fractions import Fraction

import pytest

from syncsim.clocks import preset_parameters
from syncsim.timebase import seconds_to_ps
from syncsim.topology import (FailureModel, LinkSpec, NetworkGraph, NodeSpec, link_terms_ps,
                              up_router_ps)

from conftest import make_node


def router(node_id, delay=50e-6):
    return NodeSpec(node_id, "router", router_delay=delay)


# -- router flags -------------------------------------------------------------

def flags(model, times_s, seed=0):
    """Flag(t) of router r1 at each time in seconds, as the network view reads it."""
    return [model.flag_at_ps("r1", seconds_to_ps(t), seed) for t in times_s]


def test_always_active_flag():
    assert flags(FailureModel("always_active"), (0.0, 1.5, 1e6)) == [1, 1, 1]


def test_always_failed_flag():
    assert flags(FailureModel("always_failed"), (0.0, 1.5, 1e6)) == [0, 0, 0]


def test_certain_bernoulli_failure():
    assert flags(FailureModel("bernoulli", failure_probability=1.0), (3.0,)) == [0]


def test_bernoulli_active_fraction():
    model = FailureModel("bernoulli", failure_probability=0.3)
    active = sum(flags(model, map(float, range(100_000)), seed=21))
    assert abs(active / 100_000 - 0.70) < 0.01


def test_flag_deterministic_across_query_orderings():
    model = FailureModel("bernoulli", failure_probability=0.5)
    forward = flags(model, map(float, range(200)), seed=5)
    backward = flags(model, map(float, reversed(range(200))), seed=5)
    assert forward == list(reversed(backward))


def test_alternating_schedule():
    model = FailureModel("alternating", up_duration=2.0, down_duration=3.0)
    # the last time is in the next period
    assert flags(model, (0.0, 1.999, 2.0, 4.999, 5.0)) == [1, 1, 0, 0, 1]


@pytest.mark.parametrize("field", ["failure_probability", "up_duration", "down_duration"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_failure_model_rejects_a_non_finite_value(field, value):
    # an infinite duration raised OverflowError before, a NaN one "cannot
    # convert float NaN to integer", and a probability the range message
    fields = {"up_duration": 1.0, "down_duration": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        FailureModel("alternating", **fields)


@pytest.mark.parametrize("field", ["up_duration", "down_duration"])
def test_failure_model_quantizes_a_duration_beyond_the_float_range_exactly(field):
    # a bare OverflowError once, then "not a finite number of picoseconds"
    fields = {"up_duration": 1.0, "down_duration": 1.0, field: 1e300}
    model = FailureModel("alternating", **fields)
    far_ps = int(1e300) * 10**12
    assert model.up_ps == (far_ps if field == "up_duration" else 10**12)
    assert model.period_ps == far_ps + 10**12


def test_alternating_duty_cycle_exact_over_whole_periods():
    model = FailureModel("alternating", up_duration=2.0, down_duration=3.0)
    # sample a grid that divides both phases exactly: 0.5 s steps, 4 periods
    samples = flags(model, [k * 0.5 for k in range(40)])
    assert sum(samples) / len(samples) == 2.0 / (2.0 + 3.0)


def test_router_defaults_by_kind():
    wifi = NodeSpec("w1", "router", router_kind="wifi")
    regular = NodeSpec("r1", "router")
    assert wifi.router_delay == 500e-6
    assert regular.router_kind == "regular"
    assert regular.router_delay == 50e-6


# -- medium speeds -------------------------------------------------------------

@pytest.mark.parametrize("medium, distance_m", [
    ("fiber", 2.0e8), ("copper", 2.0e8), ("wireless", 2.998e8), ("satellite", 2.998e8),
])
def test_medium_speed_constants(medium, distance_m):
    # one second at the medium's default speed
    link = LinkSpec("a", "b", 1e6, distance_m, medium)
    assert link_terms_ps(link, 0) == (0, 10**12)
    assert link_terms_ps(link, 0, {}) == (0, 10**12)


def test_medium_speed_override():
    link = LinkSpec("a", "b", 1e6, 3e5)
    assert link_terms_ps(link, 0, {"fiber": 1.5e8}) == (0, 2_000_000_000)
    # an override of another medium leaves the link's default
    assert link_terms_ps(link, 0, {"copper": 1.5e8}) == (0, 1_500_000_000)


# -- rules at construction ---------------------------------------------------------

def test_minimal_valid_graph():
    graph = NetworkGraph([make_node("a"), make_node("s1", "time_server",
                                                    clock=preset_parameters("gps")),
                          router("r1"), NodeSpec("w1", "router", router_kind="wifi")],
                         [LinkSpec("a", "r1", 1e6, 10.0, "fiber"),
                          LinkSpec("r1", "w1", 1e6, 10.0, "wireless"),
                          LinkSpec("w1", "s1", 1e6, 10.0, "copper")])
    assert list(graph.nodes) == ["a", "s1", "r1", "w1"]


def test_link_to_absent_node_reported():
    # validate named it before, but Engine(graph) raised a bare KeyError: 'r9'
    with pytest.raises(ValueError, match="^link a--r9: endpoint 'r9' not in graph$"):
        NetworkGraph([make_node("a")], [LinkSpec("a", "r9", 1e6, 10.0)])


def test_duplicate_link_rejected_at_construction():
    with pytest.raises(ValueError, match="duplicate link between 'b' and 'a'"):
        NetworkGraph([make_node("a"), make_node("b")],
                     [LinkSpec("a", "b", 1e6, 10.0), LinkSpec("b", "a", 2e6, 20.0)])


@pytest.mark.parametrize("build, problem", [
    # built, given an Engine and delivered a message (routr: blocked, with no
    # problem named) before, while only a separate validate pass named them
    (lambda: NodeSpec("r1", "router", router_kind="optical"),
     "r1: unknown router kind 'optical'"),
    (lambda: NodeSpec("c1", "client"), "c1: client needs a clock"),
    (lambda: make_node("c1", router_delay=1e-3), "c1: router_delay only applies to routers"),
    (lambda: LinkSpec("a", "a", 1e6, 10.0), "link a--a: self-loops are not allowed"),
    (lambda: NodeSpec("r1", "routr"), "r1: unknown node kind 'routr'"),
    (lambda: NodeSpec("s1", "time_server", clock=preset_parameters("quartz")),
     "s1: time_server clocks must be drift-bounded (gamma = 0)"),
    (lambda: router("r1", delay=-1.0), "r1: router_delay must be >= 0"),
    (lambda: LinkSpec("a", "b", 0.0, 10.0), "link a--b: bandwidth must be > 0"),
    (lambda: LinkSpec("a", "b", 1e6, 3e5, "carrier-pigeon"),
     "link a--b: unknown medium 'carrier-pigeon'"),
    # the engine raised "cannot convert float NaN to integer" before
    (lambda: router("r1", delay=math.nan), "r1: router_delay must be >= 0"),
    (lambda: LinkSpec("a", "r1", math.nan, 10.0), "link a--r1: bandwidth must be > 0"),
    (lambda: LinkSpec("a", "r1", 1e6, math.nan), "link a--r1: distance must be >= 0"),
    # the run raised "cannot convert float infinity to integer" before
    (lambda: router("r1", delay=math.inf), "router_delay must be finite, got inf"),
    (lambda: LinkSpec("a", "r1", 1e6, math.inf), "distance_m must be finite, got inf"),
    (lambda: LinkSpec("a", "r1", math.inf, 10.0), "bandwidth_bps must be finite, got inf"),
], ids=["router_kind_unknown", "client_without_clock", "client_with_router_delay",
        "self_loop", "node_kind_unknown", "quadratic_time_server", "router_delay_negative",
        "bandwidth_zero", "medium_unknown", "router_delay_nan", "bandwidth_nan",
        "distance_nan", "router_delay_infinite", "distance_infinite", "bandwidth_infinite"])
def test_a_spec_that_breaks_a_rule_is_not_built(build, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        build()


def test_a_term_beyond_the_float_range_is_built_exact():
    # both were rejected before: their terms overflowed the float product
    assert up_router_ps(router("r1", delay=1e300), (), 0) == int(1e300) * 10**12
    link = LinkSpec("a", "r1", 1e6, 1e305, "satellite")
    assert link_terms_ps(link, 0) == (0, round(Fraction(1e305) * 10**12 / Fraction(2.998e8)))


def test_alternating_flag_in_ps_domain():
    model = FailureModel("alternating", up_duration=1.0, down_duration=1.0)
    up = seconds_to_ps(1.0)
    assert model.flag_at_ps("r", up - 1, seed=0) == 1
    assert model.flag_at_ps("r", up, seed=0) == 0
    assert model.flag_at_ps("r", 2 * up, seed=0) == 1


def test_graph_is_fixed_at_construction():
    # views compile a graph once and cache routes on it, so it cannot change
    graph = NetworkGraph([make_node("a"), make_node("b")], [LinkSpec("a", "b", 1e9, 0.0)])
    assert not hasattr(graph, "add_node") and not hasattr(graph, "add_link")
    with pytest.raises(TypeError):
        graph.nodes["c"] = make_node("c")
    assert isinstance(graph.links, tuple)
    with pytest.raises(ValueError, match="duplicate node id: 'a'"):
        NetworkGraph([make_node("a"), make_node("a")])
