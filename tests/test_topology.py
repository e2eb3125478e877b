import math

import pytest

from syncsim.clocks import preset_parameters
from syncsim.timebase import seconds_to_ps
from syncsim.topology import (FailureModel, LinkSpec, NetworkGraph, NodeSpec,
                              link_terms_ps, validate)

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


def test_medium_speed_override_and_unknown():
    link = LinkSpec("a", "b", 1e6, 3e5)
    assert link_terms_ps(link, 0, {"fiber": 1.5e8}) == (0, 2_000_000_000)
    # an override of another medium leaves the link's default
    assert link_terms_ps(link, 0, {"copper": 1.5e8}) == (0, 1_500_000_000)
    with pytest.raises(ValueError, match="^link a--b: unknown medium 'carrier-pigeon'$"):
        link_terms_ps(LinkSpec("a", "b", 1e6, 3e5, "carrier-pigeon"), 0)


# -- validation -----------------------------------------------------------------

def make_graph(nodes, links):
    return NetworkGraph(nodes, links)


def test_minimal_valid_graph():
    graph = make_graph([make_node("a"), make_node("b")],
                       [LinkSpec("a", "b", 1e6, 10.0, "fiber")])
    assert validate(graph) == []


def test_link_to_absent_node_reported():
    # validate named it before, but Engine(graph) raised a bare KeyError: 'r9'
    with pytest.raises(ValueError, match="^link a--r9: endpoint 'r9' not in graph$"):
        make_graph([make_node("a")], [LinkSpec("a", "r9", 1e6, 10.0)])


def test_negative_router_delay_reported():
    graph = make_graph([router("r1", delay=-1.0), make_node("a")],
                       [LinkSpec("a", "r1", 1e6, 10.0)])
    assert any("router_delay" in str(v) for v in validate(graph))


def test_self_loop_reported():
    graph = make_graph([make_node("a"), make_node("b")],
                       [LinkSpec("a", "a", 1e6, 10.0), LinkSpec("a", "b", 1e6, 10.0)])
    assert [str(v) for v in validate(graph)] == ["link a--a: self-loops are not allowed"]


def test_duplicate_link_rejected_at_construction():
    with pytest.raises(ValueError, match="duplicate link between 'b' and 'a'"):
        NetworkGraph([make_node("a"), make_node("b")],
                     [LinkSpec("a", "b", 1e6, 10.0), LinkSpec("b", "a", 2e6, 20.0)])


def test_nonpositive_bandwidth_reported():
    graph = make_graph([make_node("a"), make_node("b")],
                       [LinkSpec("a", "b", 0.0, 10.0)])
    assert any("bandwidth" in str(v) for v in validate(graph))


@pytest.mark.parametrize("node, link, problem", [
    (router("r1", delay=math.nan), LinkSpec("a", "r1", 1e6, 10.0),
     "r1: router_delay must be >= 0"),
    (router("r1"), LinkSpec("a", "r1", math.nan, 10.0), "link a--r1: bandwidth must be > 0"),
    (router("r1"), LinkSpec("a", "r1", 1e6, math.nan), "link a--r1: distance must be >= 0"),
], ids=["router_delay", "bandwidth_bps", "distance_m"])
def test_nan_graph_number_reported(node, link, problem):
    # validated clean before, and Engine(graph) then raised "cannot convert
    # float NaN to integer"
    assert validate(make_graph([make_node("a"), node], [link])) == [problem]


@pytest.mark.parametrize("node, link, problem", [
    (router("r1", delay=math.inf), LinkSpec("a", "r1", 1e6, 10.0),
     "r1: router_delay is not a finite number of picoseconds"),
    (router("r1", delay=1e300), LinkSpec("a", "r1", 1e6, 10.0),
     "r1: router_delay is not a finite number of picoseconds"),
    (router("r1"), LinkSpec("a", "r1", 1e6, math.inf),
     "link a--r1: delay of a 0-bit message is not a finite number of picoseconds"),
    (router("r1"), LinkSpec("a", "r1", 1e6, 1e305, "satellite"),
     "link a--r1: delay of a 0-bit message is not a finite number of picoseconds"),
], ids=["router_delay_infinite", "router_delay_beyond_ps", "distance_infinite",
        "distance_beyond_ps"])
def test_graph_number_beyond_ps_reported(node, link, problem):
    # validated clean before, and the run then raised "cannot convert float
    # infinity to integer"
    assert validate(make_graph([make_node("a"), node], [link])) == [problem]


def test_time_server_requires_drift_bounded_clock():
    quartz = preset_parameters("quartz")
    graph = make_graph([NodeSpec("s1", "time_server", clock=quartz),
                        make_node("a")],
                       [LinkSpec("a", "s1", 1e6, 10.0)])
    assert any("gamma" in str(v) for v in validate(graph))
    ok = make_graph([NodeSpec("s1", "time_server", clock=preset_parameters("gps")),
                     make_node("a")],
                    [LinkSpec("a", "s1", 1e6, 10.0)])
    assert validate(ok) == []


def test_clientlike_node_needs_clock():
    graph = make_graph([NodeSpec("c1", "client")], [])
    assert any("needs a clock" in str(v) for v in validate(graph))


def test_validation_is_idempotent():
    graph = make_graph([make_node("a"), make_node("b")],
                       [LinkSpec("a", "b", 1e6, 10.0)])
    assert validate(graph) == validate(graph)


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
