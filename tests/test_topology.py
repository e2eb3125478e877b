import pytest

from syncsim.clocks import preset_parameters
from syncsim.timebase import seconds_to_ps
from syncsim.topology import (FailureModel, LinkSpec, NetworkGraph, NodeSpec,
                              medium_speed, validate)

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

def test_medium_speed_constants():
    assert medium_speed("fiber") == 2.0e8
    assert medium_speed("copper") == 2.0e8
    assert medium_speed("wireless") == 2.998e8
    assert medium_speed("satellite") == 2.998e8


def test_medium_speed_override_and_unknown():
    assert medium_speed("fiber", {"fiber": 1.5e8}) == 1.5e8
    with pytest.raises(ValueError):
        medium_speed("carrier-pigeon")


# -- validation -----------------------------------------------------------------

def make_graph(nodes, links):
    return NetworkGraph(nodes, links)


def test_minimal_valid_graph():
    graph = make_graph([make_node("a"), make_node("b")],
                       [LinkSpec("a", "b", 1e6, 10.0, "fiber")])
    assert validate(graph) == []


def test_link_to_absent_node_reported():
    graph = make_graph([make_node("a")], [LinkSpec("a", "r9", 1e6, 10.0)])
    report = validate(graph)
    assert len(report) == 1
    assert "r9" in str(report[0])


def test_negative_router_delay_reported():
    graph = make_graph([router("r1", delay=-1.0), make_node("a")],
                       [LinkSpec("a", "r1", 1e6, 10.0)])
    assert any("router_delay" in str(v) for v in validate(graph))


def test_self_loop_and_duplicate_links_reported():
    graph = make_graph([make_node("a"), make_node("b")],
                       [LinkSpec("a", "a", 1e6, 10.0),
                        LinkSpec("a", "b", 1e6, 10.0),
                        LinkSpec("b", "a", 2e6, 20.0)])
    messages = [str(v) for v in validate(graph)]
    assert any("self-loop" in m for m in messages)
    assert any("duplicate link" in m for m in messages)


def test_nonpositive_bandwidth_reported():
    graph = make_graph([make_node("a"), make_node("b")],
                       [LinkSpec("a", "b", 0.0, 10.0)])
    assert any("bandwidth" in str(v) for v in validate(graph))


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
    assert isinstance(graph.links, tuple) and isinstance(graph.links_of("a"), tuple)
    with pytest.raises(ValueError, match="duplicate node id: 'a'"):
        NetworkGraph([make_node("a"), make_node("a")])
