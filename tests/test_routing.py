import random

import pytest

from syncsim.netview import NetworkView
from syncsim.routing import NoRoute, RouteQuery, edge_weight_ps, shortest_path
from syncsim.timebase import seconds_to_ps
from syncsim.topology import FailureModel, LinkSpec, NetworkGraph, NodeSpec

from conftest import line_graph, make_node
from oracles import enumerate_best_route, random_network


def query(src="c1", dst="s1", t=0.0, size=12000, message_id="m1"):
    return RouteQuery(src, dst, seconds_to_ps(t), size, message_id)


# -- edge weights ---------------------------------------------------------------

def test_edge_weight_composes_three_terms(simple_view):
    # 12 us transmission + 500 us propagation + 50 us router = 562 us
    link = simple_view.graph.links_of("c1")[0]
    weight = edge_weight_ps(simple_view, link, "r1", query())
    assert weight == 562_000_000


def test_edge_into_inactive_router_is_excluded():
    graph = line_graph([50e-6], failure_models={"r1": FailureModel("always_failed")})
    view = NetworkView(graph)
    link = graph.links_of("c1")[0]
    assert edge_weight_ps(view, link, "r1", query()) is None


def test_edge_weight_zero_case():
    graph = NetworkGraph([make_node("a"), make_node("b")],
                         [LinkSpec("a", "b", 1e12, 0.0)])
    view = NetworkView(graph)
    link = graph.links_of("a")[0]
    assert edge_weight_ps(view, link, "b", query("a", "b", size=0)) == 0


# -- shortest path ----------------------------------------------------------------

def test_single_link_route_matches_breakdown(simple_view):
    route = shortest_path(simple_view, query())
    assert route.hops == ("c1", "r1", "s1")
    assert route.breakdown.total_ps == 1_074_000_000


def test_detour_beats_expensive_direct_edge():
    # direct edge 10 ms propagation vs 2-hop detour totalling ~3 ms
    nodes = [make_node("a"), make_node("b", "time_server"),
             NodeSpec("r1", "router", router_delay=0.0)]
    links = [LinkSpec("a", "b", 1e9, 2.0e6),          # 10 ms at 2e8 m/s
             LinkSpec("a", "r1", 1e9, 3.0e5),         # 1.5 ms
             LinkSpec("r1", "b", 1e9, 3.0e5)]         # 1.5 ms
    view = NetworkView(NetworkGraph(nodes, links))
    route = shortest_path(view, query("a", "b", size=0))
    assert route.hops == ("a", "r1", "b")
    oracle = enumerate_best_route(view, query("a", "b", size=0))
    assert oracle[1] == route.hops
    assert oracle[2].total_ps == route.breakdown.total_ps


def test_all_bridging_routers_failed_gives_no_route():
    graph = line_graph([50e-6], failure_models={"r1": FailureModel("always_failed")})
    with pytest.raises(NoRoute):
        shortest_path(NetworkView(graph), query())


def test_ties_prefer_fewer_hops():
    # both candidates cost exactly 50 us; the direct edge has fewer hops
    nodes = [make_node("a"), make_node("b", "time_server"),
             NodeSpec("r1", "router", router_delay=50e-6)]
    links = [LinkSpec("a", "b", 1e9, 1.0e4),   # 50 us propagation
             LinkSpec("a", "r1", 1e9, 0.0),
             LinkSpec("r1", "b", 1e9, 0.0)]    # 50 us router, zero distance
    view = NetworkView(NetworkGraph(nodes, links))
    route = shortest_path(view, query("a", "b", size=0))
    assert route.hops == ("a", "b")


def test_ties_prefer_lexicographically_smaller_path():
    nodes = [make_node("a"), make_node("b", "time_server"),
             NodeSpec("ra", "router", router_delay=50e-6),
             NodeSpec("rb", "router", router_delay=50e-6)]
    links = [LinkSpec("a", "ra", 1e9, 1e3), LinkSpec("ra", "b", 1e9, 1e3),
             LinkSpec("a", "rb", 1e9, 1e3), LinkSpec("rb", "b", 1e9, 1e3)]
    view = NetworkView(NetworkGraph(nodes, links))
    route = shortest_path(view, query("a", "b"))
    assert route.hops == ("a", "ra", "b")


def test_clients_do_not_relay():
    # a--c2--b is the only geometric path but c2 is a client: no route
    nodes = [make_node("a"), make_node("c2"), make_node("b", "time_server")]
    links = [LinkSpec("a", "c2", 1e9, 1e3), LinkSpec("c2", "b", 1e9, 1e3)]
    view = NetworkView(NetworkGraph(nodes, links))
    with pytest.raises(NoRoute):
        shortest_path(view, query("a", "b"))


def test_route_query_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        RouteQuery("a", "a", 0, 100)


# -- oracle equivalence -------------------------------------------------------------

def test_matches_brute_force_on_random_graphs():
    rng = random.Random(2024)
    agreements = 0
    for trial in range(60):
        view = NetworkView(random_network(rng), seed=trial)
        q = query("n00", "n01", t=rng.choice([0.0, 0.5, 1.5, 4.0]),
                  size=rng.choice([0, 12000, 10**6]),
                  message_id=f"t{trial}")
        oracle = enumerate_best_route(view, q)
        if oracle is None:
            with pytest.raises(NoRoute):
                shortest_path(view, q)
            continue
        route = shortest_path(view, q)
        assert route.breakdown.total_ps == oracle[2].total_ps
        assert route.hops == oracle[1]
        agreements += 1
    assert agreements > 10  # the generator must exercise routable cases


def test_prefixes_of_route_are_optimal():
    rng = random.Random(7)
    checked = 0
    while checked < 8:
        view = NetworkView(random_network(rng), seed=checked)
        q = query("n00", "n01", message_id=f"p{checked}")
        try:
            route = shortest_path(view, q)
        except NoRoute:
            continue
        for end in range(1, len(route.hops)):
            prefix_target = route.hops[end]
            sub = shortest_path(view, query("n00", prefix_target,
                                            message_id=f"p{checked}"))
            assert sub.hops == route.hops[:end + 1]
        checked += 1


def test_routing_is_deterministic():
    rng = random.Random(99)
    view = NetworkView(random_network(rng), seed=11)
    q = query("n00", "n01", t=2.0, message_id="same")
    try:
        first = shortest_path(view, q)
        second = shortest_path(view, q)
        assert first == second
    except NoRoute:
        with pytest.raises(NoRoute):
            shortest_path(view, q)


# -- round trips -----------------------------------------------------------------

def test_static_round_trip_is_reversed():
    view = NetworkView(line_graph([50e-6, 50e-6]))
    forward = shortest_path(view, query("c1", "s1", t=0.0))
    backward = shortest_path(view, query("s1", "c1", t=1.0))
    assert backward.hops == tuple(reversed(forward.hops))
    assert backward.breakdown.total_ps == forward.breakdown.total_ps


def test_failure_between_legs_changes_return_path():
    # r1 (fast) is up during the forward leg, down for the reply; r2 detours
    nodes = [make_node("c1"), make_node("s1", "time_server"),
             NodeSpec("r1", "router", router_delay=10e-6,
                      failure_model=FailureModel("alternating", up_duration=1.0,
                                                 down_duration=10.0)),
             NodeSpec("r2", "router", router_delay=500e-6)]
    links = [LinkSpec("c1", "r1", 1e9, 1e3), LinkSpec("r1", "s1", 1e9, 1e3),
             LinkSpec("c1", "r2", 1e9, 1e3), LinkSpec("r2", "s1", 1e9, 1e3)]
    view = NetworkView(NetworkGraph(nodes, links))
    forward = shortest_path(view, query("c1", "s1", t=0.5))
    backward = shortest_path(view, query("s1", "c1", t=2.0))
    assert forward.hops == ("c1", "r1", "s1")
    assert backward.hops == ("s1", "r2", "c1")


def test_blocked_legs_raise_labeled_no_route():
    graph = line_graph([50e-6], failure_models={"r1": FailureModel("always_failed")})
    view = NetworkView(graph)
    for src, dst, t in (("c1", "s1", 0.0), ("s1", "c1", 1.0)):
        with pytest.raises(NoRoute) as excinfo:
            shortest_path(view, query(src, dst, t=t, size=100))
        assert (excinfo.value.source, excinfo.value.destination) == (src, dst)
