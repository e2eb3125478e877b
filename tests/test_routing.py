import random
import re
from heapq import heappop

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncsim import routing
from syncsim.attacks import AttackSpec
from syncsim.netview import NetworkView
from syncsim.routing import NoRoute, RouteQuery, _path, _search, edge_weight_ps, shortest_path
from syncsim.scenario import parse_scenario
from syncsim.timebase import seconds_to_ps
from syncsim.topology import FailureModel, LinkSpec, NetworkGraph, NodeSpec

from conftest import benchmark_workloads, line_graph, make_node
from oracles import enumerate_best_route, random_network


def query(src="c1", dst="s1", t=0.0, size=12000):
    return RouteQuery(src, dst, seconds_to_ps(t), size)


# -- edge weights ---------------------------------------------------------------

def test_edge_weight_composes_three_terms(simple_view):
    # 12 us transmission + 500 us propagation + 50 us router = 562 us
    link = simple_view.graph.links[0]  # c1--r1
    weight = edge_weight_ps(simple_view, link, "r1", query())
    assert weight == 562_000_000


def test_edge_into_inactive_router_is_excluded():
    graph = line_graph([50e-6], failure_models={"r1": FailureModel("always_failed")})
    view = NetworkView(graph)
    link = graph.links[0]  # c1--r1
    assert edge_weight_ps(view, link, "r1", query()) is None


def test_edge_weight_zero_case():
    graph = NetworkGraph([make_node("a"), make_node("b")],
                         [LinkSpec("a", "b", 1e12, 0.0)])
    view = NetworkView(graph)
    link = graph.links[0]
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


def test_equal_label_from_a_later_settled_node_with_smaller_path_wins():
    # both paths cost 60 us in 2 hops: ra pays 60 us in its router term, rz
    # 40 us plus 20 us of propagation into b.  rz settles first and reaches
    # b first; ra's equal label must still take b over, as ("a", "ra") sorts
    # before ("a", "rz")
    nodes = [make_node("a"), make_node("b", "time_server"),
             NodeSpec("ra", "router", router_delay=60e-6),
             NodeSpec("rz", "router", router_delay=40e-6)]
    links = [LinkSpec("a", "ra", 1e9, 0.0), LinkSpec("ra", "b", 1e9, 0.0),
             LinkSpec("a", "rz", 1e9, 0.0), LinkSpec("rz", "b", 1e9, 4.0e3)]
    view = NetworkView(NetworkGraph(nodes, links))
    route = shortest_path(view, query("a", "b"))
    assert route.hops == ("a", "ra", "b")
    assert enumerate_best_route(view, query("a", "b"))[1] == route.hops


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


@pytest.mark.parametrize("size_bits", [1.5, True, "12", -1],
                         ids=["fraction", "bool", "str", "negative"])
def test_route_query_rejects_a_bad_size_in_the_send_s_words(simple_view, size_bits):
    # accepted before: 1.5 routed a 1.5-bit message, True routed as 1 bit,
    # "12" raised a bare TypeError from inside link_terms_ps and -1 raised
    # the link's size problem from inside the search
    with pytest.raises(ValueError, match=f"^size_bits must be >= 0 and an int, got "
                                         f"{re.escape(repr(size_bits))}$"):
        shortest_path(simple_view, RouteQuery("c1", "s1", 0, size_bits))


# -- oracle equivalence -------------------------------------------------------------

def test_matches_brute_force_on_random_graphs():
    rng = random.Random(2024)
    agreements = 0
    for trial in range(60):
        view = NetworkView(random_network(rng), seed=trial)
        q = query("n00", "n01", t=rng.choice([0.0, 0.5, 1.5, 4.0]),
                  size=rng.choice([0, 12000, 10**6]))
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


def _random_attacks(rng: random.Random, graph, extra: int = 0) -> tuple[AttackSpec, ...]:
    """ddos (delay multiplier and drops), force_down and added_delay hijacks
    on random routers, in windows that cover some query times and not
    others, `extra` of them more than by default.  Among them, when the
    graph has routers: a window inside another, so the routing epochs run
    A, A + B, A; a ddos stacked on an added_delay hijack of one router; and
    a zero-length window."""
    routers = sorted(n for n, node in graph.nodes.items() if node.is_router)
    if not routers:
        return ()

    def attack(start: float, end: float) -> AttackSpec:
        window = dict(target=rng.choice(routers), t_start=start, t_end=end)
        kind = rng.choice(["ddos", "force_down", "added_delay"])
        if kind == "ddos":
            return AttackSpec("ddos", **window, delay_multiplier=rng.choice([1.0, 1.5, 10.0]),
                              drop_probability=rng.choice([0.0, 0.5]))
        return AttackSpec("router_hijack", **window, mode=kind,
                          added_delay=rng.choice([0.0, 1e-6, 1e-3]))

    attacks = []
    for _ in range(rng.randint(0, 3) + extra):
        start = rng.choice([0.0, 0.5, 1.0, 2.0])
        attacks.append(attack(start, start + rng.choice([0.5, 1.0, 3.0])))
    outer = rng.choice([0.0, 0.5])
    attacks += [attack(outer, outer + 3.0), attack(outer + 1.0, outer + 2.0)]
    stacked = rng.choice(routers)
    attacks += [AttackSpec("router_hijack", stacked, 0.5, 2.5, mode="added_delay",
                           added_delay=rng.choice([1e-6, 1e-3])),
                AttackSpec("ddos", stacked, 1.0, 3.0, delay_multiplier=rng.choice([1.5, 10.0]))]
    attacks.append(attack(2.0, 2.0))
    rng.shuffle(attacks)
    return tuple(attacks)


def _edge_times(attacks: tuple[AttackSpec, ...]) -> list[int]:
    """start - 1, start, end - 1 and end of every window, in that order."""
    return [t_ps for a in attacks
            for t_ps in (a.start_ps - 1, a.start_ps, a.end_ps - 1, a.end_ps)]


def test_one_epoch_per_set_of_active_routing_attacks():
    # the epochs run none, A, A + B, A, none: both stretches of A are one
    # epoch, and the baseline view is in the attacked view's attack-free
    # epoch at every instant, so both fill one route table between them
    outer = AttackSpec("router_hijack", "r1", 1.0, 4.0, mode="added_delay", added_delay=1e-6)
    inner = AttackSpec("ddos", "r2", 2.0, 3.0, delay_multiplier=2.0)
    view = NetworkView(line_graph([50e-6, 50e-6]), attacks=(outer, inner))
    baseline = view.without_attacks()
    epochs = [view.epoch_at(seconds_to_ps(t)) for t in (0.5, 1.5, 2.5, 3.5, 4.5)]
    assert epochs[1] is epochs[3]
    assert epochs[0] is epochs[4] is view.attack_free_epoch
    assert len({id(epoch) for epoch in epochs}) == 3
    for t in (0.5, 1.5, 2.5, 3.5, 4.5):
        assert baseline.epoch_at(seconds_to_ps(t)) is view.attack_free_epoch
    # the baseline is the view without attacks: it shares what both read
    assert baseline.attacks == () and not baseline.drop_targets
    for shared in ("topology", "flag_streams", "_flags", "attack_free_epoch"):
        assert getattr(baseline, shared) is getattr(view, shared), shared
    shortest_path(baseline, query(t=2.5))
    shortest_path(view, query(t=0.5))
    assert len(view.attack_free_epoch.tables) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cached_routes_match_brute_force_under_failures_and_attacks(seed):
    # one view and its attack-free baseline, which shares the route cache,
    # queried in turn at random times and at every window's edges: repeats
    # hit the cache, failures and attacks on a cached route force misses
    rng = random.Random(seed)
    graph = random_network(rng)
    view = NetworkView(graph, seed=seed, attacks=_random_attacks(rng, graph))
    baseline = view.without_attacks()
    endpoints = sorted(n for n, node in graph.nodes.items() if not node.is_router)
    times = [seconds_to_ps(rng.choice([0.0, 0.25, 0.5, 1.5, 2.5, 4.0])) for _ in range(8)]
    for t_ps in times + _edge_times(view.attacks):
        target = rng.choice((view, baseline))
        source, destination = rng.sample(endpoints, 2)
        q = RouteQuery(source, destination, t_ps, rng.choice([0, 12000, 10**6]))
        oracle = enumerate_best_route(target, q)
        if oracle is None:
            with pytest.raises(NoRoute):
                shortest_path(target, q)
            continue
        route = shortest_path(target, q)
        assert route.hops == oracle[1]
        assert route.breakdown == oracle[2]
        assert route.breakdown.total_ps == oracle[2].total_ps


def _tied_grid(rows: int, cols: int, rng: random.Random, homed: bool) -> NetworkGraph:
    """A rows x cols grid of routers with identical links and router delays,
    about 40% of them Bernoulli p=0.3, c1 at one corner and s1 at the other:
    many shortest paths share one (delay, hops) label.  Homed on several
    routers, as the mesh dual-homes its clients, c1 and s1 also link to two
    more routers each, drawn at random, so the endpoints' own labels tie
    between routers too."""
    flaky = FailureModel("bernoulli", failure_probability=0.3)
    names = [[f"r{row}{col}" for col in range(cols)] for row in range(rows)]
    nodes = [make_node("c1"), make_node("s1", "time_server")]
    nodes += [NodeSpec(name, "router", router_delay=50e-6,
                       failure_model=flaky if rng.random() < 0.4 else None)
              for row in names for name in row]
    pairs = [("c1", names[0][0]), (names[-1][-1], "s1")]
    if homed:
        pairs += [("c1", name) for name in rng.sample(sum(names, [])[1:], 2)]
        pairs += [(name, "s1") for name in rng.sample(sum(names, [])[:-1], 2)]
    pairs += [(names[row][col], names[row][col + 1])
              for row in range(rows) for col in range(cols - 1)]
    pairs += [(names[row][col], names[row + 1][col])
              for row in range(rows - 1) for col in range(cols)]
    return NetworkGraph(nodes, [LinkSpec(a, b, 1e9, 1e3) for a, b in pairs])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3), st.integers(2, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_routes_on_tied_grids_match_brute_force(rows, cols, homed, seed):
    # equal (delay, hops) labels everywhere, so the path tie-break decides
    # nearly every route: the first query fills the cache, later ones hit
    # it or, when a router on the cached route is down, miss; homed on
    # several routers, an endpoint's label, set by relaxation alone in a
    # fill, ties between the routers it is linked to
    rng = random.Random(seed)
    view = NetworkView(_tied_grid(rows, cols, rng, homed), seed=seed)
    for t_ps in sorted(rng.randrange(seconds_to_ps(10.0)) for _ in range(5)):
        for source, destination in (("c1", "s1"), ("s1", "c1")):
            q = RouteQuery(source, destination, t_ps, 12000)
            oracle = enumerate_best_route(view, q)
            if oracle is None:
                with pytest.raises(NoRoute):
                    shortest_path(view, q)
                continue
            route = shortest_path(view, q)
            assert route.hops == oracle[1]
            assert route.breakdown == oracle[2]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_epoch_terms_equal_router_ps_at_window_edges(seed):
    # the hop rule routing and breakdowns read (t's epoch term, gated by the
    # failure model) against the direct definition, which scans the attack
    # list at t: equal at every window's edges and at random times
    rng = random.Random(seed)
    graph = random_network(rng)
    view = NetworkView(graph, seed=seed, attacks=_random_attacks(rng, graph))
    topology = view.topology
    times = [rng.randrange(seconds_to_ps(6.0)) for _ in range(8)]
    for t_ps in [0] + _edge_times(view.attacks) + times:
        epoch = view.epoch_at(t_ps)
        for index, node_id in enumerate(topology.ids):
            node = graph.nodes[node_id]
            direct = (0 if not node.is_router
                      else seconds_to_ps(view.router_delay_at(node_id, t_ps))
                      if view.router_active(node_id, t_ps) else None)
            assert view.hop_router_ps(index, t_ps, epoch.terms) == direct
            if not node.is_router or node.failure_model.flag_at_ps(node_id, t_ps, seed):
                assert epoch.terms[index] == direct
            # the goal-directed searches' lower bounds: no epoch term is below
            # its attack-free term, None counting as infinite
            base = view.attack_free_epoch.terms[index]
            term = epoch.terms[index]
            assert term is None if base is None else term is None or term >= base
        assert epoch.raised == {index for index, (term, base)
                                in enumerate(zip(epoch.terms, view.attack_free_epoch.terms))
                                if term != base}


def _large_network(rng: random.Random) -> NetworkGraph:
    """30 to 80 nodes: about a fifth endpoints (n00 a client, n01 a time
    server), the rest routers, about half of them Bernoulli and a few
    always failed; a random spanning tree plus as many links again.  Delays
    and link parameters come from small sets, so equal labels are common."""
    n = rng.randint(30, 80)
    node_ids = [f"n{i:02d}" for i in range(n)]
    nodes = [make_node("n00"), make_node("n01", "time_server")]
    for node_id in node_ids[2:]:
        roll = rng.random()
        if roll < 0.2:
            nodes.append(make_node(node_id, rng.choice(["client", "time_server"])))
            continue
        model = (FailureModel("bernoulli", failure_probability=rng.choice([0.2, 0.5]))
                 if roll < 0.6 else FailureModel("always_failed") if roll < 0.63 else None)
        nodes.append(NodeSpec(node_id, "router", router_delay=rng.choice([10e-6, 50e-6]),
                              failure_model=model))
    pairs = {frozenset((node_ids[i], node_ids[rng.randrange(i)])) for i in range(1, n)}
    while len(pairs) < 2 * (n - 1):
        pairs.add(frozenset(rng.sample(node_ids, 2)))
    links = [LinkSpec(*sorted(pair), bandwidth_bps=rng.choice([1e7, 1e9]),
                      distance_m=rng.choice([0.0, 1e3, 2e3]))
             for pair in sorted(pairs, key=sorted)]
    return NetworkGraph(nodes, links)


def _route_from_a_fill(view: NetworkView, q: RouteQuery) -> tuple[str, ...] | None:
    """The route read from an exhaustive `_search` fill on t's terms, a
    router down at t (`hop_router_ps`) set to None; None when unreachable."""
    topology = view.topology
    epoch_terms = view.epoch_at(q.t_ps).terms
    terms = [view.hop_router_ps(node, q.t_ps, epoch_terms) for node in range(len(topology.ids))]
    predecessor = _search(topology, topology.index[q.source], q.size_bits, terms)[0]
    destination = topology.index[q.destination]
    if predecessor[destination] < 0:
        return None
    return tuple(topology.ids[node] for node in _path(predecessor, destination))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_goal_directed_routes_match_exhaustive_fills_on_large_graphs(seed):
    # too large for the brute-force oracle; windowed attacks on many routers
    # and Bernoulli failures send most queries past the attack-free cache to
    # a goal-directed search, where a wrong lower bound or pruning rule shows
    rng = random.Random(seed)
    graph = _large_network(rng)
    view = NetworkView(graph, seed=seed, attacks=_random_attacks(rng, graph, extra=8))
    baseline = view.without_attacks()
    endpoints = sorted(n for n, node in graph.nodes.items() if not node.is_router)
    times = [seconds_to_ps(rng.choice([0.0, 0.25, 0.5, 1.5, 2.5, 4.0])) for _ in range(8)]
    for t_ps in times + _edge_times(view.attacks):
        target = rng.choice((view, view, baseline))
        source, destination = rng.sample(endpoints, 2)
        q = RouteQuery(source, destination, t_ps, rng.choice([0, 12000, 10**6]))
        expected = _route_from_a_fill(target, q)
        if expected is None:
            with pytest.raises(NoRoute):
                shortest_path(target, q)
            continue
        assert shortest_path(target, q).hops == expected


def test_distances_beyond_64_bits_route_in_an_attacked_epoch_and_at_t():
    # a 10**20-bit message over 1 bps links: 10**32 ps per link, so the
    # attack-free distances to s1 do not fit in 64 bits.  At 0.5 s a ddos
    # raises fast's term past slow's; at 3 s fast is down
    alternating = FailureModel("alternating", up_duration=1.0, down_duration=10.0)
    nodes = [make_node("c1"), make_node("s1", "time_server"),
             NodeSpec("fast", "router", router_delay=10e-6, failure_model=alternating),
             NodeSpec("slow", "router", router_delay=50e-6)]
    links = [LinkSpec(a, b, 1.0, 1e3)
             for a, b in (("c1", "fast"), ("fast", "s1"), ("c1", "slow"), ("slow", "s1"))]
    attacks = (AttackSpec("ddos", "fast", 0.25, 0.75, delay_multiplier=10.0),)
    view = NetworkView(NetworkGraph(nodes, links), attacks=attacks)
    size = 10**20
    for t, via in ((0.1, "fast"), (0.5, "slow"), (3.0, "slow")):
        q = query(t=t, size=size)
        route = shortest_path(view, q)
        oracle = enumerate_best_route(view, q)
        assert route.hops == oracle[1] == ("c1", via, "s1")
        assert route.breakdown == oracle[2]
    distances = view.attack_free_epoch.tables[view.topology.index["s1"], size][1]
    assert max(distances) >= 2**63


def test_attacked_router_on_cached_route_is_paid_or_avoided():
    # the same (source, size) is routed before, during and after each window
    nodes = [make_node("c1"), make_node("s1", "time_server"),
             NodeSpec("fast", "router", router_delay=10e-6),
             NodeSpec("slow", "router", router_delay=50e-6)]
    links = [LinkSpec("c1", "fast", 1e9, 1e3), LinkSpec("fast", "s1", 1e9, 1e3),
             LinkSpec("c1", "slow", 1e9, 1e3), LinkSpec("slow", "s1", 1e9, 1e3)]
    attacks = (AttackSpec("ddos", "fast", 1.0, 2.0, delay_multiplier=3.0),
               AttackSpec("router_hijack", "fast", 3.0, 4.0, mode="added_delay",
                          added_delay=1e-3))
    view = NetworkView(NetworkGraph(nodes, links), attacks=attacks)
    before = shortest_path(view, query(t=0.5))
    during_ddos = shortest_path(view, query(t=1.5))
    during_hijack = shortest_path(view, query(t=3.5))
    after = shortest_path(view, query(t=4.5))
    assert before.hops == during_ddos.hops == after.hops == ("c1", "fast", "s1")
    assert during_ddos.breakdown.router_ps == 3 * before.breakdown.router_ps
    assert during_hijack.hops == ("c1", "slow", "s1")
    assert after == before


def test_prefixes_of_route_are_optimal():
    rng = random.Random(7)
    checked = 0
    while checked < 8:
        view = NetworkView(random_network(rng), seed=checked)
        q = query("n00", "n01")
        try:
            route = shortest_path(view, q)
        except NoRoute:
            continue
        for end in range(1, len(route.hops)):
            prefix_target = route.hops[end]
            sub = shortest_path(view, query("n00", prefix_target))
            assert sub.hops == route.hops[:end + 1]
        checked += 1


def test_routing_is_deterministic():
    rng = random.Random(99)
    view = NetworkView(random_network(rng), seed=11)
    q = query("n00", "n01", t=2.0)
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


# -- work counts ------------------------------------------------------------------

def test_an_exhaustive_fill_pops_no_endpoint_but_its_source(monkeypatch):
    # an endpoint relays nothing, so a fill labels it by relaxation alone;
    # before, the mesh's fills popped every client and server they reached
    scenario = parse_scenario(benchmark_workloads().mesh(1))
    view = NetworkView(scenario.graph, scenario.config.seed, scenario.attacks,
                       scenario.medium_speeds)
    topology = view.topology
    popped = []

    def recording_heappop(heap):
        entry = heappop(heap)
        popped.append(entry[2])
        return entry
    monkeypatch.setattr(routing, "heappop", recording_heappop)
    endpoints = [node for node, relay in enumerate(topology.relays) if not relay]
    source = endpoints[0]
    predecessor, delays = _search(topology, source, 12000, view.attack_free_epoch.terms)
    assert popped and popped[0] == source
    assert [topology.ids[node] for node in popped[1:] if not topology.relays[node]] == []
    # every other endpoint still has its label and predecessor
    assert all(predecessor[node] >= 0 and delays[node] is not None for node in endpoints[1:])


def test_a_breakdown_reads_its_routing_epoch_once_per_path(monkeypatch):
    # before, every hop looked the epoch up again (k calls for k hops)
    scenario = parse_scenario(benchmark_workloads().mesh(1))
    view = NetworkView(scenario.graph, scenario.config.seed, scenario.attacks,
                       scenario.medium_speeds)
    clients = [node_id for node_id, node in scenario.graph.nodes.items() if node.kind == "client"]
    route = max((shortest_path(view, RouteQuery("gps", client, seconds_to_ps(1.0), 12000))
                 for client in clients), key=lambda route: len(route.hops))
    assert len(route.hops) > 5
    calls = []
    epoch_at = NetworkView.epoch_at

    def counting_epoch_at(self, t_ps):
        calls.append(t_ps)
        return epoch_at(self, t_ps)
    monkeypatch.setattr(NetworkView, "epoch_at", counting_epoch_at)
    breakdown = routing.total_path_delay(view, list(route.hops), 12000, seconds_to_ps(1.0))
    assert breakdown == route.breakdown
    assert calls == [seconds_to_ps(1.0)]
