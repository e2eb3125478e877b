"""Answers kept: the engine's route answers, kept for their routing epoch
when its route cache gave them and for their instant otherwise, a view's
router flags and a clock's drift plus noise, each computed once per
instant, are equal to what a fresh engine, view or clock computes."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncsim import engine as engine_mod
from syncsim import randstream
from syncsim.attacks import AttackSpec
from syncsim.clocks import ClockParameters, SoftwareClock
from syncsim.engine import Engine
from syncsim.netview import NetworkView
from syncsim.routing import RouteQuery, shortest_path
from syncsim.scenario import build_engine, parse_scenario
from syncsim.sync import cristian_sync
from syncsim.timebase import seconds_to_ps
from syncsim.topology import FailureModel, LinkSpec, NetworkGraph, NodeSpec

from conftest import benchmark_workloads, line_graph

NOISY = ClockParameters(beta=1e-6, noise_sigma=1e-6, model_kind="linear", jitter_bound_ns=30.0)


def diamond_graph():
    """c1 -- r1 -- s1 through a fast flaky router, or c1 -- r2 -- r3 -- s1
    through two slower flaky ones; both endpoints have noisy clocks."""
    flaky = FailureModel("bernoulli", failure_probability=0.5)
    nodes = [NodeSpec("c1", "client", clock=NOISY), NodeSpec("s1", "time_server", clock=NOISY),
             NodeSpec("r1", "router", router_delay=10e-6, failure_model=flaky),
             NodeSpec("r2", "router", router_delay=50e-6, failure_model=flaky),
             NodeSpec("r3", "router", router_delay=50e-6, failure_model=flaky)]
    links = [LinkSpec(a, b, 1e9, 1e3, "fiber")
             for a, b in (("c1", "r1"), ("r1", "s1"), ("c1", "r2"), ("r2", "r3"), ("r3", "s1"))]
    return NetworkGraph(nodes, links)


# a ddos raising r1's term and a hijack holding r2 down, overlapping
ATTACKS = (AttackSpec("ddos", "r1", 1.0, 2.0, delay_multiplier=3.0),
           AttackSpec("router_hijack", "r2", 1.5, 3.0))


@pytest.mark.parametrize("attacks", [
    (), (AttackSpec("ddos", "r1", 50.0, 60.0, delay_multiplier=2.0),)],
    ids=["no_attacks", "attack_outside_the_round"])
def test_attack_free_cristian_round_computes_two_routes(monkeypatch, attacks):
    """The timeout budget routes the request and the reply at the instants
    they are sent at, so those sends reuse its answers; with an attack
    listed, the baseline is another view, sharing the attack-free epoch."""
    computed = []

    def counting_shortest_path(view, query):
        computed.append(query)
        return shortest_path(view, query)
    monkeypatch.setattr(engine_mod, "shortest_path", counting_shortest_path)
    engine = Engine(line_graph([50e-6]), seed=3, attacks=attacks)
    report = cristian_sync(engine, "c1", "s1", at=1.0)
    assert not report.failed
    assert len(computed) == 2
    assert [m.status for m in engine.messages.values()] == ["delivered", "delivered"]


def test_line_routes_each_distinct_query_once(monkeypatch):
    """line seed 1 has no router a failure model can take down and no
    attack, so each route of its one epoch's route cache is kept and holds
    at every instant: of the 3,400 route asks (3,000 data messages, and 100
    Cristian rounds that each budget and send a request and a reply),
    `shortest_path` runs once per (source, destination, size)."""
    scenario = parse_scenario(benchmark_workloads().line(1))
    engine = build_engine(scenario)
    asked, computed = [], []
    route = Engine._route

    def counting_route(self, view, source, destination, t_ps, size_bits):
        asked.append((source, destination, size_bits))
        return route(self, view, source, destination, t_ps, size_bits)

    def counting_shortest_path(view, query):
        computed.append((query.source, query.destination, query.size_bits))
        return shortest_path(view, query)
    monkeypatch.setattr(Engine, "_route", counting_route)
    monkeypatch.setattr(engine_mod, "shortest_path", counting_shortest_path)
    engine.run_until_ps(seconds_to_ps(scenario.config.duration))
    assert len(asked) == 3400
    assert sorted(computed) == sorted(set(asked))
    assert len(computed) == 104


def diamond_instant(seed: int, up: set[str], start_ps: int = 1) -> int:
    """The first instant from start_ps at which, of diamond_graph's flaky
    routers at this seed, exactly those in `up` are up."""
    models = {node_id: diamond_graph().nodes[node_id].failure_model
              for node_id in ("r1", "r2", "r3")}
    return next(t for t in range(start_ps, start_ps + 10**6)
                if all(bool(model.flag_at_ps(node_id, t, seed)) == (node_id in up)
                       for node_id, model in models.items()))


def test_kept_route_is_not_returned_where_a_router_on_it_is_down(monkeypatch):
    """The route through r1 kept at t1 is rechecked at t2, where r1 is down:
    the engine searches at t2 and answers as a fresh engine does."""
    seed = 5
    t1 = diamond_instant(seed, {"r1", "r2", "r3"})
    t2 = diamond_instant(seed, {"r2", "r3"}, t1 + 1)
    engine = Engine(diamond_graph(), seed)
    kept = engine._route(engine.view, "c1", "s1", t1, 12000)
    assert kept.hops == ("c1", "r1", "s1") and kept.failures is not None
    computed = []

    def counting_shortest_path(view, query):
        computed.append(query.t_ps)
        return shortest_path(view, query)
    monkeypatch.setattr(engine_mod, "shortest_path", counting_shortest_path)
    route = engine._route(engine.view, "c1", "s1", t2, 12000)
    assert computed == [t2]
    assert route.hops == ("c1", "r2", "r3", "s1") and route.failures is None
    fresh = Engine(diamond_graph(), seed)
    assert route == fresh._route(fresh.view, "c1", "s1", t2, 12000)


def test_route_found_at_an_instant_is_not_returned_at_a_later_one():
    """The route around r1, found by the search at t2 where r1 is down, is
    that instant's answer only: at t3, with every router up, the engine
    answers with the cached route through r1."""
    seed = 5
    t2 = diamond_instant(seed, {"r2", "r3"})
    t3 = diamond_instant(seed, {"r1", "r2", "r3"}, t2 + 1)
    engine = Engine(diamond_graph(), seed)
    around = engine._route(engine.view, "c1", "s1", t2, 12000)
    assert around.hops == ("c1", "r2", "r3", "s1") and around.failures is None
    route = engine._route(engine.view, "c1", "s1", t3, 12000)
    assert route.hops == ("c1", "r1", "s1")
    fresh = Engine(diamond_graph(), seed)
    assert route == fresh._route(fresh.view, "c1", "s1", t3, 12000)


def test_query_with_a_down_router_on_its_cached_route_draws_each_flag_once(monkeypatch):
    graph = diamond_graph()
    seed = 5
    flag = {node_id: graph.nodes[node_id].failure_model for node_id in ("r1", "r2", "r3")}
    t_ps = next(t for t in range(1, 10**6)
                if not flag["r1"].flag_at_ps("r1", t, seed)
                and flag["r2"].flag_at_ps("r2", t, seed) and flag["r3"].flag_at_ps("r3", t, seed))
    view = NetworkView(graph, seed)
    node_of = {id(state): view.topology.ids[i]
               for i, state in enumerate(view.flag_streams) if state is not None}
    draws = Counter()
    flag_from = FailureModel.flag_from

    def counting_flag_from(model, prefix, at_ps):
        draws[node_of[id(prefix)]] += 1
        return flag_from(model, prefix, at_ps)
    monkeypatch.setattr(FailureModel, "flag_from", counting_flag_from)
    route = shortest_path(view, RouteQuery("c1", "s1", t_ps, 12000))
    assert route.hops == ("c1", "r2", "r3", "s1")
    # the hit check finds r1 down, the search at t reads r1's again and draws
    # r2's and r3's as it first reaches them, and the breakdown of the route
    # found reads r2's and r3's again
    assert draws == {"r1": 1, "r2": 1, "r3": 1}


def test_search_at_t_draws_no_flag_of_a_router_it_never_reaches(monkeypatch):
    """c1 -- r1 -- s1 through a fast flaky router, or c1 -- r2 -- s1 over a
    long link; r2 also leads to r4 -- r5 and s1 to rx.  With r1 down at t,
    the search at t settles s1 before r4, whose delay is smaller but which
    is 500 us further from s1, so r4 is never expanded: the flaky r5 next to
    it and rx beyond the destination are never reached and never drawn."""
    flaky = FailureModel("bernoulli", failure_probability=0.5)
    nodes = [NodeSpec("c1", "client", clock=NOISY), NodeSpec("s1", "time_server", clock=NOISY),
             NodeSpec("r1", "router", router_delay=10e-6, failure_model=flaky),
             NodeSpec("r2", "router", router_delay=50e-6),
             NodeSpec("r4", "router", router_delay=10e-6),
             NodeSpec("r5", "router", router_delay=10e-6, failure_model=flaky),
             NodeSpec("rx", "router", router_delay=10e-6, failure_model=flaky)]
    links = [LinkSpec(a, b, 1e9, 1e5 if (a, b) == ("r2", "s1") else 1e3, "fiber")
             for a, b in (("c1", "r1"), ("r1", "s1"), ("c1", "r2"), ("r2", "s1"),
                          ("r2", "r4"), ("r4", "r5"), ("rx", "s1"))]
    graph = NetworkGraph(nodes, links)
    seed = 5
    t_ps = next(t for t in range(1, 10**6) if not flaky.flag_at_ps("r1", t, seed))
    view = NetworkView(graph, seed)
    node_of = {id(state): view.topology.ids[i]
               for i, state in enumerate(view.flag_streams) if state is not None}
    draws = Counter()
    flag_from = FailureModel.flag_from

    def counting_flag_from(model, prefix, at_ps):
        draws[node_of[id(prefix)]] += 1
        return flag_from(model, prefix, at_ps)
    monkeypatch.setattr(FailureModel, "flag_from", counting_flag_from)
    route = shortest_path(view, RouteQuery("c1", "s1", t_ps, 12000))
    assert route.hops == ("c1", "r2", "s1")
    assert draws == {"r1": 1}


def test_baseline_and_attacked_queries_at_one_instant_draw_each_flag_once(monkeypatch):
    """The attack-free view shares the attacked view's router flags: the
    baseline query at t draws them, and the attacked query at t, in another
    routing epoch (r1 raised, r2 held down), reads them again."""
    graph = diamond_graph()
    seed = 5
    models = {node_id: graph.nodes[node_id].failure_model for node_id in ("r1", "r2", "r3")}
    t_ps = next(t for t in range(seconds_to_ps(1.5), seconds_to_ps(2.0))
                if all(model.flag_at_ps(node_id, t, seed) for node_id, model in models.items()))
    view = NetworkView(graph, seed, ATTACKS)
    baseline = view.without_attacks()
    assert baseline.epoch_at(t_ps) is not view.epoch_at(t_ps)
    node_of = {id(state): view.topology.ids[i] for v in (view, baseline)
               for i, state in enumerate(v.flag_streams) if state is not None}
    draws = Counter()
    flag_from = FailureModel.flag_from

    def counting_flag_from(model, prefix, at_ps):
        draws[node_of[id(prefix)], at_ps] += 1
        return flag_from(model, prefix, at_ps)
    monkeypatch.setattr(FailureModel, "flag_from", counting_flag_from)
    query = RouteQuery("c1", "s1", t_ps, 12000)
    assert shortest_path(baseline, query).hops == ("c1", "r1", "s1")
    drawn = dict(draws)
    assert shortest_path(view, query).hops == ("c1", "r1", "s1")
    assert ("r1", t_ps) in drawn
    assert draws == drawn and set(drawn.values()) == {1}


def test_router_keeps_its_flags_of_its_last_two_instants(monkeypatch):
    """Asks at t, t' and t again draw r1's flag twice, as a timeout budget's
    backward leg and the reply sent at that instant do; with one instant
    kept they drew it three times.  A third instant drawn drops the older
    of the two, so t after t'' draws again."""
    view = NetworkView(diamond_graph(), 5)
    r1 = view.topology.index["r1"]
    t, t2, t3 = 1_000, 2_000, 3_000
    model = view.topology.failure_models[r1]
    expected = {at_ps: model.flag_at_ps("r1", at_ps, 5) for at_ps in (t, t2, t3)}
    drawn = []
    flag_from = FailureModel.flag_from

    def counting_flag_from(model, prefix, at_ps):
        drawn.append(at_ps)
        return flag_from(model, prefix, at_ps)
    monkeypatch.setattr(FailureModel, "flag_from", counting_flag_from)
    for asks, draws in (((t, t2, t), [t, t2]), ((t2, t3, t), [t, t2, t3, t])):
        assert [view.router_flag(r1, at_ps) for at_ps in asks] == [expected[a] for a in asks]
        assert drawn == draws


@pytest.mark.parametrize("workload, drawn", [("mesh", 2_569), ("mesh_attacked", 3_001)])
def test_every_flag_a_run_reads_is_the_reference_flag(monkeypatch, workload, drawn):
    """Seed 1: each flag the run reads, from its view or its baseline view,
    is `FailureModel.flag_at_ps` of the router at that instant, and keeping
    each router's last two instants draws `flag_from` this many times
    (3,458 on mesh and 3,663 on mesh_attacked with one instant kept)."""
    scenario = parse_scenario(getattr(benchmark_workloads(), workload)(1))
    engine = build_engine(scenario)
    read, calls = [], []
    router_flag, flag_from = NetworkView.router_flag, FailureModel.flag_from

    def recording_router_flag(view, node, t_ps):
        flag = router_flag(view, node, t_ps)
        read.append((view.topology.ids[node], view.topology.failure_models[node], t_ps, flag))
        return flag

    def counting_flag_from(model, prefix, at_ps):
        calls.append(at_ps)
        return flag_from(model, prefix, at_ps)
    monkeypatch.setattr(NetworkView, "router_flag", recording_router_flag)
    monkeypatch.setattr(FailureModel, "flag_from", counting_flag_from)
    engine.run_until_ps(seconds_to_ps(scenario.config.duration))
    assert len(calls) == drawn
    monkeypatch.undo()
    assert len(read) > drawn
    assert all(flag == model.flag_at_ps(node_id, t_ps, scenario.config.seed)
               for node_id, model, t_ps, flag in read)


def test_two_reads_at_one_instant_draw_noise_once_and_see_a_step_between(monkeypatch):
    draws = []
    draw_gaussian = randstream.draw_gaussian

    def counting_draw_gaussian(*args):
        draws.append(args)
        return draw_gaussian(*args)
    monkeypatch.setattr(randstream, "draw_gaussian", counting_draw_gaussian)
    clock = SoftwareClock("c1", NOISY, seed=9)
    t_ps = seconds_to_ps(2.5)
    first = clock.reading_ps(t_ps)
    clock.apply_step(-1_234_567, at_ps=t_ps)
    second = clock.reading_ps(t_ps)
    assert len(draws) == 1
    assert second - first == -1_234_567
    fresh = SoftwareClock("c1", NOISY, seed=9)
    fresh.apply_step(-1_234_567, at_ps=t_ps)
    assert second == fresh.reading_ps(t_ps)


# with the instant one picosecond before each window edge, so a kept answer
# is asked on both sides of every epoch boundary
INSTANTS_PS = tuple(sorted(
    {seconds_to_ps(t) for t in (0.0, 0.25, 1.0, 1.5, 1.75, 2.0, 3.0, 3.5)}
    | {edge - 1 for attack in ATTACKS for edge in (attack.start_ps, attack.end_ps)}))
OPERATIONS = st.tuples(st.sampled_from(("advance", "route", "baseline", "flag", "clock", "step")),
                       st.sampled_from(INSTANTS_PS), st.booleans())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), operations=st.lists(OPERATIONS, min_size=1, max_size=30))
def test_answers_kept_per_instant_equal_fresh_ones(seed, operations):
    """Queries at instants before, at and after the engine's now, in any
    order, interleaved with clock steps, against the same call on a fresh
    engine (its view and baseline, and its clock replaying the steps so
    far)."""
    graph = diamond_graph()
    engine = Engine(graph, seed, ATTACKS)
    clock = engine.clocks["c1"]
    failures = [i for i, model in enumerate(engine.view.topology.failure_models)
                if model is not None]
    steps = []

    def check_clock(t_ps):
        replay = Engine(graph, seed, ATTACKS).clocks["c1"]
        for delta_ps, at_ps in steps:
            replay.apply_step(delta_ps, at_ps)
        assert clock.offset_ps(t_ps) == replay.offset_ps(t_ps)

    for kind, t_ps, flip in operations:
        fresh = Engine(graph, seed, ATTACKS)
        if kind == "advance":
            engine.run_until_ps(max(t_ps, engine.now_ps))
        elif kind == "route":
            ends = ("s1", "c1") if flip else ("c1", "s1")
            assert (engine._route(engine.view, *ends, t_ps, 12000)
                    == fresh._route(fresh.view, *ends, t_ps, 12000))
            assert (engine._route(engine._baseline_view, *ends, t_ps, 12000)
                    == fresh._route(fresh._baseline_view, *ends, t_ps, 12000))
        elif kind == "baseline":
            back_bits = 0 if flip else 12000
            assert (engine.baseline_rtt_ps("c1", "s1", t_ps, 12000, back_bits)
                    == fresh.baseline_rtt_ps("c1", "s1", t_ps, 12000, back_bits))
        elif kind == "flag":
            for node in failures:
                assert engine.view.router_flag(node, t_ps) == fresh.view.router_flag(node, t_ps)
                assert (engine._baseline_view.router_flag(node, t_ps)
                        == fresh._baseline_view.router_flag(node, t_ps))
        elif kind == "clock":
            check_clock(t_ps)
        else:
            # a step between two reads at its own instant
            check_clock(t_ps)
            delta_ps = -7_000 if flip else 1_000_000
            clock.apply_step(delta_ps, t_ps)
            steps.append((delta_ps, t_ps))
            check_clock(t_ps)


def test_route_answers_hold_no_instant_before_now(monkeypatch):
    """mesh seed 1 in slices: each slice ends with no answers kept for an
    instant before now, and the instants held at any route ask (the rounds
    in flight at most) are a small share of the 2,642 instants the run
    routes at."""
    scenario = parse_scenario(benchmark_workloads().mesh(1))
    engine = build_engine(scenario)
    held, instants = [], set()
    route = Engine._route

    def recording_route(self, view, source, destination, t_ps, size_bits):
        answer = route(self, view, source, destination, t_ps, size_bits)
        held.append(len(self._answers))
        instants.add(t_ps)
        return answer
    monkeypatch.setattr(Engine, "_route", recording_route)
    horizon_ps = seconds_to_ps(scenario.config.duration)
    for k in range(1, 21):
        engine.run_until_ps(horizon_ps * k // 20)
        assert min(engine._answers, default=engine.now_ps) >= engine.now_ps
    assert len(instants) > 2000
    assert max(held) * 50 < len(instants)
