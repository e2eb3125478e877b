import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncsim import engine as engine_mod
from syncsim.attacks import AttackSpec
from syncsim.engine import Engine, SchedulingError
from syncsim.routing import NoRoute, RouteQuery, shortest_path
from syncsim.scenario import build_engine, parse_scenario, run_scenario
from syncsim.sync import cristian_sync
from syncsim.timebase import seconds_to_ps
from syncsim.topology import FailureModel, LinkSpec, NetworkGraph, NodeSpec
from syncsim.trace import trace_sha256

from conftest import (ROOT, assert_every_seq_accounted_for, benchmark_workloads,
                      line_graph, make_node)


def make_engine(graph=None, seed=0, **kwargs):
    return Engine(graph if graph is not None else line_graph([50e-6]), seed, **kwargs)


# -- scheduling ------------------------------------------------------------------

def test_same_time_events_execute_in_scheduling_order():
    engine = make_engine()
    order = []
    engine.schedule_ps(seconds_to_ps(1.0), "sync_step", {"tag": "a"},
                       action=lambda: order.append("a"))
    engine.schedule_ps(seconds_to_ps(1.0), "sync_step", {"tag": "b"},
                       action=lambda: order.append("b"))
    engine.schedule_ps(seconds_to_ps(0.5), "sync_step", {"tag": "c"},
                       action=lambda: order.append("c"))
    engine.run_until(2.0)
    assert order == ["c", "a", "b"]


def test_scheduling_in_the_past_is_an_error():
    engine = make_engine()
    engine.run_until(5.0)
    with pytest.raises(SchedulingError):
        engine.schedule_ps(seconds_to_ps(4.0), "sync_step", {})


def test_unknown_event_kind_rejected():
    engine = make_engine()
    with pytest.raises(ValueError):
        engine.schedule_ps(seconds_to_ps(1.0), "mystery", {})


def test_run_until_empty_queue_advances_clock():
    engine = make_engine()
    records = engine.run_until(3.0)
    assert records == []
    assert engine.now_ps == 3_000_000_000_000


def test_event_at_current_time_runs_after_earlier_sequenced():
    engine = make_engine()
    order = []
    def first():
        order.append("first")
        engine.schedule_ps(engine.now_ps, "sync_step", {},
                           action=lambda: order.append("nested"))
    engine.schedule_ps(seconds_to_ps(1.0), "sync_step", {}, action=first)
    engine.schedule_ps(seconds_to_ps(1.0), "sync_step", {},
                       action=lambda: order.append("second"))
    engine.run_until(1.0)
    assert order == ["first", "second", "nested"]


def test_next_event_is_an_in_flight_arrival_when_nothing_else_is_queued():
    engine = make_engine()
    message = engine.send_message("c1", "s1", 12000, 0)
    engine.run_until_ps(0)
    # only the hop arrival at r1 is pending, and no scheduled event is
    hop_ps = message.route.breakdown.arrivals_ps[0]
    assert engine.next_event_time_ps() == hop_ps > 0
    assert [r["kind"] for r in engine.run_until_ps(hop_ps)] == ["hop_arrival"]

    # a Cristian round on an idle engine steps through the instants of its
    # in-flight messages one by one, never straight to its timeout
    engine = make_engine()
    stops = []
    next_event_time_ps = engine.next_event_time_ps

    def recording_next_event_time_ps():
        stops.append(next_event_time_ps())
        return stops[-1]
    engine.next_event_time_ps = recording_next_event_time_ps
    report = cristian_sync(engine, "c1", "s1")
    assert not report.failed
    assert stops == sorted({r["sim_time_ps"] for r in engine.records})
    assert [r["kind"] for r in engine.records] == [
        "sync_step", "message_send", "hop_arrival", "delivery",
        "message_send", "hop_arrival", "delivery", "sync_step"]


def test_same_instant_scheduled_event_and_arrival_run_in_sequence_order():
    # the time of the first hop, from a run of the same send
    probe = make_engine()
    sent = probe.send_message("c1", "s1", 12000, 0)
    probe.run_until_ps(0)
    hop_ps = sent.route.breakdown.arrivals_ps[0]

    engine = make_engine()
    engine.schedule_ps(hop_ps, "sync_step", {"tag": "before"})      # sequence 0
    engine.send_message("c1", "s1", 12000, 0)                       # sequence 1
    engine.run_until_ps(0)                   # the send pushes the hop, sequence 2
    engine.schedule_ps(hop_ps, "sync_step", {"tag": "after"})       # sequence 3
    records = engine.run_until_ps(hop_ps)
    assert [(r["sequence"], r["kind"], r.get("tag")) for r in records] == [
        (0, "sync_step", "before"), (2, "hop_arrival", None), (3, "sync_step", "after")]
    assert {r["sim_time_ps"] for r in records} == {hop_ps}


# -- messages --------------------------------------------------------------------

def test_delivery_timing_matches_breakdown():
    engine = make_engine()
    message = engine.send_message("c1", "s1", 12000, seconds_to_ps(1.0))
    engine.run_until(2.0)
    assert message.status == "delivered"
    assert message.delivery_ps - message.send_ps == 1_074_000_000
    assert message.delivery_ps - message.send_ps == message.route.breakdown.total_ps


def test_trace_records_for_one_message():
    engine = make_engine()
    engine.send_message("c1", "s1", 12000, seconds_to_ps(1.0))
    records = engine.run_until(2.0)
    kinds = [r["kind"] for r in records]
    assert kinds == ["message_send", "hop_arrival", "delivery"]
    send = records[0]
    assert send["route"] == ["c1", "r1", "s1"]
    assert send["total_ps"] == send["router_ps"] + send["transmission_ps"] + send["propagation_ps"]


def test_blocked_message_status():
    graph = line_graph([50e-6], failure_models={"r1": FailureModel("always_failed")})
    engine = make_engine(graph)
    message = engine.send_message("c1", "s1", 100, seconds_to_ps(0.5))
    records = engine.run_until(1.0)
    assert message.status == "blocked"
    assert records[0]["status"] == "blocked"
    assert [r["kind"] for r in records] == ["message_send"]


def test_alternating_failure_reroutes_later_messages():
    nodes = [make_node("c1"), make_node("s1", "time_server"),
             NodeSpec("r1", "router", router_delay=10e-6,
                      failure_model=FailureModel("alternating", up_duration=1.0,
                                                 down_duration=5.0)),
             NodeSpec("r2", "router", router_delay=900e-6)]
    links = [LinkSpec("c1", "r1", 1e9, 1e3), LinkSpec("r1", "s1", 1e9, 1e3),
             LinkSpec("c1", "r2", 1e9, 1e3), LinkSpec("r2", "s1", 1e9, 1e3)]
    engine = make_engine(NetworkGraph(nodes, links))
    early = engine.send_message("c1", "s1", 12000, seconds_to_ps(0.5))   # r1 still up
    late = engine.send_message("c1", "s1", 12000, seconds_to_ps(2.5))    # r1 down
    engine.run_until(3.0)
    assert early.route.hops == ("c1", "r1", "s1")
    assert late.route.hops == ("c1", "r2", "s1")
    assert early.status == late.status == "delivered"


def test_global_causality_of_trace():
    engine = make_engine()
    for i in range(5):
        engine.send_message("c1", "s1", 1000 * (i + 1), seconds_to_ps(0.1 * (i + 1)))
    records = engine.run_until(2.0)
    stamps = [(r["sim_time_ps"], r["sequence"]) for r in records]
    assert stamps == sorted(stamps)


def test_identical_runs_produce_identical_traces():
    def run():
        engine = make_engine(seed=77)
        engine.send_message("c1", "s1", 12000, seconds_to_ps(0.25))
        engine.send_message("s1", "c1", 4000, seconds_to_ps(0.5))
        engine.run_until(2.0)
        return engine.records
    assert trace_sha256(run()) == trace_sha256(run())


def test_every_message_terminates():
    graph = line_graph([50e-6],
                       failure_models={"r1": FailureModel("bernoulli",
                                                          failure_probability=0.5)})
    engine = make_engine(graph, seed=5)
    for i in range(20):
        engine.send_message("c1", "s1", 12000, seconds_to_ps(0.05 * (i + 1)))
    engine.run_until(2.0)
    assert all(m.status in ("delivered", "dropped", "blocked")
               for m in engine.messages.values())


def test_cancelled_events_never_execute_or_trace():
    engine = make_engine()
    event = engine.schedule_ps(seconds_to_ps(1.0), "timeout", {"message_id": "x"})
    engine.cancel(event)
    records = engine.run_until(2.0)
    assert records == []


SCENARIO_DIR = ROOT / "demos" / "scenarios"
MESH_ATTACKS = json.loads((SCENARIO_DIR / "mesh_attacks.json").read_text())


@pytest.mark.parametrize("changes, expect", [
    # a ddos drop, a forged reply, and every timeout cancelled by its reply
    ({}, lambda r: r["kind"] == "hop_arrival" and r.get("status") == "dropped"),
    # replies arrive after the budget: every exchange's timeout executes
    ({"sync_options": {"timeout_factor": 0.5}},
     lambda r: r.get("sync_aborted") == "cristian"),
    # a Berkeley round whose corrections deadline expires in flight
    ({"sync_options": {"default_timeout_s": 1e-4},
      "sync_schedule": [{"time_s": 12.0, "algorithm": "berkeley",
                         "participants": ["s1", "c1"]}]},
     lambda r: r.get("undelivered_corrections") == ["c1"]),
    # a Berkeley round whose last correction cancels the deadline
    ({"sync_schedule": [{"time_s": 12.0, "algorithm": "berkeley",
                         "participants": ["s1", "c1"]}]},
     lambda r: r["kind"] == "sync_step" and r["algorithm"] == "berkeley"
     and r["phase"] == "completed"),
], ids=["bundled", "cristian_timeouts", "berkeley_deadline", "berkeley_completed"])
def test_every_sequence_number_is_traced_cancelled_or_queued(cancelled_seqs, changes,
                                                             expect):
    """Sends, sync steps and timeouts are queued by `schedule_ps`, and the
    event loop gives each hop and delivery a number as it advances
    in-flight messages; both draw from one sequence counter, and every
    number drawn ends as one trace record, one cancelled event or one
    entry left in either heap.  Every round that starts ends exactly once."""
    engine, records, _ = run_scenario(parse_scenario({**MESH_ATTACKS, **changes}))
    assert any(expect(record) for record in records)
    assert_every_seq_accounted_for(engine, cancelled_seqs)
    phases = Counter(r["phase"] for r in records if r["kind"] == "sync_step")
    assert phases["completed"] + phases["aborted"] == phases["started"] > 0


def test_an_in_flight_message_keeps_its_arrivals_entry():
    """The line workload at seed 1 in 120 `run_until_ps` slices: each message
    in flight at a slice edge is followed through the next event, and
    through each of its hops it stays in one `_arrivals` entry, re-sifted
    in place, not popped and pushed anew."""
    scenario = parse_scenario(benchmark_workloads().line(1))
    engine = build_engine(scenario)
    horizon_ps = seconds_to_ps(scenario.config.duration)
    followed = 0
    for k in range(1, 121):
        engine.run_until_ps(horizon_ps * k // 120)
        entries = {entry[2].message_id: entry for entry in engine._arrivals}
        if not entries:
            continue
        engine.run_until_ps(engine.next_event_time_ps())
        for entry in engine._arrivals:
            message_id = entry[2].message_id
            if message_id in entries:
                assert entry is entries[message_id], message_id
                followed += 1
    assert followed > 0


def test_actions_and_delivery_callbacks_see_their_records_time(monkeypatch):
    """On the mesh_attacks demo, with its drop, forged replies and sync
    rounds, every queued action and every delivery callback runs with
    `engine.now_ps` at its record's `sim_time_ps`, although a hop that
    neither delivers nor drops does not set it."""
    seen = {}  # ("event", sequence) or ("delivery", message id) -> now_ps
    schedule_ps, send_message = Engine.schedule_ps, Engine.send_message

    def schedule(engine, time_ps, kind, payload=None, action=None):
        entry = None

        def seen_action():
            seen["event", entry[1]] = engine.now_ps
            return action()
        entry = schedule_ps(engine, time_ps, kind, payload,
                            None if action is None else seen_action)
        return entry

    def send(engine, *args, on_delivery=None, **kwargs):
        def seen_delivery(message):
            seen["delivery", message.message_id] = engine.now_ps
            if on_delivery is not None:
                on_delivery(message)
        return send_message(engine, *args, on_delivery=seen_delivery, **kwargs)
    monkeypatch.setattr(Engine, "schedule_ps", schedule)
    monkeypatch.setattr(Engine, "send_message", send)
    _, records, _ = run_scenario(parse_scenario(MESH_ATTACKS))
    times = {}
    for record in records:
        key = (("delivery", record["message_id"]) if record["kind"] == "delivery"
               else ("event", record["sequence"]))
        times[key] = record["sim_time_ps"]
    assert {key: times[key] for key in seen} == seen
    kinds = Counter(record["kind"] for record in records)
    assert len(seen) > kinds["delivery"] > 0 and kinds["hop_arrival"] > 0


def assert_hop_times_are_exact(routes, records):
    """What lets the event loop queue hop arrivals and deliveries without
    `schedule_ps`'s checks as it advances in-flight messages: each route's
    arrival offsets are int, non-negative and nondecreasing, one per node
    after the source, ending at its total; no hop_arrival or delivery
    precedes its message's send."""
    for route in routes:
        arrivals = route.breakdown.arrivals_ps
        assert len(arrivals) == len(route.hops) - 1
        assert all(type(offset) is int for offset in arrivals)
        assert all(0 <= a <= b for a, b in zip((0,) + arrivals, arrivals))
        assert arrivals[-1] == route.breakdown.total_ps
    send_ps = {r["message_id"]: r["sim_time_ps"] for r in records
               if r["kind"] == "message_send"}
    for record in records:
        if record["kind"] in ("hop_arrival", "delivery"):
            assert record["sim_time_ps"] >= send_ps[record["message_id"]]


@pytest.mark.parametrize("source", [
    *sorted(p.stem for p in SCENARIO_DIR.glob("*.json")), "mesh", "mesh_attacked", "line"])
def test_every_route_handed_out_has_exact_arrivals(monkeypatch, source):
    """Every bundled scenario at its own seed, and the benchmark workloads at
    seed 1; the routes include the baseline ones that budget timeouts."""
    path = SCENARIO_DIR / f"{source}.json"
    data = (json.loads(path.read_text()) if path.exists()
            else getattr(benchmark_workloads(), source)(1))
    routes = []

    def recording_shortest_path(view, query):
        routes.append(shortest_path(view, query))
        return routes[-1]
    monkeypatch.setattr(engine_mod, "shortest_path", recording_shortest_path)
    scenario = parse_scenario(data)
    engine = build_engine(scenario)
    engine.run_until(scenario.config.duration)
    assert routes
    assert_hop_times_are_exact(routes, engine.records)


@settings(max_examples=40, deadline=None)
@given(legs=st.lists(st.tuples(st.sampled_from([0.0, 1.0, 250_000.0]),
                               st.sampled_from([1e6, 1e9, 3.3e9]),
                               st.sampled_from([0.0, 1e-9, 37e-6])),
                     min_size=1, max_size=6),
       size_bits=st.sampled_from([0, 1, 12_000]) | st.integers(0, 10**7),
       at_ps=st.integers(0, 2**60))
def test_line_route_arrivals_are_exact(legs, size_bits, at_ps):
    """Random lines of (distance, bandwidth, router delay) legs, zero-distance
    links and empty messages included."""
    nodes = [make_node("c1")]
    nodes += [make_node(f"r{i}", "router", router_delay=delay)
              for i, (_, _, delay) in enumerate(legs[1:], start=1)]
    nodes.append(make_node("s1", "time_server"))
    ids = [node.node_id for node in nodes]
    links = [LinkSpec(a, b, bandwidth, distance, "fiber")
             for (a, b), (distance, bandwidth, _) in zip(zip(ids, ids[1:]), legs)]
    engine = make_engine(NetworkGraph(nodes, links))
    message = engine.send_message("c1", "s1", size_bits, at_ps)
    engine.run_until_ps(at_ps + seconds_to_ps(100.0))
    assert message.status == "delivered"
    assert_hop_times_are_exact([message.route], engine.records)


@pytest.mark.parametrize("call", [
    lambda engine: engine.schedule_ps(1.0, "sync_step"),
    lambda engine: engine.send_message("c1", "s1", 12000, 1.0),
    lambda engine: RouteQuery("c1", "s1", 1.0, 12000),
    lambda engine: engine.schedule_ps(True, "sync_step", {}),
    lambda engine: engine.send_message("c1", "s1", 12000, True),
    lambda engine: RouteQuery("c1", "s1", True, 12000),
    lambda engine: engine.run_until_ps(2.5e12),
], ids=["schedule_ps", "send_message", "route_query", "schedule_ps_bool",
        "send_message_bool", "route_query_bool", "run_until_ps"])
def test_float_time_is_rejected_at_the_engine_boundary(call):
    engine = make_engine()
    with pytest.raises(TypeError):
        call(engine)
    assert engine.messages == {}
    assert engine.run_until(2.0) == []


def test_a_rejected_send_takes_no_message_id():
    engine = make_engine()
    engine.run_until(1.0)
    with pytest.raises(SchedulingError):
        engine.send_message("c1", "s1", 100, seconds_to_ps(0.5))
    with pytest.raises(TypeError):
        engine.send_message("c1", "s1", 100, 2.5e12)
    message = engine.send_message("c1", "s1", 100, seconds_to_ps(2.0))
    assert message.message_id == "m00001"
    assert list(engine.messages) == ["m00001"]
    engine.run_until(3.0)
    assert [r["message_id"] for r in engine.records if r["kind"] == "message_send"] == ["m00001"]


@pytest.mark.parametrize("size_bits", [1000.5, True, -5, "1000", None])
def test_a_bad_size_is_rejected_at_the_send(size_bits):
    # rejected before an id is taken or anything is queued, so the run
    # goes on and the next send is m00001
    engine = make_engine()
    with pytest.raises(ValueError, match="^size_bits must be >= 0 and an int, got "):
        engine.send_message("c1", "s1", size_bits, seconds_to_ps(0.5))
    assert engine.messages == {} and engine.next_event_time_ps() is None
    message = engine.send_message("c1", "s1", 0, seconds_to_ps(0.5))
    assert message.message_id == "m00001"
    engine.run_until(1.0)
    assert message.status == "delivered"
    assert [r["size_bits"] for r in engine.records if r["kind"] == "message_send"] == [0]


def test_a_size_whose_link_term_overflows_is_rejected_at_the_send():
    # the graph is valid, since a 0-bit message crosses the link in 0 ps; a
    # 100-bit one raised "cannot convert float infinity to integer" from the
    # run before
    engine = make_engine(line_graph([50e-6], bandwidth_bps=1e-300))
    with pytest.raises(ValueError, match="^link c1--r1: delay of a 100-bit message "
                                         "is not a finite number of picoseconds$"):
        engine.send_message("c1", "s1", 100, seconds_to_ps(0.5))
    assert engine.messages == {} and engine.next_event_time_ps() is None
    message = engine.send_message("c1", "s1", 0, seconds_to_ps(0.5))
    assert message.message_id == "m00001"
    engine.run_until(1.0)
    assert message.status == "delivered"


@pytest.mark.parametrize("speed, problem", [
    (1e-300, "link c1--r1: delay of a 0-bit message is not a finite number of picoseconds"),
    (math.nan, "link c1--r1: fiber speed must be > 0"),
], ids=["beyond_ps", "nan"])
def test_a_speed_override_whose_link_term_is_not_finite_names_the_link(speed, problem):
    # the graph is valid at the default speeds; the engine raised a bare
    # OverflowError for 1e-300 and "cannot convert float NaN to integer" for
    # NaN before
    graph = line_graph([50e-6])
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        make_engine(graph, medium_speeds={"fiber": speed})


@pytest.mark.parametrize("speed", ["fast", [1], None, True],
                         ids=["string", "array", "null", "bool"])
def test_a_speed_override_that_is_not_a_number_names_the_link(speed):
    # raised a bare TypeError for "fast" and [1], named None an unknown
    # medium, and ran the link at True, read as 1 m/s
    with pytest.raises(ValueError, match="^link c1--r1: fiber speed must be > 0$"):
        make_engine(line_graph([50e-6]), medium_speeds={"fiber": speed})


@pytest.mark.parametrize("router_delay, attacks, problem", [
    (math.inf, (), "r1: router_delay is not a finite number of picoseconds"),
    (math.nan, (), "r1: router_delay must be >= 0"),
    (50e-6, (AttackSpec("ddos", "r1", 0.0, 10.0, delay_multiplier=1e305),),
     "attack ddos on 'r1': router delay from 0.0 s is not a finite number of picoseconds"),
    (50e-6, (AttackSpec("ddos", "r1", 2.5, 10.0, delay_multiplier=1e305),
             AttackSpec("router_hijack", "r1", 2.0, 10.0, mode="added_delay",
                        added_delay=1.0)),
     "attack ddos and router_hijack on 'r1': router delay from 2.5 s is not a finite "
     "number of picoseconds"),
], ids=["router_delay_infinite", "router_delay_nan", "ddos", "ddos_and_hijack"])
def test_a_router_term_that_is_not_finite_names_the_router(router_delay, attacks, problem):
    # built through the API, with no scenario validation, the engine raised
    # a bare OverflowError, or "cannot convert float NaN to integer", from
    # netview.up_router_ps before
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        make_engine(line_graph([router_delay]), attacks=attacks)


@pytest.mark.parametrize("router_delay, failure_model, attacks, problem", [
    (-1e-3, None, (), "r1: router_delay must be >= 0"),
    (math.inf, FailureModel("always_failed"), (),
     "r1: router_delay is not a finite number of picoseconds"),
    (50e-6, None, (AttackSpec("ddos", "r1", 0.0, 10.0, delay_multiplier=1e305),
                   AttackSpec("router_hijack", "r1", 0.0, 10.0)),
     "attack ddos and router_hijack on 'r1': router delay from 0.0 s is not a finite "
     "number of picoseconds"),
], ids=["negative", "infinite_and_always_failed", "ddos_on_forced_down"])
def test_a_router_delay_the_rule_rejects_fails_the_engine(router_delay, failure_model,
                                                         attacks, problem):
    # accepted before: the negative delay traced a hop_arrival before its own
    # send, and a down router's delay was never quantized; the first two are
    # now rejected when the router is built, the third by the engine
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        make_engine(line_graph([router_delay], failure_models={"r1": failure_model}),
                    attacks=attacks)


@pytest.mark.parametrize("router_delay, link, problem", [
    (-1.0, {}, "r1: router_delay must be >= 0"),
    (math.nan, {}, "r1: router_delay must be >= 0"),
    (math.inf, {}, "r1: router_delay is not a finite number of picoseconds"),
    (1e300, {}, "r1: router_delay is not a finite number of picoseconds"),
    (50e-6, {"bandwidth_bps": 0.0}, "link c1--r1: bandwidth must be > 0"),
    (50e-6, {"bandwidth_bps": math.nan}, "link c1--r1: bandwidth must be > 0"),
    (50e-6, {"distance_m": math.nan}, "link c1--r1: distance must be >= 0"),
    (50e-6, {"distance_m": math.inf},
     "link c1--r1: delay of a 0-bit message is not a finite number of picoseconds"),
    (50e-6, {"distance_m": 1e305},
     "link c1--r1: delay of a 0-bit message is not a finite number of picoseconds"),
    (50e-6, {"medium": "laser"}, "link c1--r1: unknown medium 'laser'"),
], ids=["delay_negative", "delay_nan", "delay_infinite", "delay_beyond_ps",
        "bandwidth_zero", "bandwidth_nan", "distance_nan", "distance_infinite",
        "distance_beyond_ps", "medium_unknown"])
def test_a_graph_the_engine_rejected_is_not_built_in_its_words(router_delay, link, problem):
    # one rule, one message: the engine raised these words when it was
    # built on such a graph, and the node and link constructors now do
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        NetworkGraph([make_node("c1"), make_node("r1", "router", router_delay=router_delay),
                      make_node("s1", "time_server")],
                     [LinkSpec(**{"a": "c1", "b": "r1", "bandwidth_bps": 1e9,
                                  "distance_m": 1e5, **link}),
                      LinkSpec("r1", "s1", 1e9, 1e5)])


@pytest.mark.parametrize("source, destination, named", [
    ("c1", "c1", "source and destination must differ, got 'c1' twice"),
    ("c1", "zz", "unknown node 'zz'"),
    ("zz", "s1", "unknown node 'zz'"),
], ids=["self_send", "unknown_destination", "unknown_source"])
def test_a_bad_endpoint_is_rejected_at_the_send(source, destination, named):
    # accepted before, then run_until raised after popping the send and
    # left the message pending, its sequence number on no record
    engine = make_engine()
    with pytest.raises(ValueError, match=named):
        engine.send_message(source, destination, 100, seconds_to_ps(0.5))
    assert engine.messages == {} and engine.next_event_time_ps() is None
    message = engine.send_message("c1", "s1", 100, seconds_to_ps(0.5))
    assert message.message_id == "m00001"
    engine.run_until(1.0)
    assert message.status == "delivered"


def two_path_graph():
    """c1 -- r1 -- s1 through a flaky router, or c1 -- r2 -- r3 -- s1."""
    nodes = [make_node("c1"), make_node("s1", "time_server"),
             make_node("r1", "router", router_delay=50e-6,
                       failure_model=FailureModel("bernoulli", failure_probability=0.5)),
             make_node("r2", "router", router_delay=10e-6),
             make_node("r3", "router", router_delay=10e-6)]
    links = [LinkSpec(a, b, 1e9, 100_000.0, "fiber")
             for a, b in (("c1", "r1"), ("r1", "s1"), ("c1", "r2"),
                          ("r2", "r3"), ("r3", "s1"))]
    return NetworkGraph(nodes, links)


@settings(max_examples=60, deadline=None)
@given(at_ps=st.integers(2**53, 2**57), size_bits=st.integers(0, 10**6))
def test_send_at_any_ps_routes_and_delivers_exactly(at_ps, size_bits):
    engine = make_engine(two_path_graph(), seed=11)
    message = engine.send_message("c1", "s1", size_bits, at_ps)
    engine.run_until_ps(at_ps + seconds_to_ps(1.0))
    assert message.send_ps == at_ps
    query = RouteQuery("c1", "s1", at_ps, size_bits)
    try:
        expected = shortest_path(engine.view, query)
    except NoRoute:
        assert message.status == "blocked"
        return
    assert message.route == expected
    assert message.delivery_ps - message.send_ps == expected.breakdown.total_ps
