import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncsim.engine import Engine, SchedulingError
from syncsim.routing import NoRoute, RouteQuery, shortest_path
from syncsim.timebase import seconds_to_ps
from syncsim.topology import FailureModel, LinkSpec, NetworkGraph, NodeSpec
from syncsim.trace import trace_sha256

from conftest import line_graph, make_node


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
    query = RouteQuery("c1", "s1", at_ps, size_bits, message.message_id)
    try:
        expected = shortest_path(engine.view, query)
    except NoRoute:
        assert message.status == "blocked"
        return
    assert message.route == expected
    assert message.delivery_ps - message.send_ps == expected.breakdown.total_ps
