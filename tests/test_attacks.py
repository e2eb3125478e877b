import pytest

from syncsim.attacks import AttackSpec
from syncsim.clocks import ClockParameters
from syncsim.engine import Engine
from syncsim.netview import NetworkView
from syncsim.routing import NoRoute, RouteQuery, shortest_path
from syncsim.sync import SyncOptions, cristian_sync
from syncsim.timebase import seconds_to_ps
from syncsim.topology import LinkSpec, NetworkGraph, NodeSpec
from syncsim.trace import trace_sha256

from conftest import line_graph, make_node
from oracles import enumerate_best_route


def window(t0, t1, **kwargs):
    return AttackSpec(t_start=t0, t_end=t1, **kwargs)


# -- spec validation ---------------------------------------------------------

def test_attack_spec_invariants():
    with pytest.raises(ValueError):
        window(5.0, 1.0, kind="ddos", target="r1")
    with pytest.raises(ValueError):
        window(0.0, 1.0, kind="ddos", target="r1", delay_multiplier=0.5)
    with pytest.raises(ValueError):
        window(0.0, 1.0, kind="tampering", target="r1")


def test_window_is_half_open():
    spec = window(1.0, 2.0, kind="ddos", target="r1")
    assert not spec.active_at_ps(seconds_to_ps(1.0) - 1)
    assert spec.active_at_ps(seconds_to_ps(1.0))
    assert spec.active_at_ps(seconds_to_ps(2.0) - 1)
    assert not spec.active_at_ps(seconds_to_ps(2.0))


# -- ddos ---------------------------------------------------------------------

def test_ddos_scales_router_component_exactly():
    attack = window(0.0, 10.0, kind="ddos", target="r1", delay_multiplier=10.0)
    engine = Engine(line_graph([50e-6]), seed=0, attacks=[attack])
    message = engine.send_message("c1", "s1", 12000, seconds_to_ps(1.0))
    engine.run_until(2.0)
    assert message.route.breakdown.router_ps == 500_000_000  # 10 x 50 us
    baseline = Engine(line_graph([50e-6]), seed=0)
    ref = baseline.send_message("c1", "s1", 12000, seconds_to_ps(1.0))
    baseline.run_until(2.0)
    assert message.route.breakdown.router_ps == 10 * ref.route.breakdown.router_ps
    assert message.route.breakdown.total_ps > ref.route.breakdown.total_ps


def test_ddos_outside_window_is_a_noop():
    attack = window(5.0, 6.0, kind="ddos", target="r1", delay_multiplier=10.0,
                    drop_probability=1.0)
    engine = Engine(line_graph([50e-6]), seed=0, attacks=[attack])
    message = engine.send_message("c1", "s1", 12000, seconds_to_ps(1.0))
    engine.run_until(2.0)
    assert message.status == "delivered"
    assert message.route.breakdown.router_ps == 50_000_000


def test_certain_drop_loses_every_message_and_aborts_sync():
    attack = window(0.0, 10.0, kind="ddos", target="r1", drop_probability=1.0)
    engine = Engine(line_graph([50e-6]), seed=3, attacks=[attack])
    message = engine.send_message("c1", "s1", 12000, seconds_to_ps(0.5))
    report = cristian_sync(engine, "c1", "s1", at=1.0)
    assert message.status == "dropped"
    assert report.failed and report.reason == "timeout"
    drops = [r for r in engine.records
             if r["kind"] == "hop_arrival" and r.get("status") == "dropped"]
    assert drops and drops[0]["attack"] == {"kind": "ddos", "target": "r1"}


def test_partial_drop_probability_is_deterministic_per_message():
    attack = window(0.0, 100.0, kind="ddos", target="r1", drop_probability=0.5)
    def outcomes():
        engine = Engine(line_graph([50e-6]), seed=11, attacks=[attack])
        msgs = [engine.send_message("c1", "s1", 1000, seconds_to_ps(0.1 * (i + 1)))
                for i in range(40)]
        engine.run_until(10.0)
        return [m.status for m in msgs]
    first, second = outcomes(), outcomes()
    assert first == second
    assert set(first) == {"delivered", "dropped"}


# -- ip spoof -------------------------------------------------------------------

def spoofed_cristian(forged, t0=0.0, t1=10.0, request_bits=12000, reply_bits=12000):
    attack = window(t0, t1, kind="ip_spoof", target="c1", forged_offset=forged)
    engine = Engine(line_graph([50e-6]), seed=0, attacks=[attack])
    options = SyncOptions(request_size_bits=request_bits, reply_size_bits=reply_bits)
    return cristian_sync(engine, "c1", "s1", at=1.0, options=options)


def test_spoof_shifts_residual_by_forged_offset():
    report = spoofed_cristian(1.0)
    assert report.exchanges[0].offset_error_ps == seconds_to_ps(1.0)
    assert report.residuals_ps["c1"] == seconds_to_ps(1.0)


def test_zero_forgery_is_identity():
    assert spoofed_cristian(0.0).residuals_ps["c1"] == 0


def test_spoof_superposition_with_asymmetry():
    # baseline error from 5/15 ms asymmetry, then the same run spoofed +1 s
    graph_kwargs = dict(bandwidth_bps=1e6, distance_m=0.0)
    options = SyncOptions(request_size_bits=5000, reply_size_bits=15000)
    base_engine = Engine(line_graph([0.0], **graph_kwargs), seed=0)
    base = cristian_sync(base_engine, "c1", "s1", at=1.0, options=options)
    attack = window(0.0, 10.0, kind="ip_spoof", target="c1", forged_offset=1.0)
    spoof_engine = Engine(line_graph([0.0], **graph_kwargs), seed=0, attacks=[attack])
    spoofed = cristian_sync(spoof_engine, "c1", "s1", at=1.0, options=options)
    assert (spoofed.exchanges[0].offset_error_ps
            == base.exchanges[0].offset_error_ps + seconds_to_ps(1.0))


def test_spoof_only_touches_replies_to_its_victim():
    attack = window(0.0, 10.0, kind="ip_spoof", target="c9", forged_offset=1.0)
    engine = Engine(line_graph([50e-6]), seed=0, attacks=[attack])
    report = cristian_sync(engine, "c1", "s1", at=1.0)
    assert report.residuals_ps["c1"] == 0


# -- router hijack -----------------------------------------------------------------

def test_force_down_blocks_and_recovers():
    attack = window(1.0, 2.0, kind="router_hijack", target="r1", mode="force_down")
    view = NetworkView(line_graph([50e-6]), seed=0, attacks=(attack,))
    with pytest.raises(NoRoute):
        shortest_path(view, RouteQuery("c1", "s1", seconds_to_ps(1.5), 100, "during"))
    before = shortest_path(view, RouteQuery("c1", "s1", seconds_to_ps(0.5), 100, "before"))
    after = shortest_path(view, RouteQuery("c1", "s1", seconds_to_ps(2.5), 100, "after"))
    assert before.hops == after.hops == ("c1", "r1", "s1")


def test_added_delay_flips_route_choice():
    # detour 3 ms vs direct 10 ms; +9 ms hijack makes the detour 12 ms
    nodes = [make_node("a"), make_node("b", "time_server"),
             NodeSpec("r1", "router", router_delay=0.0)]
    links = [LinkSpec("a", "b", 1e9, 2.0e6),
             LinkSpec("a", "r1", 1e9, 3.0e5), LinkSpec("r1", "b", 1e9, 3.0e5)]
    attack = window(1.0, 2.0, kind="router_hijack", target="r1",
                    mode="added_delay", added_delay=9e-3)
    view = NetworkView(NetworkGraph(nodes, links), attacks=(attack,))
    during = shortest_path(view, RouteQuery("a", "b", seconds_to_ps(1.5), 0, "mid"))
    outside = shortest_path(view, RouteQuery("a", "b", seconds_to_ps(0.5), 0, "pre"))
    assert outside.hops == ("a", "r1", "b")
    assert during.hops == ("a", "b")
    oracle = enumerate_best_route(view, RouteQuery("a", "b", seconds_to_ps(1.5), 0, "mid"))
    assert oracle[1] == during.hops


# -- outside-window identity ---------------------------------------------------------

def run_with_attacks(attacks):
    clock = ClockParameters(beta=1e-6, noise_sigma=1e-9, model_kind="linear")
    engine = Engine(line_graph([50e-6], client_clock=clock), seed=42,
                    attacks=attacks)
    engine.send_message("c1", "s1", 12000, seconds_to_ps(0.25))
    cristian_sync(engine, "c1", "s1", at=1.0)
    engine.run_until(5.0)
    return engine.records


@pytest.mark.parametrize("attack", [
    window(100.0, 200.0, kind="ddos", target="r1", delay_multiplier=10.0,
           drop_probability=1.0),
    window(100.0, 200.0, kind="ip_spoof", target="c1", forged_offset=1.0),
    window(100.0, 200.0, kind="router_hijack", target="r1", mode="force_down"),
    window(100.0, 200.0, kind="router_hijack", target="r1", mode="added_delay",
           added_delay=1.0),
])
def test_out_of_window_attacks_leave_traces_byte_identical(attack):
    assert trace_sha256(run_with_attacks([attack])) == trace_sha256(run_with_attacks([]))


def test_rtts_through_ddos_target_never_shrink():
    attack = window(0.0, 50.0, kind="ddos", target="r1", delay_multiplier=7.0)
    plain = Engine(line_graph([50e-6]), seed=1)
    slowed = Engine(line_graph([50e-6]), seed=1, attacks=[attack])
    for t in (0.5, 1.0, 2.0):
        base = cristian_sync(plain, "c1", "s1", at=t)
        hit = cristian_sync(slowed, "c1", "s1", at=t)
        assert hit.exchanges[0].rtt_ps >= base.exchanges[0].rtt_ps
