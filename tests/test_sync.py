import random

import pytest

from syncsim.clocks import ClockParameters
from syncsim.engine import Engine
from syncsim.metrics import metrics_report
from syncsim.sync import (BerkeleyRound, CristianExchange, SyncOptions, berkeley_round,
                          cristian_sync)
from syncsim.timebase import seconds_to_ps
from syncsim.topology import FailureModel, LinkSpec, NetworkGraph, NodeSpec

from conftest import PERFECT, line_graph


def offset_clock(seconds):
    return ClockParameters(alpha0=seconds, model_kind="linear")


def direct_pair(client_clock=PERFECT, bandwidth=1e6):
    """client and server joined by one zero-length link; delays come from
    message sizes, so forward/backward asymmetry is directly constructible."""
    graph = NetworkGraph(
        [NodeSpec("c1", "client", clock=client_clock),
         NodeSpec("s1", "time_server", clock=PERFECT)],
        [LinkSpec("c1", "s1", bandwidth, 0.0)])
    return Engine(graph, seed=0)


# -- Cristian ---------------------------------------------------------------

def test_symmetric_delays_recover_server_exactly():
    engine = Engine(line_graph([50e-6], client_clock=offset_clock(2.0)), seed=1)
    report = cristian_sync(engine, "c1", "s1", at=1.0)
    assert not report.failed
    assert report.residuals_ps == {"c1": 0}
    assert report.corrections_ps["c1"] == seconds_to_ps(-2.0)
    assert report.messages_sent == 2


def test_asymmetric_delays_leave_half_the_difference():
    # request 5000 bits, reply 15000 bits over 1 Mbps: 5 ms out, 15 ms back
    engine = direct_pair()
    options = SyncOptions(request_size_bits=5000, reply_size_bits=15000)
    report = cristian_sync(engine, "c1", "s1", at=0.0, options=options)
    exchange = report.exchanges[0]
    assert exchange.forward_delay_ps == 5_000_000_000
    assert exchange.backward_delay_ps == 15_000_000_000
    # client lands behind the server by (backward - forward) / 2 = 5 ms
    assert exchange.offset_error_ps == -5_000_000_000
    assert report.residuals_ps["c1"] == 5_000_000_000


@pytest.mark.parametrize("request_bits,reply_bits", [
    (1000, 1000), (2000, 30000), (42000, 6000), (16000, 16000)])
def test_residual_law_over_size_asymmetry(request_bits, reply_bits):
    engine = direct_pair(client_clock=offset_clock(0.25))
    options = SyncOptions(request_size_bits=request_bits, reply_size_bits=reply_bits)
    report = cristian_sync(engine, "c1", "s1", at=0.0, options=options)
    exchange = report.exchanges[0]
    backward_minus_forward = exchange.backward_delay_ps - exchange.forward_delay_ps
    assert -exchange.offset_error_ps == backward_minus_forward // 2
    assert backward_minus_forward % 2 == 0


def test_rtt_is_measured_on_client_clock():
    engine = direct_pair(client_clock=offset_clock(3.5))
    options = SyncOptions(request_size_bits=4000, reply_size_bits=4000)
    report = cristian_sync(engine, "c1", "s1", at=0.0, options=options)
    exchange = report.exchanges[0]
    assert exchange.rtt_ps == 8_000_000_000  # offset cancels in the difference
    assert exchange.t1_client_ps >= exchange.t0_client_ps


def test_service_time_acts_as_hidden_asymmetry():
    engine = direct_pair()
    options = SyncOptions(request_size_bits=1000, reply_size_bits=1000,
                          server_service_time=0.010)
    report = cristian_sync(engine, "c1", "s1", at=0.0, options=options)
    # server stamps late, pushing the client ahead by service/2
    assert report.exchanges[0].offset_error_ps == 5_000_000_000


def test_unroutable_sync_aborts_via_timeout():
    graph = line_graph([50e-6], failure_models={"r1": FailureModel("always_failed")})
    engine = Engine(graph, seed=0)
    report = cristian_sync(engine, "c1", "s1", at=0.0)
    assert report.failed
    assert report.reason == "timeout"
    assert engine.now_ps >= seconds_to_ps(1.0)  # default timeout elapsed


def test_convergence_time_is_round_trip():
    engine = Engine(line_graph([50e-6]), seed=0)
    report = cristian_sync(engine, "c1", "s1", at=1.0)
    assert report.convergence_ps == 2 * 1_074_000_000


def test_slew_correction_arrives_gradually():
    engine = Engine(line_graph([50e-6], client_clock=offset_clock(2.0)), seed=1)
    options = SyncOptions(correction_policy="slew", slew_rate=0.01)
    report = cristian_sync(engine, "c1", "s1", at=0.0, options=options)
    clock = engine.clocks["c1"]
    t_done = report.exchanges[0].t1_client_ps  # close enough to wall for bounds
    # immediately after the round the offset is still ~2 s, gone after 200 s
    assert clock.offset_ps(engine.now_ps) > seconds_to_ps(1.9)
    assert clock.offset_ps(seconds_to_ps(300.0)) < seconds_to_ps(0.01)


@pytest.mark.parametrize("name", ["server_service_time", "timeout_factor",
                                  "default_timeout", "outlier_threshold", "slew_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_options_reject_a_non_finite_value(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SyncOptions(**{name: value})


@pytest.mark.parametrize("name", ["server_service_time", "default_timeout",
                                  "outlier_threshold"])
def test_options_quantize_seconds_beyond_the_float_range_exactly(name):
    # a bare OverflowError where the run first converted the field once, and
    # then "not a finite number of picoseconds" when built: 1e300 s is an
    # exact integer, so its count is that integer times 10^12
    options = SyncOptions(**{name: 1e300})
    field = {"server_service_time": "server_service_ps"}.get(name, f"{name}_ps")
    assert getattr(options, field) == int(1e300) * 10**12


def test_a_timeout_factor_beyond_the_float_range_completes_the_round():
    # accepted when built, then timeout_ps raised a bare OverflowError after
    # the request was queued: the float product of 1e300 and the round trip
    options = SyncOptions(timeout_factor=1e300)
    assert options.timeout_ps(3) == 3 * int(1e300)
    engine = Engine(line_graph([50e-6], client_clock=offset_clock(2.0)), seed=1)
    report = cristian_sync(engine, "c1", "s1", at=1.0, options=options)
    assert not report.failed
    assert report.residuals_ps == {"c1": 0}
    assert report.messages_sent == 2


@pytest.mark.parametrize("name", ["request_size_bits", "reply_size_bits"])
@pytest.mark.parametrize("value", [1.5, True, 12000.0], ids=["fraction", "bool", "float"])
def test_options_reject_a_size_that_is_not_an_int(name, value):
    # accepted before; the round then failed inside its first event, with
    # the clock already moved and nothing traced
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
        SyncOptions(**{name: value})


@pytest.mark.parametrize("run", [
    lambda engine: cristian_sync(engine, "c1", "r1"),
    lambda engine: cristian_sync(engine, "r1", "s1"),
    lambda engine: berkeley_round(engine, "s1", ["c1", "r1"]),
], ids=["cristian_server", "cristian_client", "berkeley_member"])
def test_a_participant_without_a_clock_is_rejected_when_the_round_is_built(run):
    # raised KeyError: 'r1' from inside the run before, the round already queued
    engine = Engine(line_graph([50e-6]), seed=0)
    with pytest.raises(ValueError, match="^participant 'r1' has no clock$"):
        run(engine)
    assert engine.next_event_time_ps() is None and engine.records == []


@pytest.mark.parametrize("build", [
    lambda engine: CristianExchange(engine, ("c1", "zz")),
    lambda engine: CristianExchange(engine, ("zz", "s1")),
    lambda engine: BerkeleyRound(engine, ("s1", "c1", "zz")),
], ids=["cristian_server", "cristian_client", "berkeley_member"])
def test_an_unknown_participant_is_named_unknown_when_the_round_is_built(build):
    # named "participant 'zz' has no clock" before, as if 'zz' were a router
    engine = Engine(line_graph([50e-6]), seed=0)
    with pytest.raises(ValueError, match="^unknown participant 'zz'$"):
        build(engine)
    assert engine.next_event_time_ps() is None and engine.records == []


# -- Berkeley -----------------------------------------------------------------

def star_engine(member_offsets, coordinator_offset=0.0, router_models=None):
    """coordinator -- member_i over zero-length direct links."""
    nodes = [NodeSpec("co", "time_server", clock=offset_clock(coordinator_offset))]
    links = []
    for i, offset in enumerate(member_offsets, start=1):
        nid = f"m{i}"
        nodes.append(NodeSpec(nid, "client", clock=offset_clock(offset)))
        if router_models and nid in router_models:
            rid = f"x{i}"
            nodes.append(NodeSpec(rid, "router", router_delay=10e-6,
                                  failure_model=router_models[nid]))
            links.append(LinkSpec("co", rid, 1e6, 0.0))
            links.append(LinkSpec(rid, nid, 1e6, 0.0))
        else:
            links.append(LinkSpec("co", nid, 1e6, 0.0))
    return Engine(NetworkGraph(nodes, links), seed=0)


def test_berkeley_hand_average():
    # offsets +10 ms, -4 ms, coordinator 0: mean +2 ms
    engine = star_engine([0.010, -0.004])
    report = berkeley_round(engine, "co", ["m1", "m2"], at=0.0)
    assert not report.failed
    assert report.corrections_ps == {"co": 2_000_000_000,
                                     "m1": -8_000_000_000,
                                     "m2": 6_000_000_000}
    assert report.messages_sent == 6  # 2 polls + 2 replies + 2 corrections


def test_berkeley_fixed_point():
    engine = star_engine([0.0, 0.0, 0.0])
    report = berkeley_round(engine, "co", ["m1", "m2", "m3"], at=0.0)
    assert set(report.corrections_ps.values()) == {0}
    assert report.messages_sent == 9


def test_second_round_corrections_vanish():
    engine = star_engine([0.010, -0.004])
    berkeley_round(engine, "co", ["m1", "m2"], at=0.0)
    second = berkeley_round(engine, "co", ["m1", "m2"], at=5.0)
    assert all(abs(c) <= 1000 for c in second.corrections_ps.values())  # 1 ns
    assert max(second.residuals_ps.values()) <= 1000


def test_mean_preservation_without_discard():
    offsets = [0.010, -0.004, 0.002]
    engine = star_engine(offsets)
    report = berkeley_round(engine, "co", ["m1", "m2", "m3"], at=0.0)
    t_ps = seconds_to_ps(5.0)
    post = [engine.clocks[n].offset_ps(t_ps) for n in ("co", "m1", "m2", "m3")]
    pre_mean_ps = seconds_to_ps(sum([0.0] + offsets) / 4)
    assert abs(sum(post) / 4 - pre_mean_ps) <= 1000  # within 1 ns


def test_outlier_excluded_from_mean_but_still_corrected():
    engine = star_engine([10.0, 0.004])
    options = SyncOptions(outlier_threshold=1.0)
    report = berkeley_round(engine, "co", ["m1", "m2"], at=0.0, options=options)
    # median of (0, 4 ms, 10 s) is 4 ms; only the 10 s clock is beyond 1 s
    # surviving mean = (0 + 4 ms) / 2 = 2 ms
    assert report.corrections_ps["co"] == 2_000_000_000
    assert report.corrections_ps["m2"] == -2_000_000_000
    assert report.corrections_ps["m1"] == 2_000_000_000 - seconds_to_ps(10.0)
    post = engine.clocks["m1"].offset_ps(engine.now_ps)
    assert abs(post - 2_000_000_000) <= 1000


@pytest.mark.parametrize("member_offsets, threshold, mean_ps", [
    # median 0.25 s: the 1.25 s clock is exactly the threshold from it and
    # is kept, so the mean is (0 + 0.25 + 1.25) / 3 = 0.5 s, not 0.125 s
    ([0.25, 1.25], 1.0, 500_000_000_000),
    # four offsets 0, 0, 1.5, 4.5: the median 0.75 s keeps 1.5 s, the low
    # median 0 would drop it, so the mean is 1.5 / 3 = 0.5 s, not 0
    ([0.0, 1.5, 4.5], 1.0, 500_000_000_000),
], ids=["offset_at_threshold", "even_count_median"])
def test_outlier_filter_keeps_offsets_within_the_threshold_of_the_median(
        member_offsets, threshold, mean_ps):
    engine = star_engine(member_offsets)
    members = [f"m{i}" for i in range(1, len(member_offsets) + 1)]
    report = berkeley_round(engine, "co", members, at=0.0,
                            options=SyncOptions(outlier_threshold=threshold))
    assert report.corrections_ps == {
        "co": mean_ps, **{m: mean_ps - seconds_to_ps(offset)
                          for m, offset in zip(members, member_offsets)}}


def test_unreachable_member_is_flagged_and_excluded():
    engine = star_engine([0.010, -0.004],
                         router_models={"m2": FailureModel("always_failed")})
    report = berkeley_round(engine, "co", ["m1", "m2"], at=0.0)
    assert not report.failed
    assert "m2" in report.reason
    assert "m2" not in report.corrections_ps
    # mean over (0, +10 ms) = +5 ms
    assert report.corrections_ps == {"co": 5_000_000_000, "m1": -5_000_000_000}


def test_berkeley_exchanges_are_the_replied_polls_with_their_true_delays():
    engine = star_engine([0.010, -0.004],
                         router_models={"m2": FailureModel("always_failed")})
    report = berkeley_round(engine, "co", ["m1", "m2"], at=0.0)
    total_ps = {(r["purpose"], r["src"], r["dst"]): r["total_ps"] for r in engine.records
                if r["kind"] == "message_send" and "total_ps" in r}
    # the unreachable m2 has no entry
    assert [ex.server for ex in report.exchanges] == ["m1"]
    for ex in report.exchanges:
        assert ex.client == "co"
        assert ex.rtt_ps == ex.t1_client_ps - ex.t0_client_ps > 0
        assert ex.forward_delay_ps == total_ps["sync_request", "co", ex.server]
        assert ex.backward_delay_ps == total_ps["sync_reply", ex.server, "co"]


def test_round_aborts_below_two_participants():
    engine = star_engine([0.010],
                         router_models={"m1": FailureModel("always_failed")})
    report = berkeley_round(engine, "co", ["m1"], at=0.0)
    assert report.failed
    assert "fewer than 2" in report.reason


def test_residuals_measured_against_ensemble_mean():
    engine = star_engine([0.010, -0.004])
    report = berkeley_round(engine, "co", ["m1", "m2"], at=0.0)
    assert max(report.residuals_ps.values()) == 0


def test_coordinator_listed_as_member_is_not_polled():
    engine = star_engine([0.010, -0.004])
    report = berkeley_round(engine, "co", ["co", "m1", "m2"], at=0.0)
    assert report.corrections_ps == {"co": 2_000_000_000,
                                     "m1": -8_000_000_000,
                                     "m2": 6_000_000_000}
    assert report.messages_sent == 6


@pytest.mark.parametrize("run", [
    lambda engine: cristian_sync(engine, "co", "co"),
    lambda engine: berkeley_round(engine, "co", ["m1", "m1"]),
    lambda engine: berkeley_round(engine, "co", ["co", "m1", "m1"]),
], ids=["cristian", "berkeley", "berkeley_coordinator_listed"])
def test_a_repeated_participant_is_rejected_when_the_round_is_built(run):
    # cristian raised "source and destination must differ" from inside the
    # run before, tracing nothing; berkeley polled m1 twice and counted 5
    # messages sent
    engine = star_engine([0.010])
    with pytest.raises(ValueError, match="^participants must be distinct$"):
        run(engine)
    assert engine.next_event_time_ps() is None and engine.records == []


@pytest.mark.parametrize("participants", [("co",), ("m1", "co", "m2")], ids=["one", "three"])
def test_a_cristian_round_needs_exactly_two_participants(participants):
    # raised a bare "too many values to unpack (expected 2)" before, or
    # "not enough values to unpack" for one
    engine = star_engine([0.010, -0.004])
    with pytest.raises(ValueError, match="^cristian needs exactly 2 participants$"):
        CristianExchange(engine, participants)
    assert engine.next_event_time_ps() is None and engine.records == []


@pytest.mark.parametrize("build", [
    lambda engine: BerkeleyRound(engine, ()),
    lambda engine: berkeley_round(engine, "co", []),
    lambda engine: berkeley_round(engine, "co", ["co"]),
], ids=["no_participants", "no_members", "coordinator_only"])
def test_a_berkeley_round_needs_a_member_besides_the_coordinator(build):
    # raised a bare "not enough values to unpack" before, or built a round
    # that aborted at run time with "fewer than 2 reachable participants"
    engine = star_engine([0.010])
    with pytest.raises(ValueError, match="^needs at least 2 participants$"):
        build(engine)
    assert engine.next_event_time_ps() is None and engine.records == []


def test_completed_round_emits_no_stray_timeouts():
    engine = star_engine([0.010, -0.004])
    berkeley_round(engine, "co", ["m1", "m2"], at=0.0)
    engine.run_until(10.0)
    assert not any(r["kind"] == "timeout" for r in engine.records)


# -- each round ends exactly once ----------------------------------------------

def terminal_steps(engine):
    return [r for r in engine.records
            if r["kind"] == "sync_step" and r["phase"] in ("completed", "aborted")]


def test_cristian_reply_after_timeout_is_ignored():
    # a budget of half the round trip makes the reply arrive after the timeout
    engine = Engine(line_graph([50e-6], client_clock=offset_clock(2.0)), seed=1)
    report = cristian_sync(engine, "c1", "s1", at=1.0,
                           options=SyncOptions(timeout_factor=0.5))
    engine.run_until(3.0)
    assert engine.sync_reports == [report]
    assert report.failed and report.reason == "timeout"
    assert engine.clocks["c1"].offset_ps(engine.now_ps) == seconds_to_ps(2.0)
    # the late reply is still delivered and traced
    assert any(r["kind"] == "delivery" and r["node"] == "c1" for r in engine.records)
    [step] = terminal_steps(engine)
    assert step["phase"] == "aborted" and step["failed"]
    aggregate = metrics_report(engine.records)["aggregate"]
    assert (aggregate["sync_rounds"], aggregate["sync_failures"]) == (1, 1)


def test_cristian_timeout_emits_aborted_step_at_the_timeout():
    graph = line_graph([50e-6], failure_models={"r1": FailureModel("always_failed")})
    engine = Engine(graph, seed=0)
    report = cristian_sync(engine, "c1", "s1", at=0.0)
    engine.run_until(5.0)
    [timeout] = [r for r in engine.records if r["kind"] == "timeout"]
    assert timeout["sync_aborted"] == "cristian"
    [step] = terminal_steps(engine)
    assert step["sim_time_ps"] == timeout["sim_time_ps"]
    assert step == {"sim_time_ps": timeout["sim_time_ps"], "sequence": step["sequence"],
                    "kind": "sync_step", "phase": "aborted", **report.trace_payload()}


def test_berkeley_replies_after_every_timeout_are_ignored():
    engine = star_engine([0.010, -0.004])
    report = berkeley_round(engine, "co", ["m1", "m2"], at=0.0,
                            options=SyncOptions(timeout_factor=0.5))
    engine.run_until(5.0)
    assert engine.sync_reports == [report]
    assert report.failed
    assert report.reason == "fewer than 2 reachable participants"
    assert report.corrections_ps == {}
    assert not any(r["kind"] == "message_send" and r["purpose"] == "sync_correction"
                   for r in engine.records)
    assert engine.clocks["m1"].offset_ps(engine.now_ps) == seconds_to_ps(0.010)
    [step] = terminal_steps(engine)
    assert step["phase"] == "aborted"


def test_berkeley_corrections_after_the_deadline_do_not_end_the_round_again():
    # 12 ms correction messages against a 5 ms corrections deadline
    engine = star_engine([0.010, -0.004])
    report = berkeley_round(engine, "co", ["m1", "m2"], at=0.0,
                            options=SyncOptions(default_timeout=0.005))
    engine.run_until(5.0)
    assert engine.sync_reports == [report]
    [deadline] = [r for r in engine.records if r["kind"] == "timeout"]
    assert deadline["undelivered_corrections"] == ["m1", "m2"]
    [step] = terminal_steps(engine)
    assert step["phase"] == "completed"
    # the members still apply their late corrections: mean offset +2 ms
    assert engine.clocks["m1"].offset_ps(engine.now_ps) == 2_000_000_000


def test_cristian_rounds_stay_exact_at_large_start_times():
    # past 2**51 ps (about 2,250 s) a trip through float seconds is not exact
    rng = random.Random(3)
    options = SyncOptions()
    for seed in range(300):
        engine = Engine(line_graph([50e-6, 37e-6, 500e-6]), seed=seed)
        report = cristian_sync(engine, "c1", "s1", at=rng.uniform(9000, 200000),
                               options=options)
        assert not report.failed
        by_purpose = {m.purpose: m for m in engine.messages.values()}
        request, reply = by_purpose["sync_request"], by_purpose["sync_reply"]
        assert reply.send_ps == (request.delivery_ps
                                 + seconds_to_ps(options.server_service_time))
        for message in (request, reply):
            assert message.delivery_ps == (message.send_ps
                                           + message.route.breakdown.total_ps)
