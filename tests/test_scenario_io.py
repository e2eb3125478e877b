import json
from pathlib import Path

import pytest

from syncsim.dotexport import export_graph
from syncsim.gnss import GNSS_PRESETS, GnssPreset, gnss_preset, sample_gnss_jitter
from syncsim.netview import NetworkView
from syncsim.scenario import (ScenarioError, load_scenario,
                              parse_scenario, run_scenario, scenario_to_dict,
                              validate_scenario, write_scenario)
from syncsim.timebase import seconds_to_ps
from syncsim.trace import (TraceFormatError, diff_traces, parse_trace,
                           load_trace, write_trace)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

MINIMAL = {
    "nodes": [
        {"id": "c1", "kind": "client"},
        {"id": "s1", "kind": "time_server"},
    ],
    "links": [
        {"a": "c1", "b": "s1", "bandwidth_bps": 1e6, "distance_m": 1000.0}
    ],
}


# -- loading ------------------------------------------------------------------

def test_minimal_scenario_fills_defaults(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(MINIMAL))
    scenario = load_scenario(path)
    assert scenario.config.seed == 0
    assert scenario.config.duration == 10.0
    assert scenario.graph.node("c1").clock is not None  # perfect preset
    assert scenario.sync_options.timeout_factor == 5.0


def test_quartz_preset_expansion(tmp_path):
    data = dict(MINIMAL)
    data["clocks"] = {"osc": {"preset": "quartz"}}
    data["nodes"] = [{"id": "c1", "kind": "client", "clock": "osc"},
                     {"id": "s1", "kind": "time_server"}]
    path = tmp_path / "quartz.json"
    path.write_text(json.dumps(data))
    scenario = load_scenario(path)
    params = scenario.graph.node("c1").clock
    assert params.beta == 10e-6
    assert params.gamma == -1e-10


def test_link_to_undefined_node_is_reported(tmp_path):
    data = dict(MINIMAL)
    data["links"] = [{"a": "c1", "b": "ghost", "bandwidth_bps": 1e6,
                      "distance_m": 1.0}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert any("ghost" in p for p in excinfo.value.problems)


def test_parse_error_carries_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"config": {"seed": 1,}\n}')
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert "line" in excinfo.value.problems[0]


def test_unknown_clock_reference_rejected():
    data = dict(MINIMAL)
    data["nodes"] = [{"id": "c1", "kind": "client", "clock": "nope"},
                     {"id": "s1", "kind": "time_server"}]
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(data)
    assert any("nope" in p for p in excinfo.value.problems)


def test_sync_participant_checks():
    data = dict(MINIMAL)
    data["sync_schedule"] = [
        {"time_s": 1.0, "algorithm": "cristian", "participants": ["c1", "zz"]}]
    scenario = parse_scenario(data)
    problems = [str(v) for v in validate_scenario(scenario)]
    assert any("zz" in p for p in problems)


ROUTER = {"id": "r9", "kind": "router", "router_kind": "regular"}


@pytest.mark.parametrize("data, named", [
    ([], "scenario: expected a JSON object"),
    ({**MINIMAL, "nodes": ["c1"]}, "nodes[0]: expected a JSON object"),
    ({**MINIMAL, "links": [5]}, "links[0]: expected a JSON object"),
    ({**MINIMAL, "sync_schedule": [None]}, "sync_schedule[0]: expected a JSON object"),
    ({**MINIMAL, "message_workload": ["m"]}, "message_workload[0]: expected a JSON object"),
    ({**MINIMAL, "attacks": [[0, 1]]}, "attacks[0]: expected a JSON object"),
    ({**MINIMAL, "config": {"seed": "abc"}}, "config: invalid literal"),
    ({**MINIMAL, "config": {"duration_s": "abc"}}, "config: could not convert"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{**ROUTER, "failure_model": None}]},
     "nodes[2]: node 'r9': failure_model: expected a JSON object"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [
        {**ROUTER, "failure_model": {"mode": "bernoulli",
                                           "failure_probability": None}}]},
     "nodes[2]: float() argument"),
], ids=["top_level_array", "node", "link", "sync_entry", "workload_entry", "attack",
        "seed", "duration", "failure_model_null", "failure_field_null"])
def test_malformed_scenario_is_a_named_problem(tmp_path, data, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert any(named in p for p in excinfo.value.problems), excinfo.value.problems


@pytest.mark.parametrize("section, entry, named", [
    ("sync_schedule", {"time_s": -1.0, "algorithm": "cristian",
                       "participants": ["c1", "s1"]}, "sync@-1.0s: time_s must be"),
    ("message_workload", {"time_s": -1.0, "source": "c1", "destination": "s1",
                          "size_bits": 100}, "message_workload[0]: time_s must be"),
    ("config", {"duration_s": -1.0}, "config: duration_s must be"),
], ids=["sync_schedule", "message_workload", "config"])
def test_negative_times_are_rejected(section, entry, named):
    data = {**MINIMAL, section: entry if section == "config" else [entry]}
    problems = [str(v) for v in validate_scenario(parse_scenario(data))]
    assert any(named in p for p in problems), problems


def test_cristian_needs_exactly_two_participants():
    data = {**MINIMAL,
            "nodes": MINIMAL["nodes"] + [{"id": "c2", "kind": "client"}],
            "links": MINIMAL["links"] + [{"a": "c2", "b": "s1", "bandwidth_bps": 1e6,
                                          "distance_m": 1000.0}],
            "sync_schedule": [{"time_s": 1.0, "algorithm": "cristian",
                               "participants": ["c1", "s1", "c2"]}]}
    problems = [str(v) for v in validate_scenario(parse_scenario(data))]
    assert problems == ["sync@1.0s: cristian needs exactly 2 participants"]


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_scenarios_run_exactly_after_a_9000_s_shift(path):
    shift = 9000.0
    data = json.loads(path.read_text())
    data["config"]["duration_s"] = data["config"].get("duration_s", 10.0) + shift
    for entry in data.get("sync_schedule", []) + data.get("message_workload", []):
        entry["time_s"] += shift
    for attack in data.get("attacks", []):
        attack["window_s"] = [t + shift for t in attack["window_s"]]
    scenario = parse_scenario(data)
    assert validate_scenario(scenario) == []
    engine, _, _ = run_scenario(scenario)
    assert engine.now_ps == seconds_to_ps(scenario.config.duration)
    for message in engine.messages.values():
        if message.status == "delivered":
            assert message.delivery_ps == (message.send_ps
                                           + message.route.breakdown.total_ps)


def test_bundled_scenarios_are_valid():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 3
    for path in paths:
        scenario = load_scenario(path)
        assert validate_scenario(scenario) == []


# -- canonical round trip --------------------------------------------------------

def test_write_then_load_is_a_fixpoint(tmp_path):
    scenario = load_scenario(SCENARIO_DIR / "mesh_attacks.json")
    out = tmp_path / "roundtrip.json"
    write_scenario(scenario, out)
    reloaded = load_scenario(out)
    assert scenario_to_dict(reloaded) == scenario_to_dict(scenario)
    out2 = tmp_path / "roundtrip2.json"
    write_scenario(reloaded, out2)
    assert out.read_text() == out2.read_text()


# -- GNSS presets ------------------------------------------------------------------

def test_gnss_preset_bounds():
    assert gnss_preset("gps").jitter_bound_ns == 30.0
    assert gnss_preset("beidou").jitter_bound_ns == 50.0
    assert gnss_preset("galileo").jitter_bound_ns == 30.0
    assert gnss_preset("glonass").jitter_bound_ns == 40.0
    with pytest.raises(ValueError):
        gnss_preset("loran")


def test_gnss_jitter_stays_in_half_open_interval():
    for name, preset in GNSS_PRESETS.items():
        draws = [sample_gnss_jitter(preset, 5, name, i) for i in range(20_000)]
        assert all(0.0 <= d < preset.jitter_bound_ns for d in draws)


def test_beidou_jitter_mean():
    preset = gnss_preset("beidou")
    draws = [sample_gnss_jitter(preset, 11, i) for i in range(100_000)]
    assert abs(sum(draws) / len(draws) - 25.0) < 0.5


def test_degenerate_zero_bound_always_zero():
    preset = GnssPreset("custom", 0.0)
    assert all(sample_gnss_jitter(preset, 1, i) == 0.0 for i in range(100))


def test_gnss_jitter_deterministic():
    preset = gnss_preset("gps")
    assert sample_gnss_jitter(preset, 9, 4) == sample_gnss_jitter(preset, 9, 4)


# -- DOT export --------------------------------------------------------------------

def test_dot_minimal_statement_counts():
    scenario = parse_scenario(MINIMAL)
    view = NetworkView(scenario.graph)
    text = export_graph(view, 0.0)
    node_lines = [l for l in text.splitlines() if l.strip().startswith('"')
                  and "->" not in l]
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(node_lines) == 2
    assert len(edge_lines) == 1
    assert text.startswith("digraph")


def test_dot_export_is_deterministic():
    scenario = load_scenario(SCENARIO_DIR / "campus_wifi_fiber.json")
    view = NetworkView(scenario.graph, scenario.config.seed, scenario.attacks)
    assert export_graph(view, 2.0) == export_graph(view, 2.0)


def test_dot_marks_hijacked_router_inactive():
    scenario = load_scenario(SCENARIO_DIR / "mesh_attacks.json")
    view = NetworkView(scenario.graph, scenario.config.seed, scenario.attacks)
    during = export_graph(view, 9.0)   # force_down window is [8, 10)
    outside = export_graph(view, 12.0)
    ra_during = next(l for l in during.splitlines() if l.strip().startswith('"ra"'))
    ra_outside = next(l for l in outside.splitlines() if l.strip().startswith('"ra"'))
    assert "style=dashed" in ra_during and "inactive" in ra_during
    assert "inactive" not in ra_outside


# -- trace schema -------------------------------------------------------------------

def test_trace_roundtrip(tmp_path):
    scenario = load_scenario(SCENARIO_DIR / "minimal_pair.json")
    _, records, _ = run_scenario(scenario)
    path = tmp_path / "run.trace"
    write_trace(records, path)
    assert load_trace(path) == records


def test_unknown_record_kind_rejected():
    with pytest.raises(TraceFormatError):
        parse_trace('{"sim_time_ps": 0, "sequence": 0, "kind": "teleport"}')


def test_missing_field_rejected():
    with pytest.raises(TraceFormatError):
        parse_trace('{"sim_time_ps": 0, "kind": "delivery"}')


def test_diff_traces_identical_and_divergent():
    a = [{"sim_time_ps": 0, "sequence": 0, "kind": "delivery"}]
    b = [{"sim_time_ps": 0, "sequence": 0, "kind": "delivery"},
         {"sim_time_ps": 5, "sequence": 1, "kind": "timeout"}]
    assert diff_traces(a, list(a))["identical"]
    summary = diff_traces(a, b)
    assert not summary["identical"]
    assert summary["first_difference"]["index"] == 1


# -- metrics ------------------------------------------------------------------------

def test_metrics_for_one_symmetric_sync():
    scenario = parse_scenario({**MINIMAL, "sync_schedule": [
        {"time_s": 1.0, "algorithm": "cristian", "participants": ["c1", "s1"]}]})
    _, records, metrics = run_scenario(scenario)
    assert metrics["aggregate"]["sync_rounds"] == 1
    sync = metrics["sync"][0]
    assert sync["messages_sent"] == 2
    assert sync["precision_range_ns"] == 0.0


def test_metrics_reflect_asymmetric_residual():
    data = {**MINIMAL, "sync_schedule": [
        {"time_s": 1.0, "algorithm": "cristian", "participants": ["c1", "s1"]}],
        "sync_options": {"request_size_bits": 5000, "reply_size_bits": 15000}}
    data["links"] = [{"a": "c1", "b": "s1", "bandwidth_bps": 1e6,
                      "distance_m": 0.0}]
    _, records, metrics = run_scenario(parse_scenario(data))
    assert metrics["sync"][0]["precision_range_ns"] == 5e6  # (15 ms - 5 ms) / 2


def test_berkeley_message_count_in_metrics():
    data = {
        "nodes": [{"id": "co", "kind": "time_server"},
                  {"id": "m1", "kind": "client"},
                  {"id": "m2", "kind": "client"},
                  {"id": "m3", "kind": "client"}],
        "links": [{"a": "co", "b": "m1", "bandwidth_bps": 1e9, "distance_m": 10.0},
                  {"a": "co", "b": "m2", "bandwidth_bps": 1e9, "distance_m": 10.0},
                  {"a": "co", "b": "m3", "bandwidth_bps": 1e9, "distance_m": 10.0}],
        "sync_schedule": [{"time_s": 0.5, "algorithm": "berkeley",
                           "participants": ["co", "m1", "m2", "m3"]}],
    }
    _, records, metrics = run_scenario(parse_scenario(data))
    assert metrics["sync"][0]["messages_sent"] == 9


def test_delay_decomposition_sums_components():
    scenario = load_scenario(SCENARIO_DIR / "campus_wifi_fiber.json")
    _, records, metrics = run_scenario(scenario)
    host = metrics["delays"]["host_delay_s"]
    network = metrics["delays"]["network_delay_s"]
    assert host > 0 and network > 0
    total = sum(r.get("total_ps", 0) for r in records
                if r["kind"] == "message_send" and r.get("status") != "blocked")
    assert host + network == pytest.approx(total / 1e12, abs=1e-12)
