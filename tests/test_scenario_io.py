import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from syncsim.clocks import ClockParameters, SoftwareClock, preset_parameters
from syncsim.dotexport import export_graph
from syncsim.netview import NetworkView
from syncsim.scenario import (ATTACK_KEYS, CLOCK_KEYS, CONFIG_KEYS, FAILURE_KEYS,
                              NODE_KEYS, SYNC_OPTION_KEYS, ScenarioError, _int, _number,
                              _number_or_null, load_scenario, parse_scenario,
                              run_scenario, validate_scenario)
from syncsim.timebase import seconds_to_ps
from syncsim.trace import (TraceFormatError, diff_traces, parse_trace,
                           load_trace, trace_bytes)

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
    assert scenario.graph.nodes["c1"].clock is not None  # perfect preset
    assert scenario.sync_options.timeout_factor == 5.0


def test_quartz_preset_expansion(tmp_path):
    data = dict(MINIMAL)
    data["clocks"] = {"osc": {"preset": "quartz"}}
    data["nodes"] = [{"id": "c1", "kind": "client", "clock": "osc"},
                     {"id": "s1", "kind": "time_server"}]
    path = tmp_path / "quartz.json"
    path.write_text(json.dumps(data))
    scenario = load_scenario(path)
    params = scenario.graph.nodes["c1"].clock
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


def test_link_to_undefined_node_names_its_entry():
    # parsed clean before, and only validate named the link, without its index
    data = {**MINIMAL, "links": MINIMAL["links"] + [
        {"a": "c1", "b": "ghost", "bandwidth_bps": 1e6, "distance_m": 1.0}]}
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(data)
    assert excinfo.value.problems == ["links[1]: link c1--ghost: endpoint 'ghost' not in graph"]


def test_link_to_malformed_node_is_not_a_second_problem():
    # the node entry is named; its links are not named again as dangling
    data = {**MINIMAL, "nodes": MINIMAL["nodes"] + [
        {"id": "r9", "kind": "router", "router_delay_s": "x"}],
        "links": MINIMAL["links"] + [
            {"a": "c1", "b": "r9", "bandwidth_bps": 1e6, "distance_m": 1.0}]}
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(data)
    assert excinfo.value.problems == ["nodes[2]: router_delay_s must be a number, got 'x'"]


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
CRISTIAN = {"time_s": 1.0, "algorithm": "cristian", "participants": ["c1", "s1"]}
WORKLOAD = {"time_s": 1.0, "source": "c1", "destination": "s1", "size_bits": 100}
ATTACK = {"kind": "ddos", "target": "s1", "window_s": [0.0, 1.0]}
MESH_ATTACKS = json.loads((SCENARIO_DIR / "mesh_attacks.json").read_text())


def _mesh_attacks_with(multiplier: float, *extra: dict) -> dict:
    """mesh_attacks.json with its ddos on 'ra' ([4, 6) s) at `multiplier`
    and `extra` attacks appended."""
    ddos, *rest = MESH_ATTACKS["attacks"]
    return {**MESH_ATTACKS,
            "attacks": [{**ddos, "delay_multiplier": multiplier}, *rest, *extra]}


@pytest.mark.parametrize("data, named", [
    ([], "scenario: expected a JSON object"),
    ({**MINIMAL, "nodes": ["c1"]}, "nodes[0]: expected a JSON object"),
    ({**MINIMAL, "links": [5]}, "links[0]: expected a JSON object"),
    ({**MINIMAL, "sync_schedule": [None]}, "sync_schedule[0]: expected a JSON object"),
    ({**MINIMAL, "message_workload": ["m"]}, "message_workload[0]: expected a JSON object"),
    ({**MINIMAL, "attacks": [[0, 1]]}, "attacks[0]: expected a JSON object"),
    ({**MINIMAL, "config": {"seed": "abc"}}, "config: seed must be an integer, got 'abc'"),
    ({**MINIMAL, "config": {"duration_s": "abc"}},
     "config: duration_s must be a number, got 'abc'"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{**ROUTER, "failure_model": None}]},
     "nodes[2]: node 'r9': failure_model: expected a JSON object"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [
        {**ROUTER, "failure_model": {"mode": "bernoulli",
                                           "failure_probability": None}}]},
     "nodes[2]: float() argument"),
    ({**MINIMAL, "sync_schedule": [{**CRISTIAN, "participants": [["c1"], "s1"]}]},
     "sync_schedule[0]: node id ['c1'] is not a string"),
    ({**MINIMAL, "message_workload": [{**WORKLOAD, "source": ["c1"]}]},
     "message_workload[0]: node id ['c1'] is not a string"),
    ({**MINIMAL, "message_workload": [{**WORKLOAD, "destination": {"id": "s1"}}]},
     "message_workload[0]: node id {'id': 's1'} is not a string"),
    ({**MINIMAL, "attacks": [{**ATTACK, "target": ["s1"]}]},
     "attacks[0]: node id ['s1'] is not a string"),
    ({**MINIMAL, "medium_speeds_m_per_s": {"fiber": "fast"}},
     "medium_speeds_m_per_s: fiber: speed must be a finite number > 0, got 'fast'"),
    ({**MINIMAL, "medium_speeds_m_per_s": {"fiber": 0}},
     "medium_speeds_m_per_s: fiber: speed must be a finite number > 0, got 0"),
    ({**MINIMAL, "medium_speeds_m_per_s": {"fiber": -2e8}},
     "medium_speeds_m_per_s: fiber: speed must be a finite number > 0, got -200000000.0"),
    ({**MINIMAL, "medium_speeds_m_per_s": {"fiber": None}},
     "medium_speeds_m_per_s: fiber: speed must be a finite number > 0, got None"),
    ({**MINIMAL, "message_workload": [{**WORKLOAD, "size_bits": -1}]},
     "message_workload[0]: size_bits must be >= 0"),
    ({**MINIMAL, "message_workload": [{**WORKLOAD, "destination": "c1"}]},
     "message_workload[0]: source and destination must differ"),
    ({**MINIMAL, "sync_schedule": [{**CRISTIAN, "participants": ["c1", "c1"]}]},
     "sync@1.0s: participants must be distinct"),
    ({**MINIMAL, "sync_options": {"request_size_bits": -1}},
     "sync_options: request and reply sizes must be >= 0 bits"),
    ({**MINIMAL, "attacks": [{**ATTACK, "window_s": [0.0, math.inf]}]},
     "attacks[0]: window_s must be a finite number"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{**ROUTER, "router_delay_s": math.inf}]},
     "nodes[2]: router_delay_s must be a finite number"),
    ({**MINIMAL, "links": [{**MINIMAL["links"][0], "distance_m": math.inf}]},
     "links[0]: distance_m must be a finite number"),
    ({**MINIMAL, "links": [{**MINIMAL["links"][0], "bandwidth_bps": math.inf}]},
     "links[0]: bandwidth_bps must be a finite number"),
    ({**MINIMAL, "links": [{**MINIMAL["links"][0], "bandwidth_bps": 10**400}]},
     "links[0]: bandwidth_bps must be a finite number"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [
        {**ROUTER, "failure_model": {"mode": "alternating", "up_duration_s": math.inf,
                                     "down_duration_s": 1.0}}]},
     "nodes[2]: up_duration_s must be a finite number"),
    ({**MINIMAL, "attacks": [{"kind": "ip_spoof", "target": "c1", "window_s": [0.0, 1.0],
                              "forged_offset_s": math.inf}]},
     "attacks[0]: forged_offset_s must be a finite number"),
    ({**MINIMAL, "clocks": {"osc": {"alpha0_s": math.inf}}},
     "clocks['osc']: alpha0_s must be a finite number"),
    ({**MINIMAL, "config": {"duration_s": 1e300}},
     "config: duration_s must be a finite number of picoseconds, got 1e+300"),
    ({**MINIMAL, "sync_options": {"server_service_time_s": math.inf}},
     "sync_options: server_service_time_s must be a finite number"),
    ({**MINIMAL, "sync_options": {"timeout_factor": -1}},
     "sync_options: timeout_factor and default_timeout must be > 0"),
    ({**MINIMAL, "config": {"seed": 1.9}}, "config: seed must be an integer, got 1.9"),
    ({**MINIMAL, "message_workload": [{**WORKLOAD, "size_bits": 1.7}]},
     "message_workload[0]: size_bits must be an integer, got 1.7"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{"id": "c1", "kind": "client"}]},
     "nodes[2]: duplicate node id: 'c1'"),
    ({**MINIMAL, "links": MINIMAL["links"] + [
        {**MINIMAL["links"][0], "a": "s1", "b": "c1", "bandwidth_bps": 1e9}]},
     "links[1]: duplicate link between 's1' and 'c1'"),
    ({**MINIMAL, "links": [{**MINIMAL["links"][0], "a": ["c1"]}]},
     "links[0]: node id ['c1'] is not a string"),
    # derived quantities and the JSON reader's own limits
    (json.dumps(MINIMAL).replace("1000000.0", "1" + "0" * 5000),
     "bad.json: parse error: Exceeds the limit"),
    ({**MINIMAL, "links": [{**MINIMAL["links"][0], "bandwidth_bps": 1e-300}],
      "message_workload": [WORKLOAD]},
     "link c1--s1: delay of a 100-bit message is not a finite number of picoseconds"),
    ({**MINIMAL, "links": [{**MINIMAL["links"][0], "bandwidth_bps": 1e-300}],
      "sync_schedule": [CRISTIAN], "sync_options": {"reply_size_bits": 64000}},
     "link c1--s1: delay of a 64000-bit message is not a finite number of picoseconds"),
    ({**MINIMAL, "medium_speeds_m_per_s": {"fiber": 1e-300}},
     "link c1--s1: delay of a 0-bit message is not a finite number of picoseconds"),
    ({**MINIMAL, "clocks": {"table": {"model": "user_defined",
                                      "offset_table": [[0, 0], [1e-300, 1e300]]}}},
     "clocks['table']: offset_table must be a finite number of picoseconds, got 1e+300"),
    ({**MINIMAL, "sync_schedule": [CRISTIAN], "sync_options": {"timeout_factor": 1e300}},
     "sync_options: timeout_factor 1e+300 times a round trip is not a finite number of "
     "picoseconds"),
    ({**MINIMAL, "config": {"duration_s": 5.0}, "clocks": {"osc": {"beta": 1e300}}},
     "clocks['osc']: drift offset within duration_s is not a finite number of picoseconds"),
    # zero at both ends of the run, beyond picoseconds at its extremum t = 2 s
    ({**MINIMAL, "config": {"duration_s": 4.0},
      "clocks": {"osc": {"beta": 4e296, "gamma": -1e296}}},
     "clocks['osc']: drift offset within duration_s is not a finite number of picoseconds"),
    (_mesh_attacks_with(1e305),
     "attack ddos on 'ra': router delay from 4.0 s is not a finite number of picoseconds"),
    # each finite alone: 2e-5 s x 1e10 and 1e290 s; (2e-5 + 1e290) x 1e10 s is not
    (_mesh_attacks_with(1e10, {"kind": "router_hijack", "target": "ra", "window_s": [4.0, 6.0],
                               "mode": "added_delay", "added_delay_s": 1e290}),
     "attack ddos and router_hijack on 'ra': router delay from 4.0 s is not a finite "
     "number of picoseconds"),
    # validated OK before, then broke `run`
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [
        {**ROUTER, "failure_model": {"mode": "alternating", "up_duration_s": 1e-13,
                                     "down_duration_s": 1e-13}}]},
     "nodes[2]: alternating mode needs positive up/down durations"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{"id": 5, "kind": "client"}]},
     "nodes[2]: node id 5 is not a string"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{"id": True, "kind": "client"}]},
     "nodes[2]: node id True is not a string"),
    ({**MINIMAL, "attacks": [{**ATTACK, "window_s": [0, 1, 2]}]},
     "attacks[0]: window_s must be an array [start, end], got [0, 1, 2]"),
    ({**MINIMAL, "attacks": [{**ATTACK, "window_s": [1]}]},
     "attacks[0]: window_s must be an array [start, end], got [1]"),
    ({**MINIMAL, "clocks": {"osc": {"jitter_bound_ns": 1e308}}},
     "clocks['osc']: drift offset within duration_s is not a finite number of picoseconds"),
    ({**MINIMAL, "clocks": {"osc": {"noise_sigma_s": 1.7e296}}},
     "clocks['osc']: drift offset within duration_s is not a finite number of picoseconds"),
    # a preset named by the node, not through a clocks entry: OK before, then broke `run`
    ({**MINIMAL, "config": {"duration_s": 1e291},
      "nodes": [{"id": "c1", "kind": "client", "clock": "quartz"}, MINIMAL["nodes"][1]],
      "sync_schedule": [{**CRISTIAN, "time_s": 1e290}]},
     "node 'c1' clock: drift offset within duration_s is not a finite number of picoseconds"),
    ({**MINIMAL, "nodes": [{"id": "c1", "kind": "client", "clock": ["x"]},
                           MINIMAL["nodes"][1]]},
     "nodes[0]: clock must be a JSON string, got ['x']"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{**ROUTER, "router_kind": ["wifi"]}]},
     "nodes[2]: router_kind must be a JSON string, got ['wifi']"),
    ({**MINIMAL, "clocks": {"osc": {"preset": ["quartz"]}}},
     "clocks['osc']: preset must be a JSON string, got ['quartz']"),
    # JSON true and false, read as 1 and 0 before
    ({**MINIMAL, "message_workload": [{**WORKLOAD, "size_bits": True}]},
     "message_workload[0]: size_bits must be a number, got True"),
    ({**MINIMAL, "config": {"seed": True}}, "config: seed must be a number, got True"),
    ({**MINIMAL, "config": {"duration_s": False}},
     "config: duration_s must be a number, got False"),
    ({**MINIMAL, "links": [{**MINIMAL["links"][0], "bandwidth_bps": True}]},
     "links[0]: bandwidth_bps must be a number, got True"),
    ({**MINIMAL, "message_workload": [{**WORKLOAD, "time_s": True}]},
     "message_workload[0]: time_s must be a number, got True"),
    ({**MINIMAL, "sync_schedule": [{**CRISTIAN, "time_s": False}]},
     "sync_schedule[0]: time_s must be a number, got False"),
    ({**MINIMAL, "sync_options": {"reply_size_bits": True}},
     "sync_options: reply_size_bits must be a number, got True"),
    # a string that is not a number, named without its field before
    ({**MINIMAL, "message_workload": [{**WORKLOAD, "time_s": "soon"}]},
     "message_workload[0]: time_s must be a number, got 'soon'"),
    ({**MINIMAL, "attacks": [{**ATTACK, "window_s": ["a", 1]}]},
     "attacks[0]: window_s must be a number, got 'a'"),
    # a string holding a number, read as that number before
    ({**MINIMAL, "config": {"seed": "12"}}, "config: seed must be an integer, got '12'"),
    ({**MINIMAL, "config": {"duration_s": "2.5"}},
     "config: duration_s must be a number, got '2.5'"),
    # split into characters, or a Python error, before
    ({**MINIMAL, "sync_schedule": [{**CRISTIAN, "participants": "c1"}]},
     "sync_schedule[0]: participants must be an array of node ids, got 'c1'"),
    ({**MINIMAL, "sync_schedule": [{**CRISTIAN, "participants": 5}]},
     "sync_schedule[0]: participants must be an array of node ids, got 5"),
    ({**MINIMAL, "clocks": {"osc": {"model": "user_defined",
                                    "offset_table": [[0, 0], [0, 1, 2]]}}},
     "clocks['osc']: offset_table must be an array of [time, offset] points, "
     "got [[0, 0], [0, 1, 2]]"),
    ({**MINIMAL, "clocks": {"osc": {"model": "user_defined", "offset_table": 5}}},
     "clocks['osc']: offset_table must be an array of [time, offset] points, got 5"),
    # sync_schedule checks of validate_scenario
    ({**MINIMAL, "sync_schedule": [{**CRISTIAN, "algorithm": "ntp"}]},
     "sync@1.0s: unknown algorithm 'ntp'"),
    ({**MINIMAL, "sync_schedule": [{**CRISTIAN, "algorithm": ["cristian"]}]},
     "sync@1.0s: unknown algorithm ['cristian']"),
    ({**MINIMAL, "sync_schedule": [{**CRISTIAN, "algorithm": "berkeley",
                                    "participants": ["c1"]}]},
     "sync@1.0s: needs at least 2 participants"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [ROUTER],
      "sync_schedule": [{**CRISTIAN, "participants": ["c1", "r9"]}]},
     "sync@1.0s: participant 'r9' has no clock"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{"id": "c2", "kind": "client"}],
      "sync_schedule": [{**CRISTIAN, "participants": ["c2", "s1"]}]},
     "sync@1.0s: participant 'c2' is disconnected"),
    # named problems that no other row reaches
    ({**MINIMAL, "links": {}}, "links: expected a JSON array"),
    ({**MINIMAL, "links": [{"a": "c1", "b": "s1", "bandwidth_bps": 1e6}]},
     "links[0]: missing field 'distance_m'"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{"kind": "client"}]},
     "nodes[2]: node without an id"),
    ({**MINIMAL, "attacks": [{**ATTACK, "target": "zz"}]},
     "attack ddos: unknown target 'zz'"),
    ({**MINIMAL, "message_workload": [{**WORKLOAD, "destination": "zz"}]},
     "message_workload[0]: unknown node 'zz'"),
    ({**MINIMAL, "medium_speeds_m_per_s": {"laser": 3e8}},
     "medium_speeds_m_per_s: unknown medium 'laser'"),
    ({**MINIMAL, "links": [{**MINIMAL["links"][0], "medium": "laser"}]},
     "link c1--s1: unknown medium 'laser'"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{**ROUTER, "router_kind": "optical"}]},
     "r9: unknown router kind 'optical'"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{"id": "x9", "kind": "switch"}]},
     "x9: unknown node kind 'switch'"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{"id": "c2", "kind": "client",
                                               "router_delay_s": 1e-6}]},
     "c2: router_delay only applies to routers"),
    ({**MINIMAL, "attacks": [{"kind": "router_hijack", "target": "s1", "window_s": [0.0, 1.0],
                              "mode": "reroute"}]},
     "attacks[0]: unknown hijack mode: 'reroute'"),
    ({**MINIMAL, "nodes": MINIMAL["nodes"] + [{**ROUTER, "failure_model": {"mode": "flaky"}}]},
     "nodes[2]: unknown failure mode: 'flaky'"),
    ({**MINIMAL, "sync_options": {"correction_policy": "jump"}},
     "sync_options: unknown correction policy: 'jump'"),
], ids=["top_level_array", "node", "link", "sync_entry", "workload_entry", "attack",
        "seed", "duration", "failure_model_null", "failure_field_null",
        # accepted before, then broke `run`
        "participant_array", "workload_source_array", "workload_destination_object",
        "attack_target_array", "speed_string", "speed_zero", "speed_negative",
        "speed_null", "negative_size", "same_endpoints", "same_participants",
        "negative_request_size",
        # non-finite or non-integral numbers and sync_options out of range
        "window_infinite", "router_delay_infinite", "distance_infinite",
        "bandwidth_infinite", "bandwidth_beyond_float", "up_duration_infinite",
        "forged_offset_infinite", "alpha0_infinite", "duration_beyond_ps", "service_time_infinite",
        "timeout_factor_negative", "seed_fraction", "size_bits_fraction", "duplicate_node_id",
        "duplicate_link", "link_endpoint_array",
        # accepted or a traceback before, then broke `run`
        "number_beyond_digit_limit", "workload_delay_beyond_ps", "sync_delay_beyond_ps",
        "propagation_beyond_ps", "offset_table_beyond_ps", "timeout_budget_beyond_ps",
        "drift_beyond_ps", "drift_extremum_beyond_ps", "ddos_delay_beyond_ps",
        "ddos_on_hijack_delay_beyond_ps",
        # validated OK before, then broke `run`
        "alternating_durations_zero_ps", "node_id_number", "node_id_bool",
        "window_three_elements", "window_one_element", "jitter_beyond_ps",
        "noise_beyond_ps", "node_preset_drift_beyond_ps",
        # named a Python type error, not the field
        "clock_array", "router_kind_array", "preset_array",
        # a JSON boolean read as a number
        "size_bits_bool", "seed_bool", "duration_bool", "bandwidth_bool",
        "workload_time_bool", "sync_time_bool", "reply_size_bool",
        # a string that is not a number, named without its field before
        "workload_time_string", "window_string",
        # a string holding a number, read as that number before
        "seed_string", "duration_string",
        # split into characters, or a Python error, before
        "participants_string", "participants_number", "offset_point_three_values",
        "offset_table_number",
        # sync_schedule checks of validate_scenario
        "unknown_algorithm", "unknown_algorithm_array", "one_participant",
        "participant_without_clock", "participant_disconnected",
        # named problems that no other row reaches
        "links_object", "missing_field", "node_without_id", "attack_unknown_target",
        "workload_unknown_node", "speed_unknown_medium", "link_unknown_medium",
        "unknown_router_kind", "unknown_node_kind", "router_delay_on_client",
        "unknown_hijack_mode", "unknown_failure_mode", "unknown_correction_policy"])
def test_malformed_scenario_is_a_named_problem(tmp_path, data, named):
    path = tmp_path / "bad.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert any(named in p for p in excinfo.value.problems), excinfo.value.problems


def test_malformed_clock_is_its_only_problem(tmp_path):
    # the node naming the clock does not add a second, "unknown clock" problem
    data = json.loads((SCENARIO_DIR / "minimal_pair.json").read_text())
    data["clocks"]["drifting"]["noise_sigma_s"] = 1e300
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert excinfo.value.problems == [
        "clocks['drifting']: noise_sigma_s must be a finite number of picoseconds, "
        "got 1e+300"]


def test_each_overflowing_epoch_is_its_own_problem():
    # two ddos windows, on two routers, each beyond picoseconds on its own
    data = _mesh_attacks_with(1e305, {"kind": "ddos", "target": "rb",
                                      "window_s": [11.0, 12.0], "delay_multiplier": 1e305})
    assert validate_scenario(parse_scenario(data)) == [
        "attack ddos on 'ra': router delay from 4.0 s is not a finite number of picoseconds",
        "attack ddos on 'rb': router delay from 11.0 s is not a finite number of picoseconds"]


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


MINIMAL_PAIR = json.loads((SCENARIO_DIR / "minimal_pair.json").read_text())


@pytest.mark.parametrize("data", [
    # rate times the elapsed picoseconds is beyond the float range once the
    # first round's slew has run for a second
    {**MINIMAL_PAIR, "sync_schedule": [CRISTIAN, {**CRISTIAN, "time_s": 2.0}],
     "sync_options": {"correction_policy": "slew", "slew_rate": 1e300}},
    # the shortest alternating durations, 1 ps each
    {**MINIMAL_PAIR,
     "nodes": MINIMAL_PAIR["nodes"] + [
         {**ROUTER, "failure_model": {"mode": "alternating", "up_duration_s": 1e-12,
                                      "down_duration_s": 1e-12}}],
     "links": [{**MINIMAL_PAIR["links"][0], "b": "r9"},
               {**MINIMAL_PAIR["links"][0], "a": "r9"}]},
], ids=["slew_rate_1e300", "alternating_durations_1_ps"])
def test_extreme_valid_scenario_runs(data):
    scenario = parse_scenario(data)
    assert validate_scenario(scenario) == []
    engine, _, _ = run_scenario(scenario)
    assert engine.now_ps == seconds_to_ps(scenario.config.duration)


# -- validate or run: every numeric key at extreme values ----------------------

EXTREMES = (0, -1, 1e-13, 5e-13, 1e296, 1.7e296, 1e300, 1.7e308, 10**30)
# a well-formed failure model of each mode that reads a key
FAILURE_BASES = {"bernoulli": {"mode": "bernoulli", "failure_probability": 0.5},
                 "alternating": {"mode": "alternating", "up_duration_s": 1.0,
                                 "down_duration_s": 1.0}}
# what a key needs beside it to be read at all
COMPANIONS = {"slew_rate": {"correction_policy": "slew"},
              "added_delay_s": {"mode": "added_delay"}}


def _numeric(table: dict) -> list[str]:
    return [key for key, (_, reader) in table.items()
            if reader in (_number, _int, _number_or_null)]


def _entries(data: dict, where: str) -> list[dict]:
    """The JSON objects of `data` that a key placed at `where` goes into."""
    routers = [node for node in data["nodes"] if node.get("kind") == "router"]
    if where in FAILURE_BASES:
        for node in routers:
            node["failure_model"] = dict(FAILURE_BASES[where])
        return [node["failure_model"] for node in routers]
    return {"config": [data.setdefault("config", {})],
            "clocks": list(data.get("clocks", {}).values()),
            "attacks": data.get("attacks", []),
            "sync_options": [data.setdefault("sync_options", {})],
            "routers": routers, "links": data["links"]}[where]


def _grid():
    places = [("config", _numeric(CONFIG_KEYS)), ("clocks", _numeric(CLOCK_KEYS)),
              *((mode, _numeric(FAILURE_KEYS)) for mode in FAILURE_BASES),
              ("attacks", _numeric(ATTACK_KEYS)), ("sync_options", _numeric(SYNC_OPTION_KEYS)),
              ("routers", _numeric(NODE_KEYS)), ("links", ["bandwidth_bps", "distance_m"])]
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        for where, keys in places:
            if _entries(json.loads(path.read_text()), where):
                for key in keys:
                    yield pytest.param(path, where, key, id=f"{path.stem}-{where}-{key}")


@pytest.mark.parametrize("path, where, key", _grid())
def test_extreme_value_is_a_named_problem_or_runs(path, where, key):
    for value in EXTREMES:
        data = json.loads(path.read_text())
        for entry in _entries(data, where):
            entry.update({key: value, **COMPANIONS.get(key, {})})
        try:
            scenario = parse_scenario(data)
        except ScenarioError as exc:
            assert exc.problems
            continue
        if not validate_scenario(scenario):
            run_scenario(scenario)


# -- key tables ------------------------------------------------------------------

# Every row of every key table: a preset clock with overrides, a user_defined
# clock, an alternating router, a router with a kind and a delay, all three
# attack kinds and every sync option.
# The config "name" is a label that no table declares.
EVERY_ROW = {
    "config": {"seed": 7, "duration_s": 8.0, "name": "every_row"},
    "clocks": {"osc": {"preset": "quartz", "model": "linear", "alpha0_s": 0.002,
                       "beta": 2e-6, "gamma": 0.0, "noise_sigma_s": 1e-6,
                       "jitter_bound_ns": 5.0, "offset_table": []},
               "partial": {"preset": "quartz", "noise_sigma_s": 2e-9},
               "table": {"model": "user_defined",
                         "offset_table": [[0.0, 0.0], [4.0, 0.003]]}},
    "nodes": [{"id": "s1", "kind": "time_server", "clock": "gps"},
              {"id": "c1", "kind": "client", "clock": "osc"},
              {"id": "c2", "kind": "client", "clock": "table"},
              {"id": "r1", "kind": "router", "router_kind": "regular",
               "failure_model": {"mode": "alternating", "failure_probability": 0.0,
                                 "up_duration_s": 3.0, "down_duration_s": 0.25}},
              {"id": "r2", "kind": "router", "router_kind": "wifi", "router_delay_s": 4e-4}],
    "links": [{"a": "c1", "b": "r1", "bandwidth_bps": 1e8, "distance_m": 2000.0},
              {"a": "r1", "b": "s1", "bandwidth_bps": 1e9, "distance_m": 5000.0},
              {"a": "c2", "b": "r2", "bandwidth_bps": 5e7, "distance_m": 30.0,
               "medium": "wireless"},
              {"a": "r2", "b": "s1", "bandwidth_bps": 1e9, "distance_m": 8000.0},
              {"a": "r1", "b": "r2", "bandwidth_bps": 1e9, "distance_m": 1000.0}],
    "sync_schedule": [{"time_s": 1.0, "algorithm": "cristian", "participants": ["c1", "s1"]},
                      {"time_s": 3.5, "algorithm": "cristian", "participants": ["c1", "s1"]},
                      {"time_s": 5.5, "algorithm": "berkeley",
                       "participants": ["s1", "c1", "c2"]}],
    "attacks": [{"kind": "ddos", "target": "r1", "window_s": [1.0, 2.0],
                 "delay_multiplier": 3.0, "drop_probability": 0.5},
                {"kind": "ip_spoof", "target": "c1", "window_s": [3.0, 4.0],
                 "forged_offset_s": 0.001},
                {"kind": "router_hijack", "target": "r2", "window_s": [5.0, 6.0],
                 "mode": "added_delay", "added_delay_s": 0.002}],
    "message_workload": [{"time_s": 1.5, "source": "c2", "destination": "c1",
                          "size_bits": 4000}],
    "medium_speeds_m_per_s": {"fiber": 2.1e8},
    "sync_options": {"request_size_bits": 8000, "reply_size_bits": 9000,
                     "server_service_time_s": 1e-4, "outlier_threshold_s": None,
                     "correction_policy": "slew", "slew_rate": 0.01,
                     "timeout_factor": 4.0, "default_timeout_s": 0.5},
}


def test_every_key_table_row_is_read_into_its_field():
    scenario = parse_scenario(EVERY_ROW)
    assert validate_scenario(scenario) == []
    router = next(spec for spec in EVERY_ROW["nodes"] if spec["id"] == "r1")
    read = {"config": [(EVERY_ROW["config"], scenario.config)],
            "sync_options": [(EVERY_ROW["sync_options"], scenario.sync_options)],
            "failure_model": [(router["failure_model"],
                               scenario.graph.nodes["r1"].failure_model)],
            "clocks": [(spec, scenario.clock_params[name])
                       for name, spec in EVERY_ROW["clocks"].items()],
            "attacks": list(zip(EVERY_ROW["attacks"], scenario.attacks)),
            "nodes": [(spec, scenario.graph.nodes[spec["id"]]) for spec in EVERY_ROW["nodes"]]}
    tables = {"config": CONFIG_KEYS, "sync_options": SYNC_OPTION_KEYS,
              "failure_model": FAILURE_KEYS, "clocks": CLOCK_KEYS, "attacks": ATTACK_KEYS,
              "nodes": NODE_KEYS}
    for section, table in tables.items():
        given = set()
        for spec, obj in read[section]:
            for key, (name, reader) in table.items():
                if key in spec:
                    given.add(key)
                    assert getattr(obj, name) == reader(key, spec[key]), (section, key)
        assert given == set(table), section
    # keys a preset clock leaves out keep the preset's values
    assert scenario.clock_params["partial"] == replace(preset_parameters("quartz"),
                                                       noise_sigma=2e-9)


# -- GNSS presets ------------------------------------------------------------------

GNSS = ("gps", "beidou", "galileo", "glonass")


def jitter_draws(name, seed, count):
    """A GNSS preset clock's per-reading jitter (seconds) at t = 0, 1, 2, ... ps."""
    clock = SoftwareClock(name, preset_parameters(name), seed)
    return [clock.noise_at_ps(t_ps) for t_ps in range(count)]


def test_gnss_preset_bounds():
    assert preset_parameters("gps").jitter_bound_ns == 30.0
    assert preset_parameters("beidou").jitter_bound_ns == 50.0
    assert preset_parameters("galileo").jitter_bound_ns == 30.0
    assert preset_parameters("glonass").jitter_bound_ns == 40.0
    with pytest.raises(ValueError):
        preset_parameters("loran")


def test_gnss_jitter_stays_in_half_open_interval():
    for name in GNSS:
        bound = preset_parameters(name).jitter_bound_ns * 1e-9
        assert all(0.0 <= d < bound for d in jitter_draws(name, 5, 20_000))


def test_beidou_jitter_mean():
    draws = jitter_draws("beidou", 11, 100_000)
    assert abs(sum(draws) / len(draws) - 25e-9) < 0.5e-9


def test_degenerate_zero_bound_always_zero():
    params = ClockParameters(model_kind="linear", jitter_bound_ns=0.0)
    clock = SoftwareClock("custom", params, 1)
    assert all(clock.noise_at_ps(t_ps) == 0.0 for t_ps in range(100))


def test_gnss_jitter_deterministic():
    assert jitter_draws("gps", 9, 5) == jitter_draws("gps", 9, 5)
    assert jitter_draws("gps", 9, 5) != jitter_draws("gps", 10, 5)


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


def _dot_statement_ids(line: str) -> list[str]:
    """The ids a DOT statement line names: its quoted strings outside `[...]`,
    read by the DOT rule (`\\"` is a quote, every other character is literal;
    a `\\\\` pair is kept whole, as Graphviz keeps it, so it cannot start a
    `\\"`).  Fails unless every quote and bracket on the line closes."""
    ids, depth, i = [], 0, 0
    while i < len(line):
        char = line[i]
        if char == '"':
            text, i = [], i + 1
            while line[i] != '"':   # IndexError: the string never closes
                if line[i] == "\\" and line[i + 1] in '"\\':
                    text.append(line[i + 1] if line[i + 1] == '"' else "\\\\")
                    i += 2
                else:
                    text.append(line[i])
                    i += 1
            if depth == 0:
                ids.append("".join(text))
        elif char in "[]":
            depth += 1 if char == "[" else -1
        i += 1
    assert depth == 0, line
    return ids


def test_dot_quotes_ids_holding_quotes_and_backslashes():
    # `validate` accepts any string id; each must stay one quoted DOT string
    # in its node statement, its edge statements and its label
    names = ['a"b', "r\\1", "s\\"]
    scenario = parse_scenario({
        "nodes": [{"id": names[0], "kind": "client"},
                  {"id": names[1], "kind": "router", "router_kind": "regular"},
                  {"id": names[2], "kind": "time_server"}],
        "links": [{"a": names[0], "b": names[1], "bandwidth_bps": 1e6, "distance_m": 1.0},
                  {"a": names[1], "b": names[2], "bandwidth_bps": 1e6, "distance_m": 1.0}],
    })
    assert validate_scenario(scenario) == []
    text = export_graph(NetworkView(scenario.graph), 0.0)
    statements = [line for line in text.splitlines() if line.startswith('  "')]
    nodes = [_dot_statement_ids(line) for line in statements if " -> " not in line]
    edges = [_dot_statement_ids(line) for line in statements if " -> " in line]
    assert all(len(ids) == 1 for ids in nodes) and all(len(ids) == 2 for ids in edges)
    node_ids = sorted(ids[0] for ids in nodes)
    assert len(node_ids) == 3
    assert sorted({name for ids in edges for name in ids}) == node_ids
    assert 'a"b' in node_ids


# -- trace schema -------------------------------------------------------------------

def test_trace_roundtrip(tmp_path):
    scenario = load_scenario(SCENARIO_DIR / "minimal_pair.json")
    _, records, _ = run_scenario(scenario)
    path = tmp_path / "run.trace"
    path.write_bytes(trace_bytes(records))
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
