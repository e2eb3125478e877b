"""Scenario files: a single JSON document with stable section names.

Sections: config, clocks, nodes, links, sync_schedule, attacks,
message_workload, medium_speeds_m_per_s, sync_options.  Times and durations
carry an _s suffix (seconds); sizes are bits; bandwidths are bits/second.
`load_scenario` fully validates cross-references and graph invariants
before anything runs, reporting each problem with the entity it concerns.

Clock presets addressable by name: perfect, cesium, quartz, gps, beidou,
galileo, glonass.  A node's "clock" field may name an entry of the clocks
section or a preset directly.
"""

import json
import math
from dataclasses import dataclass, field

from .attacks import AttackSpec
from .clocks import CLOCK_PRESETS, ClockParameters, preset_parameters
from .engine import Engine, SimConfig
from .metrics import metrics_report
from .sync import BerkeleyRound, CristianExchange, SyncOptions
from .timebase import seconds_to_ps
from .topology import (MEDIA, FailureModel, LinkSpec, NetworkGraph, NodeSpec,
                       Violation, validate)


class ScenarioError(Exception):
    """Scenario file cannot be parsed or fails validation."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class SyncScheduleEntry:
    time_s: float
    algorithm: str  # cristian | berkeley
    participants: tuple[str, ...]  # cristian: (client, server); berkeley: (coordinator, *members)


@dataclass(frozen=True)
class WorkloadEntry:
    time_s: float
    source: str
    destination: str
    size_bits: int


@dataclass
class Scenario:
    config: SimConfig
    clock_params: dict[str, ClockParameters]
    graph: NetworkGraph
    sync_schedule: list[SyncScheduleEntry] = field(default_factory=list)
    attacks: tuple[AttackSpec, ...] = ()
    workload: list[WorkloadEntry] = field(default_factory=list)
    medium_speeds: dict[str, float] = field(default_factory=dict)
    sync_options: SyncOptions = field(default_factory=SyncOptions)
    node_clock_names: dict[str, str] = field(default_factory=dict)


def _section(data: dict, name: str, kind: type, problems: list[str]):
    """The named section, or an empty one and a problem if it has the wrong JSON type."""
    value = data.get(name, kind())
    if isinstance(value, kind):
        return value
    problems.append(f"{name}: expected a JSON {'object' if kind is dict else 'array'}")
    return kind()


def _parse_each(data: dict, name: str, build, problems: list[str], kind: type = list) -> dict:
    """{key: build(entry)} over the entries of an array section (keyed by index)
    or an object section.  An entry that is not a JSON object, or that build
    rejects, becomes a problem naming its section and key."""
    entries = _section(data, name, kind, problems)
    parsed = {}
    for key, spec in entries.items() if kind is dict else enumerate(entries):
        try:
            if not isinstance(spec, dict):
                raise TypeError("expected a JSON object")
            parsed[key] = build(spec)
        except KeyError as exc:
            problems.append(f"{name}[{key!r}]: missing field {exc}")
        except (TypeError, ValueError, IndexError) as exc:
            problems.append(f"{name}[{key!r}]: {exc}")
    return parsed


def _parse_clock(spec: dict) -> ClockParameters:
    if "preset" in spec:
        overrides = {}
        mapping = {"alpha0_s": "alpha0", "beta": "beta", "gamma": "gamma",
                   "noise_sigma_s": "noise_sigma", "jitter_bound_ns": "jitter_bound_ns"}
        for key, attr in mapping.items():
            if key in spec:
                overrides[attr] = spec[key]
        return preset_parameters(spec["preset"], **overrides)
    table = tuple((float(t), float(v)) for t, v in spec.get("offset_table", []))
    return ClockParameters(
        alpha0=float(spec.get("alpha0_s", 0.0)),
        beta=float(spec.get("beta", 0.0)),
        gamma=float(spec.get("gamma", 0.0)),
        noise_sigma=float(spec.get("noise_sigma_s", 0.0)),
        model_kind=spec.get("model", "quadratic"),
        offset_table=table,
        jitter_bound_ns=float(spec.get("jitter_bound_ns", 0.0)))


def _parse_attack(spec: dict) -> AttackSpec:
    window = spec["window_s"]
    return AttackSpec(
        kind=spec["kind"], target=spec["target"],
        t_start=float(window[0]), t_end=float(window[1]),
        delay_multiplier=float(spec.get("delay_multiplier", 1.0)),
        drop_probability=float(spec.get("drop_probability", 0.0)),
        forged_offset=float(spec.get("forged_offset_s", 0.0)),
        mode=spec.get("mode", "force_down"),
        added_delay=float(spec.get("added_delay_s", 0.0)))


def parse_scenario(data: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; structural errors only."""
    if not isinstance(data, dict):
        raise ScenarioError(["scenario: expected a JSON object at the top level"])
    problems: list[str] = []
    config_spec = _section(data, "config", dict, problems)
    try:
        config = SimConfig(seed=int(config_spec.get("seed", 0)),
                           duration=float(config_spec.get("duration_s", 10.0)),
                           scenario_name=str(config_spec.get("name", "")))
    except (TypeError, ValueError) as exc:
        problems.append(f"config: {exc}")
        config = SimConfig()

    clock_params = _parse_each(data, "clocks", _parse_clock, problems, dict)

    graph = NetworkGraph()
    node_clock_names: dict[str, str] = {}

    def add_node(spec: dict) -> None:
        node_id = spec.get("id")
        if not node_id:
            raise ValueError("node without an id")
        kind = spec.get("kind", "client")
        clock = None
        if kind in ("client", "time_server"):
            clock_name = spec.get("clock", "perfect")
            node_clock_names[node_id] = clock_name
            if clock_name in clock_params:
                clock = clock_params[clock_name]
            elif clock_name in CLOCK_PRESETS:
                clock = preset_parameters(clock_name)
            else:
                raise ValueError(f"node {node_id!r}: unknown clock {clock_name!r}")
        failure = None
        if "failure_model" in spec:
            fm = spec["failure_model"]
            if not isinstance(fm, dict):
                raise TypeError(f"node {node_id!r}: failure_model: expected a JSON object")
            failure = FailureModel(
                mode=fm.get("mode", "always_active"),
                failure_probability=float(fm.get("failure_probability", 0.0)),
                up_duration=float(fm.get("up_duration_s", 0.0)),
                down_duration=float(fm.get("down_duration_s", 0.0)))
        graph.add_node(NodeSpec(
            node_id=node_id, kind=kind,
            router_kind=spec.get("router_kind"),
            router_delay=(float(spec["router_delay_s"])
                          if "router_delay_s" in spec else None),
            failure_model=failure, clock=clock))
    _parse_each(data, "nodes", add_node, problems)

    _parse_each(data, "links", lambda spec: graph.add_link(LinkSpec(
        a=spec["a"], b=spec["b"],
        bandwidth_bps=float(spec["bandwidth_bps"]),
        distance_m=float(spec["distance_m"]),
        medium=spec.get("medium", "fiber"))), problems)

    schedule = _parse_each(data, "sync_schedule", lambda spec: SyncScheduleEntry(
        time_s=float(spec["time_s"]),
        algorithm=spec["algorithm"],
        participants=tuple(spec["participants"])), problems)
    attacks = _parse_each(data, "attacks", _parse_attack, problems)
    workload = _parse_each(data, "message_workload", lambda spec: WorkloadEntry(
        time_s=float(spec["time_s"]), source=spec["source"],
        destination=spec["destination"], size_bits=int(spec["size_bits"])), problems)

    options_spec = _section(data, "sync_options", dict, problems)
    try:
        sync_options = SyncOptions(
            request_size_bits=int(options_spec.get("request_size_bits", 12000)),
            reply_size_bits=int(options_spec.get("reply_size_bits", 12000)),
            server_service_time=float(options_spec.get("server_service_time_s", 0.0)),
            outlier_threshold=(float(options_spec["outlier_threshold_s"])
                               if options_spec.get("outlier_threshold_s") is not None
                               else None),
            correction_policy=options_spec.get("correction_policy", "step"),
            slew_rate=(float(options_spec["slew_rate"])
                       if options_spec.get("slew_rate") is not None else None),
            timeout_factor=float(options_spec.get("timeout_factor", 5.0)),
            default_timeout=float(options_spec.get("default_timeout_s", 1.0)))
    except (TypeError, ValueError) as exc:
        problems.append(f"sync_options: {exc}")
        sync_options = SyncOptions()

    medium_speeds = _section(data, "medium_speeds_m_per_s", dict, problems)
    if problems:
        raise ScenarioError(problems)
    return Scenario(config=config, clock_params=clock_params, graph=graph,
                    sync_schedule=list(schedule.values()),
                    attacks=tuple(attacks.values()), workload=list(workload.values()),
                    medium_speeds=dict(medium_speeds),
                    sync_options=sync_options, node_clock_names=node_clock_names)


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Graph invariants plus scenario-level cross-reference checks."""
    problems = validate(scenario.graph)
    graph = scenario.graph
    if not 0 <= scenario.config.duration < math.inf:
        problems.append(Violation("config", "duration_s must be finite and >= 0"))
    for entry in scenario.sync_schedule:
        label = f"sync@{entry.time_s}s"
        if not 0 <= entry.time_s < math.inf:
            problems.append(Violation(label, "time_s must be finite and >= 0"))
        if entry.algorithm not in ("cristian", "berkeley"):
            problems.append(Violation(label, f"unknown algorithm {entry.algorithm!r}"))
            continue
        if entry.algorithm == "cristian" and len(entry.participants) != 2:
            problems.append(Violation(label, "cristian needs exactly 2 participants"))
        elif len(entry.participants) < 2:
            problems.append(Violation(label, "needs at least 2 participants"))
        for node_id in entry.participants:
            if node_id not in graph:
                problems.append(Violation(label, f"unknown participant {node_id!r}"))
            elif graph.node(node_id).clock is None:
                problems.append(Violation(label, f"participant {node_id!r} has no clock"))
            elif not graph.links_of(node_id):
                problems.append(Violation(label, f"participant {node_id!r} is disconnected"))
    for attack in scenario.attacks:
        if attack.target not in graph:
            problems.append(Violation(f"attack {attack.kind}",
                                      f"unknown target {attack.target!r}"))
    for index, entry in enumerate(scenario.workload):
        if not 0 <= entry.time_s < math.inf:
            problems.append(Violation(f"message_workload[{index}]",
                                      "time_s must be finite and >= 0"))
        for node_id in (entry.source, entry.destination):
            if node_id not in graph:
                problems.append(Violation(f"message_workload[{index}]",
                                          f"unknown node {node_id!r}"))
    for medium in scenario.medium_speeds:
        if medium not in MEDIA:
            problems.append(Violation("medium_speeds_m_per_s",
                                      f"unknown medium {medium!r}"))
    return problems


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot read: {exc.strerror}"]) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None
    scenario = parse_scenario(data)
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError([str(p) for p in problems])
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical dictionary form; load(parse(write(s))) is a fixpoint."""
    clocks = {}
    for name, params in sorted(scenario.clock_params.items()):
        spec: dict = {"model": params.model_kind, "alpha0_s": params.alpha0,
                      "beta": params.beta, "gamma": params.gamma,
                      "noise_sigma_s": params.noise_sigma}
        if params.offset_table:
            spec["offset_table"] = [[t, v] for t, v in params.offset_table]
        if params.jitter_bound_ns:
            spec["jitter_bound_ns"] = params.jitter_bound_ns
        clocks[name] = spec
    nodes = []
    for node_id in sorted(scenario.graph.nodes):
        node = scenario.graph.node(node_id)
        spec = {"id": node.node_id, "kind": node.kind}
        if node.is_router:
            spec["router_kind"] = node.router_kind
            spec["router_delay_s"] = node.router_delay
            fm = node.failure_model
            if fm.mode != "always_active":
                spec["failure_model"] = {"mode": fm.mode,
                                         "failure_probability": fm.failure_probability,
                                         "up_duration_s": fm.up_duration,
                                         "down_duration_s": fm.down_duration}
        else:
            # either a clocks-section name or a bare preset name; both reload
            spec["clock"] = scenario.node_clock_names.get(node_id, "perfect")
        nodes.append(spec)
    data = {
        "config": {"seed": scenario.config.seed,
                   "duration_s": scenario.config.duration,
                   "name": scenario.config.scenario_name},
        "clocks": clocks,
        "nodes": nodes,
        "links": [{"a": link.a, "b": link.b, "bandwidth_bps": link.bandwidth_bps,
                   "distance_m": link.distance_m, "medium": link.medium}
                  for link in sorted(scenario.graph.links, key=lambda l: (l.a, l.b))],
        "sync_schedule": [{"time_s": e.time_s, "algorithm": e.algorithm,
                           "participants": list(e.participants)}
                          for e in scenario.sync_schedule],
        "attacks": [_attack_to_dict(a) for a in scenario.attacks],
        "message_workload": [{"time_s": e.time_s, "source": e.source,
                              "destination": e.destination, "size_bits": e.size_bits}
                             for e in scenario.workload],
    }
    if scenario.medium_speeds:
        data["medium_speeds_m_per_s"] = dict(sorted(scenario.medium_speeds.items()))
    opts = scenario.sync_options
    data["sync_options"] = {
        "request_size_bits": opts.request_size_bits,
        "reply_size_bits": opts.reply_size_bits,
        "server_service_time_s": opts.server_service_time,
        "outlier_threshold_s": opts.outlier_threshold,
        "correction_policy": opts.correction_policy,
        "slew_rate": opts.slew_rate,
        "timeout_factor": opts.timeout_factor,
        "default_timeout_s": opts.default_timeout,
    }
    return data


def _attack_to_dict(attack: AttackSpec) -> dict:
    spec = {"kind": attack.kind, "target": attack.target,
            "window_s": [attack.t_start, attack.t_end]}
    if attack.kind == "ddos":
        spec["delay_multiplier"] = attack.delay_multiplier
        spec["drop_probability"] = attack.drop_probability
    elif attack.kind == "ip_spoof":
        spec["forged_offset_s"] = attack.forged_offset
    else:
        spec["mode"] = attack.mode
        if attack.mode == "added_delay":
            spec["added_delay_s"] = attack.added_delay
    return spec


def write_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(scenario_to_dict(scenario), handle, indent=2, sort_keys=True)
        handle.write("\n")


def build_engine(scenario: Scenario, seed: int | None = None) -> Engine:
    """Engine with the scenario's workload and sync rounds scheduled."""
    run_seed = scenario.config.seed if seed is None else seed
    engine = Engine(scenario.graph, run_seed, scenario.attacks, scenario.medium_speeds)
    for entry in scenario.workload:
        engine.send_message(entry.source, entry.destination, entry.size_bits,
                            seconds_to_ps(entry.time_s))
    for entry in scenario.sync_schedule:
        at_ps = seconds_to_ps(entry.time_s)
        if entry.algorithm == "cristian":
            machine = CristianExchange(engine, entry.participants[0],
                                       entry.participants[1], scenario.sync_options)
        else:
            machine = BerkeleyRound(engine, entry.participants[0],
                                    list(entry.participants[1:]), scenario.sync_options)
        machine.start(at_ps)
    return engine


def run_scenario(scenario: Scenario, seed: int | None = None):
    """Run to the configured duration; returns (engine, records, metrics)."""
    engine = build_engine(scenario, seed)
    engine.run_until(scenario.config.duration)
    return engine, engine.records, metrics_report(engine.records)
