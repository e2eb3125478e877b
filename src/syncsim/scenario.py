"""Scenario files: a single JSON document with stable section names.

Sections: config, clocks, nodes, links, sync_schedule, attacks,
message_workload, medium_speeds_m_per_s, sync_options.  Times and durations
carry an _s suffix (seconds); sizes are bits; bandwidths are bits/second.
`load_scenario` fully validates cross-references and graph invariants
before anything runs, reporting each problem with the entity it concerns.

Clock presets addressable by name: perfect, cesium, quartz, gps, beidou,
galileo, glonass.  A node's "clock" field may name an entry of the clocks
section or a preset directly.  A clocks entry with a "preset" starts from
that preset and takes the same keys as one without, which override it.
"""

import json
import math
from dataclasses import dataclass, field, replace

from .attacks import AttackSpec
from .clocks import CLOCK_PRESETS, ClockParameters, preset_parameters
from .delay import link_terms_ps
from .engine import Engine, SimConfig
from .metrics import metrics_report
from .sync import BerkeleyRound, CristianExchange, SyncOptions
from .timebase import PS_PER_SECOND, seconds_to_ps
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


def _node_ref(value) -> str:
    """A node id field of a scenario entry; ids are JSON strings."""
    if not isinstance(value, str):
        raise TypeError(f"node id {value!r} is not a string")
    return value


def _number(key: str, value, seconds: bool = False) -> float:
    """float(value), rejecting a number that is not finite and, for a value in
    seconds (a key with an _s suffix, or `seconds`), one whose picosecond
    count is not finite."""
    seconds = seconds or key.endswith("_s")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number * (PS_PER_SECOND if seconds else 1)):
        raise ValueError(f"{key} must be a finite number"
                         f"{' of picoseconds' if seconds else ''}, got {value!r}")
    return number


def _int(key: str, value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _text(key: str, value) -> str:
    return str(value)


def _number_or_null(key: str, value) -> float | None:
    return None if value is None else _number(key, value)


def _offset_table(key: str, value) -> tuple[tuple[float, float], ...]:
    """(time, offset) points, both in seconds."""
    return tuple((_number(key, t, seconds=True), _number(key, v, seconds=True))
                 for t, v in value)


# One table per section of optional keys: JSON key -> (dataclass field, reader).
# Parsing passes only the keys present, so every default is the dataclass's;
# scenario_to_dict writes every row.
CONFIG_KEYS = {"seed": ("seed", _int), "duration_s": ("duration", _number),
               "name": ("scenario_name", _text)}
CLOCK_KEYS = {"model": ("model_kind", _text), "alpha0_s": ("alpha0", _number),
              "beta": ("beta", _number), "gamma": ("gamma", _number),
              "noise_sigma_s": ("noise_sigma", _number),
              "jitter_bound_ns": ("jitter_bound_ns", _number),
              "offset_table": ("offset_table", _offset_table)}
FAILURE_KEYS = {"mode": ("mode", _text),
                "failure_probability": ("failure_probability", _number),
                "up_duration_s": ("up_duration", _number),
                "down_duration_s": ("down_duration", _number)}
ATTACK_KEYS = {"delay_multiplier": ("delay_multiplier", _number),
               "drop_probability": ("drop_probability", _number),
               "forged_offset_s": ("forged_offset", _number), "mode": ("mode", _text),
               "added_delay_s": ("added_delay", _number)}
SYNC_OPTION_KEYS = {"request_size_bits": ("request_size_bits", _int),
                    "reply_size_bits": ("reply_size_bits", _int),
                    "server_service_time_s": ("server_service_time", _number),
                    "outlier_threshold_s": ("outlier_threshold", _number_or_null),
                    "correction_policy": ("correction_policy", _text),
                    "slew_rate": ("slew_rate", _number_or_null),
                    "timeout_factor": ("timeout_factor", _number),
                    "default_timeout_s": ("default_timeout", _number)}


def _read(table: dict, spec: dict) -> dict:
    """Dataclass fields for the keys of spec that the table declares."""
    return {name: reader(key, spec[key])
            for key, (name, reader) in table.items() if key in spec}


def _write(table: dict, obj) -> dict:
    return {key: getattr(obj, name) for key, (name, _) in table.items()}


def _parse_clock(spec: dict) -> ClockParameters:
    base = preset_parameters(spec["preset"]) if "preset" in spec else ClockParameters()
    return replace(base, **_read(CLOCK_KEYS, spec))


def _parse_attack(spec: dict) -> AttackSpec:
    window = spec["window_s"]
    return AttackSpec(kind=spec["kind"], target=_node_ref(spec["target"]),
                      t_start=_number("window_s", window[0]),
                      t_end=_number("window_s", window[1]), **_read(ATTACK_KEYS, spec))


def parse_scenario(data: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; structural errors only."""
    if not isinstance(data, dict):
        raise ScenarioError(["scenario: expected a JSON object at the top level"])
    problems: list[str] = []
    try:
        config = SimConfig(**_read(CONFIG_KEYS, _section(data, "config", dict, problems)))
    except (TypeError, ValueError) as exc:
        problems.append(f"config: {exc}")
        config = SimConfig()

    clock_params = _parse_each(data, "clocks", _parse_clock, problems, dict)
    clock_entries = data["clocks"] if isinstance(data.get("clocks"), dict) else {}

    nodes: dict[str, NodeSpec] = {}
    node_clock_names: dict[str, str] = {}

    def parse_node(spec: dict) -> None:
        node_id = spec.get("id")
        if not node_id:
            raise ValueError("node without an id")
        if node_id in nodes:
            raise ValueError(f"duplicate node id: {node_id!r}")
        kind = spec.get("kind", "client")
        clock = None
        if kind in ("client", "time_server"):
            clock_name = spec.get("clock", "perfect")
            node_clock_names[node_id] = clock_name
            if clock_name in clock_params:
                clock = clock_params[clock_name]
            elif clock_name in CLOCK_PRESETS:
                clock = preset_parameters(clock_name)
            elif clock_name not in clock_entries:  # a malformed entry is its own problem
                raise ValueError(f"node {node_id!r}: unknown clock {clock_name!r}")
        failure = None
        if "failure_model" in spec:
            fm = spec["failure_model"]
            if not isinstance(fm, dict):
                raise TypeError(f"node {node_id!r}: failure_model: expected a JSON object")
            failure = FailureModel(**_read(FAILURE_KEYS, fm))
        nodes[node_id] = NodeSpec(
            node_id=node_id, kind=kind,
            router_kind=spec.get("router_kind"),
            router_delay=(_number("router_delay_s", spec["router_delay_s"])
                          if "router_delay_s" in spec else None),
            failure_model=failure, clock=clock)
    _parse_each(data, "nodes", parse_node, problems)

    links = _parse_each(data, "links", lambda spec: LinkSpec(
        a=spec["a"], b=spec["b"],
        bandwidth_bps=_number("bandwidth_bps", spec["bandwidth_bps"]),
        distance_m=_number("distance_m", spec["distance_m"]),
        medium=spec.get("medium", "fiber")), problems)
    graph = NetworkGraph(nodes.values(), links.values())

    schedule = _parse_each(data, "sync_schedule", lambda spec: SyncScheduleEntry(
        time_s=_number("time_s", spec["time_s"]),
        algorithm=spec["algorithm"],
        participants=tuple(map(_node_ref, spec["participants"]))), problems)
    attacks = _parse_each(data, "attacks", _parse_attack, problems)
    workload = _parse_each(data, "message_workload", lambda spec: WorkloadEntry(
        time_s=_number("time_s", spec["time_s"]), source=_node_ref(spec["source"]),
        destination=_node_ref(spec["destination"]),
        size_bits=_int("size_bits", spec["size_bits"])), problems)

    try:
        sync_options = SyncOptions(
            **_read(SYNC_OPTION_KEYS, _section(data, "sync_options", dict, problems)))
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
    if scenario.config.duration < 0:
        problems.append(Violation("config", "duration_s must be >= 0"))
    for entry in scenario.sync_schedule:
        label = f"sync@{entry.time_s}s"
        if entry.time_s < 0:
            problems.append(Violation(label, "time_s must be >= 0"))
        if entry.algorithm not in ("cristian", "berkeley"):
            problems.append(Violation(label, f"unknown algorithm {entry.algorithm!r}"))
            continue
        if entry.algorithm == "cristian" and len(entry.participants) != 2:
            problems.append(Violation(label, "cristian needs exactly 2 participants"))
        elif len(entry.participants) < 2:
            problems.append(Violation(label, "needs at least 2 participants"))
        if len(set(entry.participants)) != len(entry.participants):
            problems.append(Violation(label, "participants must be distinct"))
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
        label = f"message_workload[{index}]"
        if entry.time_s < 0:
            problems.append(Violation(label, "time_s must be >= 0"))
        if entry.size_bits < 0:
            problems.append(Violation(label, "size_bits must be >= 0"))
        if entry.source == entry.destination:
            problems.append(Violation(label, "source and destination must differ"))
        for node_id in (entry.source, entry.destination):
            if node_id not in graph:
                problems.append(Violation(label, f"unknown node {node_id!r}"))
    for medium, speed in scenario.medium_speeds.items():
        try:
            valid = type(speed) in (int, float) and _number(medium, speed) > 0
        except ValueError:
            valid = False
        if medium not in MEDIA:
            problems.append(Violation("medium_speeds_m_per_s", f"unknown medium {medium!r}"))
        elif not valid:
            problems.append(Violation("medium_speeds_m_per_s",
                                      f"{medium}: speed must be a finite number > 0, "
                                      f"got {speed!r}"))
    if not problems:
        # a run quantizes each link's terms for every message it sends
        sync = scenario.sync_options
        largest = max([entry.size_bits for entry in scenario.workload]
                      + ([sync.request_size_bits, sync.reply_size_bits]
                         if scenario.sync_schedule else []), default=0)
        for link in graph.links:
            try:
                link_terms_ps(link, largest, scenario.medium_speeds)
            except OverflowError:
                problems.append(Violation(f"link {link.a}--{link.b}",
                                          f"delay of a {largest}-bit message is not a "
                                          f"finite number of picoseconds"))
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
    except ValueError as exc:  # a number literal beyond the integer conversion limit
        raise ScenarioError([f"{path}: parse error: {exc}"]) from None
    scenario = parse_scenario(data)
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError([str(p) for p in problems])
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical dictionary form; load(parse(write(s))) is a fixpoint."""
    nodes = []
    for node_id in sorted(scenario.graph.nodes):
        node = scenario.graph.node(node_id)
        spec = {"id": node.node_id, "kind": node.kind}
        if node.is_router:
            spec["router_kind"] = node.router_kind
            spec["router_delay_s"] = node.router_delay
            spec["failure_model"] = _write(FAILURE_KEYS, node.failure_model)
        else:
            # either a clocks-section name or a bare preset name; both reload
            spec["clock"] = scenario.node_clock_names.get(node_id, "perfect")
        nodes.append(spec)
    data = {
        "config": _write(CONFIG_KEYS, scenario.config),
        "clocks": {name: _write(CLOCK_KEYS, params)
                   for name, params in sorted(scenario.clock_params.items())},
        "nodes": nodes,
        "links": [{"a": link.a, "b": link.b, "bandwidth_bps": link.bandwidth_bps,
                   "distance_m": link.distance_m, "medium": link.medium}
                  for link in sorted(scenario.graph.links, key=lambda l: (l.a, l.b))],
        "sync_schedule": [{"time_s": e.time_s, "algorithm": e.algorithm,
                           "participants": list(e.participants)}
                          for e in scenario.sync_schedule],
        "attacks": [{"kind": a.kind, "target": a.target, "window_s": [a.t_start, a.t_end],
                     **_write(ATTACK_KEYS, a)} for a in scenario.attacks],
        "message_workload": [{"time_s": e.time_s, "source": e.source,
                              "destination": e.destination, "size_bits": e.size_bits}
                             for e in scenario.workload],
        "sync_options": _write(SYNC_OPTION_KEYS, scenario.sync_options),
    }
    if scenario.medium_speeds:
        data["medium_speeds_m_per_s"] = dict(sorted(scenario.medium_speeds.items()))
    return data


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
