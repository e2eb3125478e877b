"""Scenario files: a single JSON document with stable section names.

Sections: config, clocks, nodes, links, sync_schedule, attacks,
message_workload, medium_speeds_m_per_s, sync_options.  Times and durations
carry an _s suffix (seconds); sizes are bits; bandwidths are bits/second.
A number must be finite, and nothing more: a seconds field is quantized to
exact picoseconds at any magnitude, and a clock's offset is exact at any
instant, so no field has a horizon or magnitude rule.
Parsing builds the graph, so a node or link that breaks a graph rule is a
parse problem named after its entry.  `build_engine` names every other
problem before anything runs: `validate_scenario`'s, then each workload
and sync entry that the engine or its round rejects when it is scheduled.

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
from .engine import Engine, SchedulingError
from .metrics import metrics_report
from .sync import ALGORITHMS, SyncOptions
from .timebase import seconds_to_ps
from .topology import (MEDIA, FailureModel, LinkSpec, NetworkGraph, NodeSpec, admit_link,
                       is_medium_speed)
from .trace import unique_keys


class ScenarioError(Exception):
    """Scenario file cannot be parsed or fails validation."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    duration: float = 10.0


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


def _node_refs(key: str, value) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise TypeError(f"{key} must be an array of node ids, got {value!r}")
    return tuple(map(_node_ref, value))


def _not_bool(key: str, value):
    """value, unless it is JSON true or false, which float() and int() would
    read as 1 and 0."""
    if isinstance(value, bool):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return value


def _number(key: str, value) -> float:
    """float(value), rejecting a boolean, a string and a number that is not
    finite."""
    if isinstance(value, str):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        number = float(_not_bool(key, value))
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return number


def _int(key: str, value) -> int:
    if isinstance(value, str) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(_not_bool(key, value))


def _text(key: str, value) -> str:
    if type(value) is not str:
        raise TypeError(f"{key} must be a JSON string, got {value!r}")
    return value


def _number_or_null(key: str, value) -> float | None:
    return None if value is None else _number(key, value)


def _offset_table(key: str, value) -> tuple[tuple[float, float], ...]:
    """(time, offset) points, both in seconds."""
    if not isinstance(value, list) or not all(
            isinstance(point, list) and len(point) == 2 for point in value):
        raise ValueError(f"{key} must be an array of [time, offset] points, got {value!r}")
    return tuple((_number(key, t), _number(key, v)) for t, v in value)


# One table per section of optional keys: JSON key -> (dataclass field, reader).
# Parsing passes only the keys present, so every default is the dataclass's;
# a key no table declares (such as config "name") is a label and is skipped.
CONFIG_KEYS = {"seed": ("seed", _int), "duration_s": ("duration", _number)}
NODE_KEYS = {"router_kind": ("router_kind", _text),
             "router_delay_s": ("router_delay", _number)}
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


def _parse_object(data: dict, name: str, build, table: dict, problems: list[str]):
    """build(**fields) of the table's keys in an object section; build()
    and a problem naming the section if build rejects them."""
    try:
        return build(**_read(table, _section(data, name, dict, problems)))
    except (TypeError, ValueError) as exc:
        problems.append(f"{name}: {exc}")
        return build()


def _parse_clock(spec: dict) -> ClockParameters:
    base = (preset_parameters(_text("preset", spec["preset"])) if "preset" in spec
            else ClockParameters())
    return replace(base, **_read(CLOCK_KEYS, spec))


def _parse_attack(spec: dict) -> AttackSpec:
    window = spec["window_s"]
    if not isinstance(window, list) or len(window) != 2:
        raise ValueError(f"window_s must be an array [start, end], got {window!r}")
    return AttackSpec(kind=spec["kind"], target=_node_ref(spec["target"]),
                      t_start=_number("window_s", window[0]),
                      t_end=_number("window_s", window[1]), **_read(ATTACK_KEYS, spec))


def parse_scenario(data: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; structural errors only."""
    if not isinstance(data, dict):
        raise ScenarioError(["scenario: expected a JSON object at the top level"])
    problems: list[str] = []
    config = _parse_object(data, "config", SimConfig, CONFIG_KEYS, problems)

    clock_params = _parse_each(data, "clocks", _parse_clock, problems, dict)
    clock_entries = data["clocks"] if isinstance(data.get("clocks"), dict) else {}

    nodes: dict[str, NodeSpec] = {}
    declared: set[str] = set()  # each node entry's id, parsed or not

    def parse_node(spec: dict) -> None:
        node_id = _node_ref(spec.get("id", ""))
        if not node_id:
            raise ValueError("node without an id")
        if node_id in nodes:
            raise ValueError(f"duplicate node id: {node_id!r}")
        declared.add(node_id)
        kind = spec.get("kind", "client")
        clock = None
        if kind in ("client", "time_server"):
            clock_name = _text("clock", spec.get("clock", "perfect"))
            if clock_name in clock_params:
                clock = clock_params[clock_name]
            elif clock_name in CLOCK_PRESETS:
                clock = preset_parameters(clock_name)
            elif clock_name in clock_entries:  # a malformed entry is its own problem
                return
            else:
                raise ValueError(f"node {node_id!r}: unknown clock {clock_name!r}")
        failure = None
        if "failure_model" in spec:
            fm = spec["failure_model"]
            if not isinstance(fm, dict):
                raise TypeError(f"node {node_id!r}: failure_model: expected a JSON object")
            failure = FailureModel(**_read(FAILURE_KEYS, fm))
        nodes[node_id] = NodeSpec(node_id=node_id, kind=kind, failure_model=failure,
                                  clock=clock, **_read(NODE_KEYS, spec))
    _parse_each(data, "nodes", parse_node, problems)

    pairs: set[frozenset[str]] = set()

    def parse_link(spec: dict) -> LinkSpec:
        link = LinkSpec(a=_node_ref(spec["a"]), b=_node_ref(spec["b"]),
                        bandwidth_bps=_number("bandwidth_bps", spec["bandwidth_bps"]),
                        distance_m=_number("distance_m", spec["distance_m"]),
                        medium=_text("medium", spec.get("medium", "fiber")))
        admit_link(link, declared, pairs)  # a malformed node entry is its own problem
        return link
    links = _parse_each(data, "links", parse_link, problems)

    schedule = _parse_each(data, "sync_schedule", lambda spec: SyncScheduleEntry(
        time_s=_number("time_s", spec["time_s"]),
        algorithm=spec["algorithm"],
        participants=_node_refs("participants", spec["participants"])), problems)
    attacks = _parse_each(data, "attacks", _parse_attack, problems)
    workload = _parse_each(data, "message_workload", lambda spec: WorkloadEntry(
        time_s=_number("time_s", spec["time_s"]), source=_node_ref(spec["source"]),
        destination=_node_ref(spec["destination"]),
        size_bits=_int("size_bits", spec["size_bits"])), problems)

    sync_options = _parse_object(data, "sync_options", SyncOptions, SYNC_OPTION_KEYS,
                                 problems)

    medium_speeds = _section(data, "medium_speeds_m_per_s", dict, problems)
    if problems:
        raise ScenarioError(problems)
    return Scenario(config=config, clock_params=clock_params,
                    graph=NetworkGraph(nodes.values(), links.values()),
                    sync_schedule=list(schedule.values()),
                    attacks=tuple(attacks.values()), workload=list(workload.values()),
                    medium_speeds=dict(medium_speeds),
                    sync_options=sync_options)


def validate_scenario(scenario: Scenario) -> list[str]:
    """The problems no constructor of the run can know, each as "entity:
    message": the duration, attack targets, disconnected sync participants
    and `medium_speeds`.  `build_engine` names the workload and sync
    entries' problems."""
    problems: list[str] = []
    graph = scenario.graph
    linked = {end for link in graph.links for end in (link.a, link.b)}
    if scenario.config.duration < 0:
        problems.append("config: duration_s must be >= 0")
    for entry in scenario.sync_schedule:
        for node_id in entry.participants:
            if node_id in graph.nodes and node_id not in linked:
                problems.append(f"sync@{entry.time_s}s: participant {node_id!r} is disconnected")
    for attack in scenario.attacks:
        if attack.target not in graph.nodes:
            problems.append(f"attack {attack.kind}: unknown target {attack.target!r}")
    for medium, speed in scenario.medium_speeds.items():
        if medium not in MEDIA:
            problems.append(f"medium_speeds_m_per_s: unknown medium {medium!r}")
        elif not is_medium_speed(speed):
            problems.append(f"medium_speeds_m_per_s: {medium}: speed must be a finite "
                            f"number > 0, got {speed!r}")
    return problems


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file; `build_engine` validates it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot read: {exc.strerror}"]) from None
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"{path}: not UTF-8 text ({exc.reason} at byte "
                             f"{exc.start})"]) from None
    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None
    except ValueError as exc:  # a repeated key, or an int beyond the conversion limit
        raise ScenarioError([f"{path}: parse error: {exc}"]) from None
    return parse_scenario(data)


def _entry_problem(label: str, exc: Exception) -> str:
    # the engine is at 0 ps while it is built, so an event before it is a negative time
    return f"{label}: {'time_s must be >= 0' if isinstance(exc, SchedulingError) else exc}"


def build_engine(scenario: Scenario, seed: int | None = None) -> Engine:
    """Engine with the scenario's workload and sync rounds scheduled.  Raises
    ScenarioError with `validate_scenario`'s problems (else the engine's own)
    and the problem of each entry that `send_message` or its round rejects."""
    problems = validate_scenario(scenario)
    run_seed = scenario.config.seed if seed is None else seed
    try:
        engine = Engine(scenario.graph, run_seed, scenario.attacks, scenario.medium_speeds)
    except ValueError as exc:
        raise ScenarioError(problems or [str(exc)]) from None
    for index, entry in enumerate(scenario.workload):
        try:
            engine.send_message(entry.source, entry.destination, entry.size_bits,
                                seconds_to_ps(entry.time_s))
        except (SchedulingError, ValueError) as exc:
            problems.append(_entry_problem(f"message_workload[{index}]", exc))
    for entry in scenario.sync_schedule:
        try:
            # a tuple, since a dict raises TypeError for an unhashable value
            if entry.algorithm not in tuple(ALGORITHMS):
                raise ValueError(f"unknown algorithm {entry.algorithm!r}")
            machine = ALGORITHMS[entry.algorithm](engine, entry.participants,
                                                  scenario.sync_options)
            machine.start(seconds_to_ps(entry.time_s))
        except (SchedulingError, ValueError) as exc:
            problems.append(_entry_problem(f"sync@{entry.time_s}s", exc))
    if problems:
        raise ScenarioError(problems)
    return engine


def run_scenario(scenario: Scenario, seed: int | None = None):
    """Run to the configured duration; returns (engine, records, metrics)."""
    engine = build_engine(scenario, seed)
    engine.run_until(scenario.config.duration)
    return engine, engine.records, metrics_report(engine.records)
