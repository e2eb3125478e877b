"""Per-layer tracing from outside the program.

`LayerProbe.install()` replaces public functions of the syncsim modules
(the layers) with wrappers, each under the name the caller looks it up by,
and `remove()` puts the originals back.  Nothing under `src/` changes.

Two kinds of wrapper:

  timed       records a span (name, start, end, parent index) in memory;
              a layer's self time is its spans minus their child spans
  count-only  bumps counters and records no span, for call sites with more
              than ~100k calls per run (`edge_weight_ps`,
              `NetworkView.router_active`, `router_delay_at`,
              `effective_flag`, `effective_router_delay`), so wrapper cost
              does not swamp the self time of the span that calls them.
              Their time, and the wrapper's, lands in the caller's span
              (routing, on the run path).

`drop_roll` stays timed although it runs once per hop (~130k calls on
`line`): it is the attacks layer's work on the message path.  There the
bookkeeping of its spans adds a few percent to `engine.loop_self_s`.

All spans of one traced run share that run's id.  Spans stay in memory
until `write_spans` is called after the run.
"""

import json
import statistics
from time import perf_counter

import syncsim.attacks as attacks_mod
import syncsim.engine as engine_mod
import syncsim.randstream as randstream_mod
import syncsim.routing as routing_mod
import syncsim.sync as sync_mod
from syncsim.clocks import SoftwareClock
from syncsim.engine import Engine
from syncsim.netview import NetworkView
from syncsim.routing import NoRoute
from syncsim.timebase import seconds_to_ps

# span name -> layer; every span except the phase spans belongs to one layer
SPAN_LAYERS = {
    "scenario.load": "scenario", "scenario.build": "scenario",
    "engine.run": "engine",
    "routing.shortest_path": "routing",
    "delay.total_path_delay": "delay",
    "randstream.u64": "randstream",
    "clocks.reading_ps": "clocks",
    "attacks.drop_roll": "attacks", "attacks.forge_reply_timestamp": "attacks",
    "trace.serialize": "trace", "metrics.report": "metrics",
}
RUN_LAYERS = ("routing", "delay", "randstream", "clocks", "attacks")
DRAW_TAGS = ("router_flag", "clock_noise", "clock_jitter", "ddos_drop")
COUNTERS = (
    "routing.queries", "routing.relaxations", "routing.relax_excluded",
    "routing.no_route", "routing.baseline_queries", "routing.repeat_queries",
    "delay.breakdowns", "delay.hops",
    "netview.router_active_calls", "netview.router_delay_calls",
    "netview.in_query_state_calls", "netview.repeat_states",
    "randstream.draws", *(f"randstream.draws.{tag}" for tag in DRAW_TAGS),
    "clocks.readings", "attacks.calls", "attacks.drops", "attacks.forged",
    "engine.scheduled", "engine.cancelled",
)


class LayerProbe:
    """Spans and counters for one traced run of one engine."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [name, start, end, parent index]
        self._open = [-1]                     # indices of the spans now open
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.machines: list = []              # sync state machines started
        self._query_keys: set = set()
        self._state_keys: set | None = None   # (node, t_ps) seen in this query
        self._in_baseline = False
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span around a block of the benchmark."""
        return _Span(self, name)

    def _timed(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, perf_counter

        def timed(*args, **kwargs):
            record = [name, clock(), 0.0, open_[-1]]
            open_.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()
        return timed

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        counts = self.counts
        probe = self

        shortest_path = routing_mod.shortest_path

        def query(view, q):
            counts["routing.queries"] += 1
            if probe._in_baseline:
                counts["routing.baseline_queries"] += 1
            key = (view.attacks, q.source, q.destination,
                   seconds_to_ps(q.query_time), q.size_bits)
            if key in probe._query_keys:
                counts["routing.repeat_queries"] += 1
            else:
                probe._query_keys.add(key)
            outer, probe._state_keys = probe._state_keys, set()
            try:
                return shortest_path(view, q)
            except NoRoute:
                counts["routing.no_route"] += 1
                raise
            finally:
                probe._state_keys = outer
        timed_query = self._timed("routing.shortest_path", query)
        self._patch(routing_mod, "shortest_path", timed_query)
        self._patch(engine_mod, "shortest_path", timed_query)

        edge_weight_ps = routing_mod.edge_weight_ps

        def relax(view, link, downstream, q):
            counts["routing.relaxations"] += 1
            weight = edge_weight_ps(view, link, downstream, q)
            if weight is None:
                counts["routing.relax_excluded"] += 1
            return weight
        self._patch(routing_mod, "edge_weight_ps", relax)

        total_path_delay = routing_mod.total_path_delay

        def breakdown(view, path, size_bits, t, message_id=""):
            counts["delay.breakdowns"] += 1
            counts["delay.hops"] += len(path) - 1
            return total_path_delay(view, path, size_bits, t, message_id)
        self._patch(routing_mod, "total_path_delay",
                    self._timed("delay.total_path_delay", breakdown))

        router_active = NetworkView.router_active

        def active(view, node_id, t_ps):
            counts["netview.router_active_calls"] += 1
            keys = probe._state_keys
            if keys is not None:
                counts["netview.in_query_state_calls"] += 1
                if (node_id, t_ps) in keys:
                    counts["netview.repeat_states"] += 1
                else:
                    keys.add((node_id, t_ps))
            return router_active(view, node_id, t_ps)
        self._patch(NetworkView, "router_active", active)

        router_delay_at = NetworkView.router_delay_at

        def router_delay(view, node_id, t_ps):
            counts["netview.router_delay_calls"] += 1
            return router_delay_at(view, node_id, t_ps)
        self._patch(NetworkView, "router_delay_at", router_delay)

        u64 = randstream_mod.u64

        def draw(seed, *key):
            counts["randstream.draws"] += 1
            tag = f"randstream.draws.{key[0]}"
            counts[tag] = counts.get(tag, 0) + 1
            return u64(seed, *key)
        self._patch(randstream_mod, "u64", self._timed("randstream.u64", draw))

        reading_ps = SoftwareClock.reading_ps

        def reading(clock, t_ps):
            counts["clocks.readings"] += 1
            return reading_ps(clock, t_ps)
        self._patch(SoftwareClock, "reading_ps", self._timed("clocks.reading_ps", reading))

        for name in ("effective_flag", "effective_router_delay"):
            self._patch(attacks_mod, name,
                        _counted_attack_call(counts, getattr(attacks_mod, name)))

        drop_roll = attacks_mod.drop_roll

        def drop(*args):
            counts["attacks.calls"] += 1
            attack = drop_roll(*args)
            if attack is not None:
                counts["attacks.drops"] += 1
            return attack
        self._patch(attacks_mod, "drop_roll", self._timed("attacks.drop_roll", drop))

        forge_reply_timestamp = attacks_mod.forge_reply_timestamp

        def forge(*args):
            counts["attacks.calls"] += 1
            timestamp_ps, applied = forge_reply_timestamp(*args)
            if applied:
                counts["attacks.forged"] += 1
            return timestamp_ps, applied
        self._patch(attacks_mod, "forge_reply_timestamp",
                    self._timed("attacks.forge_reply_timestamp", forge))

        schedule_ps = Engine.schedule_ps

        def schedule(engine, *args, **kwargs):
            counts["engine.scheduled"] += 1
            return schedule_ps(engine, *args, **kwargs)
        self._patch(Engine, "schedule_ps", schedule)

        cancel = Engine.cancel

        def cancelled(event):
            counts["engine.cancelled"] += 1
            cancel(event)
        self._patch(Engine, "cancel", staticmethod(cancelled))

        baseline_rtt_ps = Engine.baseline_rtt_ps

        def baseline(engine, *args, **kwargs):
            probe._in_baseline = True
            try:
                return baseline_rtt_ps(engine, *args, **kwargs)
            finally:
                probe._in_baseline = False
        self._patch(Engine, "baseline_rtt_ps", baseline)

        for cls in (sync_mod.CristianExchange, sync_mod.BerkeleyRound):
            self._patch(cls, "start", _recording_start(self.machines, cls.start))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict[str, list[float]]]:
        """(self seconds by span name, inclusive seconds by span name,
        inclusive durations of every span by name)."""
        child_s = [0.0] * len(self.spans)
        durations: dict[str, list[float]] = {}
        for name, start, end, parent in self.spans:
            duration = end - start
            durations.setdefault(name, []).append(duration)
            if parent >= 0:
                child_s[parent] += duration
        self_s: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_s):
            self_s[name] = self_s.get(name, 0.0) + (end - start - children)
        inclusive = {name: sum(values) for name, values in durations.items()}
        return self_s, inclusive, durations

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")

    def layer_metrics(self, engine, metrics: dict) -> dict:
        """Per-layer metrics of the finished run (`metrics` is its report)."""
        c = self.counts
        self_s, inclusive, durations = self.self_times()
        run_s = inclusive["engine.run"]
        layer_self = {layer: 0.0 for layer in RUN_LAYERS}
        for name, seconds in self_s.items():
            if SPAN_LAYERS[name] in layer_self:
                layer_self[SPAN_LAYERS[name]] += seconds
        loop_self_s = self_s["engine.run"]
        unaccounted = run_s - loop_self_s - sum(layer_self.values())
        if abs(unaccounted) > 1e-6 * max(run_s, 1.0):
            raise RuntimeError(f"layer self times miss {unaccounted} s of the run span")
        query_us = sorted(d * 1e6 for d in durations.get("routing.shortest_path", ()))
        reports = engine.sync_reports
        failed_reports = sum(1 for r in reports if r.failed)
        final_reports = sum(1 for m in self.machines if m.report is not None)
        out = {
            "routing.queries": c["routing.queries"],
            "routing.query_s": inclusive.get("routing.shortest_path", 0.0),
            "routing.self_s": layer_self["routing"],
            "routing.query_us_p50": _quantile(query_us, 0.50),
            "routing.query_us_p99": _quantile(query_us, 0.99),
            "routing.relaxations": c["routing.relaxations"],
            "routing.relax_excluded": c["routing.relax_excluded"],
            "routing.no_route": c["routing.no_route"],
            "routing.baseline_queries": c["routing.baseline_queries"],
            "routing.repeat_query_ratio": _ratio(c["routing.repeat_queries"],
                                                 c["routing.queries"]),
            "delay.breakdowns": c["delay.breakdowns"],
            "delay.breakdown_s": inclusive.get("delay.total_path_delay", 0.0),
            "delay.self_s": layer_self["delay"],
            "delay.hops": c["delay.hops"],
            "netview.router_active_calls": c["netview.router_active_calls"],
            "netview.router_delay_calls": c["netview.router_delay_calls"],
            "netview.repeat_state_ratio": _ratio(c["netview.repeat_states"],
                                                 c["netview.in_query_state_calls"]),
            "randstream.draws": c["randstream.draws"],
            "randstream.draw_s": inclusive.get("randstream.u64", 0.0),
            "randstream.self_s": layer_self["randstream"],
            **{f"randstream.draws.{tag}": c.get(f"randstream.draws.{tag}", 0)
               for tag in DRAW_TAGS},
            "clocks.readings": c["clocks.readings"],
            "clocks.reading_s": inclusive.get("clocks.reading_ps", 0.0),
            "clocks.self_s": layer_self["clocks"],
            "attacks.calls": c["attacks.calls"],
            "attacks.s": (inclusive.get("attacks.drop_roll", 0.0)
                          + inclusive.get("attacks.forge_reply_timestamp", 0.0)),
            "attacks.self_s": layer_self["attacks"],
            "attacks.drops": c["attacks.drops"],
            "attacks.forged": c["attacks.forged"],
            "engine.run_s": run_s,
            "engine.events": len(engine.records),
            "engine.scheduled": c["engine.scheduled"],
            "engine.cancelled": c["engine.cancelled"],
            "engine.loop_self_s": loop_self_s,
            "engine.events_per_route": _ratio(len(engine.records), c["routing.queries"]),
            "sync.rounds": len(self.machines),
            "sync.failed": failed_reports,
            "sync.messages": sum(1 for m in engine.messages.values()
                                 if m.purpose.startswith("sync_") and m.status != "pending"),
            "sync.extra_reports": len(reports) - final_reports,
            "scenario.load_s": inclusive["scenario.load"],
            "scenario.build_s": inclusive["scenario.build"],
            "trace.serialize_s": inclusive["trace.serialize"],
            "metrics.report_s": inclusive["metrics.report"],
            "metrics.uncounted_failures":
                failed_reports - metrics["aggregate"]["sync_failures"],
        }
        return out


class _Span:
    def __init__(self, probe: LayerProbe, name: str):
        self.probe = probe
        self.name = name

    def __enter__(self):
        probe = self.probe
        self.record = [self.name, perf_counter(), 0.0, probe._open[-1]]
        probe._open.append(len(probe.spans))
        probe.spans.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.probe._open.pop()
        return False


def _counted_attack_call(counts: dict, fn):
    def counted(*args):
        counts["attacks.calls"] += 1
        return fn(*args)
    return counted


def _recording_start(machines: list, start):
    def recording(machine, at_ps):
        machines.append(machine)
        return start(machine, at_ps)
    return recording


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def _quantile(sorted_values: list[float], q: float) -> float:
    """Interpolated quantile (inclusive method); 0.0 for no values."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]
