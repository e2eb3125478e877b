"""One benchmark sample in a fresh process, printed as one JSON line.

    python3 perfbench/worker.py plain  SCENARIO RUN_ID
    python3 perfbench/worker.py traced SCENARIO RUN_ID SPANS_OUT
    python3 perfbench/worker.py golden DEMO_SCENARIO...

`plain` times the path `syncsim run` takes: load_scenario + build_engine
(setup, repeated SETUP_REPEATS times), Engine.run_until (run, in
RUN_SLICES consecutive slices of the horizon, which emit the same trace as
one call), and trace_bytes + SHA-256 (in REPORT_SLICES slices of the
records) + metrics_report (report).  Peak RSS is read after the whole
trace is serialized once more, untimed, so each sample needs its own
process: ru_maxrss never falls.

`traced` does one setup and run under `layers.LayerProbe` and reports the
per-layer metrics.  `golden` hashes each demo scenario's trace at its own
seed and at seed + 1.

Host speed on a shared machine drifts by tens of percent over seconds to
minutes, so every timed chunk of program work is followed by a fixed
reference kernel (`reference_kernel`, code of this benchmark only) and the
chunk is also reported in nominal seconds: host seconds scaled by
REF_NOMINAL_S over the reference kernel's time measured next to it.

Every sample checks the run's outputs (`check_outputs`) after timing, and
reports the simulated counts so the caller can compare samples.  The
program must be importable (`src` on PYTHONPATH).
"""

import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from syncsim import build_engine, load_scenario, metrics_report, trace_bytes
from syncsim.timebase import seconds_to_ps

from layers import LayerProbe

SETUP_REPEATS = 5
RUN_SLICES = 120
REPORT_SLICES = 40
REF_NOMINAL_S = 0.002    # the reference kernel's time on the nominal host
REF_WINDOW = 3           # reference timings on each side used for one chunk

_REF_GRAPH = {i: [((i + d) % 300, (i * 7 + d * 13) % 97 + 1) for d in (1, 2, 5, 11, 29)]
              for i in range(300)}


def reference_kernel() -> int:
    """Fixed interpreter work like the simulator's: a heap-based Dijkstra
    over tuples and dicts, BLAKE2b digests of short keys, and a JSON dump."""
    best: dict[int, int] = {}
    frontier = [(0, 0, (0,))]
    while frontier:
        dist, node, path = heapq.heappop(frontier)
        if node in best:
            continue
        best[node] = dist
        for neighbor, weight in _REF_GRAPH[node]:
            if neighbor not in best:
                heapq.heappush(frontier, (dist + weight, neighbor, path + (neighbor,)))
    folded = 0
    for i in range(200):
        folded ^= int.from_bytes(hashlib.blake2b(b"k%d" % i, digest_size=8).digest(), "big")
    return folded + len(json.dumps({str(k): v for k, v in best.items()}, sort_keys=True))


class ChunkClock:
    """Host time of labelled chunks of work, each followed by the reference kernel."""

    def __init__(self):
        self.labels: list[str] = []
        self.host_s: list[float] = []
        self.ref_s: list[float] = []

    def time(self, label: str, fn, *args):
        start = perf_counter()
        result = fn(*args)
        self.host_s.append(perf_counter() - start)
        self.labels.append(label)
        start = perf_counter()
        reference_kernel()
        self.ref_s.append(perf_counter() - start)
        return result

    def nominal(self, label: str) -> list[float]:
        """Nominal seconds of every chunk with this label, in order."""
        out = []
        for i, (name, host) in enumerate(zip(self.labels, self.host_s)):
            if name == label:
                nearby = self.ref_s[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
                out.append(host * REF_NOMINAL_S / statistics.median(nearby))
        return out

    def host(self, label: str) -> list[float]:
        return [host for name, host in zip(self.labels, self.host_s) if name == label]


def check_outputs(engine, records: list[dict], metrics: dict, horizon_ps: int) -> list[str]:
    """Invariants every run must keep; an empty list means the run is correct."""
    problems = []
    previous = (-1, -1)
    sends: dict[str, dict] = {}
    delivered = dropped = blocked = 0
    for record in records:
        key = (record["sim_time_ps"], record["sequence"])
        if key <= previous:
            problems.append(f"record {key} is not after {previous}")
        previous = key
        kind = record["kind"]
        if kind == "message_send":
            sends[record["message_id"]] = record
            blocked += record["status"] == "blocked"
        elif kind == "delivery":
            delivered += 1
            send = sends.get(record["message_id"])
            if send is None or record["sim_time_ps"] != send["sim_time_ps"] + send["total_ps"]:
                problems.append(f"delivery of {record['message_id']} at "
                                f"{record['sim_time_ps']} ps is not its send time + total_ps")
        elif kind == "hop_arrival" and record.get("status") == "dropped":
            dropped += 1
    if records and records[-1]["sim_time_ps"] > horizon_ps:
        problems.append("a record lies beyond the horizon")
    statuses = Counter(m.status for m in engine.messages.values())
    in_flight = statuses["in_flight"]
    sent = len(sends)
    if sent != delivered + dropped + blocked + in_flight:
        problems.append(f"messages not conserved: sent {sent} != delivered {delivered} "
                        f"+ dropped {dropped} + blocked {blocked} + in flight {in_flight}")
    engine_view = {"sent": len(engine.messages) - statuses["pending"],
                   "delivered": statuses["delivered"], "dropped": statuses["dropped"],
                   "blocked": statuses["blocked"]}
    trace_view = {"sent": sent, "delivered": delivered, "dropped": dropped,
                  "blocked": blocked}
    if engine_view != trace_view:
        problems.append(f"engine message states {engine_view} != trace {trace_view}")
    if metrics["messages"] != trace_view:
        problems.append(f"metrics_report messages {metrics['messages']} != trace {trace_view}")
    for message in engine.messages.values():
        if (message.status == "in_flight"
                and message.send_ps + message.route.breakdown.total_ps <= horizon_ps):
            problems.append(f"{message.message_id} is in flight but was due by the horizon")
    return problems


def simulated_counts(engine, records: list[dict], sha256: str) -> dict:
    """Deterministic results of a run; every sample of one input must agree."""
    kinds = Counter(record["kind"] for record in records)
    return {"trace_sha256": sha256, "events": len(records),
            "events_by_kind": dict(sorted(kinds.items())),
            "message_states": dict(sorted(Counter(m.status for m in
                                                  engine.messages.values()).items())),
            "sync_reports": len(engine.sync_reports),
            "sync_failed": sum(1 for report in engine.sync_reports if report.failed)}


def _no_span(name: str):
    return nullcontext()


def _timed(clock: ChunkClock, label: str, span, name: str, fn, *args):
    def call():
        with span(name):
            return fn(*args)
    return clock.time(label, call)


def _digest_update(digest, records: list[dict]) -> None:
    digest.update(trace_bytes(records))


def _run_once(clock: ChunkClock, path: str, span, setups: int):
    """Setup `setups` times, run the last engine to the horizon in RUN_SLICES
    slices, then report: trace_bytes + SHA-256 over REPORT_SLICES slices of
    the records (their bytes concatenate to the whole trace's) and
    metrics_report.  Returns (scenario, engine, sliced sha256, metrics)."""
    for _ in range(setups):
        engine = None  # drop the previous engine before building the next
        scenario = _timed(clock, "setup", span, "scenario.load", load_scenario, path)
        engine = _timed(clock, "setup", span, "scenario.build", build_engine, scenario)
    horizon_ps = seconds_to_ps(scenario.config.duration)
    gc.collect()
    for k in range(1, RUN_SLICES + 1):
        _timed(clock, "run", span, "engine.run", engine.run_until_ps,
               horizon_ps * k // RUN_SLICES)
    records = engine.records
    digest = hashlib.sha256()
    step = max(1, -(-len(records) // REPORT_SLICES))
    for start in range(0, len(records), step):
        _timed(clock, "report", span, "trace.serialize", _digest_update, digest,
               records[start:start + step])
    metrics = _timed(clock, "report", span, "metrics.report", metrics_report, records)
    return scenario, engine, digest.hexdigest(), metrics


def _checked(scenario, engine, sliced_sha256: str, sha256: str, metrics: dict) -> list[str]:
    problems = check_outputs(engine, engine.records, metrics,
                             seconds_to_ps(scenario.config.duration))
    if sliced_sha256 != sha256:
        problems.append("the sliced trace bytes differ from trace_bytes of the whole run")
    return problems


def plain(path: str, run_id: str) -> dict:
    clock = ChunkClock()
    scenario, engine, sliced_sha256, metrics = _run_once(clock, path, _no_span,
                                                         SETUP_REPEATS)
    # the whole trace once, untimed, so peak RSS holds it as `syncsim run` does
    sha256 = hashlib.sha256(trace_bytes(engine.records)).hexdigest()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = clock.nominal("setup")
    setup_s = [load + build for load, build in zip(setup[::2], setup[1::2])]
    run_s = sum(clock.nominal("run"))
    report_s = sum(clock.nominal("report"))
    return {"run_id": run_id, "setup_s": setup_s, "run_s": run_s, "report_s": report_s,
            "wall_s": statistics.median(setup_s) + run_s + report_s,
            "events_per_s": len(engine.records) / run_s, "peak_rss_mb": peak_rss_mb,
            "host_run_s": sum(clock.host("run")), "host_report_s": sum(clock.host("report")),
            "host_ref_s": statistics.median(clock.ref_s),
            "problems": _checked(scenario, engine, sliced_sha256, sha256, metrics),
            "sim": simulated_counts(engine, engine.records, sha256)}


def traced(path: str, run_id: str, spans_out: str) -> dict:
    probe = LayerProbe(run_id)
    clock = ChunkClock()
    probe.install()
    try:
        scenario, engine, sliced_sha256, metrics = _run_once(clock, path, probe.span, 1)
    finally:
        probe.remove()
    layer = probe.layer_metrics(engine, metrics)
    data = trace_bytes(engine.records)
    layer["trace.bytes"] = len(data)
    probe.write_spans(spans_out)
    sha256 = hashlib.sha256(data).hexdigest()
    wall_s = sum(clock.nominal("setup")) + sum(clock.nominal("run")) + sum(clock.nominal("report"))
    return {"run_id": run_id, "wall_s": wall_s, "layer": layer,
            "problems": _checked(scenario, engine, sliced_sha256, sha256, metrics),
            "sim": simulated_counts(engine, engine.records, sha256)}


def golden(paths: list[str]) -> dict:
    hashes = {}
    for path in paths:
        scenario = load_scenario(path)
        pair = []
        for seed in (scenario.config.seed, scenario.config.seed + 1):
            engine = build_engine(scenario, seed)
            engine.run_until(scenario.config.duration)
            pair.append(hashlib.sha256(trace_bytes(engine.records)).hexdigest())
        hashes[Path(path).stem] = pair
    return hashes


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    result = {"plain": plain, "traced": traced}.get(mode)
    if result is not None:
        print(json.dumps(result(*rest)))
    elif mode == "golden":
        print(json.dumps(golden(rest)))
    else:
        sys.exit(f"unknown mode {mode!r}")
