"""Golden trace lock: the full SHA-256 of each bundled scenario's trace,
and of its DOT export at the instants where its router state changes; for
the benchmark workloads, of the trace and of the metrics report.

A trace's bytes depend only on (scenario, seed), so any change to these
values is a behaviour change.  An intended one updates the value here and
states the old and new hash and the reason in CHANGES.md.
"""

import hashlib
import json

import pytest

from syncsim import build_engine, load_scenario, metrics_report, trace_bytes
from syncsim.dotexport import export_graph
from syncsim.netview import NetworkView
from syncsim.timebase import seconds_to_ps

from conftest import ROOT, assert_every_seq_accounted_for, benchmark_workloads

SCENARIO_DIR = ROOT / "demos" / "scenarios"

# scenario file stem -> (config seed, {seed: trace SHA-256})
GOLDEN = {
    "campus_wifi_fiber": (42, {
        42: "420610c126dfb6086c9d969b6fb8875aee78749be625686f9e6fc80576782d42",
        43: "b8adfb3472d7208a92849e617e13a1086f15abd05fc3d1d2492086d8d8dceb96"}),
    "fiber_vs_satellite": (7, {
        7: "4d6c2c4de5acbc3ebf840183381132e184c19398098ea4b5259ed1fd96883b21",
        8: "357032d9c7b14f7c48e5db7320bb6628ffd1c7af5649a5c0799e3756b92c717f"}),
    "mesh_attacks": (99, {
        99: "136d4344cdc5eb385f6ac0443b6b438f97e1e03fbe0dfea7bf36f95fbac52773",
        100: "b18b31894e6477ce9afd9ec841ad4707f78af8996a4aa5553db9c5f9bb4112ef"}),
    "minimal_pair": (1, {
        1: "22bc13ce3c4013c43fc49fc9649071cc6538433c2b5723ad36a1d0bceda57e43",
        2: "22bc13ce3c4013c43fc49fc9649071cc6538433c2b5723ad36a1d0bceda57e43"}),
}

CASES = [(stem, seed, sha256) for stem, (_, hashes) in GOLDEN.items()
         for seed, sha256 in hashes.items()]


def test_every_bundled_scenario_is_locked():
    assert sorted(GOLDEN) == sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("stem,seed,sha256", CASES,
                         ids=[f"{stem}-{seed}" for stem, seed, _ in CASES])
def test_trace_sha256_is_pinned(stem, seed, sha256):
    scenario = load_scenario(SCENARIO_DIR / f"{stem}.json")
    assert scenario.config.seed == GOLDEN[stem][0]
    engine = build_engine(scenario, seed)
    engine.run_until(scenario.config.duration)
    assert hashlib.sha256(trace_bytes(engine.records)).hexdigest() == sha256


# (benchmark workload (perfbench/workloads.py), seed) -> trace SHA-256; each
# run also pins its metrics report (METRICS) and accounts for every sequence
# number its engine handed out
WORKLOADS = {
    ("mesh", 1): "7f14ebc528e5ef61ce9604a12c161cf3fb6ed3ab01df51c3a292e794106f32af",
    ("mesh_attacked", 1): "870a8c3830c22a0dc1c537339c740af3a4ac13b7861ad80cb61d7c502701cfeb",
    ("line", 1): "b102cf44767bd93d403491f44d7ec56df668a93e91928e00e06b2e98414310c0",
    ("mesh", 21): "29da3b3cb666c667fd338e7831c7c705e1a8f7e17e1c8bdc2ede88c9e74d0278",
    ("mesh_attacked", 21): "061d5363d7b6470988066f0a0d22fecd2789c4c118f512cbc33b29bdcc5a4967",
    ("line", 21): "a204d2af9fafc61057b1c4ef927cc7b39268fa6c074db53cb2c136375c5183e7",
}

# (benchmark workload, seed) -> SHA-256 of
# `json.dumps(metrics_report(records), sort_keys=True)` for the same runs
METRICS = {
    ("mesh", 1): "6bcd69dd74976a358b5f5a7cd973622631258d5f678e975909eeec989b283b87",
    ("mesh_attacked", 1): "5ac727e18851186fcd967ca0dda58b037bf916c1562b0f5c807c57f7e8222124",
    ("line", 1): "3119a7dbeb3311624f13855ae38250f5596c95c4d00d16a55df95ba0423e56aa",
    ("mesh", 21): "8c20ea49627f6bc9a94db0e47ba291b26307230054ae1c7fb9c523cf6c14e5d3",
    ("mesh_attacked", 21): "0bc206c58b0703ee4cfa9ecf16114a398dfb6fc24784b9e3a86ee95d6de15312",
    ("line", 21): "d4f55bf903cb3245a61c5877902c2efdc482b5dbee6abc962e4cebe898c99609",
}


@pytest.mark.parametrize("workload,seed", sorted(WORKLOADS),
                         ids=[f"{workload}-{seed}" for workload, seed in sorted(WORKLOADS)])
def test_benchmark_workload_trace_is_pinned(workload, seed, tmp_path, cancelled_seqs):
    path = tmp_path / f"{workload}.json"
    path.write_bytes(benchmark_workloads().scenario_bytes(workload, seed))
    scenario = load_scenario(path)
    engine = build_engine(scenario)
    engine.run_until(scenario.config.duration)
    assert hashlib.sha256(trace_bytes(engine.records)).hexdigest() == WORKLOADS[workload, seed]
    report = json.dumps(metrics_report(engine.records), sort_keys=True)
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == METRICS[workload, seed]
    assert_every_seq_accounted_for(engine, cancelled_seqs)


@pytest.mark.parametrize("source,seed,sha256,drops", [
    ("line", 1, WORKLOADS["line", 1], 0),
    ("mesh_attacks", 99, GOLDEN["mesh_attacks"][1][99], 1)], ids=["line-1", "mesh_attacks-99"])
def test_sliced_run_matches_the_one_call_trace(source, seed, sha256, drops, tmp_path,
                                               cancelled_seqs):
    """The line workload, and the mesh_attacks demo, whose trace holds a
    drop, run as perfbench/worker.py runs a workload, in 120
    `run_until_ps` slices of the horizon: messages are in flight at slice
    edges, `_arrivals` then holds one entry per message in flight, every
    sequence number is accounted for after each slice, and the trace is the
    one-call run's to the byte."""
    path = SCENARIO_DIR / f"{source}.json"
    if not path.exists():
        path = tmp_path / f"{source}.json"
        path.write_bytes(benchmark_workloads().scenario_bytes(source, seed))
    scenario = load_scenario(path)
    engine = build_engine(scenario, seed)
    horizon_ps = seconds_to_ps(scenario.config.duration)
    edges_in_flight = 0
    for k in range(1, 121):
        engine.run_until_ps(horizon_ps * k // 120)
        in_flight = sorted(m.message_id for m in engine.messages.values()
                           if m.status == "in_flight")
        assert sorted(entry[2].message_id for entry in engine._arrivals) == in_flight
        edges_in_flight += bool(in_flight)
        assert_every_seq_accounted_for(engine, cancelled_seqs)
    assert edges_in_flight > 0
    assert sum(record.get("status") == "dropped" for record in engine.records) == drops
    assert hashlib.sha256(trace_bytes(engine.records)).hexdigest() == sha256


# (scenario file stem, snapshot seconds) -> SHA-256 of `syncsim export-dot`;
# mesh_attacks at t = 0 and at each attack window edge
DOT_EXPORTS = {
    ("minimal_pair", 0.0): "2717ffad662b6483b03c3a8d714d4011e2c8085009c3bb8932a5551887b2ad22",
    ("campus_wifi_fiber", 0.0):
        "4215c9b7c5b25a3a5a1aa3fce615165bd1e3a2ac1af6e3c30efe24f77ff787c8",
    ("fiber_vs_satellite", 0.0):
        "41f51445051208955a50d6f3cb7e06b00dc8f7178a7a0adb233ae0e88df34a0c",
    ("mesh_attacks", 0.0): "68f5e9693200d3cc77be95ac1be9d64b14210fb142a1c4faf34ed497ab45956d",
    ("mesh_attacks", 4.0): "6e398f8a9444b2f3fca6c92fd0adc12c861677e4032c31c17609ac984bdcba35",
    ("mesh_attacks", 6.0): "aef3b0b4eafd0480e31717f1179a46f950e081a432d9f8fb736567a164a28bb9",
    ("mesh_attacks", 8.0): "e7da39354a413a5e83a5409ccb78eba676843ec7fd2dbe64854234a9d9af0e41",
    ("mesh_attacks", 10.0): "beb27c0fba15f5713d0d3f8176863ef573f93ddf0212cbac3e0abed9c6e4755a",
    ("mesh_attacks", 14.0): "828c56846f0076acc24d992db8ed3e0115393413f426843a8919adcd5274d1ba",
    ("mesh_attacks", 16.0): "bcc953f974c8db2ab79329f705411a98e9cf662da0a9d60821e1d98d740c6299",
}


@pytest.mark.parametrize("stem,t", sorted(DOT_EXPORTS), ids=lambda value: str(value))
def test_dot_export_sha256_is_pinned(stem, t):
    # the view `syncsim export-dot` builds, and the text it writes
    scenario = load_scenario(SCENARIO_DIR / f"{stem}.json")
    view = NetworkView(scenario.graph, scenario.config.seed, scenario.attacks,
                       scenario.medium_speeds)
    text = export_graph(view, t)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DOT_EXPORTS[stem, t]
