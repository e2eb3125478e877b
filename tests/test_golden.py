"""Golden trace lock: the full SHA-256 of each bundled scenario's trace.

A trace's bytes depend only on (scenario, seed), so any change to these
values is a behaviour change.  An intended one updates the value here and
states the old and new hash and the reason in CHANGES.md.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from syncsim import build_engine, load_scenario, trace_bytes

ROOT = Path(__file__).resolve().parent.parent
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


# benchmark workload (perfbench/workloads.py) -> trace SHA-256 at seed 1
WORKLOADS = {
    "mesh": "8ff6aadc5cf18b9fe0c8154fbf491fcfca9906245ee44a3fb213ec80a750edd9",
    "mesh_attacked": "65cfe07524d74f100860355adc71612754778fc5790c8817eb33f0b7c486bd6b",
    "line": "b102cf44767bd93d403491f44d7ec56df668a93e91928e00e06b2e98414310c0",
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_workload_trace_is_pinned(workload, tmp_path):
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = tmp_path / f"{workload}.json"
    path.write_bytes(workloads.scenario_bytes(workload, 1))
    scenario = load_scenario(path)
    engine = build_engine(scenario)
    engine.run_until(scenario.config.duration)
    assert hashlib.sha256(trace_bytes(engine.records)).hexdigest() == WORKLOADS[workload]
