"""Acceptance suite: one test per release criterion.

Each criterion records a PASS/FAIL line with its runtime, which the terminal
summary prints (tests/conftest.py), so the gate can be read off a plain
pytest run.  Tolerances are fixed here, not configurable:
exact integer-picosecond equality where stated, 1 ns for synchronization
corrections, 1e-12 s for drift-offset arithmetic.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from syncsim.attacks import AttackSpec
from syncsim.clocks import CLOCK_PRESETS, ClockParameters, SoftwareClock, clock_offset
from syncsim.delay import total_path_delay
from syncsim.engine import Engine
from syncsim.netview import NetworkView
from syncsim.routing import NoRoute, RouteQuery, shortest_path
from syncsim.scenario import load_scenario, run_scenario, validate_scenario
from syncsim.sync import SyncOptions, berkeley_round, cristian_sync
from syncsim.timebase import seconds_to_ps
from syncsim.topology import LinkSpec, NetworkGraph, NodeSpec
from syncsim.trace import trace_sha256

from conftest import ACCEPTANCE_LINES, PERFECT, line_graph
from oracles import enumerate_best_route, random_network

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} {name}: FAIL "
                                f"({time.monotonic() - started:.2f}s)")
        raise
    elapsed = time.monotonic() - started
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s budget"


def test_criterion_1_extremum_reproduction():
    with criterion(1, "extremum-reproduction", 1.0):
        out = subprocess.run(
            [sys.executable, "-m", "syncsim.cli", "analyze-clock",
             "--beta=10e-6", "--gamma=-1e-10"],
            capture_output=True, text=True, check=True)
        payload = json.loads(out.stdout)
        assert payload["t_star_s"] == 5e4
        assert payload["classification"] == "local_maximum"
        clock = SoftwareClock("a", ClockParameters(beta=10e-6, gamma=-1e-10))
        peak = clock_offset(clock, 5e4)
        assert abs(peak - 0.25) < 1e-12
        assert clock_offset(clock, 5e4 - 100) < peak
        assert clock_offset(clock, 5e4 + 100) < peak


def test_criterion_2_quadratic_model_flaw():
    with criterion(2, "quadratic-model-flaw", 1.0):
        clock = SoftwareClock("a", ClockParameters(beta=10e-6, gamma=-1e-10))
        # the modeled offset returns to zero on its own at t = -beta/gamma
        assert abs(clock_offset(clock, 1e5)) < 1e-12


def test_criterion_3_delay_additivity():
    with criterion(3, "delay-additivity", 10.0):
        rng = random.Random(303)
        for _ in range(1000):
            delays = [rng.choice([10e-6, 50e-6, 500e-6])
                      for _ in range(rng.randint(0, 5))]
            view = NetworkView(line_graph(
                delays,
                bandwidth_bps=rng.choice([1e6, 1e7, 1e9]),
                distance_m=rng.choice([0.0, 10.0, 1e3, 1e5])), seed=1)
            path = list(view.graph.nodes)
            breakdown = total_path_delay(view, path, rng.randrange(10**6), 0)
            assert breakdown.total_ps == (breakdown.router_ps
                                          + breakdown.transmission_ps
                                          + breakdown.propagation_ps)
        hand = total_path_delay(NetworkView(line_graph([50e-6])),
                                ["c1", "r1", "s1"], 12000, 0)
        assert hand.total_ps == 1_074_000_000  # 1.074 ms


def test_criterion_4_routing_oracle():
    with criterion(4, "routing-oracle", 60.0):
        rng = random.Random(404)
        routable = 0
        for trial in range(200):
            view = NetworkView(random_network(rng), seed=trial)
            query = RouteQuery("n00", "n01",
                               seconds_to_ps(rng.choice([0.0, 0.5, 1.5, 4.0])),
                               rng.choice([0, 12000, 10**6]))
            oracle = enumerate_best_route(view, query)
            if oracle is None:
                with pytest.raises(NoRoute):
                    shortest_path(view, query)
                continue
            route = shortest_path(view, query)
            assert route.breakdown.total_ps == oracle[2].total_ps
            assert route.hops == oracle[1]
            routable += 1
        assert routable >= 50


def test_criterion_5_cristian_residual_law():
    with criterion(5, "cristian-residual-law", 30.0):
        rng = random.Random(505)
        for trial in range(100):
            # one direct link at 1 Mbps: every bit is exactly 1 us of
            # transmission, so one-way delays are exact integer picoseconds
            request_bits = rng.randrange(1000, 50000)
            reply_bits = (request_bits if trial % 10 == 0
                          else rng.randrange(1000, 50000))
            distance = 20.0 * rng.randrange(0, 5000)  # exact 100 ns steps
            graph = NetworkGraph(
                [NodeSpec("c1", "client",
                          clock=ClockParameters(alpha0=rng.uniform(-1, 1),
                                                model_kind="linear")),
                 NodeSpec("s1", "time_server", clock=PERFECT)],
                [LinkSpec("c1", "s1", 1e6, distance)])
            engine = Engine(graph, seed=trial)
            report = cristian_sync(
                engine, "c1", "s1", at=0.0,
                options=SyncOptions(request_size_bits=request_bits,
                                    reply_size_bits=reply_bits))
            exchange = report.exchanges[0]
            prop_ps = round(distance / 2.0e8 * 1e12)
            assert exchange.forward_delay_ps == request_bits * 10**6 + prop_ps
            assert exchange.backward_delay_ps == reply_bits * 10**6 + prop_ps
            gap = exchange.backward_delay_ps - exchange.forward_delay_ps
            assert gap % 2 == 0
            # residual (reference minus client) is exactly half the asymmetry
            assert -exchange.offset_error_ps == gap // 2
            if request_bits == reply_bits:
                assert exchange.offset_error_ps == 0


def test_criterion_6_berkeley_convergence():
    with criterion(6, "berkeley-convergence", 10.0):
        nodes = [NodeSpec("co", "time_server", clock=PERFECT),
                 NodeSpec("m1", "client",
                          clock=ClockParameters(alpha0=0.010, model_kind="linear")),
                 NodeSpec("m2", "client",
                          clock=ClockParameters(alpha0=-0.004, model_kind="linear"))]
        links = [LinkSpec("co", "m1", 1e6, 0.0), LinkSpec("co", "m2", 1e6, 0.0)]
        engine = Engine(NetworkGraph(nodes, links), seed=6)
        first = berkeley_round(engine, "co", ["m1", "m2"], at=0.0)
        expected = {"m1": -8_000_000_000, "m2": 6_000_000_000,
                    "co": 2_000_000_000}
        for node, want_ps in expected.items():
            assert abs(first.corrections_ps[node] - want_ps) <= 1000  # 1 ns
        second = berkeley_round(engine, "co", ["m1", "m2"], at=5.0)
        assert all(abs(c) <= 1000 for c in second.corrections_ps.values())


def _spoof_run(attacks):
    engine = Engine(line_graph([50e-6]), seed=7, attacks=attacks)
    report = cristian_sync(engine, "c1", "s1", at=1.0)
    engine.run_until(5.0)
    return engine.records, report


def test_criterion_7_attack_superposition():
    with criterion(7, "attack-superposition", 10.0):
        active = AttackSpec("ip_spoof", "c1", 0.0, 5.0, forged_offset=1.0)
        records, report = _spoof_run([active])
        assert abs(report.exchanges[0].offset_error_ps - seconds_to_ps(1.0)) <= 1000
        # same attack, window beyond the run: byte-identical to no attack at all
        inert = AttackSpec("ip_spoof", "c1", 100.0, 200.0, forged_offset=1.0)
        inert_records, _ = _spoof_run([inert])
        baseline_records, _ = _spoof_run([])
        assert trace_sha256(inert_records) == trace_sha256(baseline_records)


def test_criterion_8_gnss_presets():
    with criterion(8, "gnss-presets", 30.0):
        # a GNSS preset is a drift-free clock whose readings carry jitter
        gnss = {name: params for name, params in CLOCK_PRESETS.items()
                if params.jitter_bound_ns > 0}
        assert sorted(gnss) == ["beidou", "galileo", "glonass", "gps"]
        for name, params in gnss.items():
            clock = SoftwareClock(name, params, seed=8)
            bound = params.jitter_bound_ns * 1e-9
            for t_ps in range(1_000_000):
                jitter = clock.noise_at_ps(t_ps)
                assert 0.0 <= jitter < bound


def test_criterion_9_determinism():
    with criterion(9, "determinism", 30.0):
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert paths, "bundled scenarios must exist"
        stochastic_differs = 0
        for path in paths:
            scenario = load_scenario(path)
            _, first, _ = run_scenario(scenario)
            _, again, _ = run_scenario(scenario)
            assert trace_sha256(first) == trace_sha256(again)
            # a different seed still validates and runs; noise/failure
            # outcomes move wherever the scenario has randomness
            assert validate_scenario(scenario) == []
            _, reseeded, _ = run_scenario(scenario, seed=scenario.config.seed + 1)
            if trace_sha256(reseeded) != trace_sha256(first):
                stochastic_differs += 1
        assert stochastic_differs >= 2
