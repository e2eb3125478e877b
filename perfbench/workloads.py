"""Seeded scenario generators for the benchmark workloads.

Each generator returns a scenario document (the JSON form `load_scenario`
reads) built only from `random.Random(seed)` and lists in a fixed order,
never by iterating a set, so the same seed gives the same bytes in every
process, whatever PYTHONHASHSEED is.  The seed is also the scenario's
config.seed.  Graph shapes are fixed and the seed moves weights, clocks,
message times, sizes and pairs, so the cost of a run changes little with it.

Run as a script to print one workload's scenario bytes:

    python3 perfbench/workloads.py mesh 7
"""

import json
import random
import sys

HORIZON_S = 12.0

MESH_ROWS, MESH_COLS = 6, 10  # 60 routers, 180 router links
MESH_BERNOULLI_COLUMNS = (1, 4, 7)  # 18 routers that fail at random
MESH_CLIENTS = 40
MESH_CRISTIAN_PER_CLIENT = 20
MESH_DATA_MESSAGES = 1000

LINE_ROUTERS = 40
LINE_CLIENTS_PER_END = 4
LINE_DATA_MESSAGES = 3000
LINE_CRISTIAN_ROUNDS = 100


def _t(rng: random.Random, lo: float, hi: float) -> float:
    """A time in seconds on a whole-microsecond grid."""
    return round(rng.uniform(lo, hi), 6)


def _client_clock(rng: random.Random) -> dict:
    return {"model": "quadratic",
            "alpha0_s": round(rng.uniform(-0.05, 0.05), 9),
            "beta": round(rng.uniform(-20e-6, 20e-6), 12),
            "gamma": round(rng.uniform(-2e-10, 2e-10), 15),
            "noise_sigma_s": 5e-09}


def _doc(name: str, seed: int, clocks: dict, nodes: list, links: list,
         schedule: list, workload: list, attacks: list) -> dict:
    schedule.sort(key=lambda e: (e["time_s"], e["participants"]))
    workload.sort(key=lambda e: (e["time_s"], e["source"], e["destination"]))
    return {"config": {"seed": seed, "duration_s": HORIZON_S, "name": name},
            "clocks": clocks, "nodes": nodes, "links": links,
            "sync_schedule": schedule, "attacks": attacks,
            "message_workload": workload}


def _mesh_parts(seed: int):
    rng = random.Random(seed)
    routers = [f"r{i:02d}" for i in range(MESH_ROWS * MESH_COLS)]
    clients = [f"c{i:02d}" for i in range(MESH_CLIENTS)]
    nodes, links = [], []
    clocks = {"reference": {"preset": "gps"}}
    for index, router in enumerate(routers):
        spec = {"id": router, "kind": "router", "router_kind": "regular",
                "router_delay_s": round(rng.uniform(20e-6, 200e-6), 9)}
        if index % MESH_COLS in MESH_BERNOULLI_COLUMNS:
            spec["failure_model"] = {"mode": "bernoulli", "failure_probability": 0.05}
        nodes.append(spec)

    def add_link(a: str, b: str, bandwidth: float, distance: float, medium: str):
        links.append({"a": a, "b": b, "bandwidth_bps": bandwidth,
                      "distance_m": distance, "medium": medium})

    # a torus with one diagonal per router: every router has degree 6 and
    # none is central, so the seed moves the cost of a run little
    for row in range(MESH_ROWS):
        for col in range(MESH_COLS):
            here = routers[row * MESH_COLS + col]
            for d_row, d_col in ((0, 1), (1, 0), (1, 1)):
                there = routers[(row + d_row) % MESH_ROWS * MESH_COLS
                                + (col + d_col) % MESH_COLS]
                add_link(here, there, rng.choice((1e9, 1e10)),
                         round(rng.uniform(20e3, 80e3), 1), rng.choice(("fiber", "copper")))

    # clients and the server sit at fixed, evenly spread routers: with random
    # attachment points the hop counts, and so the events, moved with the seed
    for i, client in enumerate(clients):
        clocks[client] = _client_clock(rng)
        nodes.append({"id": client, "kind": "client", "clock": client})
        first = (3 * i + i // 20) % len(routers)
        for router in (routers[first], routers[(first + 31) % len(routers)]):
            add_link(client, router, 1e8, round(rng.uniform(50.0, 500.0), 1), "wireless")
    nodes.append({"id": "gps", "kind": "time_server", "clock": "reference"})
    for router in (routers[0], routers[35]):
        add_link("gps", router, 1e10, round(rng.uniform(1e3, 50e3), 1), "fiber")

    schedule = []
    period = (HORIZON_S - 1.0) / MESH_CRISTIAN_PER_CLIENT
    for client in clients:
        phase = rng.uniform(0.0, period)
        for k in range(MESH_CRISTIAN_PER_CLIENT):
            schedule.append({"time_s": round(0.2 + phase + k * period, 6),
                             "algorithm": "cristian", "participants": [client, "gps"]})
    schedule.append({"time_s": 6.0, "algorithm": "berkeley",
                     "participants": [clients[0]] + clients[1:] + ["gps"]})
    endpoints = clients + ["gps"]
    workload = []
    for _ in range(MESH_DATA_MESSAGES):
        source, destination = rng.sample(endpoints, 2)
        workload.append({"time_s": _t(rng, 0.0, HORIZON_S - 0.5), "source": source,
                         "destination": destination,
                         "size_bits": rng.choice((1_000, 12_000, 64_000, 512_000))})
    return rng, routers, clients, clocks, nodes, links, schedule, workload


def mesh(seed: int) -> dict:
    """60 routers (18 Bernoulli p=0.05) on a 6x10 torus with diagonals, 40
    dual-homed wireless clients with noisy drifting clocks, one GPS server;
    800 Cristian rounds, one 41-node Berkeley round, 1000 data messages."""
    _, _, _, clocks, nodes, links, schedule, workload = _mesh_parts(seed)
    return _doc("bench_mesh", seed, clocks, nodes, links, schedule, workload, [])


def mesh_attacked(seed: int) -> dict:
    """The `mesh` graph and schedule at the same seed, plus windowed attacks."""
    rng, routers, clients, clocks, nodes, links, schedule, workload = _mesh_parts(seed)
    degree = {router: 0 for router in routers}
    for link in links:
        for end in (link["a"], link["b"]):
            if end in degree:
                degree[end] += 1
    access = [link["b"] for link in links if link["a"] == "gps"]
    by_degree = sorted((r for r in routers if r not in access),
                       key=lambda r: (-degree[r], r))
    attacks = []
    for router in by_degree[:3]:
        attacks.append({"kind": "ddos", "target": router, "window_s": [1.0, 11.0],
                        "delay_multiplier": 10.0, "drop_probability": 0.2})
    # a short flood on both of the server's access routers: no route avoids
    # them, so replies arrive after their round timed out
    for router in access:
        attacks.append({"kind": "ddos", "target": router, "window_s": [4.0, 4.5],
                        "delay_multiplier": 30.0})
    rest = by_degree[3:]
    for router in rng.sample(rest, 2):
        start = _t(rng, 0.5, 4.0)
        attacks.append({"kind": "router_hijack", "target": router,
                        "window_s": [start, round(start + 6.0, 6)], "mode": "force_down"})
    for router in rng.sample(rest, 3):
        start = _t(rng, 0.5, 3.0)
        attacks.append({"kind": "router_hijack", "target": router,
                        "window_s": [start, round(start + 8.0, 6)],
                        "mode": "added_delay", "added_delay_s": 0.002})
    for client in rng.sample(clients, 5):
        start = _t(rng, 1.0, 5.0)
        attacks.append({"kind": "ip_spoof", "target": client,
                        "window_s": [start, round(start + 5.0, 6)],
                        "forged_offset_s": 0.25})
    return _doc("bench_mesh_attacked", seed, clocks, nodes, links, schedule, workload,
                attacks)


def line(seed: int) -> dict:
    """A chain of 40 always-active routers, 4 clients at each end and the
    server at one end: 3000 data messages and 100 Cristian rounds, all of
    them crossing the whole chain (41 hops)."""
    rng = random.Random(seed)
    routers = [f"r{i:02d}" for i in range(LINE_ROUTERS)]
    left = [f"a{i}" for i in range(LINE_CLIENTS_PER_END)]
    right = [f"z{i}" for i in range(LINE_CLIENTS_PER_END)]
    clocks = {"reference": {"preset": "gps"}}
    nodes = [{"id": r, "kind": "router", "router_kind": "regular",
              "router_delay_s": round(rng.uniform(20e-6, 100e-6), 9)} for r in routers]
    links = [{"a": a, "b": b, "bandwidth_bps": 1e9,
              "distance_m": round(rng.uniform(10e3, 50e3), 1), "medium": "fiber"}
             for a, b in zip(routers, routers[1:])]
    for client in left + right:
        clocks[client] = _client_clock(rng)
        nodes.append({"id": client, "kind": "client", "clock": client})
        links.append({"a": client, "b": routers[0] if client in left else routers[-1],
                      "bandwidth_bps": 1e8, "distance_m": round(rng.uniform(50.0, 500.0), 1),
                      "medium": "wireless"})
    nodes.append({"id": "gps", "kind": "time_server", "clock": "reference"})
    links.append({"a": "gps", "b": routers[-1], "bandwidth_bps": 1e10,
                  "distance_m": 1000.0, "medium": "fiber"})
    schedule = [{"time_s": _t(rng, 0.1, HORIZON_S - 1.0), "algorithm": "cristian",
                 "participants": [left[k % len(left)], "gps"]}
                for k in range(LINE_CRISTIAN_ROUNDS)]
    workload = []
    for _ in range(LINE_DATA_MESSAGES):
        a, z = rng.choice(left), rng.choice(right)
        source, destination = (a, z) if rng.random() < 0.5 else (z, a)
        workload.append({"time_s": _t(rng, 0.0, HORIZON_S - 0.5), "source": source,
                         "destination": destination,
                         "size_bits": rng.choice((1_000, 12_000, 64_000))})
    return _doc("bench_line", seed, clocks, nodes, links, schedule, workload, [])


GENERATORS = {"mesh": mesh, "mesh_attacked": mesh_attacked, "line": line}


def scenario_bytes(workload: str, seed: int) -> bytes:
    """Canonical bytes of one generated scenario file."""
    doc = GENERATORS[workload](seed)
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


if __name__ == "__main__":
    sys.stdout.buffer.write(scenario_bytes(sys.argv[1], int(sys.argv[2])))
