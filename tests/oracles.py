"""Independent oracles and scenario generators for route and clock checking.

The route oracle enumerates every simple path (interior hops restricted to
routers, inactive routers pruned by the delay computation itself) and takes
the minimum by (total delay, hop count, node sequence) — no shared logic
with the Dijkstra implementation beyond the per-hop delay primitives it is
checking against.

The correction oracle sums every correction a clock has taken, at any
instant, with none of the clock's folding.  The offset oracle evaluates a
clock's drift, noise and jitter in `Fraction`s, with its own draws from
`randstream.u64`, and rounds once.
"""

import math
import random
from bisect import bisect_right
from fractions import Fraction

from syncsim import randstream
from syncsim.clocks import ClockParameters
from syncsim.delay import PathBlocked, total_path_delay
from syncsim.netview import NetworkView
from syncsim.routing import RouteQuery
from syncsim.topology import FailureModel, LinkSpec, NetworkGraph, NodeSpec

PERFECT = ClockParameters(model_kind="linear")


def enumerate_best_route(view: NetworkView, query: RouteQuery):
    """Exhaustive simple-path minimum, or None when nothing is routable."""
    graph = view.graph
    # its own adjacency, so the oracle shares no structure with the simulator
    links_of = {node_id: [] for node_id in graph.nodes}
    for link in graph.links:
        links_of[link.a].append(link)
        links_of[link.b].append(link)
    best = None

    def walk(node, visited, path):
        nonlocal best
        if node == query.destination:
            try:
                breakdown = total_path_delay(view, path, query.size_bits, query.t_ps)
            except PathBlocked:
                return
            key = (breakdown.total_ps, len(path) - 1, tuple(path))
            if best is None or key < best[0]:
                best = (key, tuple(path), breakdown)
            return
        if node != query.source and not graph.nodes[node].is_router:
            return  # clients and servers do not relay
        for link in links_of[node]:
            neighbor = link.other(node)
            if neighbor not in visited:
                walk(neighbor, visited | {neighbor}, path + [neighbor])

    walk(query.source, {query.source}, [query.source])
    return best


def random_network(rng: random.Random, max_nodes: int = 10, max_links: int = 20):
    """Random connected graph with a client at n00 and a server at n01."""
    n = rng.randint(2, max_nodes)
    node_ids = [f"n{i:02d}" for i in range(n)]
    nodes = []
    for index, node_id in enumerate(node_ids):
        if index == 0:
            nodes.append(NodeSpec(node_id, "client", clock=PERFECT))
        elif index == 1:
            nodes.append(NodeSpec(node_id, "time_server", clock=PERFECT))
        elif rng.random() < 0.8:
            roll = rng.random()
            if roll < 0.4:
                model = None
            elif roll < 0.7:
                model = FailureModel("bernoulli",
                                     failure_probability=rng.choice([0.2, 0.5, 0.8]))
            elif roll < 0.85:
                model = FailureModel("always_failed")
            else:
                model = FailureModel("alternating",
                                     up_duration=rng.choice([1.0, 2.0]),
                                     down_duration=rng.choice([1.0, 3.0]))
            nodes.append(NodeSpec(node_id, "router",
                                  router_delay=rng.choice([10e-6, 50e-6, 500e-6]),
                                  failure_model=model))
        else:
            nodes.append(NodeSpec(node_id, "client", clock=PERFECT))

    pairs = set()
    for index in range(1, n):
        other = rng.randrange(index)
        pairs.add(frozenset((node_ids[index], node_ids[other])))
    budget = max_links - len(pairs)
    for _ in range(200):
        if budget <= 0:
            break
        a, b = rng.sample(node_ids, 2)
        pair = frozenset((a, b))
        if pair not in pairs:
            pairs.add(pair)
            budget -= 1
    links = []
    for pair in sorted(pairs, key=sorted):
        a, b = sorted(pair)
        links.append(LinkSpec(a, b,
                              bandwidth_bps=rng.choice([1e6, 1e7, 1e9]),
                              distance_m=rng.choice([0.0, 1e3, 1e5, 3e5]),
                              medium=rng.choice(["fiber", "copper",
                                                 "wireless", "satellite"])))
    return NetworkGraph(nodes, links)


def correction_sum_ps(corrections, t_ps: int) -> int:
    """The correction in effect at t: the sum, over every (start_ps,
    delta_ps, rate) correction, of the part of it applied by t; a slew's
    part is its rate's exact value times the elapsed picoseconds, rounded
    half to even, up to all of it."""
    total = 0
    for start_ps, delta_ps, rate in corrections:
        if rate is None:
            total += delta_ps if t_ps >= start_ps else 0
            continue
        if t_ps <= start_ps:
            continue
        numerator, denominator = rate.as_integer_ratio()
        slewed = numerator * (t_ps - start_ps)  # over denominator
        applied = (abs(delta_ps) if slewed >= abs(delta_ps) * denominator
                   else round(Fraction(slewed, denominator)))
        total += applied if delta_ps >= 0 else -applied
    return total


def offset_reference_ps(params: ClockParameters, seed: int, clock_id: str, t_ps: int) -> int:
    """A clock's offset at t_ps before any correction, rounded half to even
    once: the drift at t_ps / 10^12 s (a user_defined table interpolated
    between its points and flat outside them), plus the Box-Muller normal
    of the u64 draws of (seed, "clock_noise", clock_id, t_ps, 0 and 1)
    times noise_sigma, plus the top 53 bits of the u64 draw of (seed,
    "clock_jitter", clock_id, t_ps) over 2^53 times jitter_bound_ns."""
    t = Fraction(t_ps, 10**12)
    if params.model_kind == "user_defined":
        points = [(Fraction(time), Fraction(value)) for time, value in params.offset_table]
        i = bisect_right([time for time, _ in points], t)
        if i == 0 or i == len(points):
            drift = points[max(i - 1, 0)][1]
        else:
            (t0, v0), (t1, v1) = points[i - 1], points[i]
            drift = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    else:
        gamma = params.gamma if params.model_kind == "quadratic" else 0.0
        drift = Fraction(params.alpha0) + Fraction(params.beta) * t + Fraction(gamma) * t * t
    noise = jitter = Fraction(0)
    if params.noise_sigma:
        u1 = (randstream.u64(seed, "clock_noise", clock_id, t_ps, 0) + 1) / 2.0**64
        u2 = randstream.u64(seed, "clock_noise", clock_id, t_ps, 1) / 2.0**64
        normal = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        noise = Fraction(normal) * Fraction(params.noise_sigma)
    if params.jitter_bound_ns:
        unit = Fraction(randstream.u64(seed, "clock_jitter", clock_id, t_ps) >> 11, 2**53)
        jitter = unit * Fraction(params.jitter_bound_ns) / 10**9
    return round((drift + noise + jitter) * 10**12)
