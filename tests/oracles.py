"""Independent oracles and scenario generators for route checking.

The route oracle enumerates every simple path (interior hops restricted to
routers, inactive routers pruned by the delay computation itself) and takes
the minimum by (total delay, hop count, node sequence) — no shared logic
with the Dijkstra implementation beyond the per-hop delay primitives it is
checking against.
"""

import random

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
