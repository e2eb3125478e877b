"""Least-delay routing with Dijkstra's algorithm.

An edge's weight is its hop's delay (transmission, propagation and the
downstream router's processing delay, in integer picoseconds, the terms
`delay.hop_delay_ps` returns), so a route's weight equals its delay
breakdown total exactly.  Edges into inactive routers are excluded outright
rather than given infinite weight.  Only routers forward traffic: clients
and time servers appear solely as route endpoints.

Weights depend on message size (the transmission term), so routes are
computed per message.  Ties break on fewer hops, then the lexicographically
smallest node-id sequence, making every query deterministic.

Routes are cached per (source, size) on the attack-free graph: every router
up (except always_failed ones, which never are) at its base delay.  Failures
and attacks only remove edges or raise weights (`AttackSpec` rejects a ddos
multiplier below 1 and a negative added delay), so when every router on the
cached route is up at t with its router term at its base value, no other
path's (delay, hops, node sequence) label can have fallen below the cached
route's, and the cached route and breakdown are the answer at t.  Otherwise
the query is a miss and Dijkstra runs once at t.  A destination the
attack-free graph cannot reach has no route at any t.
"""

from collections.abc import Callable
from dataclasses import dataclass
from heapq import heappop, heappush

from .delay import (CompiledTopology, PathDelayBreakdown, hop_delay_ps, router_ps,
                    total_path_delay)
from .netview import NetworkView
from .timebase import ps_to_seconds
from .topology import LinkSpec


class NoRoute(Exception):
    """No active path exists between the endpoints at the query time."""

    def __init__(self, source: str, destination: str):
        super().__init__(f"no active route from {source!r} to {destination!r}")
        self.source = source
        self.destination = destination


@dataclass(frozen=True)
class RouteQuery:
    source: str
    destination: str
    t_ps: int
    size_bits: int

    def __post_init__(self):
        if not isinstance(self.t_ps, int):
            raise TypeError(f"t_ps must be an integer count of picoseconds, got {self.t_ps!r}")
        if self.source == self.destination:
            raise ValueError("source and destination must differ")

    @property
    def query_time(self) -> float:
        """t_ps in seconds.  Routing never reads it; it stays because the
        benchmark's layer probe (perfbench/layers.py) keys repeat queries on it."""
        return ps_to_seconds(self.t_ps)


@dataclass(frozen=True)
class Route:
    hops: tuple[str, ...]
    breakdown: PathDelayBreakdown

    @property
    def source(self) -> str:
        return self.hops[0]

    @property
    def destination(self) -> str:
        return self.hops[-1]


def edge_weight_ps(view: NetworkView, link: LinkSpec, downstream: str,
                   query: RouteQuery) -> int | None:
    """Quantized delay of one hop into `downstream` (the sum of its
    `hop_delay_ps` terms), or None if an inactive router excludes the edge."""
    hop = hop_delay_ps(view, link, downstream, query.size_bits, query.t_ps)
    return None if hop is None else sum(hop)


def shortest_path(view: NetworkView, query: RouteQuery) -> Route:
    """Minimum-total-delay route at the query time, with deterministic ties.

    The cached attack-free route when it holds at the query time (see the
    module docstring), else a Dijkstra run at that time.  Raises NoRoute
    when no active path exists.
    """
    topology = view.topology
    source = topology.index.get(query.source)
    destination = topology.index.get(query.destination)
    if source is None or destination is None:
        raise ValueError("route endpoints must be present in the graph")
    table = topology.route_tables.get((source, query.size_bits))
    if table is None:
        table = topology.route_tables[source, query.size_bits] = _RouteTable(
            _search(topology, source, query.size_bits, topology.base_router_ps.__getitem__))
    cached = table.to(topology, destination)
    if cached is None:
        raise NoRoute(query.source, query.destination)
    t_ps = query.t_ps
    # without attacks, only a router's failure model can move its term off its base
    checks = cached.checks if view.attacks else cached.failure_checks
    if all(router_ps(view, node_id, t_ps) == base_ps for node_id, base_ps in checks):
        if cached.route is None:
            cached.route = Route(cached.hops, total_path_delay(
                view, list(cached.hops), query.size_bits, t_ps))
        return cached.route
    return _route_at(view, source, destination, query)


def _route_at(view: NetworkView, source: int, destination: int, query: RouteQuery) -> Route:
    """Dijkstra at the query time, evaluating each router's state at most once."""
    topology, t_ps = view.topology, query.t_ps
    terms: dict[int, int | None] = {}

    def router_term(node: int) -> int | None:
        if node not in terms:
            terms[node] = router_ps(view, topology.ids[node], t_ps)
        return terms[node]

    predecessor = _search(topology, source, query.size_bits, router_term, destination)
    if predecessor[destination] < 0:
        raise NoRoute(query.source, query.destination)
    hops = tuple(topology.ids[node] for node in _path(predecessor, destination))
    return Route(hops, total_path_delay(view, list(hops), query.size_bits, t_ps))


def _search(topology: CompiledTopology, source: int, size_bits: int,
            router_term: Callable[[int], int | None], destination: int = -1) -> list[int]:
    """Dijkstra from `source` over labels (delay, hop count, node-index path);
    tuple order on the label realizes the tie-break rule exactly.

    router_term(v) is the router term of a hop into node v, or None when the
    hop is excluded.  Stops once `destination` is settled (never, by
    default).  Returns each node's predecessor on its best path: -1 for the
    source and for nodes not reached.
    """
    transmission = topology.transmission_ps(size_bits)
    propagation = topology.propagation_ps
    adjacency = topology.adjacency
    relays = topology.relays
    predecessor = [-1] * len(topology.ids)
    settled = [False] * len(topology.ids)
    frontier = [(0, 0, (source,))]
    while frontier:
        dist, hops, path = heappop(frontier)
        node = path[-1]
        if settled[node]:
            continue
        settled[node] = True
        if hops:
            predecessor[node] = path[-2]
        if node == destination:
            break
        # only routers relay; endpoints do not forward traffic through themselves
        if hops and not relays[node]:
            continue
        for neighbor, link in adjacency[node]:
            if settled[neighbor]:
                continue
            term = router_term(neighbor)
            if term is not None:
                heappush(frontier, (dist + transmission[link] + propagation[link] + term,
                                    hops + 1, path + (neighbor,)))
    return predecessor


def _path(predecessor: list[int], destination: int) -> list[int]:
    path = [destination]
    while predecessor[path[-1]] >= 0:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path


class _CachedRoute:
    """One attack-free route: its hops, the (router id, base router term)
    pairs a hit checks (every router after the source, and the subset whose
    failure model can take them down), and its Route once a query has hit it."""

    __slots__ = ("hops", "checks", "failure_checks", "route")

    def __init__(self, topology: CompiledTopology, path: list[int]):
        self.hops = tuple(topology.ids[node] for node in path)
        routers = [node for node in path[1:] if topology.relays[node]]
        self.checks = tuple((topology.ids[node], topology.base_router_ps[node])
                            for node in routers)
        self.failure_checks = tuple((topology.ids[node], topology.base_router_ps[node])
                                    for node in routers if topology.can_fail[node])
        self.route: Route | None = None


class _RouteTable:
    """Attack-free routes from one source at one message size: the
    predecessor table of one exhaustive Dijkstra run, and the routes
    destinations were asked for."""

    __slots__ = ("predecessor", "routes")

    def __init__(self, predecessor: list[int]):
        self.predecessor = predecessor
        self.routes: dict[int, _CachedRoute | None] = {}

    def to(self, topology: CompiledTopology, destination: int) -> _CachedRoute | None:
        """The route to destination, or None when it is not reachable."""
        if destination not in self.routes:
            self.routes[destination] = (
                _CachedRoute(topology, _path(self.predecessor, destination))
                if self.predecessor[destination] >= 0 else None)
        return self.routes[destination]
