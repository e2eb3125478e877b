"""Least-delay routing with Dijkstra's algorithm.

An edge's weight is its hop's delay from `delay.hop_delay_ps` (transmission,
propagation and the downstream router's processing delay, in integer
picoseconds), so a route's weight equals its delay breakdown total exactly.
Edges into inactive routers are excluded outright rather than given
infinite weight.  Only routers forward traffic: clients and time servers
appear solely as route endpoints.

Weights depend on message size (the transmission term), so routes are
computed per message.  Ties break on fewer hops, then the lexicographically
smallest node-id sequence, making every query deterministic.
"""

import heapq
from dataclasses import dataclass

from .delay import PathDelayBreakdown, hop_delay_ps, total_path_delay
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

    Dijkstra over labels (delay, hop count, node sequence); tuple order on
    the label realizes the tie-break rule exactly.  Raises NoRoute when no
    active path exists.
    """
    if query.source not in view.graph or query.destination not in view.graph:
        raise ValueError("route endpoints must be present in the graph")
    best: dict[str, tuple[int, int, tuple[str, ...]]] = {}
    start = (0, 0, (query.source,))
    frontier: list[tuple[int, int, tuple[str, ...]]] = [start]
    while frontier:
        dist, hops, path = heapq.heappop(frontier)
        node_id = path[-1]
        if node_id in best:
            continue
        best[node_id] = (dist, hops, path)
        if node_id == query.destination:
            breakdown = total_path_delay(view, list(path), query.size_bits, query.t_ps)
            return Route(path, breakdown)
        # only routers relay; endpoints do not forward traffic through themselves
        if node_id != query.source and not view.node(node_id).is_router:
            continue
        for link in view.graph.links_of(node_id):
            neighbor = link.other(node_id)
            if neighbor in best:
                continue
            weight = edge_weight_ps(view, link, neighbor, query)
            if weight is None:
                continue
            heapq.heappush(frontier, (dist + weight, hops + 1, path + (neighbor,)))
    raise NoRoute(query.source, query.destination)

