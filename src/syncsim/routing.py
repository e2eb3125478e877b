"""Least-delay routing with Dijkstra's algorithm.

Edge weights compose the hop's transmission and propagation delays with the
downstream router's processing delay, all in integer picoseconds, so a
route's weight equals its delay breakdown total exactly.  Edges into
inactive routers are excluded outright rather than given infinite weight.
Only routers forward traffic: clients and time servers appear solely as
route endpoints.

Weights depend on message size (the transmission term), so routes are
computed per message.  Ties break on fewer hops, then the lexicographically
smallest node-id sequence, making every query deterministic.
"""

import heapq
from dataclasses import dataclass

from .delay import PathDelayBreakdown, propagation_delay, total_path_delay, transmission_delay
from .netview import NetworkView
from .timebase import seconds_to_ps
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
    query_time: float
    size_bits: int
    message_id: str = ""

    def __post_init__(self):
        if self.source == self.destination:
            raise ValueError("source and destination must differ")


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
    """Quantized delay of one hop into `downstream`, or None if excluded.

    The weight is transmission + propagation for the link plus the
    downstream node's router delay when it is an active router; an inactive
    downstream router excludes the edge from the graph view.
    """
    t_ps = seconds_to_ps(query.query_time)
    node = view.node(downstream)
    weight = seconds_to_ps(transmission_delay(query.size_bits, link.bandwidth_bps))
    weight += seconds_to_ps(propagation_delay(link.distance_m, view.speed_of(link.medium)))
    if node.is_router:
        if not view.router_active(downstream, t_ps):
            return None
        delay_s, _ = view.router_delay_at(downstream, t_ps)
        weight += seconds_to_ps(delay_s)
    return weight


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
            breakdown = total_path_delay(view, list(path), query.size_bits,
                                         query.query_time, query.message_id)
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

