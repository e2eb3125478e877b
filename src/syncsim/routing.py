"""Least-delay routing with Dijkstra's algorithm.

An edge's weight is its hop's delay in integer picoseconds: the link's
term for the message size (transmission plus propagation, from the
compiled topology) plus the downstream router's term at t
(`NetworkView.hop_router_ps`), the same terms `delay.total_path_delay`
sums, so a route's weight equals its delay breakdown total exactly.  The
search reads router terms from a sequence indexed by node, where None
excludes every edge into that node rather than giving it infinite weight.
Only routers forward traffic: clients and time servers appear solely as
route endpoints.

Weights depend on message size (the transmission term), so routes are
computed per message.  Ties break on fewer hops, then the lexicographically
smallest node-id sequence, making every query deterministic.

Routes are cached per routing epoch (`netview.Epoch`: each router's term
under the routing attacks active at t, with every failure model up) and
per (source, size): one exhaustive Dijkstra run on the epoch's terms
fills the predecessor list `Epoch.tables[source, size]`, and the route
read from it is kept in `Epoch.routes[source, size, destination]`.
A query at t:

  1. takes the route of the attack-free epoch, the empty one;
  2. if t's epoch raised the term of a router on that route, takes the
     route of t's epoch instead;
  3. returns that route when every router on it that a failure model can
     take down is up at t (`NetworkView.router_flag`; no attack is read);
  4. otherwise runs Dijkstra at t on the epoch's terms, with the term of
     each router a failure model takes down at t replaced by None (a
     router whose epoch term is None already stays excluded undrawn).

The engine asks each query once per instant, and `router_flag` draws a
router's flag once per instant (see the engine module).

Why that is exact.  Labels (delay, hops, node sequence) are totally
ordered, so each graph has one optimum per destination.  Attacks only
raise router terms or remove routers (`AttackSpec` rejects a ddos
multiplier below 1 and a negative added delay, and quantizing is
monotone), so every epoch weight is at least its attack-free weight.  If
no router on the attack-free optimum P is raised, P keeps its label in
the epoch while no other path's label falls, so P is still the epoch's
optimum and step 2 is needed only when it applies.  Failure models only
remove routers from an epoch's graph and leave the terms of the routers
that stay up, so an epoch's optimum whose routers are all up at t is the
optimum at t (step 3).  A destination the epoch cannot reach has no
route at t.  A cached route's breakdown is the same at every t it is
returned (its routers are up, at the terms it was found with), so
`total_path_delay` computes it once.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush

from .delay import CompiledTopology, PathBlocked, PathDelayBreakdown, total_path_delay
from .netview import Epoch, NetworkView
from .timebase import ps_to_seconds, require_ps
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
        require_ps(self.t_ps, "t_ps")
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


def edge_weight_ps(view: NetworkView, link: LinkSpec, downstream: str,
                   query: RouteQuery) -> int | None:
    """Quantized delay of one hop over `link` into `downstream` (the total of
    that two-node path), or None if an inactive router excludes the edge."""
    try:
        return total_path_delay(view, [link.other(downstream), downstream],
                                query.size_bits, query.t_ps).total_ps
    except PathBlocked:
        return None


def shortest_path(view: NetworkView, query: RouteQuery) -> Route:
    """Minimum-total-delay route at the query time, with deterministic ties.

    A cached route of the attack-free epoch or of the query time's epoch
    when it holds at that time (see the module docstring), else a Dijkstra
    run at that time.  Raises NoRoute when no active path exists.
    """
    topology = view.topology
    source = topology.index.get(query.source)
    destination = topology.index.get(query.destination)
    if source is None or destination is None:
        raise ValueError("route endpoints must be present in the graph")
    size_bits, t_ps = query.size_bits, query.t_ps
    epoch = view.epoch_at(t_ps)
    cached = _cached_route(topology, view.attack_free_epoch, source, size_bits, destination)
    if cached is not None and not cached.routers.isdisjoint(epoch.raised):
        cached = _cached_route(topology, epoch, source, size_bits, destination)
    if cached is None:
        raise NoRoute(query.source, query.destination)
    router_flag = view.router_flag
    if all(router_flag(node, t_ps) for node in cached.failures):
        if cached.route is None:
            cached.route = Route(cached.hops, total_path_delay(
                view, list(cached.hops), size_bits, t_ps))
        return cached.route
    return _route_at(view, source, destination, query)


def _cached_route(topology: CompiledTopology, epoch: Epoch, source: int, size_bits: int,
                  destination: int) -> "_CachedRoute | None":
    """The epoch's route from source to destination (None when the epoch's
    graph cannot reach it), filling the epoch's table for (source, size)."""
    key = (source, size_bits, destination)
    if key not in epoch.routes:
        predecessor = epoch.tables.get((source, size_bits))
        if predecessor is None:
            predecessor = epoch.tables[source, size_bits] = _search(
                topology, source, size_bits, epoch.terms)
        epoch.routes[key] = (_CachedRoute(topology, _path(predecessor, destination))
                             if predecessor[destination] >= 0 else None)
    return epoch.routes[key]


def _route_at(view: NetworkView, source: int, destination: int, query: RouteQuery) -> Route:
    """Dijkstra at the query time on the epoch's terms, with None for each
    router whose failure model has it down at t (`view.router_flag`)."""
    topology, t_ps = view.topology, query.t_ps
    terms = list(view.epoch_at(t_ps).terms)
    for node, model in enumerate(topology.failure_models):
        if model is not None and terms[node] is not None and not view.router_flag(node, t_ps):
            terms[node] = None
    predecessor = _search(topology, source, query.size_bits, terms, destination)
    if predecessor[destination] < 0:
        raise NoRoute(query.source, query.destination)
    hops = tuple(topology.ids[node] for node in _path(predecessor, destination))
    return Route(hops, total_path_delay(view, list(hops), query.size_bits, t_ps))


def _search(topology: CompiledTopology, source: int, size_bits: int,
            terms: Sequence[int | None], destination: int = -1) -> list[int]:
    """Dijkstra from `source` over labels (delay, hop count, node-index path),
    compared in that order: the tie-break rule exactly.

    The heap holds (delay, hops, node) and each node keeps the best delay
    and hop count pushed for it.  Paths are never stored: they are read from
    the predecessor list on an exact (delay, hops) tie only.  Predecessors
    are settled nodes (only a settled node relaxes its edges), and a settled
    node's predecessor never changes again, so the chain `_path` follows
    from one is its final path.  On such a tie between the node being
    settled and the neighbor's current predecessor, both paths have the
    same length, so comparing them orders the two full labels of the
    neighbor exactly, and the smaller takes over as predecessor.  Ties
    therefore resolve as on full (delay, hops, path) labels.

    `terms[v]` is the router term of a hop into node v, or None when the
    hop is excluded.  Stops once `destination` is settled (never, by
    default).  Returns each node's predecessor on its best path: -1 for the
    source and for nodes not reached (and the best so far for nodes left
    unsettled by a stop).
    """
    link_ps = topology.size_terms(size_bits)[1]
    adjacency = topology.adjacency
    relays = topology.relays
    count = len(topology.ids)
    predecessor = [-1] * count
    best_delay: list[int | None] = [None] * count
    best_hops = [0] * count
    settled = [False] * count
    frontier = [(0, 0, source)]
    while frontier:
        dist, hops, node = heappop(frontier)
        if settled[node]:
            continue
        settled[node] = True
        if node == destination:
            break
        # only routers relay; endpoints do not forward traffic through themselves
        if hops and not relays[node]:
            continue
        hops += 1
        for neighbor, link in adjacency[node]:
            if settled[neighbor]:
                continue
            term = terms[neighbor]
            if term is None:
                continue
            delay = dist + link_ps[link] + term
            best = best_delay[neighbor]
            if best is None or delay < best or (delay == best and hops < best_hops[neighbor]):
                best_delay[neighbor] = delay
                best_hops[neighbor] = hops
                predecessor[neighbor] = node
                heappush(frontier, (delay, hops, neighbor))
            elif (delay == best and hops == best_hops[neighbor]
                  and _path(predecessor, node) < _path(predecessor, predecessor[neighbor])):
                predecessor[neighbor] = node
    return predecessor


def _path(predecessor: list[int], destination: int) -> list[int]:
    path = [destination]
    while predecessor[path[-1]] >= 0:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path


class _CachedRoute:
    """A value of `Epoch.routes`: its hops, the indices of its routers after
    the source (a raised one sends a query on to its epoch's routes), the
    indices of those a failure model can take down, whose flags a hit reads
    at t, and its Route once a query has hit it."""

    __slots__ = ("hops", "routers", "failures", "route")

    def __init__(self, topology: CompiledTopology, path: list[int]):
        self.hops = tuple(topology.ids[node] for node in path)
        self.routers = frozenset(node for node in path[1:] if topology.relays[node])
        self.failures = tuple(node for node in path[1:]
                              if topology.failure_models[node] is not None)
        self.route: Route | None = None
