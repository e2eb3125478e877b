"""Least-delay routing with Dijkstra's algorithm.

An edge's weight is its hop's delay in integer picoseconds: the link's
term for the message size (transmission plus propagation, from the
compiled topology) plus the downstream router's term at t (its term in
t's routing epoch while its failure model has it up), the same terms
`delay.total_path_delay` sums, so a route's weight equals its delay
breakdown total exactly.  The search reads router terms from a sequence
indexed by node, where None excludes every edge into that node rather
than giving it infinite weight, and reads `NetworkView.router_flag`
itself for a router a failure model can take down.  Only routers forward
traffic: clients and time servers appear solely as route endpoints.

Weights depend on message size (the transmission term), so routes are
computed per message.  Ties break on fewer hops, then the lexicographically
smallest node-id sequence, making every query deterministic.

Routes are cached per routing epoch (`netview.Epoch`: each router's term
under the routing attacks active at t, with every failure model up) in
`Epoch.routes[source, size, destination]`.  The attack-free epoch, the
empty one, also keeps one exhaustive Dijkstra fill per (source, size) in
`Epoch.tables`: the predecessor list its routes are read from, and each
node's attack-free delay to the source, which the goal-directed searches
below take as exact lower bounds.  A query at t:

  1. takes the route of the attack-free epoch;
  2. if t's epoch raised the term of a router on that route, takes the
     route of t's epoch instead, found by a goal-directed search on the
     epoch's terms that stops at the destination;
  3. returns that route when every router on it that a failure model can
     take down is up at t (`route_holds`, which reads
     `NetworkView.router_flag`; no attack is read);
  4. otherwise runs a goal-directed search at t on the epoch's terms,
     entering a router a failure model can take down only if its flag
     at t, read when the search first reaches it, has it up (a router
     whose epoch term is None stays excluded undrawn).

The engine keeps each route that steps 1 to 3 return for the epoch and,
at a later instant of it, checks step 3 itself (`route_holds`) before it
asks again; a route of step 4 and a NoRoute it asks once per instant.
`router_flag` keeps each router's flags of the last two instants it drew
(see the engine module).

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

An exhaustive fill pushes only routers, after its source: every other
endpoint takes its label and predecessor by relaxation alone.  That is
exact because an endpoint relaxes nothing, so popping it would only
settle its label; and with non-negative weights no node popped after the
point where Dijkstra would have popped the endpoint can offer it an
equal or better (delay, hops) label, since that node's label is at least
the endpoint's and its offer adds a weight >= 0 and one more hop.  Every
offer the endpoint can take, ties included, reaches it before that
point, as it would with the endpoint on the heap.

The goal-directed searches (steps 2 and 4) are Dijkstra on reduced
weights w(u, v) + h(v) - h(u), where h(v) is the attack-free delay from
v to the destination d less d's own term.  A link's term is the same in
both directions, so the route v ... d is the attack-free fill of (d,
size)'s route d ... v reversed, and its delay is that route's less v's
term plus d's: h is read from that fill.  The reduced weights are >= 0,
as h(u) <= w0(u, v) + h(v) for the attack-free weight w0 <= w of any hop
into a router or d.  For a fixed node every path's label shifts by the
same h(v), so the search settles the labels (delay, hops, node sequence)
exactly as Dijkstra does and the tie-break argument of `_search` carries
over unchanged.  A node with no h, which the attack-free graph cannot
route through to d, and an endpoint other than d, which does not relay,
are not pushed: no path to d at t passes them.
"""

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from struct import error as StructError, pack

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


def require_size_bits(size_bits) -> None:
    """Raise ValueError unless size_bits, a message size, is an int >= 0:
    a bool, although an int subclass, would trace as true/false."""
    if type(size_bits) is not int or size_bits < 0:
        raise ValueError(f"size_bits must be >= 0 and an int, got {size_bits!r}")


class RouteQuery(namedtuple("RouteQuery", ("source", "destination", "t_ps", "size_bits"))):
    """One route query: endpoints, time and message size.  An immutable
    value, a tuple of its four fields, checked when built."""

    __slots__ = ()

    def __new__(cls, source: str, destination: str, t_ps: int, size_bits: int):
        require_ps(t_ps, "t_ps")
        require_size_bits(size_bits)
        if source == destination:
            raise ValueError("source and destination must differ")
        return tuple.__new__(cls, (source, destination, t_ps, size_bits))

    @property
    def query_time(self) -> float:
        """t_ps in seconds.  Routing never reads it; it stays because the
        benchmark's layer probe (perfbench/layers.py) keys repeat queries on it."""
        return ps_to_seconds(self.t_ps)


@dataclass(frozen=True)
class Route:
    """A route and its delay breakdown.  `failures` holds, for a route of an
    epoch's route cache, the indices of the routers on it that a failure
    model can take down, whose flags decide where it holds (`route_holds`);
    None for a route found by the search at its own instant."""
    hops: tuple[str, ...]
    breakdown: PathDelayBreakdown
    failures: tuple[int, ...] | None = None


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
    when it holds at that time (see the module docstring), else a
    goal-directed search at that time.  Raises NoRoute when no active path
    exists.
    """
    topology = view.topology
    source = topology.index.get(query.source)
    destination = topology.index.get(query.destination)
    if source is None or destination is None:
        raise ValueError("route endpoints must be present in the graph")
    size_bits, t_ps = query.size_bits, query.t_ps
    epoch = view.epoch_at(t_ps)
    attack_free = view.attack_free_epoch
    cached = _cached_route(topology, attack_free, attack_free, source, size_bits, destination)
    if cached is not None and not cached.routers.isdisjoint(epoch.raised):
        cached = _cached_route(topology, epoch, attack_free, source, size_bits, destination)
    if cached is None:
        raise NoRoute(query.source, query.destination)
    if not route_holds(view, cached, t_ps):
        return _route_at(view, source, destination, query)
    if cached.route is None:
        cached.route = Route(cached.hops, total_path_delay(
            view, list(cached.hops), size_bits, t_ps), cached.failures)
    return cached.route


def route_holds(view: NetworkView, route: "Route | _CachedRoute", t_ps: int) -> bool:
    """Whether a route of the route cache of t_ps's routing epoch is the
    route at t_ps: every router on it that a failure model can take down
    is up (`view.router_flag`).  `shortest_path`'s cache hit and the
    engine's routes kept per epoch both ask it."""
    router_flag = view.router_flag
    for node in route.failures:
        if not router_flag(node, t_ps):
            return False
    return True


def _cached_route(topology: CompiledTopology, epoch: Epoch, attack_free: Epoch, source: int,
                  size_bits: int, destination: int) -> "_CachedRoute | None":
    """The epoch's route from source to destination (None when the epoch's
    graph cannot reach it): read from the attack-free fill of (source,
    size) in the attack-free epoch, else found by a goal-directed search."""
    key = (source, size_bits, destination)
    if key not in epoch.routes:
        if epoch is attack_free:
            predecessor = _fill(topology, attack_free, source, size_bits)[0]
        else:
            predecessor = _search(topology, source, size_bits, epoch.terms, destination,
                                  _fill(topology, attack_free, destination, size_bits)[1])[0]
        epoch.routes[key] = (_CachedRoute(topology, _path(predecessor, destination))
                             if predecessor[destination] >= 0 else None)
    return epoch.routes[key]


def _fill(topology: CompiledTopology, attack_free: Epoch, source: int,
          size_bits: int) -> tuple[list[int], Sequence[int]]:
    """The attack-free epoch's table for (source, size), filled by one
    exhaustive search on first use.  It holds the predecessor list of the
    best paths from source, and the distances the goal-directed searches
    toward source read: for source and each router reached, the
    attack-free delay from it to source less source's own term (which
    every route to source pays alike); -1 for every other node, as no
    route to source passes through it.  Distances are a memoryview of
    signed 64-bit items, or a list where one does not fit in 64 bits."""
    table = attack_free.tables.get((source, size_bits))
    if table is None:
        terms = attack_free.terms
        predecessor, delays = _search(topology, source, size_bits, terms)
        # links cost the same both ways: the route from a router to source
        # is the reverse of source's route to it, paying the terms of the
        # nodes before it in place of its own
        distances = [delay - term if delay is not None and relay else -1
                     for delay, term, relay in zip(delays, terms, topology.relays)]
        distances[source] = 0
        try:
            # signed 64-bit items as array('q') packs them, without loading
            # the array extension module, a shared library on most builds
            # whose pages add to peak memory
            distances = memoryview(pack(f"{len(distances)}q", *distances)).cast("q")
        except StructError:
            pass
        table = attack_free.tables[source, size_bits] = (predecessor, distances)
    return table


def _route_at(view: NetworkView, source: int, destination: int, query: RouteQuery) -> Route:
    """The goal-directed search at the query time on its epoch's terms,
    entering a router a failure model can take down only while
    `view.router_flag` has it up at t, read when the search first reaches
    it."""
    topology, size_bits, t_ps = view.topology, query.size_bits, query.t_ps
    predecessor = _search(topology, source, size_bits, view.epoch_at(t_ps).terms, destination,
                          _fill(topology, view.attack_free_epoch, destination, size_bits)[1],
                          view, t_ps)[0]
    if predecessor[destination] < 0:
        raise NoRoute(query.source, query.destination)
    hops = tuple(topology.ids[node] for node in _path(predecessor, destination))
    return Route(hops, total_path_delay(view, list(hops), size_bits, t_ps))


def _search(topology: CompiledTopology, source: int, size_bits: int,
            terms: Sequence[int | None], destination: int = -1,
            remaining: Sequence[int] | None = None, view: NetworkView | None = None,
            t_ps: int = 0) -> tuple[list[int], list[int | None]]:
    """Dijkstra from `source` over labels (delay, hop count, node-index path),
    compared in that order: the tie-break rule exactly.

    The heap holds (key, hops, node), where key is the delay plus
    `remaining[node]` when given (the goal-directed search of the module
    docstring), and each node keeps the best delay and hop count pushed
    for it.  Paths are never stored: they are read from the predecessor
    list on an exact (delay, hops) tie only.  Predecessors are settled
    nodes (only a settled node relaxes its edges), and a settled node's
    predecessor never changes again, so the chain `_path` follows from one
    is its final path.  On such a tie between the node being settled and
    the neighbor's current predecessor, both paths have the same length,
    so comparing them orders the two full labels of the neighbor exactly,
    and the smaller takes over as predecessor.  Ties therefore resolve as
    on full (delay, hops, path) labels.

    After the source, only routers and `destination` are pushed: any other
    endpoint relays nothing, so it takes its label and predecessor by
    relaxation alone, and no node settled after the point where it would
    have been settled can offer it an equal or better label (weights are
    >= 0 and such an offer has one more hop; see the module docstring).

    `terms[v]` is the router term of a hop into node v, or None when the
    hop is excluded.  A node whose `remaining` is negative is excluded
    too, and so, when `view` is given, is a router a failure model can
    take down whose `view.router_flag` at t_ps, read when the search first
    reaches it, has it down.  Stops once `destination` is settled (never,
    by default).  Returns each node's predecessor on its best path (-1 for
    the source and for nodes not reached) and its best delay (None for
    nodes not reached); both are the best so far for nodes left unsettled
    by a stop.
    """
    link_ps = topology.size_terms(size_bits)[1]
    adjacency = topology.adjacency
    relays = topology.relays
    failure_models = topology.failure_models
    count = len(topology.ids)
    predecessor = [-1] * count
    best_delay: list[int | None] = [None] * count
    best_delay[source] = 0
    best_hops = [0] * count
    settled = [False] * count
    frontier = [(0, 0, source)]
    while frontier:
        _, hops, node = heappop(frontier)
        if settled[node]:
            continue
        settled[node] = True
        if node == destination:
            break
        dist = best_delay[node]
        hops += 1
        for neighbor, link in adjacency[node]:
            if settled[neighbor]:
                continue
            term = terms[neighbor]
            if term is None:
                continue
            delay = dist + link_ps[link] + term
            best = best_delay[neighbor]
            if best is None:
                if ((remaining is not None and remaining[neighbor] < 0)
                        or (view is not None and failure_models[neighbor] is not None
                            and not view.router_flag(neighbor, t_ps))):
                    settled[neighbor] = True  # never entered: nothing relaxes into it again
                    continue
            elif delay > best or (delay == best and hops >= best_hops[neighbor]):
                if (delay == best and hops == best_hops[neighbor]
                        and _path(predecessor, node) < _path(predecessor, predecessor[neighbor])):
                    predecessor[neighbor] = node
                continue
            best_delay[neighbor] = delay
            best_hops[neighbor] = hops
            predecessor[neighbor] = node
            # only routers relay: an endpoint other than the destination is
            # labelled by relaxation alone, never pushed (see above)
            if relays[neighbor] or neighbor == destination:
                heappush(frontier, (delay if remaining is None else delay + remaining[neighbor],
                                    hops, neighbor))
    return predecessor, best_delay


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
        ids, relays, failure_models = topology.ids, topology.relays, topology.failure_models
        self.hops = tuple([ids[node] for node in path])
        self.routers = frozenset([node for node in path[1:] if relays[node]])
        self.failures = tuple([node for node in path[1:] if failure_models[node] is not None])
        self.route: Route | None = None
