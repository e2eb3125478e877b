"""The three delay components and their composition along a path.

A message walking a path pays, per hop: transmission delay (size over link
bandwidth), propagation delay (link distance over medium speed), and the
downstream router's processing delay when it enters a router.  Each term is
computed in double precision seconds and quantized once to integer
picoseconds, so a route's weight, its breakdown total and its last arrival
offset are the same sum, and traces are platform independent.

The link terms do not depend on time.  `topology.link_terms_ps` is the
one place both link formulas are written and quantized; `CompiledTopology`
calls it once per link (transmission once per link and message size) and
is what `total_path_delay` and the route search both read.  The router
term is `NetworkView.hop_router_ps` at the path's send time, on the terms
of the routing epoch holding it, which `total_path_delay` looks up once
per path.  The route search reads the same epoch terms, and
`NetworkView.router_flag` for a router a failure model can take down,
itself.

An inactive router never contributes a numeric infinity: the walk is simply
unroutable and `PathBlocked` names the failed router.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .topology import NetworkGraph, link_terms_ps

if TYPE_CHECKING:
    from .netview import NetworkView


class PathBlocked(Exception):
    """A router on the path is inactive, making the path unroutable."""

    def __init__(self, router_id: str):
        super().__init__(f"router {router_id!r} is inactive")
        self.router_id = router_id


@dataclass(frozen=True)
class PathDelayBreakdown:
    """Per-component path delay and the cumulative arrival offset at each
    node after the source, all in integer picoseconds."""

    router_ps: int
    transmission_ps: int
    propagation_ps: int
    arrivals_ps: tuple[int, ...]

    @property
    def total_ps(self) -> int:
        return self.router_ps + self.transmission_ps + self.propagation_ps


class CompiledTopology:
    """A graph as integer-indexed tables of quantized delay terms.

    Node indices follow sorted node ids, so comparing tuples of indices
    orders paths exactly as comparing tuples of node ids does.  Per node:
    its id, its `NodeSpec`, whether it relays (routers only), its failure
    model when that can take it down (None otherwise), and its links as
    (neighbor index, link index) pairs in link order.  Per link: the
    propagation term, and per message size, filled on first use, the
    transmission term and the link term (transmission plus propagation,
    what a route search adds per hop).
    """

    def __init__(self, graph: NetworkGraph, medium_speeds: dict[str, float] | None):
        self.ids = tuple(sorted(graph.nodes))
        self.index = {node_id: i for i, node_id in enumerate(self.ids)}
        self.nodes = tuple(graph.nodes[node_id] for node_id in self.ids)
        self.relays = tuple(node.is_router for node in self.nodes)
        self.failure_models = tuple(
            node.failure_model if node.is_router and node.failure_model.mode != "always_active"
            else None for node in self.nodes)
        self.links = graph.links
        adjacency: list[list[tuple[int, int]]] = [[] for _ in self.ids]
        self.link_between: dict[tuple[str, str], int] = {}
        for i, link in enumerate(self.links):
            a, b = self.index[link.a], self.index[link.b]
            adjacency[a].append((b, i))
            adjacency[b].append((a, i))
            self.link_between[link.a, link.b] = self.link_between[link.b, link.a] = i
        self.adjacency = tuple(map(tuple, adjacency))
        self._medium_speeds = medium_speeds
        self.propagation_ps = tuple(link_terms_ps(link, 0, medium_speeds)[1]
                                    for link in self.links)
        self._size_terms: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def size_terms(self, size_bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The transmission term and the link term of every link for a
        message of size_bits.  Raises ValueError naming the first link whose
        delay is not a finite number of picoseconds."""
        terms = self._size_terms.get(size_bits)
        if terms is None:
            pairs = [link_terms_ps(link, size_bits, self._medium_speeds) for link in self.links]
            terms = self._size_terms[size_bits] = (tuple(t for t, _ in pairs),
                                                   tuple(map(sum, pairs)))
        return terms


def total_path_delay(view: "NetworkView", path: list[str], size_bits: int,
                     t_ps: int, message_id: str = "") -> PathDelayBreakdown:
    """Quantized breakdown of all delay components along the path.

    Raises PathBlocked if any router on the path (beyond the source) is
    inactive at t_ps.  `message_id` is ignored: no delay term depends on the
    message; the parameter stays because the benchmark's layer probe
    (perfbench/layers.py) passes one positionally.
    """
    topology = view.topology
    transmission, propagation = topology.size_terms(size_bits)[0], topology.propagation_ps
    link_between, index, hop_router_ps = topology.link_between, topology.index, view.hop_router_ps
    terms = view.epoch_at(t_ps).terms
    arrivals_ps: list[int] = []
    router_total = transmission_total = propagation_total = 0
    for a, b in zip(path, path[1:]):
        try:
            link = link_between[a, b]
        except KeyError:
            raise ValueError(f"no link between {a!r} and {b!r}") from None
        router = hop_router_ps(index[b], t_ps, terms)
        if router is None:
            raise PathBlocked(b)
        transmission_total += transmission[link]
        propagation_total += propagation[link]
        router_total += router
        arrivals_ps.append(transmission_total + propagation_total + router_total)
    return PathDelayBreakdown(router_total, transmission_total, propagation_total,
                              tuple(arrivals_ps))
