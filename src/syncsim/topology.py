"""Network graph: clients, time servers, routers, and the links between them.

Links are undirected with symmetric parameters; asymmetry between the two
directions of a round trip arises from routing and time-varying router
state.  Router activity is a pure function of (failure model, seed, time),
so the graph itself is immutable after construction.
"""

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from . import randstream
from .clocks import ClockParameters
from .timebase import seconds_to_ps

NODE_KINDS = ("client", "time_server", "router")
ROUTER_KINDS = ("wifi", "regular")
FAILURE_MODES = ("always_active", "always_failed", "bernoulli", "alternating")
MEDIA = ("fiber", "copper", "wireless", "satellite")

# Propagation speed per medium (m/s): ~2/3 c in glass and copper,
# free space for radio links.  Overridable per scenario.
DEFAULT_MEDIUM_SPEEDS: dict[str, float] = {
    "fiber": 2.0e8,
    "copper": 2.0e8,
    "wireless": 2.998e8,
    "satellite": 2.998e8,
}

# Default per-traversal processing delay by router kind (seconds).
ROUTER_DELAY_DEFAULTS = {"wifi": 500e-6, "regular": 50e-6}


def medium_speed(medium: str, overrides: dict[str, float] | None = None) -> float:
    """Propagation speed for a link medium in m/s."""
    speeds = DEFAULT_MEDIUM_SPEEDS if not overrides else {**DEFAULT_MEDIUM_SPEEDS, **overrides}
    try:
        return speeds[medium]
    except KeyError:
        raise ValueError(f"unknown link medium: {medium!r}") from None


@dataclass(frozen=True)
class FailureModel:
    """Router activity model behind the Flag(t) indicator."""

    mode: str = "always_active"
    failure_probability: float = 0.0
    up_duration: float = 0.0
    down_duration: float = 0.0

    def __post_init__(self):
        if self.mode not in FAILURE_MODES:
            raise ValueError(f"unknown failure mode: {self.mode!r}")
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ValueError("failure_probability must be in [0, 1]")
        if self.mode == "alternating" and (self.up_duration <= 0 or self.down_duration <= 0):
            raise ValueError("alternating mode needs positive up/down durations")

    def flag_at_ps(self, node_id: str, t_ps: int, seed: int) -> int:
        """Activity indicator at t: 1 active, 0 failed.

        Bernoulli draws are keyed by (seed, node id, time epoch), so every
        query at the same instant sees the same router state and distinct
        instants are independent.
        """
        if self.mode == "always_active":
            return 1
        if self.mode == "always_failed":
            return 0
        if self.mode == "bernoulli":
            failed = randstream.bernoulli(seed, self.failure_probability,
                                          "router_flag", node_id, t_ps)
            return 0 if failed else 1
        period_ps = seconds_to_ps(self.up_duration) + seconds_to_ps(self.down_duration)
        return 1 if t_ps % period_ps < seconds_to_ps(self.up_duration) else 0

ALWAYS_ACTIVE = FailureModel()


@dataclass(frozen=True)
class NodeSpec:
    """One node: a client, a time server, or a router.

    Clients and time servers carry a clock; routers carry a per-traversal
    processing delay and a failure model.
    """

    node_id: str
    kind: str
    router_kind: str | None = None
    router_delay: float | None = None
    failure_model: FailureModel | None = None
    clock: ClockParameters | None = None

    def __post_init__(self):
        if self.kind == "router":
            if self.router_kind is None:
                object.__setattr__(self, "router_kind", "regular")
            if self.router_delay is None:
                object.__setattr__(self, "router_delay",
                                   ROUTER_DELAY_DEFAULTS.get(self.router_kind, 50e-6))
            if self.failure_model is None:
                object.__setattr__(self, "failure_model", ALWAYS_ACTIVE)

    @property
    def is_router(self) -> bool:
        return self.kind == "router"


@dataclass(frozen=True)
class LinkSpec:
    """Undirected link with symmetric bandwidth/distance/medium."""

    a: str
    b: str
    bandwidth_bps: float
    distance_m: float
    medium: str = "fiber"

    def endpoints(self) -> frozenset[str]:
        return frozenset((self.a, self.b))

    def other(self, node_id: str) -> str:
        return self.b if node_id == self.a else self.a


class NetworkGraph:
    """Immutable node/link collection with a derived adjacency map.

    Nodes and links are fixed at construction, so anything derived from a
    graph (a view's compiled topology and its route cache) cannot go stale.
    """

    def __init__(self, nodes: Iterable[NodeSpec] = (), links: Iterable[LinkSpec] = ()):
        by_id: dict[str, NodeSpec] = {}
        adjacency: dict[str, list[LinkSpec]] = {}
        for node in nodes:
            if node.node_id in by_id:
                raise ValueError(f"duplicate node id: {node.node_id!r}")
            by_id[node.node_id] = node
            adjacency[node.node_id] = []
        self.links: tuple[LinkSpec, ...] = tuple(links)
        for link in self.links:
            for end in (link.a, link.b):
                adjacency.setdefault(end, []).append(link)
        self._nodes = by_id
        self.nodes: Mapping[str, NodeSpec] = MappingProxyType(by_id)
        self._adjacency = {node_id: tuple(ends) for node_id, ends in adjacency.items()}

    def node(self, node_id: str) -> NodeSpec:
        return self._nodes[node_id]

    def links_of(self, node_id: str) -> tuple[LinkSpec, ...]:
        return self._adjacency.get(node_id, ())

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes


@dataclass(frozen=True)
class Violation:
    entity: str
    message: str

    def __str__(self) -> str:
        return f"{self.entity}: {self.message}"


def validate(graph: NetworkGraph) -> list[Violation]:
    """Check graph invariants; an empty list means the graph is valid."""
    problems: list[Violation] = []
    for node in graph.nodes.values():
        if node.kind not in NODE_KINDS:
            problems.append(Violation(node.node_id, f"unknown node kind {node.kind!r}"))
            continue
        if node.is_router:
            if node.router_kind not in ROUTER_KINDS:
                problems.append(Violation(node.node_id,
                                          f"unknown router kind {node.router_kind!r}"))
            if node.router_delay is None or node.router_delay < 0:
                problems.append(Violation(node.node_id, "router_delay must be >= 0"))
        else:
            if node.router_delay is not None:
                problems.append(Violation(node.node_id,
                                          "router_delay only applies to routers"))
            if node.clock is None:
                problems.append(Violation(node.node_id, f"{node.kind} needs a clock"))
            elif node.kind == "time_server" and node.clock.effective_gamma != 0.0:
                problems.append(Violation(
                    node.node_id,
                    "time_server clocks must be drift-bounded (gamma = 0)"))

    seen_pairs: set[frozenset[str]] = set()
    for link in graph.links:
        label = f"link {link.a}--{link.b}"
        for end in (link.a, link.b):
            if end not in graph.nodes:
                problems.append(Violation(label, f"endpoint {end!r} not in graph"))
        if link.a == link.b:
            problems.append(Violation(label, "self-loops are not allowed"))
        pair = link.endpoints()
        if pair in seen_pairs and len(pair) == 2:
            problems.append(Violation(label, "duplicate link between the same nodes"))
        seen_pairs.add(pair)
        if link.bandwidth_bps <= 0:
            problems.append(Violation(label, "bandwidth must be > 0"))
        if link.distance_m < 0:
            problems.append(Violation(label, "distance must be >= 0"))
        if link.medium not in MEDIA:
            problems.append(Violation(label, f"unknown medium {link.medium!r}"))
    return problems
