"""Network graph: clients, time servers, routers, and the links between them.

Links are undirected with symmetric parameters; asymmetry between the two
directions of a round trip arises from routing and time-varying router
state.  Router activity is a pure function of (failure model, seed, time),
so the graph itself is immutable after construction.

Each input rule on a graph is one function here, which the run and the
validators both call, so an input that breaks it is named in the same
words wherever it is found.  `link_terms_ps` writes a link's two delay
formulas, size over bandwidth and distance over the medium's speed, each
quantized once to integer picoseconds; `up_router_ps` a router's term, its
delay under the attacks, quantized, or None while it is down; and
`admit_link` where a link may go: between two of the graph's nodes, at
most one link to a pair.
"""

from collections.abc import Container, Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from . import attacks as attacks_mod
from . import randstream
from .attacks import AttackSpec
from .clocks import ClockParameters
from .timebase import ps_to_seconds, require_finite, seconds_to_ps

NODE_KINDS = ("client", "time_server", "router")
FAILURE_MODES = ("always_active", "always_failed", "bernoulli", "alternating")

# Propagation speed per medium (m/s): ~2/3 c in glass and copper,
# free space for radio links.  Overridable per scenario.
DEFAULT_MEDIUM_SPEEDS: dict[str, float] = {
    "fiber": 2.0e8,
    "copper": 2.0e8,
    "wireless": 2.998e8,
    "satellite": 2.998e8,
}
MEDIA = tuple(DEFAULT_MEDIUM_SPEEDS)

# Default per-traversal processing delay by router kind (seconds).
ROUTER_DELAY_DEFAULTS = {"wifi": 500e-6, "regular": 50e-6}
ROUTER_KINDS = tuple(ROUTER_DELAY_DEFAULTS)


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
        require_finite(self, "failure_probability", "up_duration", "down_duration")
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ValueError("failure_probability must be in [0, 1]")
        if self.mode == "alternating" and (seconds_to_ps(self.up_duration) <= 0
                                           or seconds_to_ps(self.down_duration) <= 0):
            raise ValueError("alternating mode needs positive up/down durations")

    def flag_at_ps(self, node_id: str, t_ps: int, seed: int) -> int:
        """Activity indicator at t: 1 active, 0 failed.

        Bernoulli draws are keyed by (seed, "router_flag", node id, t_ps), so
        every query at the same instant sees the same router state and
        distinct instants are independent.
        """
        return self.flag_from(randstream.stream(seed, "router_flag", node_id), t_ps)

    def flag_from(self, prefix, t_ps: int) -> int:
        """`flag_at_ps` of the router whose router_flag stream state is
        `prefix` (`randstream.stream(seed, "router_flag", node_id)`)."""
        if self.mode == "always_active":
            return 1
        if self.mode == "always_failed":
            return 0
        if self.mode == "bernoulli":
            return 0 if randstream.draw_bernoulli(prefix, self.failure_probability, t_ps) else 1
        period_ps = seconds_to_ps(self.up_duration) + seconds_to_ps(self.down_duration)
        return 1 if t_ps % period_ps < seconds_to_ps(self.up_duration) else 0


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
                object.__setattr__(self, "failure_model", FailureModel())

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


def link_terms_ps(link: LinkSpec, size_bits: int,
                  medium_speeds: Mapping[str, float] | None = None) -> tuple[int, int]:
    """(transmission, propagation) picoseconds of one traversal of `link` by
    a message of size_bits: size over bandwidth, and distance over the speed
    of the link's medium (from `medium_speeds` when it names the medium,
    else the default), each quantized once.  Raises ValueError for an
    unknown medium, a size or distance < 0, a bandwidth or speed that is not
    > 0, and a term that is not a finite number of picoseconds."""
    speed = (medium_speeds or {}).get(link.medium, DEFAULT_MEDIUM_SPEEDS.get(link.medium))
    problem = (f"unknown medium {link.medium!r}" if speed is None
               else f"message size must be >= 0 bits, got {size_bits}" if not size_bits >= 0
               else "bandwidth must be > 0" if not link.bandwidth_bps > 0
               else "distance must be >= 0" if not link.distance_m >= 0
               else f"{link.medium} speed must be > 0" if not speed > 0 else None)
    if problem:
        raise ValueError(f"link {link.a}--{link.b}: {problem}")
    try:
        return (seconds_to_ps(size_bits / link.bandwidth_bps),
                seconds_to_ps(link.distance_m / speed))
    except (OverflowError, ValueError):  # beyond the float range, or NaN from inf / inf
        raise ValueError(f"link {link.a}--{link.b}: delay of a {size_bits}-bit message is "
                         f"not a finite number of picoseconds") from None


def up_router_ps(node: NodeSpec, attacks: tuple[AttackSpec, ...], t_ps: int) -> int | None:
    """The router term of a hop into `node` at t_ps while its failure model
    has it up: 0 for a client or time server, None for an always_failed
    router or one a force_down hijack holds down, else its delay under the
    attacks, quantized.  Raises ValueError for a router_delay that is not
    >= 0, and, naming the router and the attacks on it, for a delay under
    the attacks that is not a finite number of picoseconds, down or not."""
    if not node.is_router:
        return 0
    if not node.router_delay >= 0:
        raise ValueError(f"{node.node_id}: router_delay must be >= 0")
    try:
        term = seconds_to_ps(attacks_mod.effective_router_delay(attacks, node.node_id, t_ps,
                                                                node.router_delay))
    except OverflowError:  # infinite; a NaN delay failed the range check
        kinds = " and ".join(a.kind for a in attacks if a.target == node.node_id)
        name = (f"attack {kinds} on {node.node_id!r}: router delay from "
                f"{ps_to_seconds(t_ps)!r} s" if kinds else f"{node.node_id}: router_delay")
        raise ValueError(f"{name} is not a finite number of picoseconds") from None
    if (node.failure_model.mode == "always_failed"
            or attacks_mod.effective_flag(attacks, node.node_id, t_ps, 1) == 0):
        return None
    return term


def admit_link(link: LinkSpec, node_ids: Container[str], pairs: set[frozenset[str]]) -> None:
    """Add the pair `link` joins to `pairs`, the pairs of the links before
    it, if both its endpoints are in `node_ids` and no link before it joins
    the same two nodes; else raise ValueError naming the problem."""
    for end in (link.a, link.b):
        if end not in node_ids:
            raise ValueError(f"link {link.a}--{link.b}: endpoint {end!r} not in graph")
    if link.endpoints() in pairs:
        raise ValueError(f"duplicate link between {link.a!r} and {link.b!r}")
    pairs.add(link.endpoints())


class NetworkGraph:
    """Immutable node/link collection.

    Nodes and links are fixed at construction, so anything derived from a
    graph (a view's compiled topology and its route cache) cannot go stale.
    Every link joins two of its nodes, and at most one link joins two
    nodes, so a path's hops name their links.
    """

    def __init__(self, nodes: Iterable[NodeSpec] = (), links: Iterable[LinkSpec] = ()):
        by_id: dict[str, NodeSpec] = {}
        for node in nodes:
            if node.node_id in by_id:
                raise ValueError(f"duplicate node id: {node.node_id!r}")
            by_id[node.node_id] = node
        self.links: tuple[LinkSpec, ...] = tuple(links)
        pairs: set[frozenset[str]] = set()
        for link in self.links:
            admit_link(link, by_id, pairs)
        self.nodes: Mapping[str, NodeSpec] = MappingProxyType(by_id)


def validate(graph: NetworkGraph) -> list[str]:
    """Check graph invariants, each problem as "entity: message"; an empty
    list means the graph is valid."""
    problems: list[str] = []
    for node in graph.nodes.values():
        name = node.node_id
        if node.kind not in NODE_KINDS:
            problems.append(f"{name}: unknown node kind {node.kind!r}")
            continue
        if node.is_router:
            if node.router_kind not in ROUTER_KINDS:
                problems.append(f"{name}: unknown router kind {node.router_kind!r}")
            try:
                up_router_ps(node, (), 0)
            except ValueError as exc:
                problems.append(str(exc))
        else:
            if node.router_delay is not None:
                problems.append(f"{name}: router_delay only applies to routers")
            if node.clock is None:
                problems.append(f"{name}: {node.kind} needs a clock")
            elif node.kind == "time_server" and node.clock.effective_gamma != 0.0:
                problems.append(f"{name}: time_server clocks must be drift-bounded (gamma = 0)")

    for link in graph.links:
        if link.a == link.b:
            problems.append(f"link {link.a}--{link.b}: self-loops are not allowed")
        try:
            link_terms_ps(link, 0)
        except ValueError as exc:
            problems.append(str(exc))
    return problems
