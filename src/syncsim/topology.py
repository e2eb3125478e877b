"""Network graph: clients, time servers, routers, and the links between them.

Links are undirected with symmetric parameters; asymmetry between the two
directions of a round trip arises from routing and time-varying router
state.  Router activity is a pure function of (failure model, seed, time),
so the graph itself is immutable after construction.

A graph is valid once it is built: each node, link and graph constructor
raises ValueError naming the first rule its input breaks.  Each input rule
on a graph is one function here, which the constructors and the run both
call, so an input that breaks it is named in the same words wherever it is
found.  `link_terms_ps` writes a link's two delay formulas, size over
bandwidth and distance over the medium's speed, each quantized once to
integer picoseconds; `is_medium_speed` what a medium's speed may be;
`up_router_ps` a router's term, its delay under the attacks, quantized,
or None while it is down; and `admit_link` where a link may go: between
two of the graph's nodes, at most one link to a pair.
"""

import sys
from collections.abc import Container, Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import attacks as attacks_mod
from . import randstream
from .attacks import AttackSpec
from .clocks import ClockParameters
from .timebase import field_ps, ps_to_seconds, require_finite, seconds_to_ps

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
    # in alternating mode, the up duration and the period (up plus down),
    # quantized once when built; None in the other modes
    up_ps: int | None = field(default=None, init=False, repr=False, compare=False)
    period_ps: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in FAILURE_MODES:
            raise ValueError(f"unknown failure mode: {self.mode!r}")
        require_finite(self, "failure_probability", "up_duration", "down_duration")
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ValueError("failure_probability must be in [0, 1]")
        if self.mode == "alternating":
            up_ps, down_ps = field_ps(self, "up_duration"), field_ps(self, "down_duration")
            if up_ps <= 0 or down_ps <= 0:
                raise ValueError("alternating mode needs positive up/down durations")
            object.__setattr__(self, "up_ps", up_ps)
            object.__setattr__(self, "period_ps", up_ps + down_ps)

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
        return 1 if t_ps % self.period_ps < self.up_ps else 0


@dataclass(frozen=True)
class NodeSpec:
    """One node: a client, a time server, or a router.

    Clients and time servers carry a clock, a time server's with gamma 0;
    routers carry a per-traversal processing delay, by default their
    kind's, and a failure model.
    """

    node_id: str
    kind: str
    router_kind: str | None = None
    router_delay: float | None = None
    failure_model: FailureModel | None = None
    clock: ClockParameters | None = None

    def __post_init__(self):
        name = self.node_id
        if self.kind not in NODE_KINDS:
            raise ValueError(f"{name}: unknown node kind {self.kind!r}")
        if self.is_router:
            if self.router_kind is None:
                object.__setattr__(self, "router_kind", "regular")
            if self.router_kind not in ROUTER_KINDS:
                raise ValueError(f"{name}: unknown router kind {self.router_kind!r}")
            if self.router_delay is None:
                object.__setattr__(self, "router_delay", ROUTER_DELAY_DEFAULTS[self.router_kind])
            if self.failure_model is None:
                object.__setattr__(self, "failure_model", FailureModel())
            up_router_ps(self, (), 0)
        elif self.router_delay is not None:
            raise ValueError(f"{name}: router_delay only applies to routers")
        elif self.clock is None:
            raise ValueError(f"{name}: {self.kind} needs a clock")
        elif self.kind == "time_server" and self.clock.effective_gamma != 0.0:
            raise ValueError(f"{name}: time_server clocks must be drift-bounded (gamma = 0)")

    @property
    def is_router(self) -> bool:
        return self.kind == "router"


@dataclass(frozen=True)
class LinkSpec:
    """Undirected link with symmetric bandwidth/distance/medium between two
    distinct nodes; a 0-bit message crosses it in finite picoseconds."""

    a: str
    b: str
    bandwidth_bps: float
    distance_m: float
    medium: str = "fiber"

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"link {self.a}--{self.b}: self-loops are not allowed")
        link_terms_ps(self, 0)

    def endpoints(self) -> frozenset[str]:
        return frozenset((self.a, self.b))

    def other(self, node_id: str) -> str:
        return self.b if node_id == self.a else self.a


def link_terms_ps(link: LinkSpec, size_bits: int,
                  medium_speeds: Mapping[str, float] | None = None) -> tuple[int, int]:
    """(transmission, propagation) picoseconds of one traversal of `link` by
    a message of size_bits: size over bandwidth, and distance over the speed
    of the link's medium (from `medium_speeds` when it names the medium,
    else the default), each quantized once.  Raises ValueError for an unknown
    medium, a size or distance < 0, a bandwidth that is not > 0, a speed
    `is_medium_speed` rejects, and a term that is not finite picoseconds."""
    speed = (medium_speeds or {}).get(link.medium, DEFAULT_MEDIUM_SPEEDS.get(link.medium))
    problem = (f"unknown medium {link.medium!r}" if link.medium not in DEFAULT_MEDIUM_SPEEDS
               else f"message size must be >= 0 bits, got {size_bits}" if not size_bits >= 0
               else "bandwidth must be > 0" if not link.bandwidth_bps > 0
               else "distance must be >= 0" if not link.distance_m >= 0
               else f"{link.medium} speed must be > 0" if not is_medium_speed(speed) else None)
    if problem:
        raise ValueError(f"link {link.a}--{link.b}: {problem}")
    try:
        return (seconds_to_ps(size_bits / link.bandwidth_bps),
                seconds_to_ps(link.distance_m / speed))
    except (OverflowError, ValueError):  # beyond the float range, or NaN from inf / inf
        raise ValueError(f"link {link.a}--{link.b}: delay of a {size_bits}-bit message is "
                         f"not a finite number of picoseconds") from None


def is_medium_speed(speed) -> bool:
    """Whether `speed` (m/s) is an int or a float, not a bool, finite and > 0."""
    return type(speed) in (int, float) and 0 < speed <= sys.float_info.max


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
