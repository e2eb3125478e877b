"""The three delay components and their composition along a path.

A message walking a path pays, per hop: transmission delay (size over link
bandwidth), propagation delay (link distance over medium speed), and the
downstream router's processing delay when it enters a router.  Each term is
computed in double precision seconds and quantized once to integer
picoseconds, so the breakdown's total is exactly the sum of its parts and
traces are platform independent.

An inactive router never contributes a numeric infinity: the walk is simply
unroutable and `PathBlocked` names the failed router.
"""

from dataclasses import dataclass

from .netview import NetworkView
from .timebase import ps_to_seconds, seconds_to_ps


class PathBlocked(Exception):
    """A router on the path is inactive, making the path unroutable."""

    def __init__(self, router_id: str):
        super().__init__(f"router {router_id!r} is inactive")
        self.router_id = router_id


@dataclass(frozen=True)
class HopComponent:
    """One quantized delay term: (link or router id, component kind, picoseconds)."""

    entity: str
    component: str  # router | transmission | propagation
    ps: int


@dataclass(frozen=True)
class PathDelayBreakdown:
    """Per-component and total path delay in integer picoseconds."""

    router_ps: int
    transmission_ps: int
    propagation_ps: int
    per_hop: tuple[HopComponent, ...]

    @property
    def total_ps(self) -> int:
        return self.router_ps + self.transmission_ps + self.propagation_ps

    @property
    def total(self) -> float:
        return ps_to_seconds(self.total_ps)


def transmission_delay(size_bits: int, bandwidth_bps: float) -> float:
    """Seconds to push size_bits onto a link of the given bandwidth."""
    if size_bits < 0:
        raise ValueError("message size must be >= 0 bits")
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth must be > 0")
    return size_bits / bandwidth_bps


def propagation_delay(distance_m: float, speed_m_per_s: float) -> float:
    """Seconds for a signal to cover distance_m at the medium speed."""
    if distance_m < 0:
        raise ValueError("distance must be >= 0")
    if speed_m_per_s <= 0:
        raise ValueError("propagation speed must be > 0")
    return distance_m / speed_m_per_s


def _link(view: NetworkView, a: str, b: str):
    for link in view.graph.links_of(a):
        if link.other(a) == b:
            return link
    raise ValueError(f"no link between {a!r} and {b!r}")


def total_path_delay(view: NetworkView, path: list[str], size_bits: int,
                     t: float, message_id: str = "") -> PathDelayBreakdown:
    """Quantized breakdown of all delay components along the path.

    Raises PathBlocked if any router on the path (beyond the source) is
    inactive at t.
    """
    t_ps = seconds_to_ps(t)
    per_hop: list[HopComponent] = []
    router_ps = transmission_ps = propagation_ps = 0
    for a, b in zip(path, path[1:]):
        link = _link(view, a, b)
        link_label = f"{link.a}--{link.b}"
        tx_ps = seconds_to_ps(transmission_delay(size_bits, link.bandwidth_bps))
        pg_ps = seconds_to_ps(propagation_delay(link.distance_m, view.speed_of(link.medium)))
        per_hop.append(HopComponent(link_label, "transmission", tx_ps))
        per_hop.append(HopComponent(link_label, "propagation", pg_ps))
        transmission_ps += tx_ps
        propagation_ps += pg_ps
        downstream = view.node(b)
        if downstream.is_router:
            if not view.router_active(b, t_ps):
                raise PathBlocked(b)
            delay_s, _ = view.router_delay_at(b, t_ps)
            rt_ps = seconds_to_ps(delay_s)
            per_hop.append(HopComponent(b, "router", rt_ps))
            router_ps += rt_ps
    return PathDelayBreakdown(router_ps, transmission_ps, propagation_ps, tuple(per_hop))
