"""The three delay components and their composition along a path.

A message walking a path pays, per hop: transmission delay (size over link
bandwidth), propagation delay (link distance over medium speed), and the
downstream router's processing delay when it enters a router.  Each term is
computed in double precision seconds and quantized once to integer
picoseconds in `hop_delay_ps`, so a route's weight, its breakdown total and
its last arrival offset are the same sum, and traces are platform
independent.

An inactive router never contributes a numeric infinity: the walk is simply
unroutable and `PathBlocked` names the failed router.
"""

from dataclasses import dataclass

from .netview import NetworkView
from .timebase import seconds_to_ps
from .topology import LinkSpec


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


def hop_delay_ps(view: NetworkView, link: LinkSpec, downstream: str, size_bits: int,
                 t_ps: int) -> tuple[int, int, int] | None:
    """(transmission, propagation, router) picoseconds of the hop over `link`
    into `downstream`, or None when `downstream` is an inactive router.

    The router term is the downstream router's delay at t_ps, and 0 when the
    hop enters a client or time server.  This is the only place a hop is
    costed: route weights and path breakdowns both sum these terms.
    """
    transmission_ps = seconds_to_ps(transmission_delay(size_bits, link.bandwidth_bps))
    propagation_ps = seconds_to_ps(propagation_delay(link.distance_m,
                                                     view.speed_of(link.medium)))
    if not view.node(downstream).is_router:
        return transmission_ps, propagation_ps, 0
    if not view.router_active(downstream, t_ps):
        return None
    return transmission_ps, propagation_ps, seconds_to_ps(view.router_delay_at(downstream, t_ps))


def total_path_delay(view: NetworkView, path: list[str], size_bits: int,
                     t_ps: int, message_id: str = "") -> PathDelayBreakdown:
    """Quantized breakdown of all delay components along the path.

    Raises PathBlocked if any router on the path (beyond the source) is
    inactive at t_ps.  `message_id` is ignored: no delay term depends on the
    message; the parameter stays because the benchmark's layer probe
    (perfbench/layers.py) passes one positionally.
    """
    arrivals_ps: list[int] = []
    router_ps = transmission_ps = propagation_ps = 0
    for a, b in zip(path, path[1:]):
        hop = hop_delay_ps(view, _link(view, a, b), b, size_bits, t_ps)
        if hop is None:
            raise PathBlocked(b)
        transmission_ps += hop[0]
        propagation_ps += hop[1]
        router_ps += hop[2]
        arrivals_ps.append(transmission_ps + propagation_ps + router_ps)
    return PathDelayBreakdown(router_ps, transmission_ps, propagation_ps, tuple(arrivals_ps))
