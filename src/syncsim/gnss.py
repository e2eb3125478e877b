"""GNSS time-transfer uncertainty presets.

Each constellation is modeled as a half-open jitter interval [0, bound)
in nanoseconds; a reference clock disciplined by that constellation adds a
uniform draw from the interval to every reading.  One-way transfer bounds:
GPS and Galileo 30 ns, BeiDou 50 ns, GLONASS 40 ns.
"""

from dataclasses import dataclass

from . import randstream
from .clocks import CLOCK_PRESETS


@dataclass(frozen=True)
class GnssPreset:
    name: str
    jitter_bound_ns: float

    def __post_init__(self):
        if self.jitter_bound_ns < 0:
            raise ValueError("jitter bound must be >= 0")


# the bounds are those of the same-named clock presets
GNSS_PRESETS: dict[str, GnssPreset] = {
    name: GnssPreset(name, CLOCK_PRESETS[name].jitter_bound_ns)
    for name in ("gps", "beidou", "galileo", "glonass")
}


def gnss_preset(name: str) -> GnssPreset:
    try:
        return GNSS_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown GNSS preset: {name!r}") from None


def sample_gnss_jitter(preset: GnssPreset, seed: int, *key) -> float:
    """One per-reading time-transfer jitter draw in nanoseconds.

    Uniform over [0, bound); deterministic for a given (seed, key).
    A zero bound always returns exactly 0.
    """
    if preset.jitter_bound_ns == 0.0:
        return 0.0
    u = randstream.uniform(seed, "gnss_jitter", preset.name, *key)
    return u * preset.jitter_bound_ns
