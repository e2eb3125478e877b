"""Drifting software clocks.

A software clock reads C(t) = t + offset(t) where the offset combines a
drift polynomial (initial offset alpha0, frequency offset beta, frequency
drift gamma), optional per-reading noise/jitter, and accumulated
synchronization corrections.  The quadratic drift term gives the offset a
single extremum at t = -beta / (2*gamma), which `extremum_analysis` reports.

Model kinds:
  linear       offset = alpha0 + beta*t            (gamma forced to 0)
  quadratic    offset = alpha0 + beta*t + gamma*t^2
  user_defined offset from a piecewise-linear (time, offset) table,
               interpolated between points and held flat outside them

A correction, once wholly in effect, stays so at every later instant, so a
clock folds the corrections that are complete into one sum as it is read.
A reading at or after the instant of its latest fold costs the corrections
still live, a step not yet reached or a slew still in progress, however
many rounds the clock has taken; a reading at an earlier instant sums
every correction taken.  Both are exact int sums, so folding moves no
reading.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

from . import randstream
from .timebase import ps_to_seconds, require_finite, require_ps, seconds_to_ps

MODEL_KINDS = ("linear", "quadratic", "user_defined")


@dataclass(frozen=True)
class ClockParameters:
    """Drift model for one software clock.

    alpha0 is the initial offset in seconds, beta the frequency offset in
    seconds of drift per second, gamma the frequency drift rate in 1/s.
    noise_sigma is the standard deviation of the per-reading Gaussian noise;
    jitter_bound_ns adds a uniform [0, bound) per-reading jitter used for
    GNSS-disciplined reference clocks.
    """

    alpha0: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    noise_sigma: float = 0.0
    model_kind: str = "quadratic"
    offset_table: tuple[tuple[float, float], ...] = ()
    jitter_bound_ns: float = 0.0

    def __post_init__(self):
        require_finite(self, "alpha0", "beta", "gamma", "noise_sigma", "jitter_bound_ns")
        for point in self.offset_table:
            if not all(map(math.isfinite, point)):
                raise ValueError(f"offset_table points must be finite, got {point!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown clock model kind: {self.model_kind!r}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.jitter_bound_ns < 0:
            raise ValueError("jitter_bound_ns must be >= 0")
        if self.model_kind == "user_defined":
            if not self.offset_table:
                raise ValueError("user_defined model requires an offset_table")
            times = [t for t, _ in self.offset_table]
            if times != sorted(times) or len(set(times)) != len(times):
                raise ValueError("offset_table times must be strictly increasing")

    @property
    def effective_gamma(self) -> float:
        """gamma as used in evaluation: exactly 0 unless the model is quadratic."""
        return self.gamma if self.model_kind == "quadratic" else 0.0

    def drift_offset(self, t: float) -> float:
        """Deterministic drift part of the offset at wall time t (seconds)."""
        if self.model_kind == "user_defined":
            return _interpolate(self.offset_table, t)
        offset = self.alpha0 + self.beta * t
        if self.model_kind == "quadratic":
            offset += self.gamma * t * t
        return offset


def _interpolate(table: tuple[tuple[float, float], ...], t: float) -> float:
    times = [p[0] for p in table]
    if t <= times[0]:
        return table[0][1]
    if t >= times[-1]:
        return table[-1][1]
    i = bisect_right(times, t)
    t0, v0 = table[i - 1]
    t1, v1 = table[i]
    rise = (v1 - v0) * (t - t0)
    if math.isfinite(rise):
        return v0 + rise / (t1 - t0)
    # the product can overflow where the offset itself is finite: divide first
    return v0 + (v1 - v0) * ((t - t0) / (t1 - t0))


@dataclass(frozen=True)
class ExtremumReport:
    """Where, if anywhere, the drift offset has its local extremum."""

    has_extremum: bool
    t_star: float | None
    classification: str  # local_maximum | local_minimum | none
    concavity: float     # second derivative of the offset, 2*gamma


def extremum_analysis(params: ClockParameters) -> ExtremumReport:
    """Second-derivative analysis of the drift polynomial.

    With gamma != 0 the offset alpha(t) has a stationary point at
    t* = -beta / (2*gamma): a local maximum when gamma < 0, a local minimum
    when gamma > 0.  t* is reported even when negative; domain relevance is
    the caller's concern.  Linear and user-defined models report none.
    """
    gamma = params.effective_gamma
    if gamma == 0.0:
        return ExtremumReport(False, None, "none", 0.0)
    t_star = -params.beta / (2.0 * gamma)
    kind = "local_maximum" if gamma < 0 else "local_minimum"
    return ExtremumReport(True, t_star, kind, 2.0 * gamma)


def _applied_ps(correction: tuple[int, int, float | None], t_ps: int) -> int:
    """The part of one (start_ps, delta_ps, rate) correction in effect at t.
    It never moves away from delta_ps as t grows: a step is all of it from
    its start on, and a slew's part only grows until it is all of it."""
    start_ps, delta_ps, rate = correction
    if rate is None:
        return delta_ps if t_ps >= start_ps else 0
    if t_ps <= start_ps:
        return 0
    slewed = rate * (t_ps - start_ps)  # min(|delta|, round(slewed)); never rounds inf
    applied = abs(delta_ps) if slewed >= abs(delta_ps) else round(slewed)
    return applied if delta_ps >= 0 else -applied


class SoftwareClock:
    """A drifting clock owned by one node.

    Readings are pure functions of (params, seed, clock_id, query time,
    corrections applied so far); noise is drawn from a keyed stream, so the
    same query always returns the same value.  Corrections accumulate in
    integer picoseconds and change only via apply_step/apply_slew.  Noise
    is drawn once per instant (see the engine module).

    Every correction stays in `_corrections`.  A reading at t at or after
    `_folded_from` adds the live ones' parts to `_folded_ps`, so it visits
    only the live corrections, and folds those complete at t, raising
    `_folded_from` to t when it folds any; a reading before `_folded_from`,
    such as a Berkeley round's residuals at its last delivery, sums
    `_corrections`.
    """

    def __init__(self, clock_id: str, params: ClockParameters, seed: int = 0):
        self.params = params
        # the prefix states of this clock's two keyed streams, hashed once
        self._noise_stream = randstream.stream(seed, "clock_noise", clock_id)
        self._jitter_stream = randstream.stream(seed, "clock_jitter", clock_id)
        # (start_ps, delta_ps, rate) triples; rate None means instant step
        self._corrections: list[tuple[int, int, float | None]] = []
        # every correction in `_corrections` but those of `_live` is wholly in
        # effect at each t >= `_folded_from`, and they sum to `_folded_ps`
        self._folded_from = 0
        self._folded_ps = 0
        self._live: list[tuple[int, int, float | None]] = []
        # (t_ps, drift + noise in ps) of the last instant offset_ps computed
        self._last: tuple[int | None, int] = (None, 0)

    # -- noise ------------------------------------------------------------

    def noise_at_ps(self, t_ps: int) -> float:
        """Per-reading random term in seconds, keyed by the quantized time: a
        normal draw of (seed, "clock_noise", clock_id, t_ps) with deviation
        noise_sigma, plus jitter_bound_ns * 1e-9 times the uniform draw of
        (seed, "clock_jitter", clock_id, t_ps)."""
        params = self.params
        noise = randstream.draw_gaussian(self._noise_stream, params.noise_sigma, t_ps)
        if params.jitter_bound_ns > 0.0:
            jitter = randstream.unit(randstream.draw(self._jitter_stream, t_ps))
            noise += jitter * params.jitter_bound_ns * 1e-9
        return noise

    # -- corrections ------------------------------------------------------

    def correction_at_ps(self, t_ps: int) -> int:
        """Correction actually in effect at t, honoring in-progress slews."""
        if t_ps < self._folded_from:
            return sum(_applied_ps(correction, t_ps) for correction in self._corrections)
        folded_ps, pending_ps, live = self._folded_ps, 0, []
        for correction in self._live:
            applied_ps = _applied_ps(correction, t_ps)
            if applied_ps == correction[1]:
                folded_ps += applied_ps
            else:
                pending_ps += applied_ps
                live.append(correction)
        if len(live) < len(self._live):
            self._folded_ps, self._folded_from, self._live = folded_ps, t_ps, live
        return folded_ps + pending_ps

    def apply_step(self, delta_ps: int, at_ps: int = 0) -> None:
        require_ps(delta_ps, "correction delta")
        require_ps(at_ps, "correction time")
        self._take((at_ps, delta_ps, None))

    def apply_slew(self, delta_ps: int, rate: float, at_ps: int = 0) -> None:
        """Schedule a gradual correction at `rate` seconds per simulated second."""
        require_ps(delta_ps, "correction delta")
        require_ps(at_ps, "correction time")
        if not 0 < rate < math.inf:
            raise ValueError(f"slew rate must be finite and > 0, got {rate!r}")
        self._take((at_ps, delta_ps, rate))

    def _take(self, correction: tuple[int, int, float | None]) -> None:
        self._corrections.append(correction)
        self._live.append(correction)

    # -- readings ---------------------------------------------------------

    def offset_ps(self, t_ps: int) -> int:
        """alpha(t) = C(t) - t in integer picoseconds."""
        last_ps, free_ps = self._last
        if last_ps != t_ps:
            drift = self.params.drift_offset(ps_to_seconds(t_ps))
            free_ps = seconds_to_ps(drift + self.noise_at_ps(t_ps))
            self._last = (t_ps, free_ps)
        return free_ps + self.correction_at_ps(t_ps)

    def reading_ps(self, t_ps: int) -> int:
        """C(t) in integer picoseconds."""
        return t_ps + self.offset_ps(t_ps)


# Named presets addressable from scenario files.  GNSS presets are
# drift-free clocks whose readings carry a uniform jitter in [0, bound),
# the constellation's one-way time-transfer bound: GPS and Galileo 30 ns,
# BeiDou 50 ns, GLONASS 40 ns.
CLOCK_PRESETS: dict[str, ClockParameters] = {
    "perfect": ClockParameters(model_kind="linear"),
    "cesium": ClockParameters(beta=1e-6, gamma=0.0, model_kind="linear"),
    "quartz": ClockParameters(beta=10e-6, gamma=-1e-10, model_kind="quadratic"),
    "gps": ClockParameters(model_kind="linear", jitter_bound_ns=30.0),
    "beidou": ClockParameters(model_kind="linear", jitter_bound_ns=50.0),
    "galileo": ClockParameters(model_kind="linear", jitter_bound_ns=30.0),
    "glonass": ClockParameters(model_kind="linear", jitter_bound_ns=40.0),
}


def preset_parameters(name: str) -> ClockParameters:
    """Look up a preset by name."""
    try:
        return CLOCK_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown clock preset: {name!r}") from None
