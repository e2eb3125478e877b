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

Offsets are exact at any horizon: at t_ps, the drift (alpha0*10^12 +
beta*t_ps + gamma*t_ps^2/10^12, or a user_defined table interpolated
exactly), the noise (a unit normal draw times noise_sigma*10^12) and the
jitter (a unit draw times jitter_bound_ns*1000) are summed at each float's
exact value and rounded once to picoseconds, half to even.  A clock puts
each piece of its drift, with its noise sigma and jitter bound, over one
integer denominator D when it is built: a polynomial model is one piece,
a user_defined table one per segment, so D grows with a segment's values
and not with the table's length.  A normal draw is an integer over 2^k
and the jitter's unit draw its top 53 bits over 2^53, so a reading's sum
is an integer over D * 2^k (k the larger exponent): its drift numerator
shifted by k plus the noise numerator, with one division to round it.
A slew's part in progress is exact too: the rate's exact value times the
elapsed picoseconds, rounded once.

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
from fractions import Fraction

from . import randstream
from .timebase import PS_PER_NS, PS_PER_SECOND, require_finite, require_ps, round_ratio

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


def _drift_pieces(params: ClockParameters) -> tuple[list[int], list[tuple[int, ...]]]:
    """The drift in picoseconds at t_ps, piece by piece, as (edges, pieces):
    the piece at t_ps is pieces[bisect_right(edges, t_ps)], and a piece
    (a, b, g, sigma, jitter, d) is the exact drift (a + b*t_ps + g*t_ps^2) / d,
    with the noise sigma and the jitter bound in picoseconds, sigma / d and
    jitter / d, over the same d.  A linear or quadratic model is one piece,
    with no edges.  A user_defined table is flat before its first point and
    after its last, and linear between each two points; each edge is the
    first picosecond at or after a point, and neighbouring pieces agree at
    their point, so the piece taken there does not matter."""
    scales = (Fraction(params.noise_sigma) * PS_PER_SECOND,
              Fraction(params.jitter_bound_ns) * PS_PER_NS)
    if params.model_kind != "user_defined":
        return [], [_over_one_denominator(Fraction(params.alpha0) * PS_PER_SECOND,
                                          Fraction(params.beta),
                                          Fraction(params.effective_gamma) / PS_PER_SECOND,
                                          *scales)]
    points = [(Fraction(t) * PS_PER_SECOND, Fraction(v) * PS_PER_SECOND)
              for t, v in params.offset_table]
    pieces = [(points[0][1], 0, 0)]
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        slope = (v1 - v0) / (t1 - t0)
        pieces.append((v0 - slope * t0, slope, 0))
    pieces.append((points[-1][1], 0, 0))
    return [math.ceil(t) for t, _ in points], [_over_one_denominator(*p, *scales) for p in pieces]


def _over_one_denominator(*ratios) -> tuple[int, ...]:
    """Exact ratios (Fractions or ints) as integer numerators over their
    least common denominator, which comes last."""
    denominator = math.lcm(*(ratio.denominator for ratio in ratios))
    return (*(ratio.numerator * (denominator // ratio.denominator) for ratio in ratios),
            denominator)


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


def _applied_ps(correction: tuple[int, int, tuple[int, int] | None], t_ps: int) -> int:
    """The part of one (start_ps, delta_ps, rate) correction in effect at t,
    rate the slew rate's exact (numerator, denominator) or None for a step.
    It never moves away from delta_ps as t grows: a step is all of it from
    its start on, and a slew's part, the rate times the elapsed picoseconds
    rounded once, only grows until it is all of it."""
    start_ps, delta_ps, rate = correction
    if rate is None:
        return delta_ps if t_ps >= start_ps else 0
    if t_ps <= start_ps:
        return 0
    applied = min(abs(delta_ps), round_ratio(rate[0] * (t_ps - start_ps), rate[1]))
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
    `_folded_from` to t when it folds any; with none live it adds
    `_folded_ps` alone.  A reading before `_folded_from`, such as a
    Berkeley round's residuals at its last delivery, sums `_corrections`.
    """

    def __init__(self, clock_id: str, params: ClockParameters, seed: int = 0):
        self.params = params
        # the drift's pieces, each with the noise's and jitter's scales in
        # picoseconds, as integer numerators over one denominator
        self._edges, self._pieces = _drift_pieces(params)
        # the prefix states of this clock's two keyed streams, hashed once
        self._noise_stream = randstream.stream(seed, "clock_noise", clock_id)
        self._jitter_stream = randstream.stream(seed, "clock_jitter", clock_id)
        # (start_ps, delta_ps, rate) triples, rate the slew rate's exact
        # (numerator, denominator) or None for an instant step
        self._corrections: list[tuple[int, int, tuple[int, int] | None]] = []
        # every correction in `_corrections` but those of `_live` is wholly in
        # effect at each t >= `_folded_from`, and they sum to `_folded_ps`
        self._folded_from = 0
        self._folded_ps = 0
        self._live: list[tuple[int, int, tuple[int, int] | None]] = []
        # (t_ps, drift + noise in ps) of the last instant offset_ps computed
        self._last: tuple[int | None, int] = (None, 0)

    # -- noise ------------------------------------------------------------

    def _piece(self, t_ps: int) -> tuple[int, ...]:
        """The drift piece (a, b, g, sigma, jitter, d) in effect at t_ps."""
        return self._pieces[bisect_right(self._edges, t_ps)] if self._edges else self._pieces[0]

    def noise_at_ps(self, t_ps: int) -> tuple[int, int]:
        """Per-reading random term in picoseconds, exact, as (numerator,
        D * 2^k), D the denominator of the drift piece at t_ps: the unit
        normal draw of (seed, "clock_noise", clock_id, t_ps), a float whose
        exact value is an integer over 2^k, times noise_sigma, plus the top
        53 bits of the draw of (seed, "clock_jitter", clock_id, t_ps), an
        integer over 2^53, times jitter_bound_ns; k is the larger exponent
        of the terms drawn, 0 when none is.  A term whose scale is 0 draws
        nothing."""
        piece = self._piece(t_ps)
        numerator, shift = self._noise(piece, t_ps)
        return numerator, piece[-1] << shift

    def _noise(self, piece: tuple[int, ...], t_ps: int) -> tuple[int, int]:
        """`noise_at_ps` at t_ps over the drift piece in effect there, as
        (numerator, k): the term is numerator / (d * 2^k)."""
        _, _, _, sigma, jitter, _ = piece
        numerator = shift = 0
        if sigma:
            normal, normal_den = randstream.draw_gaussian(
                self._noise_stream, t_ps).as_integer_ratio()
            numerator, shift = normal * sigma, normal_den.bit_length() - 1
        if jitter:
            jitter *= randstream.draw(self._jitter_stream, t_ps) >> 11
            if shift < 53:
                numerator, shift = (numerator << 53 - shift) + jitter, 53
            else:
                numerator += jitter << shift - 53
        return numerator, shift

    # -- corrections ------------------------------------------------------

    def correction_at_ps(self, t_ps: int) -> int:
        """Correction actually in effect at t, honoring in-progress slews."""
        if t_ps < self._folded_from:
            return sum(_applied_ps(correction, t_ps) for correction in self._corrections)
        if not self._live:
            return self._folded_ps
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
        self._take((at_ps, delta_ps, rate.as_integer_ratio()))

    def _take(self, correction: tuple[int, int, tuple[int, int] | None]) -> None:
        self._corrections.append(correction)
        self._live.append(correction)

    # -- readings ---------------------------------------------------------

    def offset_ps(self, t_ps: int) -> int:
        """alpha(t) = C(t) - t in integer picoseconds: drift plus noise at t,
        summed exactly over the noise's denominator and rounded once, plus
        the correction in effect."""
        last_ps, free_ps = self._last
        if last_ps != t_ps:
            piece = self._piece(t_ps)
            a, b, g, _, _, denominator = piece
            noise, shift = self._noise(piece, t_ps)
            free_ps = round_ratio(((a + (b + g * t_ps) * t_ps) << shift) + noise,
                                  denominator << shift)
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
