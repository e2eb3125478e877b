import math
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from syncsim.clocks import (CLOCK_PRESETS, ClockParameters, SoftwareClock,
                            extremum_analysis, preset_parameters)
from syncsim.timebase import seconds_to_ps

QUARTZ = ClockParameters(beta=10e-6, gamma=-1e-10)


def make_clock(params, seed=0, clock_id="n1"):
    return SoftwareClock(clock_id, params, seed)


# -- readings ---------------------------------------------------------------

def test_identity_clock_reads_wall_time():
    clock = make_clock(ClockParameters(model_kind="linear"))
    assert clock.reading_ps(42_000_000_000_000) == 42_000_000_000_000


def test_quadratic_drift_reading():
    # drift at t=5e4: 1e-5*5e4 - 1e-10*(5e4)^2 = 0.5 - 0.25
    clock = make_clock(QUARTZ)
    assert clock.reading_ps(seconds_to_ps(5e4)) == 50_000_250_000_000_000


def test_cesium_preset_linear_drift():
    # 1e6 seconds at 1 us/s drift: exactly 1000001 s
    clock = make_clock(preset_parameters("cesium"))
    assert clock.reading_ps(seconds_to_ps(1e6)) == 1_000_001_000_000_000_000
    assert preset_parameters("cesium").effective_gamma == 0.0


def test_linear_model_ignores_gamma():
    params = ClockParameters(beta=1e-6, gamma=5.0, model_kind="linear")
    clock = make_clock(params)
    assert clock.offset_ps(seconds_to_ps(1000.0)) == 1_000_000_000


# -- offsets ----------------------------------------------------------------

def test_offset_of_perfect_clock_is_zero():
    clock = make_clock(ClockParameters(model_kind="linear"))
    for t in (0.0, 1.0, 123.456, 9e5):
        assert clock.offset_ps(seconds_to_ps(t)) == 0


def test_offset_of_quartz_at_extremum():
    clock = make_clock(QUARTZ)
    assert clock.offset_ps(seconds_to_ps(5e4)) == 250_000_000_000


def test_quadratic_offset_vanishes_at_double_extremum():
    # beta*t cancels gamma*t^2 at t = -beta/gamma = 1e5
    clock = make_clock(QUARTZ)
    assert clock.offset_ps(seconds_to_ps(1e5)) == 0


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_offset_plus_time_is_reading(t):
    clock = make_clock(QUARTZ)
    t_ps = seconds_to_ps(t)
    assert t_ps + clock.offset_ps(t_ps) == clock.reading_ps(t_ps)


@given(st.floats(min_value=0.0, max_value=1e6))
def test_reading_is_pure(t):
    clock = make_clock(ClockParameters(beta=2e-6, gamma=1e-11, noise_sigma=1e-8))
    t_ps = seconds_to_ps(t)
    assert clock.reading_ps(t_ps) == clock.reading_ps(t_ps)


def test_identical_clocks_agree():
    a = make_clock(ClockParameters(noise_sigma=1e-6), seed=99, clock_id="x")
    b = make_clock(ClockParameters(noise_sigma=1e-6), seed=99, clock_id="x")
    times_ps = [seconds_to_ps(t) for t in (0.0, 1.5, 2.75)]
    assert all(a.reading_ps(t_ps) == b.reading_ps(t_ps) for t_ps in times_ps)
    c = make_clock(ClockParameters(noise_sigma=1e-6), seed=99, clock_id="y")
    assert a.reading_ps(times_ps[1]) != c.reading_ps(times_ps[1])


# -- derivative and extremum ------------------------------------------------

@given(st.floats(min_value=0.0, max_value=9e5))
def test_drift_finite_difference_matches_rate(t):
    h = 1e-3 * max(1.0, t)
    lo = max(0.0, t - h)
    rate = (QUARTZ.drift_offset(t + h) - QUARTZ.drift_offset(lo)) / (t + h - lo)
    expected = QUARTZ.beta + 2 * QUARTZ.gamma * t
    # abs floor covers float cancellation where the rate crosses zero
    assert rate == pytest.approx(expected, rel=1e-6, abs=1e-12)


@given(st.floats(min_value=1e3, max_value=9e5))
def test_quantized_offset_finite_difference_matches_rate(t):
    # the picosecond-quantized reading path sustains the same derivative
    # once 2h is large enough that +-0.5 ps rounding is below 1e-6 relative
    clock = make_clock(QUARTZ)
    t_ps, h_ps = seconds_to_ps(t), seconds_to_ps(1e-3 * t)
    rate = (clock.offset_ps(t_ps + h_ps) - clock.offset_ps(t_ps - h_ps)) / (2 * h_ps)
    expected = QUARTZ.beta + 2 * QUARTZ.gamma * t
    assert rate == pytest.approx(expected, rel=1e-6, abs=1e-12)


def test_extremum_of_quartz_parameters():
    report = extremum_analysis(QUARTZ)
    assert report.has_extremum
    assert report.t_star == 5e4
    assert report.classification == "local_maximum"
    assert report.concavity == -2e-10


def test_extremum_is_numerically_observable():
    clock = make_clock(QUARTZ)
    peak = clock.offset_ps(seconds_to_ps(5e4))
    for delta in (1.0, 10.0, 100.0):
        assert clock.offset_ps(seconds_to_ps(5e4 - delta)) < peak
        assert clock.offset_ps(seconds_to_ps(5e4 + delta)) < peak


def test_no_extremum_without_drift():
    report = extremum_analysis(ClockParameters(beta=3e-6, gamma=0.0))
    assert not report.has_extremum
    assert report.classification == "none"
    assert report.t_star is None


def test_extremum_sign_flip_gives_negative_minimum():
    report = extremum_analysis(ClockParameters(beta=10e-6, gamma=1e-10))
    assert report.t_star == -5e4
    assert report.classification == "local_minimum"


def test_linear_model_has_no_extremum_even_with_gamma_field():
    report = extremum_analysis(ClockParameters(beta=1e-6, gamma=-1.0,
                                               model_kind="linear"))
    assert not report.has_extremum


# -- noise ------------------------------------------------------------------

def test_zero_sigma_noise_is_exact_zero():
    clock = make_clock(ClockParameters())
    assert clock.noise_at_ps(seconds_to_ps(123.0)) == 0.0


def test_noise_is_deterministic_per_query():
    clock = make_clock(ClockParameters(noise_sigma=1e-9), seed=5)
    t_ps = seconds_to_ps(7.25)
    assert clock.noise_at_ps(t_ps) == clock.noise_at_ps(t_ps)
    assert clock.noise_at_ps(t_ps) != clock.noise_at_ps(seconds_to_ps(7.26))


def test_noise_moments():
    sigma = 1e-9
    clock = make_clock(ClockParameters(noise_sigma=sigma), seed=13)
    samples = [clock.noise_at_ps(seconds_to_ps(i * 0.001)) for i in range(100_000)]
    assert abs(statistics.fmean(samples)) < 3 * sigma / math.sqrt(len(samples))
    assert abs(statistics.stdev(samples) - sigma) < 0.05 * sigma


# -- corrections ------------------------------------------------------------

def test_step_correction_shifts_readings():
    clock = make_clock(ClockParameters(model_kind="linear"))
    before = clock.reading_ps(seconds_to_ps(10.0))
    clock.apply_step(seconds_to_ps(-2.0))
    assert clock.reading_ps(seconds_to_ps(10.0)) == before - seconds_to_ps(2.0)


def test_zero_correction_is_identity():
    clock = make_clock(QUARTZ)
    before = clock.reading_ps(seconds_to_ps(10.0))
    clock.apply_step(0)
    assert clock.reading_ps(seconds_to_ps(10.0)) == before


@pytest.mark.parametrize("correct", [
    lambda clock: clock.apply_step(1.5),
    lambda clock: clock.apply_step(5, 0.5),
    lambda clock: clock.apply_step(True),
    lambda clock: clock.apply_slew(1.5, 1e-2),
    lambda clock: clock.apply_slew(5, 1e-2, 0.5),
    lambda clock: clock.apply_slew(5, 1e-2, True),
], ids=["step_delta", "step_time", "step_bool", "slew_delta", "slew_time", "slew_bool"])
def test_corrections_are_integer_picoseconds(correct):
    clock = make_clock(ClockParameters(model_kind="linear"))
    with pytest.raises(TypeError):
        correct(clock)
    assert clock.correction_at_ps(10) == 0
    assert clock.reading_ps(10) == 10


def test_slew_applies_linearly():
    clock = make_clock(ClockParameters(model_kind="linear"))
    clock.apply_slew(seconds_to_ps(-2.0), 1e-2, at_ps=0)
    # delta/rate = 200 s to complete
    assert clock.correction_at_ps(seconds_to_ps(100.0)) == seconds_to_ps(-1.0)
    assert clock.correction_at_ps(seconds_to_ps(200.0)) == seconds_to_ps(-2.0)
    assert clock.correction_at_ps(seconds_to_ps(500.0)) == seconds_to_ps(-2.0)


def test_fast_slew_applies_the_whole_delta():
    # rate times the elapsed picoseconds is beyond the float range a second in
    clock = make_clock(ClockParameters(model_kind="linear"))
    clock.apply_slew(seconds_to_ps(-0.25), 1e300, at_ps=seconds_to_ps(1.0))
    assert clock.correction_at_ps(seconds_to_ps(1.0)) == 0
    assert clock.correction_at_ps(seconds_to_ps(2.0)) == seconds_to_ps(-0.25)


def test_slew_requires_positive_rate():
    # a NaN rate was accepted before, and the next reading raised
    # "cannot convert float NaN to integer"
    clock = make_clock(QUARTZ)
    for rate in (0.0, -1e-2, math.nan, math.inf):
        with pytest.raises(ValueError):
            clock.apply_slew(seconds_to_ps(1.0), rate)
    assert clock.offset_ps(seconds_to_ps(2.0)) == make_clock(QUARTZ).offset_ps(
        seconds_to_ps(2.0))


def test_reads_never_mutate_corrections():
    clock = make_clock(QUARTZ)
    before = clock.reading_ps(seconds_to_ps(5.0))
    assert clock.correction_at_ps(seconds_to_ps(1e6)) == 0
    assert clock.reading_ps(seconds_to_ps(5.0)) == before


# -- user-defined table -----------------------------------------------------

def test_user_table_interpolates_and_extrapolates_flat():
    params = ClockParameters(model_kind="user_defined",
                             offset_table=((0.0, 0.0), (10.0, 1.0)))
    clock = make_clock(params)
    assert clock.offset_ps(seconds_to_ps(5.0)) == 500_000_000_000
    assert clock.offset_ps(seconds_to_ps(100.0)) == 1_000_000_000_000
    assert clock.offset_ps(0) == 0


def test_user_table_between_far_apart_points_stays_finite():
    # (v1 - v0) * (t - t0) overflows here although every point, and the
    # offset between them, is a finite number of picoseconds
    params = ClockParameters(model_kind="user_defined",
                             offset_table=((0.0, -1e296), (1e30, 1e296)))
    offset = params.drift_offset(1e12)
    assert offset == -1e296 + 2e296 * (1e12 / 1e30)
    assert make_clock(params).offset_ps(seconds_to_ps(1e12)) == seconds_to_ps(offset)


@pytest.mark.parametrize("point", [(math.nan, 1.0), (20.0, math.inf)], ids=["time", "offset"])
def test_user_table_point_that_is_not_finite_is_rejected(point):
    # accepted before; the first reading then raised an unnamed ValueError
    with pytest.raises(ValueError, match=r"^offset_table points must be finite, got \("):
        ClockParameters(model_kind="user_defined", offset_table=((0.0, 0.0), point))


def test_user_table_requires_sorted_times():
    with pytest.raises(ValueError):
        ClockParameters(model_kind="user_defined",
                        offset_table=((5.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        ClockParameters(model_kind="user_defined")


# -- presets ----------------------------------------------------------------

def test_preset_catalog():
    assert set(CLOCK_PRESETS) == {"perfect", "cesium", "quartz", "gps",
                                  "beidou", "galileo", "glonass"}
    quartz = preset_parameters("quartz")
    assert quartz.beta == 10e-6 and quartz.gamma == -1e-10
    for name, bound in (("gps", 30.0), ("beidou", 50.0),
                        ("galileo", 30.0), ("glonass", 40.0)):
        preset = preset_parameters(name)
        assert preset.jitter_bound_ns == bound
        assert preset.beta == 0.0 and preset.effective_gamma == 0.0


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_parameters("sundial")


def test_gnss_clock_jitter_bounded():
    # jitter is strictly below 30 ns; ps rounding may touch the boundary
    clock = make_clock(preset_parameters("gps"), seed=3)
    for i in range(2000):
        offset_ps = clock.offset_ps(seconds_to_ps(i * 0.5))
        assert 0 <= offset_ps <= 30_000


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ClockParameters(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        ClockParameters(model_kind="cubic")


@pytest.mark.parametrize("field, value", [
    ("alpha0", math.inf), ("beta", math.nan), ("gamma", -math.inf),
    ("noise_sigma", math.nan), ("noise_sigma", math.inf),
    ("jitter_bound_ns", math.inf), ("jitter_bound_ns", math.nan),
])
def test_parameters_that_are_not_finite_are_rejected(field, value):
    # accepted before; the first reading then raised
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value!r}"):
        ClockParameters(**{field: value})
