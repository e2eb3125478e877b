import json
import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncsim.clocks import (CLOCK_PRESETS, ClockParameters, SoftwareClock,
                            extremum_analysis, preset_parameters)
from syncsim.engine import Engine
from syncsim.scenario import build_engine, parse_scenario
from syncsim.sync import BerkeleyRound, CristianExchange, SyncOptions
from syncsim.timebase import seconds_to_ps
from syncsim.trace import trace_bytes

from conftest import ROOT
from oracles import correction_sum_ps

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


# -- folded corrections -----------------------------------------------------

CORRECTIONS = st.lists(st.tuples(
    st.integers(0, 10**13),                               # start_ps
    st.just(0) | st.integers(-10**13, 10**13),            # delta_ps
    st.none() | st.floats(min_value=1e-9, max_value=1e12)),  # rate; None steps
    min_size=1, max_size=10)


@settings(max_examples=200, deadline=None)
@given(corrections=CORRECTIONS, data=st.data())
def test_readings_in_any_order_equal_the_reference_sum(corrections, data):
    """After each correction, the clock is read before, at and after every
    start and around the instant each slew completes, in an order drawn
    at random, so readings at earlier instants follow folds."""
    clock = make_clock(ClockParameters(model_kind="linear"))
    taken = []
    for start_ps, delta_ps, rate in corrections:
        if rate is None:
            clock.apply_step(delta_ps, start_ps)
        else:
            clock.apply_slew(delta_ps, rate, start_ps)
        taken.append((start_ps, delta_ps, rate))
        instants = {t for start, delta, rate in taken
                    for done in (0 if rate is None else int(abs(delta) / rate),)
                    for t in (start - 1, start, start + 1, start + done, start + done + 1)}
        instants.update(data.draw(st.lists(st.integers(0, 2 * 10**13), max_size=4)))
        for t_ps in data.draw(st.permutations(sorted(instants))):
            assert clock.correction_at_ps(t_ps) == correction_sum_ps(taken, t_ps), t_ps


def minimal_pair(**changes):
    """The minimal_pair demo with client clock noise, its top-level
    sections replaced by `changes`."""
    data = json.loads((ROOT / "demos" / "scenarios" / "minimal_pair.json").read_text())
    data["clocks"]["drifting"]["noise_sigma_s"] = 1e-7
    return {**data, **changes}


def recorded_corrections(monkeypatch):
    """clock -> the (start_ps, delta_ps, rate) corrections it takes, recorded
    at the public apply_step/apply_slew calls."""
    taken = {}
    apply_step, apply_slew = SoftwareClock.apply_step, SoftwareClock.apply_slew

    def step(clock, delta_ps, at_ps=0):
        apply_step(clock, delta_ps, at_ps)
        taken.setdefault(clock, []).append((at_ps, delta_ps, None))

    def slew(clock, delta_ps, rate, at_ps=0):
        apply_slew(clock, delta_ps, rate, at_ps)
        taken.setdefault(clock, []).append((at_ps, delta_ps, rate))
    monkeypatch.setattr(SoftwareClock, "apply_step", step)
    monkeypatch.setattr(SoftwareClock, "apply_slew", slew)
    return taken


def test_a_reading_after_a_thousand_rounds_visits_few_corrections(monkeypatch):
    # summed all 1,000 corrections on every reading before
    taken = recorded_corrections(monkeypatch)
    scenario = parse_scenario(minimal_pair(
        config={"seed": 1, "duration_s": 1001.0},
        sync_schedule=[{"time_s": float(k), "algorithm": "cristian",
                        "participants": ["c1", "s1"]} for k in range(1, 1001)]))
    engine = build_engine(scenario)
    engine.run_until(scenario.config.duration)
    clock = engine.clocks["c1"]
    assert len(taken[clock]) == 1000
    visited = []

    class VisitedList(list):
        def __iter__(self):
            for item in list.__iter__(self):
                visited.append(item)
                yield item
    for name, value in vars(clock).items():
        if isinstance(value, list):
            setattr(clock, name, VisitedList(value))
    now_ps = engine.now_ps
    assert clock.correction_at_ps(now_ps) == correction_sum_ps(taken[clock], now_ps)
    assert len(visited) <= 2


def long_pair_engine(rounds: int) -> Engine:
    """minimal_pair with a noisy client clock and a 10 ms service time, for
    `rounds` seconds: each second a Cristian round whose client steps or
    slews at one of two rates, a Berkeley round of (s1, c1) that steps or
    slews, and a data message each way, all at seeded random instants, so
    readings of a clock come out of time order."""
    scenario = parse_scenario(minimal_pair(config={"seed": 1, "duration_s": rounds + 2.0}))
    engine = Engine(scenario.graph, scenario.config.seed)
    policies = [SyncOptions(server_service_time=0.01),
                SyncOptions(server_service_time=0.01, correction_policy="slew", slew_rate=0.5),
                SyncOptions(server_service_time=0.01, correction_policy="slew", slew_rate=1e-3)]
    rng = random.Random(5)
    for k in range(1, rounds + 1):
        CristianExchange(engine, ("c1", "s1"), policies[k % 3]).start(
            seconds_to_ps(k + rng.uniform(0.0, 0.05)))
        BerkeleyRound(engine, ("s1", "c1"), policies[k % 2]).start(
            seconds_to_ps(k + rng.uniform(0.0, 0.05)))
        for source, destination in (("c1", "s1"), ("s1", "c1")):
            engine.send_message(source, destination, rng.choice([0, 12000]),
                                seconds_to_ps(k + rng.random()))
    return engine


def test_a_long_run_reads_every_correction_exactly(monkeypatch):
    """1,000 seconds of long_pair_engine, 2,000 rounds: in 120 slices and in
    one call it traces the same bytes, and each reading at an instant
    before one already read on its clock, and every 50th reading, equals
    the reference sum."""
    taken = recorded_corrections(monkeypatch)
    correction_at_ps = SoftwareClock.correction_at_ps
    latest, reads, earlier = {}, [0], [0]

    def checked(clock, t_ps):
        value = correction_at_ps(clock, t_ps)
        reads[0] += 1
        if t_ps < latest.get(clock, t_ps):
            earlier[0] += 1
        elif reads[0] % 50:
            latest[clock] = t_ps
            return value
        assert value == correction_sum_ps(taken.get(clock, ()), t_ps)
        return value
    monkeypatch.setattr(SoftwareClock, "correction_at_ps", checked)

    sliced = long_pair_engine(1000)
    horizon_ps = seconds_to_ps(1002.0)
    for k in range(1, 121):
        sliced.run_until_ps(horizon_ps * k // 120)
    whole = long_pair_engine(1000)
    whole.run_until_ps(horizon_ps)
    assert trace_bytes(sliced.records) == trace_bytes(whole.records)
    steps = [r["phase"] for r in whole.records if r["kind"] == "sync_step"]
    assert steps.count("completed") == 2000
    assert earlier[0] > 0 and len(taken[whole.clocks["c1"]]) == 2000


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
