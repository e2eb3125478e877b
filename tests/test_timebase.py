import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from syncsim.timebase import ps_to_ns, ps_to_seconds, round_ratio, seconds_to_ps


def test_seconds_roundtrip_on_ps_grid():
    assert seconds_to_ps(1.0) == 10**12
    assert seconds_to_ps(50e-6) == 50_000_000
    assert ps_to_seconds(10**12) == 1.0


def test_rounding_half_to_even():
    assert seconds_to_ps(0.5e-12) == 0
    assert seconds_to_ps(1.5e-12) == 2
    assert seconds_to_ps(2.5e-12) == 2


def test_round_ratio_halves_even_and_odd():
    assert round_ratio(10, 2) == 5
    assert round_ratio(-10, 2) == -5
    # odd counts round the .5 to the even neighbor
    assert round_ratio(5, 2) == 2     # 2.5 -> 2
    assert round_ratio(7, 2) == 4     # 3.5 -> 4
    assert round_ratio(-5, 2) == -2   # -2.5 -> -2 (floor is -3, half .5 -> even -2)


@given(st.integers(min_value=-10**15, max_value=10**15))
def test_round_ratio_matches_exact_halving_within_half_tick(ps):
    value = round_ratio(ps, 2)
    assert abs(value - ps / 2) <= 0.5
    if ps % 2 == 0:
        assert value * 2 == ps


@given(st.integers(min_value=-10**40, max_value=10**40)
       | st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=1, max_value=10**40) | st.integers(min_value=1, max_value=12))
def test_round_ratio_is_exact_half_to_even(numerator, denominator):
    value = round_ratio(numerator, denominator)
    assert type(value) is int
    assert value == round(Fraction(numerator, denominator))


def test_float_read_outs_saturate_beyond_the_float_range():
    # 10^400 ps raised OverflowError in the true division before
    assert ps_to_seconds(10**400) == math.inf and ps_to_ns(10**400) == math.inf
    assert ps_to_seconds(-10**400) == -math.inf and ps_to_ns(-10**400) == -math.inf
    assert ps_to_seconds(10**12) == 1.0 and ps_to_ns(-10**3) == -1.0
