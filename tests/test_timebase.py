from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from syncsim.timebase import half_ps, ps_to_seconds, seconds_to_ps


def test_seconds_roundtrip_on_ps_grid():
    assert seconds_to_ps(1.0) == 10**12
    assert seconds_to_ps(50e-6) == 50_000_000
    assert ps_to_seconds(10**12) == 1.0


def test_rounding_half_to_even():
    assert seconds_to_ps(0.5e-12) == 0
    assert seconds_to_ps(1.5e-12) == 2
    assert seconds_to_ps(2.5e-12) == 2


def test_half_ps_even_and_odd():
    assert half_ps(10) == 5
    assert half_ps(-10) == -5
    # odd counts round the .5 to the even neighbor
    assert half_ps(5) == 2     # 2.5 -> 2
    assert half_ps(7) == 4     # 3.5 -> 4
    assert half_ps(-5) == -2   # -2.5 -> -2 (floor is -3, half .5 -> even -2)


@given(st.integers(min_value=-10**15, max_value=10**15))
def test_half_ps_matches_exact_halving_within_half_tick(ps):
    value = half_ps(ps)
    assert abs(value - ps / 2) <= 0.5
    if ps % 2 == 0:
        assert value * 2 == ps


@given(st.integers(min_value=-10**40, max_value=10**40)
       | st.integers(min_value=-10**6, max_value=10**6))
def test_half_ps_is_exact_half_to_even(ps):
    assert half_ps(ps) == round(Fraction(ps, 2))
