"""Integer-picosecond time base.

Simulated wall-clock time is carried everywhere as an integer count of
picoseconds, so event ordering, delay sums and trace bytes are exact and
platform independent at any horizon.  Floating point appears only at the
edges, and each float enters at its exact value: a seconds field is
quantized once (`seconds_to_ps`), and a delay term (link, router, timeout)
or a clock offset is the exact ratio of its inputs rounded once
(`round_ratio`), both half to even.  Every finite input gives a finite
count, since Python ints do not overflow.  Read back as float seconds or
nanoseconds, a count beyond the float range saturates to +-inf.
"""

import math

PS_PER_SECOND = 10**12
PS_PER_NS = 10**3


def require_ps(t, name: str) -> None:
    """Raise TypeError unless t is exactly an int: a float is not an exact
    count, and a bool, although an int subclass, would trace as true/false."""
    if type(t) is not int:
        raise TypeError(f"{name} must be an integer count of picoseconds, got {t!r}")


def require_finite(owner, *names: str) -> None:
    """Raise ValueError naming the first of the named fields of `owner`
    whose value is not a finite number."""
    for name in names:
        value = getattr(owner, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def seconds_to_ps(seconds: float) -> int:
    """Quantize a finite duration or instant in seconds to integer
    picoseconds: its exact value rounded once, half to even."""
    numerator, denominator = seconds.as_integer_ratio()
    return round_ratio(numerator * PS_PER_SECOND, denominator)


def ps_to_seconds(ps: int) -> float:
    return float_ratio(ps, PS_PER_SECOND)


def ps_to_ns(ps: int) -> float:
    return float_ratio(ps, PS_PER_NS)


def float_ratio(numerator: int, denominator: int) -> float:
    """numerator / denominator (denominator > 0) as the nearest float, +-inf
    when it is beyond the float range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def round_ratio(numerator: int, denominator: int) -> int:
    """numerator / denominator (denominator > 0) rounded to the nearest int,
    halves to even: with q, r = divmod, the ratio is q + r / denominator, and
    it rounds up when 2r exceeds the denominator, or equals it and q is odd."""
    q, r = divmod(numerator, denominator)
    twice = 2 * r
    return q + (twice > denominator or twice == denominator and q & 1)
