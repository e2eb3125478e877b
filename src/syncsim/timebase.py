"""Integer-picosecond time base.

Simulated wall-clock time is carried everywhere as an integer count of
picoseconds, so event ordering, delay sums and trace bytes are exact and
platform independent.  Floating point appears only at the edges: small
quantities (delays, clock offsets) are computed in double precision seconds
and quantized once, rounding half to even.
"""

PS_PER_SECOND = 10**12
PS_PER_NS = 10**3


def require_ps(t, name: str) -> None:
    """Raise TypeError unless t is exactly an int: a float is not an exact
    count, and a bool, although an int subclass, would trace as true/false."""
    if type(t) is not int:
        raise TypeError(f"{name} must be an integer count of picoseconds, got {t!r}")


def seconds_to_ps(seconds: float) -> int:
    """Quantize a duration or offset in seconds to integer picoseconds."""
    return round(seconds * PS_PER_SECOND)


def ps_to_seconds(ps: int) -> float:
    return ps / PS_PER_SECOND


def ps_to_ns(ps: int) -> float:
    return ps / PS_PER_NS


def half_ps(ps: int) -> int:
    """Half of a picosecond count, rounding halves to even: an odd count's
    half is q + 1/2 with q = ps // 2, and it rounds up exactly when q is odd."""
    q, r = divmod(ps, 2)
    return q + (r & q)
