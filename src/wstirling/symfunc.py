"""Elementary and complete homogeneous symmetric functions by DP.

elementary(t, xs) sums products over t-subsets of xs; homogeneous(t, xs)
over size-t multisets.  Both run in O(t * len(xs)) ring operations, which
keeps triangle construction polynomial; homogeneous_series is the same h-DP
resumable one degree at a time.  The DP only adds and multiplies, so xs may
mix ints and RingValues; the ring's operators coerce.  elementary_dp and
homogeneous_step take the DP's unit and zero, so the same code runs on plain
ints: elementary_packed and homogeneous_packed run it on the ints of a
ring.PackedLine and decode each entry.  Brute-force enumeration lives in the
tests as an oracle.  Negative t gives 0 at this layer so callers can pass raw
index differences.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

from .ring import ONE, ZERO, Coercible, PackedLine, RingValue


def elementary(t: int, xs: Sequence[Coercible]) -> RingValue:
    if t < 0 or t > len(xs):
        return ZERO
    return elementary_all(xs)[t]


def elementary_all(xs: Sequence[Coercible]) -> list:
    """All of e_0 .. e_len(xs) in one pass."""
    return elementary_dp(xs, ONE, ZERO)


def elementary_dp(xs: Sequence, one, zero) -> list:
    """elementary_all in the ring whose unit and zero are one and zero."""
    e = [one] + [zero] * len(xs)
    for r, x in enumerate(xs):
        # descending t so e[t-1] is still the previous row's value
        for t in range(r + 1, 0, -1):
            e[t] = e[t] + x * e[t - 1]
    return e


def elementary_packed(line: PackedLine) -> list:
    """elementary_all(line.values), computed on the line's ints."""
    if not line.fits(len(line.ones)):
        return elementary_all(line.values)
    at_one = elementary_dp(line.ones, 1, 0)
    if line.is_integer:
        return [RingValue.from_int(e) for e in at_one]
    line.widen(max(at_one))
    return [line.decode(e, t) for t, e in enumerate(elementary_dp(line.packed, 1, 0))]


def homogeneous(t: int, xs: Sequence[Coercible]) -> RingValue:
    if t < 0:
        return ZERO
    return homogeneous_upto(t, xs)[t]


def homogeneous_upto(t: int, xs: Sequence[Coercible]) -> list:
    """All of h_0 .. h_t; h_0 = 1 even on the empty list."""
    return list(islice(homogeneous_series(xs), max(t, 0) + 1))


def homogeneous_series(xs: Sequence[Coercible], state: list = None) -> Iterator[RingValue]:
    """h_0, h_1, ... of xs without end, one DP step of len(xs) products each.

    The state h[i] holds h_d(xs[0..i]) at the degree d last yielded; stepping
    to d + 1 uses h_{d+1}(xs[0..i]) = h_{d+1}(xs[0..i-1]) + xs[i] h_d(xs[0..i]),
    so a caller can stop at any degree and resume later at no extra cost.
    Given the state of a series stopped at degree d, it yields h_{d+1}, ...
    """
    if state is None:
        state = [ONE] * len(xs)
        yield ONE
    while True:
        yield homogeneous_step(xs, state, ZERO)


def homogeneous_step(xs: Sequence, h: list, zero):
    """Raise the state h of the h-DP by one degree in place; return its total."""
    total = zero
    for i, x in enumerate(xs):
        total = h[i] = total + x * h[i]
    return total


def homogeneous_packed(line: PackedLine) -> Iterator[RingValue]:
    """homogeneous_series(line.values), computed on the line's ints.

    Each step runs first on the values at y = 1, whose total bounds every
    coefficient of the packed step, so the slots widen before a coefficient
    could outgrow them.  At the first degree the line does not fit, the state
    goes back to homogeneous_series on RingValues.
    """
    at_one = [1] * len(line.ones)  # the DP's state at y = 1
    state = at_one if line.is_integer else [1] * len(at_one)
    degree = 0
    yield ONE
    while line.fits(degree + 1):
        bound = homogeneous_step(line.ones, at_one, 0)
        degree += 1
        if line.is_integer:
            yield RingValue.from_int(bound)
            continue
        line.widen(bound, state)
        yield line.decode(homogeneous_step(line.packed, state, 0), degree)
    yield from homogeneous_series(line.values, [line.decode(h, degree) for h in state])
