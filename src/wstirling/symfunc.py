"""Elementary and complete homogeneous symmetric functions by DP.

elementary(t, xs) sums products over t-subsets of xs; homogeneous(t, xs)
over size-t multisets.  Both run in O(t * len(xs)) ring operations, which
keeps triangle construction polynomial; homogeneous_series is the same h-DP
resumable one degree at a time.  The DP only adds and multiplies, so xs may
mix ints and RingValues; the ring's operators coerce.  Brute-force enumeration
lives in the tests as an oracle.  Negative t gives 0 at this layer so callers
can pass raw index differences.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

from .ring import ONE, ZERO, Coercible, RingValue


def elementary(t: int, xs: Sequence[Coercible]) -> RingValue:
    if t < 0 or t > len(xs):
        return ZERO
    return elementary_all(xs)[t]


def elementary_all(xs: Sequence[Coercible]) -> list:
    """All of e_0 .. e_len(xs) in one pass."""
    e = [ONE] + [ZERO] * len(xs)
    for r, x in enumerate(xs):
        # descending t so e[t-1] is still the previous row's value
        for t in range(r + 1, 0, -1):
            e[t] = e[t] + x * e[t - 1]
    return e


def homogeneous(t: int, xs: Sequence[Coercible]) -> RingValue:
    if t < 0:
        return ZERO
    return homogeneous_upto(t, xs)[t]


def homogeneous_upto(t: int, xs: Sequence[Coercible]) -> list:
    """All of h_0 .. h_t; h_0 = 1 even on the empty list."""
    return list(islice(homogeneous_series(xs), max(t, 0) + 1))


def homogeneous_series(xs: Sequence[Coercible]) -> Iterator[RingValue]:
    """h_0, h_1, ... of xs without end, one DP step of len(xs) products each.

    The state h[i] holds h_d(xs[0..i]) at the degree d last yielded; stepping
    to d + 1 uses h_{d+1}(xs[0..i]) = h_{d+1}(xs[0..i-1]) + xs[i] h_d(xs[0..i]),
    so a caller can stop at any degree and resume later at no extra cost.
    """
    h = [ONE] * len(xs)
    yield ONE
    while True:
        total = ZERO
        for i, x in enumerate(xs):
            total = h[i] = total + x * h[i]
        yield total
