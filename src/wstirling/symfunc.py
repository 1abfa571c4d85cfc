"""Elementary and complete homogeneous symmetric functions by DP.

elementary_all(xs) gives e_0 .. e_len(xs) of xs, the sums of products over
t-subsets, and homogeneous_series(xs) gives h_0, h_1, ... without end, the
sums over size-t multisets, resumable one degree at a time.  Each entry costs
O(len(xs)) ring operations, which keeps triangle construction polynomial.
The DP only adds and multiplies, starting from the ints 1 and 0, so xs may
mix ints and RingValues, and an entry over ints alone is an int.  A step
by a RingValue is one ring.addmul, which adds the product's terms into the
sum without building the product first.  Brute-force
enumeration lives in the tests as an oracle.

elementary_all and homogeneous_series pick the backend: where
ring.packed_line accepts xs, a line in one variable, they run the DP on its
packed ints and decode each entry into the RingValue the DP on values would
build; elsewhere, a line of integers included, they run it on the values as
they are.
homogeneous_dict_series is the h-DP on the values alone, from degree 0 or
from a state the packed DP hands back; it is homogeneous_series' fallback.
StirlingTable's recurrence method calls it and elementary_step directly, so
that method never packs.  Where a weight has a ratio (see
wstirling.stirling), that method steps a row up from the nearest stored
row, one elementary_step a row, and a column entry by one ring.addmul from
the column before, so its rows 0..N cost O(N^2) ring operations; elsewhere
each line runs its own DP, and rows 0..N cost O(N^3).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .ring import Coercible, PackedLine, RingValue, addmul, packed_line


def elementary_all(xs: Sequence[Coercible]) -> list:
    """All of e_0 .. e_len(xs) in one pass."""
    line = packed_line(xs)
    if line is None or not line.fits(len(xs)):
        return elementary_dp(xs)
    line.widen(max(elementary_dp(line.ones)))
    return [line.decode(e, t) for t, e in enumerate(elementary_dp(line.packed))]


def elementary_dp(xs: Sequence) -> list:
    """elementary_all by the DP on the values as they are."""
    e = [1] + [0] * len(xs)
    for r, x in enumerate(xs):
        elementary_step(e, x, r + 1)
    return e


def elementary_step(e: list, x, top: int) -> None:
    """Take x into the state e of the e-DP in place: e_t += x e_(t-1) for
    t = top, ..., 1, descending so that e_(t-1) is still the old value.
    addmul saves work where x is a RingValue; an int x takes the operators,
    which spares integer and packed lines a call a step."""
    if isinstance(x, int):
        for t in range(top, 0, -1):
            e[t] = e[t] + x * e[t - 1]
    else:
        for t in range(top, 0, -1):
            e[t] = addmul(e[t], x, e[t - 1])


def homogeneous_series(xs: Sequence[Coercible]) -> Iterator[Coercible]:
    """h_0, h_1, ... of xs without end, one DP step of len(xs) products each.

    The state h[i] holds h_d(xs[0..i]) at the degree d last yielded; stepping
    to d + 1 uses h_{d+1}(xs[0..i]) = h_{d+1}(xs[0..i-1]) + xs[i] h_d(xs[0..i]),
    so a caller can stop at any degree and resume later at no extra cost.
    """
    yield 1
    line = packed_line(xs)
    h = [1] * len(xs)
    if line is not None:
        h = yield from _homogeneous_packed(line)
    yield from homogeneous_dict_series(xs, h)


def homogeneous_dict_series(xs: Sequence[Coercible], h: list | None = None) -> Iterator[Coercible]:
    """h_0, h_1, ... of xs without end by the DP on the values alone; given
    the DP's state h at some degree d, h_{d+1}, h_{d+2}, ... instead."""
    if h is None:
        yield 1
        h = [1] * len(xs)
    while True:
        yield homogeneous_step(xs, h)


def homogeneous_step(xs: Sequence, h: list):
    """Raise the state h of the h-DP by one degree in place; return its total."""
    total = 0
    for i, x in enumerate(xs):
        total = h[i] = total + x * h[i] if isinstance(x, int) else addmul(total, x, h[i])
    return total


def _homogeneous_packed(line: PackedLine) -> Iterator[RingValue]:
    """h_1, h_2, ... of the values line packs, as far as the line fits; then
    returns the DP's state, decoded, for homogeneous_series to carry on from.

    Each step runs first on the values at y = 1, whose total bounds every
    coefficient of the packed step, so the slots widen before a coefficient
    could outgrow them.
    """
    at_one = [1] * len(line.ones)  # the DP's state at y = 1
    state = [1] * len(at_one)
    degree = 0
    while line.fits(degree + 1):
        bound = homogeneous_step(line.ones, at_one)
        degree += 1
        line.widen(bound, state)
        yield line.decode(homogeneous_step(line.packed, state), degree)
    return [line.decode(h, degree) for h in state]
