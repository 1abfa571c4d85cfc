"""Elementary and complete homogeneous symmetric functions by DP.

elementary_all(xs) gives e_0 .. e_len(xs) of xs, the sums of products over
t-subsets, and homogeneous_series(xs) gives h_0, h_1, ... without end, the
sums over size-t multisets, resumable one degree at a time.  Each entry costs
O(len(xs)) ring operations, which keeps triangle construction polynomial.
The DP only adds and multiplies, starting from the ints 1 and 0, so xs may
mix ints and RingValues, and an entry over ints alone is an int.  A step
by a RingValue is one ring.addmul, which adds the product's terms into a
copy of the sum without building the product first, on whichever path
RingValue products take (see wstirling.ring).  Brute-force enumeration lives in the
tests as an oracle.

StirlingTable's two methods run these DPs on the same products in opposite
orders.  Where a weight has a ratio (see wstirling.stirling), its
recurrence method steps a row up from the nearest stored row, one
elementary_step a row, and a column entry by one ring.addmul from the
column before, so its rows 0..N cost O(N^2) ring operations; elsewhere
each line runs its own DP, and rows 0..N cost O(N^3).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .ring import Coercible, addmul


def elementary_all(xs: Sequence[Coercible]) -> list:
    """All of e_0 .. e_len(xs) in one pass."""
    e = [1] + [0] * len(xs)
    for r, x in enumerate(xs):
        elementary_step(e, x, r + 1)
    return e


def elementary_step(e: list, x, top: int) -> None:
    """Take x into the state e of the e-DP in place: e_t += x e_(t-1) for
    t = top, ..., 1, descending so that e_(t-1) is still the old value.
    addmul saves work where x is a RingValue; an int x takes the operators,
    which spares integer lines a call a step."""
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
    h = [1] * len(xs)
    while True:
        yield homogeneous_step(xs, h)


def homogeneous_step(xs: Sequence, h: list):
    """Raise the state h of the h-DP by one degree in place; return its total."""
    total = 0
    for i, x in enumerate(xs):
        total = h[i] = total + x * h[i] if isinstance(x, int) else addmul(total, x, h[i])
    return total
