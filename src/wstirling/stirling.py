"""Weighted Stirling-type numbers of both kinds.

For a weight pair V = (v, w) and integer offsets alpha, beta, the first-kind
value at (n, k) is the elementary symmetric function e_{n-k} of the n
products v(alpha+n-1)w(beta), v(alpha+n-2)w(beta+1), ..., v(alpha)w(beta+n-1);
the second-kind value is the homogeneous function h_{n-k} of the k+1 products
v(alpha+k)w(beta), ..., v(alpha)w(beta+k).  Negative n or k, and k > n, give
0; n = 0 gives the Kronecker delta.

Both kinds live in a StirlingTable, the one owner of computed values.  It
builds them by definition (the symmetric-function DP) or by the triangular
recurrence, walked iteratively, so the two paths cross-check each other.
The definition path hands the weight products of a line (a first-kind
row, a second-kind column) to symfunc, which picks the arithmetic: packed
Python ints for the integer lines of classical, legendre, merris, sun and
b-stirling and the one-variable lines of q-stirling and jacobi at
nonnegative indices, RingValues for the rest.  The recurrence path always
runs on RingValues, whose products pick their arithmetic: a one-term factor
shifts the other's keys (pq-binomial, q-binomial, zeta), two values dense in
one variable with 256 or more term pairs multiply as big ints (q-stirling),
the rest walk term pairs.  The big-int products and the packed lines share
one slot builder, density limit and codec (ring._slot_lists, _pack_slots,
_unpack_slots), so on q-stirling the two paths differ in algorithm alone.
first_kind and second_kind read from a small bounded cache of definition
tables.  Next to them sit the vertical and horizontal recurrences (the
horizontal ones consume row n+1, so they are evaluators used for cross
checking, not for building tables), which take the entry as
(pair, alpha, beta, n, k) just as first_kind does, and the
falling-factorial-style bracket polynomial, returned as a RingValue in x.
The b-Stirling oracles that cross-check it live in wstirling.genfunc.
"""

from __future__ import annotations

from functools import lru_cache

from .ring import ONE, RingValue, X, ZERO, product, ring_sum
from .symfunc import elementary_all, homogeneous_series
from .weights import WeightPair, builtin

KINDS = ("first", "second")


class StirlingTable:
    """Triangle at fixed weights, kind, and offsets, owning every value it built.

    First-kind entries are built a row at a time, second-kind entries a
    column at a time, each on first use; a column extends by one step per
    row, so rows 0..N cost O(N^3) ring operations.  method "definition"
    evaluates the symmetric functions, "recurrence" the triangular
    recurrence; the two must agree, which the verification suites exploit.
    Weight values are evaluated before anything is stored, and a column walk
    that raises is dropped, so a query that fails raises again when repeated.
    """

    __slots__ = ("weights", "kind", "alpha", "beta", "method", "_lines", "_steps")

    def __init__(self, weights: WeightPair, kind: str, alpha: int = 0, beta: int = 0,
                 method: str = "definition"):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if method not in ("definition", "recurrence"):
            raise ValueError(f"unknown method {method!r}")
        self.weights = weights
        self.kind = kind
        self.alpha = alpha
        self.beta = beta
        self.method = method
        self._lines: dict = {}  # first kind: n -> row n; second kind: k -> column k from row k
        self._steps: dict = {}  # second kind: k -> the DP that extends column k by a row

    def value(self, n: int, k: int) -> RingValue:
        if n < 0 or k < 0 or k > n:
            return ZERO
        if n == 0:
            return ONE
        if self.kind == "first":
            return (self._lines.get(n) or self._row(n))[k]
        column = self._lines.get(k)
        return (column if column and len(column) > n - k else self._column(k, n - k))[n - k]

    def row(self, n: int) -> list:
        return [self.value(n, k) for k in range(n + 1)]

    def _products(self, top: int) -> list:
        # v(alpha+top-t)w(beta+t), t = 0..top: first-kind row top+1, second-kind column top
        v, w = self.weights.v, self.weights.w
        return [v.eval(self.alpha + top - t) * w.eval(self.beta + t) for t in range(top + 1)]

    def _row(self, n: int) -> list:
        if self.method == "definition":
            row = elementary_all(self._products(n - 1))[::-1]
        else:
            # c(a,b;m,k) = c(a,b+1;m-1,k-1) + v(a+m-1)w(b) c(a,b+1;m-1,k), walked up
            # from row 0 at beta+n to row n at beta, shifting b down a step per row
            v, w, row = self.weights.v, self.weights.w, [ONE]
            for m in range(1, n + 1):
                top = v.eval(self.alpha + m - 1) * w.eval(self.beta + n - m)
                row = [left + top * right for left, right in zip([ZERO] + row, row + [ZERO])]
        self._lines[n] = row
        return row

    def _column(self, k: int, d: int) -> list:
        """Column k, extended as far as row k + d."""
        steps = self._steps.get(k)
        if steps is None:
            if self.method == "definition":
                steps = homogeneous_series(self._products(k))
            else:
                v, w, a, b = self.weights.v, self.weights.w, self.alpha, self.beta
                steps = _recurrence_column([v.eval(a + j) * w.eval(b + k - j)
                                            for j in range(k + 1)])
            self._steps[k] = steps
            self._lines[k] = []
        column = self._lines[k]
        try:
            while len(column) <= d:
                column.append(next(steps))
        except BaseException:  # a generator that raised is finished
            del self._steps[k], self._lines[k]
            raise
        return column


def _recurrence_column(c: list):
    """s(alpha,beta;k+d,k) for d = 0, 1, ..., where c[j] = v(alpha+j)w(beta+k-j).

    Entry j of the state is s(alpha,beta+k-j;j+d,j), starting on the diagonal
    s(.;j,j) = 1, so the walk visits just the entries the recurrence needs.
    Raising d applies s(a,b;m,j) = s(a,b+1;m-1,j-1) + v(a+j)w(b) s(a,b;m-1,j)
    for ascending j, where s(a,b+1;m-1,j-1) is entry j-1, already raised.
    """
    state = [ONE] * len(c)
    while True:
        yield state[-1]
        lower = ZERO
        for j, cj in enumerate(c):
            lower = state[j] = lower + cj * state[j]


# verify --suite all reuses about 2100 tables across suites; 1024 keeps most of
# that reuse while one suite stays below the memory of the old unbounded memo
@lru_cache(maxsize=1024)
def _table(pair: WeightPair, kind: str, alpha: int, beta: int) -> StirlingTable:
    return StirlingTable(pair, kind, alpha, beta)


def first_kind(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> RingValue:
    """First-kind value by definition, from a shared table."""
    return _table(pair, "first", alpha, beta).value(n, k)


def second_kind(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> RingValue:
    """Second-kind value by definition, from a shared table."""
    return _table(pair, "second", alpha, beta).value(n, k)


# -- vertical recurrences: compute entry (n+1, k+1) from row slice j=k..n ------

def c_vertical(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> RingValue:
    """First-kind entry at (n+1, k+1) summed from entries at j = k..n."""
    if n < 0:
        raise ValueError("vertical recurrence needs n >= 0")
    return ring_sum(
        product(pair.v.eval(alpha + n - t) * pair.w.eval(beta + t) for t in range(n - j))
        * first_kind(pair, alpha, beta + n - j + 1, j, k)
        for j in range(k, n + 1))


def s_vertical(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> RingValue:
    """Second-kind entry at (n+1, k+1) summed from entries at j = k..n."""
    if n < 0:
        raise ValueError("vertical recurrence needs n >= 0")
    top = pair.v.eval(alpha + k + 1) * pair.w.eval(beta)
    return ring_sum(
        top ** (n - j) * second_kind(pair, alpha, beta + 1, j, k)
        for j in range(k, n + 1))


# -- horizontal recurrences: evaluate (n, k) from definitional row n+1 ---------

def c_horizontal(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> RingValue:
    """First-kind entry at (n, k) as an alternating sum over row n+1."""
    top = pair.v.eval(alpha + n) * pair.w.eval(beta - 1)
    return ring_sum(
        (-1) ** (j - k) * top ** (j - k) * first_kind(pair, alpha, beta - 1, n + 1, j + 1)
        for j in range(k, n + 1))


def c_horizontal_alpha(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> RingValue:
    """Variant of c_horizontal that shifts alpha instead of beta."""
    top = pair.v.eval(alpha - 1) * pair.w.eval(beta + n)
    return ring_sum(
        (-1) ** (j - k) * top ** (j - k) * first_kind(pair, alpha - 1, beta, n + 1, j + 1)
        for j in range(k, n + 1))


def s_horizontal(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> RingValue:
    """Second-kind entry at (n, k) as an alternating sum over row n+1."""
    return ring_sum(
        (-1) ** j
        * product(pair.v.eval(alpha + k + t) * pair.w.eval(beta - t) for t in range(1, j + 1))
        * second_kind(pair, alpha, beta - j - 1, n + 1, k + j + 1)
        for j in range(n - k + 1))


# -- bracket polynomial ---------------------------------------------------------

def bracket(n: int, alpha: int, beta: int, weights: WeightPair) -> RingValue:
    """Monic x-polynomial of degree n with roots v(alpha+t)w(beta-t), t = 0..n-1."""
    if n < 0:
        raise ValueError("bracket degree must be nonnegative")
    return product(X - weights.v.eval(alpha + t) * weights.w.eval(beta - t) for t in range(n))


# -- named families -------------------------------------------------------------

def pq_binomial(n: int, k: int) -> RingValue:
    """Two-variable binomial analogue: h_{n-k} of p^k, p^{k-1}q, ..., q^k."""
    return second_kind(builtin("pq-binomial"), 0, 0, n, k)
