"""Weighted Stirling-type numbers of both kinds.

For a weight pair V = (v, w) and integer offsets alpha, beta, the first-kind
value at (n, k) is the elementary symmetric function e_{n-k} of the n
products v(alpha+n-1)w(beta), v(alpha+n-2)w(beta+1), ..., v(alpha)w(beta+n-1);
the second-kind value is the homogeneous function h_{n-k} of the k+1 products
v(alpha+k)w(beta), ..., v(alpha)w(beta+k).  Negative n or k, and k > n, give
0; n = 0 gives the Kronecker delta.

Both kinds live in a StirlingTable, the one owner of computed values.  The
triangular recurrences are single steps of the symmetric-function DPs, so
both of its methods run symfunc's two DPs on the weight products of a line
(a first-kind row, a second-kind column), on the values as they are, and
differ only in the order of the products and in nesting.  Every value is an
int or a RingValue (see wstirling.ring): a line of integer weight products,
as for classical, legendre, merris, sun and b-stirling, builds int entries
on either method.  Method "definition" runs elementary_all or
homogeneous_series over the line, and method "recurrence" runs them over
the reversed line, the order in which the triangular recurrence meets its
products, or steps the line from earlier lines where lines nest (below).
RingValue products pick their own arithmetic: two values with 256 or more
term pairs, dense on lines of one step, multiply as big ints (q-stirling);
the rest shift the larger factor's keys once a term of the smaller, a
one-term factor once (pq-binomial, q-binomial, zeta).  A DP step adds either
kind of product into a copy of its sum.  So definition against recurrence checks the nested
steps and the DPs' sums in two orders; the vertical and horizontal
recurrences below and wstirling.genfunc check the DPs.  Where a weight has
a ratio g (WeightSpec.ratio: 1 for a constant, the base of a monomial), a
line's products are g times the line before's and one more, so a
recurrence table steps each line from its own earlier lines, as the
paper's recurrence does: rows 0..N cost O(N^2) ring operations for every
catalog pair but b-stirling, and O(N^3) there and on definition tables.
The CLI's table builds on the recurrence, and the definition tables below
stay the cross-check.  StirlingTable.row hands out RingValues.

`table` holds the shared tables of both methods in one small bounded cache,
keyed by WeightPair.offsets: an entry depends on alpha and beta only through
the products v(alpha+i)w(beta+j), so a constant w is looked up at beta = 0
and a constant v at alpha = 0, and a table so shared holds the entries a
table at the given offsets would.  first_kind and second_kind read
definition tables from it, the triangular identity recurrence tables; the
CLI's table builds its own.  Next to them sit the
vertical and horizontal recurrences (the horizontal ones consume row n+1,
so they are evaluators used for cross checking, not for building tables),
which take the entry as (pair, alpha, beta, n, k) just as first_kind does,
and the falling-factorial-style bracket polynomial, a RingValue in x.
The b-Stirling oracles that cross-check it live in wstirling.genfunc.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .ring import Coercible, RingValue, X, addmul
from .symfunc import elementary_all, elementary_step, homogeneous_series
from .weights import WeightPair, builtin

KINDS = ("first", "second")


class StirlingTable:
    """Triangle at fixed weights, kind, and offsets, owning every value it built.

    First-kind entries are built a row at a time, second-kind entries a
    column at a time, each on first use, and only the lines asked for are
    stored.  method "definition" evaluates the symmetric functions,
    "recurrence" the triangular recurrence; the two must agree, which the
    verification suites exploit.  Each definition line runs its own DP, and
    a column extends by one DP step per row, so rows 0..N cost O(N^3) ring
    operations.  A recurrence table where w or v has a ratio g steps each
    line from its earlier lines, whose products times g are all but one of
    its own: row n from the nearest row stored below it, one e-DP step a
    row, and column k from column k - 1 when that reaches as deep, one ring
    operation an entry, so rows 0..N cost O(N^2).  g = 1, a constant
    weight, needs no scaling.  Its other lines start from scratch, as every
    recurrence line does where neither weight has a ratio.  Weight values
    are evaluated before anything is stored, a row is stored only once
    whole, a column grows by whole entries, and a column DP that raises is
    dropped, so a query that fails raises again when repeated.
    """

    __slots__ = ("weights", "kind", "alpha", "beta", "method", "_ratio", "_along_w", "_powers",
                 "_lines", "_steps")

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
        # where a weight has a ratio g, the products of row n + 1 and of column
        # k + 1 are g times those of row n and of column k, and one more; w's
        # ratio is taken where both have one, so a constant w steps by g = 1
        ratio = weights.w.ratio()
        self._along_w = ratio is not None
        if not self._along_w:
            ratio = weights.v.ratio()
        self._ratio = ratio if method == "recurrence" else None
        # g^0, g^1, ... as far as a step has needed them; None where g is 1
        self._powers = None if self._ratio in (None, 1) else [1]
        self._lines: dict = {}  # first kind: n -> row n; second kind: k -> column k from row k
        self._steps: dict = {}  # second kind: k -> the DP that extends column k by a row

    def value(self, n: int, k: int) -> Coercible:
        if n < 0 or k < 0 or k > n:
            return 0
        if n == 0:
            return 1
        if self.kind == "first":
            return (self._lines.get(n) or self._row(n))[k]
        column = self._lines.get(k)
        return (column if column and len(column) > n - k else self._column(k, n - k))[n - k]

    def row(self, n: int) -> list:
        """Row n as RingValues."""
        return [RingValue.coerce(self.value(n, k)) for k in range(n + 1)]

    def _products(self, top: int) -> list:
        """v(alpha+top-t)w(beta+t), t = 0..top, the products of first-kind row
        top + 1 and second-kind column top; the recurrence takes them
        reversed, in the order the triangular recurrence meets them."""
        v, w = self.weights.v, self.weights.w
        products = [v.eval(self.alpha + top - t) * w.eval(self.beta + t) for t in range(top + 1)]
        return products[::-1] if self.method == "recurrence" else products

    def _added(self, i: int) -> Coercible:
        """Where lines nest, the product first-kind row i + 1 and second-kind
        column i add to g times the products of the line before:
        v(alpha+i)w(beta) along w's ratio, v(alpha)w(beta+i) along v's."""
        v, w = self.weights.v, self.weights.w
        if self._along_w:
            return v.eval(self.alpha + i) * w.eval(self.beta)
        return v.eval(self.alpha) * w.eval(self.beta + i)

    def _scaled(self, value: Coercible, j: int) -> Coercible:
        """g^j * value: e_j and h_j of g times the products are g^j times those
        of the products."""
        powers = self._powers
        if powers is None:
            return value
        while len(powers) <= j:
            powers.append(powers[-1] * self._ratio)
        return powers[j] * value

    def _row(self, n: int) -> list:
        """Row n.  Where lines nest, the recurrence walks the e-DP up from the
        nearest row stored below n, whose entries reversed are the DP's state
        there, and a step from row i scales e_j by g^j and takes in
        _added(i), which is C(i+1, k) = g^(i+1-k) C(i, k-1) +
        _added(i) g^(i-k) C(i, k); else row n's own DP runs on its products."""
        if self._ratio is None:
            row = elementary_all(self._products(n - 1))[::-1]
        else:
            start = max((r for r in self._lines if r < n), default=0)
            e = self._lines[start][::-1] if start else [1]
            for i in range(start, n):
                if self._powers:
                    e = [self._scaled(c, j) for j, c in enumerate(e)]
                e.append(0)
                elementary_step(e, self._added(i), i + 1)
            row = e[::-1]
        self._lines[n] = row
        return row

    def _column(self, k: int, d: int) -> list:
        """Column k, extended as far as row k + d.  Where lines nest and k is 0
        or column k - 1 reaches as deep, each entry is one step of the
        recurrence H(d) = g^d S(k-1+d, k-1) + y H(d-1), y = _added(k), for
        H(d) = S(k+d, k); else column k's own DP runs on its products."""
        before = self._lines.get(k - 1)
        if self._ratio is not None and (not k or before and len(before) > d):
            y = self._added(k)
            self._steps.pop(k, None)
            column = self._lines.setdefault(k, [1])
            while len(column) <= d:
                low = self._scaled(before[len(column)], len(column)) if k else 0
                column.append(low + y * column[-1] if isinstance(y, int)
                              else addmul(low, y, column[-1]))
            return column
        steps = self._steps.get(k)
        if steps is None:  # a new column, or one whose column k - 1 fell short
            steps = self._steps[k] = homogeneous_series(self._products(k))
            self._lines[k] = []
        column = self._lines[k]
        try:
            while len(column) <= d:
                column.append(next(steps))
        except BaseException:  # a generator that raised is finished
            del self._steps[k], self._lines[k]
            raise
        return column


# keyed by the offsets the weights read: verify --suite all --nmax 6 builds
# 927 tables of both methods, so 1024 holds them all and evicts none
@lru_cache(maxsize=1024)
def _table(pair: WeightPair, kind: str, alpha: int, beta: int, method: str) -> StirlingTable:
    return StirlingTable(pair, kind, alpha, beta, method)


def table(pair: WeightPair, kind: str, alpha: int, beta: int,
          method: str = "definition") -> StirlingTable:
    """The table of pair, kind and method at (alpha, beta), shared by every
    offset pair that reads the same weight values."""
    alpha, beta = pair.offsets(alpha, beta)  # unpacked here: a starred call is slower
    return _table(pair, kind, alpha, beta, method)


def first_kind(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> Coercible:
    """First-kind value by definition, from the shared table."""
    return table(pair, "first", alpha, beta, "definition").value(n, k)


def second_kind(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> Coercible:
    """Second-kind value by definition, from the shared table."""
    return table(pair, "second", alpha, beta, "definition").value(n, k)


# -- vertical recurrences: compute entry (n+1, k+1) from row slice j=k..n ------

def c_vertical(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> Coercible:
    """First-kind entry at (n+1, k+1) summed from entries at j = k..n."""
    if n < 0:
        raise ValueError("vertical recurrence needs n >= 0")
    return sum(
        prod(pair.v.eval(alpha + n - t) * pair.w.eval(beta + t) for t in range(n - j))
        * first_kind(pair, alpha, beta + n - j + 1, j, k)
        for j in range(k, n + 1))


def s_vertical(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> Coercible:
    """Second-kind entry at (n+1, k+1) summed from entries at j = k..n."""
    if n < 0:
        raise ValueError("vertical recurrence needs n >= 0")
    top = pair.v.eval(alpha + k + 1) * pair.w.eval(beta)
    return sum(
        top ** (n - j) * second_kind(pair, alpha, beta + 1, j, k)
        for j in range(k, n + 1))


# -- horizontal recurrences: evaluate (n, k) from definitional row n+1 ---------

def c_horizontal(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> Coercible:
    """First-kind entry at (n, k) as an alternating sum over row n+1."""
    return _c_horizontal_sum(pair, alpha, beta - 1, n, k, n)


def c_horizontal_alpha(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> Coercible:
    """Variant of c_horizontal that shifts alpha instead of beta."""
    return _c_horizontal_sum(pair, alpha - 1, beta, n, k, 0)


def _c_horizontal_sum(pair: WeightPair, alpha: int, beta: int, n: int, k: int, i: int):
    # row n + 1 at the shifted offsets, whose line gained the product v(alpha+i)w(beta+n-i)
    top = pair.v.eval(alpha + i) * pair.w.eval(beta + n - i)
    return sum((-top) ** (j - k) * first_kind(pair, alpha, beta, n + 1, j + 1)
               for j in range(k, n + 1))


def s_horizontal(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> Coercible:
    """Second-kind entry at (n, k) as an alternating sum over row n+1."""
    return sum(
        (-1) ** j
        * prod(pair.v.eval(alpha + k + t) * pair.w.eval(beta - t) for t in range(1, j + 1))
        * second_kind(pair, alpha, beta - j - 1, n + 1, k + j + 1)
        for j in range(n - k + 1))


# -- bracket polynomial ---------------------------------------------------------

def bracket(n: int, alpha: int, beta: int, weights: WeightPair) -> Coercible:
    """Monic x-polynomial of degree n with roots v(alpha+t)w(beta-t), t = 0..n-1."""
    if n < 0:
        raise ValueError("bracket degree must be nonnegative")
    return prod(X - weights.v.eval(alpha + t) * weights.w.eval(beta - t) for t in range(n))


# -- named families -------------------------------------------------------------

def pq_binomial(n: int, k: int) -> Coercible:
    """Two-variable binomial analogue: h_{n-k} of p^k, p^{k-1}q, ..., q^k."""
    return second_kind(builtin("pq-binomial"), 0, 0, n, k)
