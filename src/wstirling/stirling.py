"""Weighted Stirling-type numbers of both kinds.

For a weight pair V = (v, w) and integer offsets alpha, beta, the first-kind
value at (n, k) is the elementary symmetric function e_{n-k} of the n
products v(alpha+n-1)w(beta), v(alpha+n-2)w(beta+1), ..., v(alpha)w(beta+n-1);
the second-kind value is the homogeneous function h_{n-k} of the k+1 products
v(alpha+k)w(beta), ..., v(alpha)w(beta+k).  Negative n or k, and k > n, give
0; n = 0 gives the Kronecker delta.

Next to the definitional evaluators this module carries the triangular,
vertical, and horizontal recurrences as independent computation paths (the
horizontal ones consume row n+1, so they are evaluators used for cross
checking, not for building tables), the falling-factorial-style bracket
polynomial, and a catalog dispatcher for the named families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ring import ONE, RingValue, ZERO, product, ring_sum
from .symfunc import elementary_all, homogeneous, homogeneous_upto
from .weights import UnknownBuiltin, WeightPair, builtin

KINDS = ("first", "second")

_MEMO: dict = {}


class UnknownFamily(ValueError):
    """special() was asked for a family outside the catalog."""


@dataclass(frozen=True)
class StirlingParams:
    """One triangle entry: which kind, which weights, which indices."""

    alpha: int
    beta: int
    n: int
    k: int
    kind: str
    weights: WeightPair

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


def clear_caches() -> None:
    _MEMO.clear()


# -- definitional path ---------------------------------------------------------

def first_kind(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> RingValue:
    """First-kind value by definition, memoized per weight pair."""
    if n < 0 or k < 0 or k > n:
        return ZERO
    if n == 0:
        return ONE
    key = (pair.id, "crow", alpha, beta, n)
    row = _MEMO.get(key)
    if row is None:
        args = [pair.v.eval(alpha + n - 1 - t) * pair.w.eval(beta + t) for t in range(n)]
        row = _MEMO[key] = elementary_all(args)
    return row[n - k]


def second_kind(pair: WeightPair, alpha: int, beta: int, n: int, k: int) -> RingValue:
    """Second-kind value by definition, memoized per weight pair."""
    if n < 0 or k < 0 or k > n:
        return ZERO
    if n == 0:
        return ONE
    key = (pair.id, "s", alpha, beta, n, k)
    value = _MEMO.get(key)
    if value is None:
        args = [pair.v.eval(alpha + k - j) * pair.w.eval(beta + j) for j in range(k + 1)]
        hs = homogeneous_upto(n - k, args)
        # one DP run yields the whole column above (n, k); keep it all
        for t, h in enumerate(hs):
            _MEMO.setdefault((pair.id, "s", alpha, beta, k + t, k), h)
        value = _MEMO[key]
    return value


def value(params: StirlingParams) -> RingValue:
    fn = first_kind if params.kind == "first" else second_kind
    return fn(params.weights, params.alpha, params.beta, params.n, params.k)


# -- triangular recurrence (independent of the symmetric-function DP) ----------

def _c_tri(pair, alpha, beta, n, k):
    if n < 0 or k < 0 or k > n:
        return ZERO
    if n == 0:
        return ONE
    key = (pair.id, "ctri", alpha, beta, n, k)
    val = _MEMO.get(key)
    if val is None:
        val = _c_tri(pair, alpha, beta + 1, n - 1, k - 1) \
            + pair.v.eval(alpha + n - 1) * pair.w.eval(beta) \
            * _c_tri(pair, alpha, beta + 1, n - 1, k)
        _MEMO[key] = val
    return val


def _s_tri(pair, alpha, beta, n, k):
    if n < 0 or k < 0 or k > n:
        return ZERO
    if n == 0:
        return ONE
    key = (pair.id, "stri", alpha, beta, n, k)
    val = _MEMO.get(key)
    if val is None:
        val = _s_tri(pair, alpha, beta + 1, n - 1, k - 1) \
            + pair.v.eval(alpha + k) * pair.w.eval(beta) \
            * _s_tri(pair, alpha, beta, n - 1, k)
        _MEMO[key] = val
    return val


class StirlingTable:
    """Triangle view at fixed weights, kind, and offsets, with a local memo.

    method "definition" fills entries from the symmetric-function DP,
    "recurrence" from the triangular recurrence; the two must agree, which
    the verification suites exploit.
    """

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
        self.memo: dict = {}

    def value(self, n: int, k: int) -> RingValue:
        got = self.memo.get((n, k))
        if got is None:
            if self.method == "definition":
                fn = first_kind if self.kind == "first" else second_kind
            else:
                fn = _c_tri if self.kind == "first" else _s_tri
            got = self.memo[(n, k)] = fn(self.weights, self.alpha, self.beta, n, k)
        return got

    def row(self, n: int) -> list:
        return [self.value(n, k) for k in range(n + 1)]


def c_tri(table: StirlingTable, n: int, k: int) -> RingValue:
    if table.kind != "first":
        raise ValueError("c_tri needs a first-kind table")
    val = _c_tri(table.weights, table.alpha, table.beta, n, k)
    table.memo[(n, k)] = val
    return val


def s_tri(table: StirlingTable, n: int, k: int) -> RingValue:
    if table.kind != "second":
        raise ValueError("s_tri needs a second-kind table")
    val = _s_tri(table.weights, table.alpha, table.beta, n, k)
    table.memo[(n, k)] = val
    return val


# -- vertical recurrences: compute entry (n+1, k+1) from row slice j=k..n ------

def c_vertical(params: StirlingParams) -> RingValue:
    """First-kind entry at (n+1, k+1) summed from entries at j = k..n."""
    if params.n < 0:
        raise ValueError("vertical recurrence needs n >= 0")
    pair, alpha, beta = params.weights, params.alpha, params.beta
    n, k = params.n, params.k
    return ring_sum(
        product(pair.v.eval(alpha + n - t) * pair.w.eval(beta + t) for t in range(n - j))
        * first_kind(pair, alpha, beta + n - j + 1, j, k)
        for j in range(k, n + 1))


def s_vertical(params: StirlingParams) -> RingValue:
    """Second-kind entry at (n+1, k+1) summed from entries at j = k..n."""
    if params.n < 0:
        raise ValueError("vertical recurrence needs n >= 0")
    pair, alpha, beta = params.weights, params.alpha, params.beta
    n, k = params.n, params.k
    top = pair.v.eval(alpha + k + 1) * pair.w.eval(beta)
    return ring_sum(
        top ** (n - j) * second_kind(pair, alpha, beta + 1, j, k)
        for j in range(k, n + 1))


# -- horizontal recurrences: evaluate (n, k) from definitional row n+1 ---------

def c_horizontal(params: StirlingParams) -> RingValue:
    """First-kind entry at (n, k) as an alternating sum over row n+1."""
    pair, alpha, beta = params.weights, params.alpha, params.beta
    n, k = params.n, params.k
    top = pair.v.eval(alpha + n) * pair.w.eval(beta - 1)
    return ring_sum(
        (-1) ** (j - k) * top ** (j - k) * first_kind(pair, alpha, beta - 1, n + 1, j + 1)
        for j in range(k, n + 1))


def c_horizontal_alpha(params: StirlingParams) -> RingValue:
    """Variant of c_horizontal that shifts alpha instead of beta."""
    pair, alpha, beta = params.weights, params.alpha, params.beta
    n, k = params.n, params.k
    top = pair.v.eval(alpha - 1) * pair.w.eval(beta + n)
    return ring_sum(
        (-1) ** (j - k) * top ** (j - k) * first_kind(pair, alpha - 1, beta, n + 1, j + 1)
        for j in range(k, n + 1))


def s_horizontal(params: StirlingParams) -> RingValue:
    """Second-kind entry at (n, k) as an alternating sum over row n+1."""
    pair, alpha, beta = params.weights, params.alpha, params.beta
    n, k = params.n, params.k
    return ring_sum(
        (-1) ** j
        * product(pair.v.eval(alpha + k + t) * pair.w.eval(beta - t) for t in range(1, j + 1))
        * second_kind(pair, alpha, beta - j - 1, n + 1, k + j + 1)
        for j in range(n - k + 1))


# -- bracket polynomial ---------------------------------------------------------

@dataclass(frozen=True)
class BracketPolynomial:
    """Monic polynomial with roots v(alpha+t)w(beta-t), t = 0..n-1."""

    coefficients: tuple  # low degree first, length n+1

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def as_ring_value(self) -> RingValue:
        from .ring import X
        return ring_sum(c * X ** d for d, c in enumerate(self.coefficients))


def bracket(n: int, alpha: int, beta: int, weights: WeightPair) -> BracketPolynomial:
    if n < 0:
        raise ValueError("bracket degree must be nonnegative")
    from .ring import X
    poly = product(X - weights.v.eval(alpha + t) * weights.w.eval(beta - t) for t in range(n))
    return BracketPolynomial(tuple(poly.coefficient("x", d) for d in range(n + 1)))


# -- named families -------------------------------------------------------------

def special(family: str, n: int, k: int, alpha: int = 0, beta: int = 0) -> RingValue:
    """Catalog dispatch: '<name>', '<name>-first', or '<name>-second'."""
    name, kind = family, "second"
    if family.endswith("-first"):
        name, kind = family[:-len("-first")], "first"
    elif family.endswith("-second"):
        name, kind = family[:-len("-second")], "second"
    try:
        pair = builtin(name)
    except UnknownBuiltin as err:
        raise UnknownFamily(str(err)) from err
    fn = first_kind if kind == "first" else second_kind
    return fn(pair, alpha, beta, n, k)


def pq_binomial(n: int, k: int) -> RingValue:
    """Two-variable binomial analogue: h_{n-k} of p^k, p^{k-1}q, ..., q^k."""
    return second_kind(builtin("pq-binomial"), 0, 0, n, k)


@lru_cache(maxsize=None)
def _t_row_spec(r: int):
    from .weights import WeightSpec
    return WeightSpec("oeis-T", row=r)


def b_stirling_row_by_product(n: int) -> list:
    """Independent first-kind oracle for V=(i,i): expand the row product.

    The factor multiset {(n-1-t)t : 0<=t<n} is exactly row n-3 of the
    tabulated triangle, so the coefficients come from a plain polynomial
    product with no symmetric-function machinery.
    """
    from .ring import X
    spec = _t_row_spec(n - 3)
    poly = product(X + spec.eval(j) for j in range(n))
    return [poly.coefficient("x", d) for d in range(n + 1)]


def b_stirling_by_series(n: int, k: int) -> RingValue:
    """Independent second-kind oracle for V=(i,i): geometric series expansion.

    Expands x^k / prod_j (1 - T_j x) with T_j the row k-2 entries, truncated
    at degree n; the coefficient of x^n is the value.
    """
    if k < 0 or n < k:
        return ZERO
    spec = _t_row_spec(k - 2)
    coeffs = [ONE] + [ZERO] * (n - k)
    for j in range(k + 1):
        t = spec.eval(j)
        # multiply by 1/(1 - t*x): running geometric accumulation
        for d in range(1, n - k + 1):
            coeffs[d] = coeffs[d] + t * coeffs[d - 1]
    return coeffs[n - k]
