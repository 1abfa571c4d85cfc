"""Triangular-matrix layer: orthogonality, inversion, convolution, LU.

Matrices here are small dense square grids of exact ring values, read
entry by entry through first_kind/second_kind(pair, alpha, beta, n, k), the
signature the stirling recurrence steps share.  The two inverse pairs
differ in which offset re-anchors with the indices: the "beta" pair slides
the w-offset (row n uses beta-n+1, column k uses beta-k), the "alpha" pair
slides the v-offset the same way.  One entry rule per pair serves both the
matrices and the inverse relations; the forward "beta" leg sends x^k to
stirling.bracket(k, ...), a RingValue in x.  A version with both offsets
held fixed is NOT an inverse pair for general weights; constant weights hide
that because the sliding offset lands in a weight that never changes.
Determinants run fraction-free (Bareiss) with exact division; the tests
compare them with a cofactor expansion.

The functions return the values they compute and wstirling.identities compares
them.
"""

from __future__ import annotations

from math import comb

from .ring import ONE, P, Q, RingValue, ZERO, product, ring_sum
from .stirling import KINDS, first_kind, pq_binomial, second_kind
from .weights import WeightPair, WeightSpec, builtin

PAIR_KINDS = ("beta", "alpha")


def _sign(d: int) -> int:
    # (-1) ** d returns a float for negative d, so take the parity directly
    return -1 if d % 2 else 1


def _check(kind: str, *sizes: int) -> None:
    """The argument check of the Hankel, LU and convolution functions."""
    if kind not in KINDS:
        raise ValueError(f"kind must be first or second, got {kind!r}")
    if min(sizes) < 0:
        raise ValueError(f"sizes must be nonnegative, got {sizes}")


class RingMatrix:
    """Immutable square matrix of RingValue entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        grid = tuple(tuple(RingValue.coerce(e) for e in row) for row in rows)
        if not grid or any(len(row) != len(grid) for row in grid):
            raise ValueError("matrix must be square and at least 1x1")
        self.rows = grid

    @classmethod
    def from_function(cls, dim: int, entry) -> "RingMatrix":
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        return cls(tuple(tuple(entry(i, j) for j in range(dim)) for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = self.dim
        return RingMatrix(
            tuple(tuple(ring_sum(self.rows[i][t] * other.rows[t][j] for t in range(n))
                        for j in range(n)) for i in range(n)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def render(self) -> str:
        cells = [[e.render() for e in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.dim)) for j in range(self.dim)]
        return "\n".join(
            "[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]"
            for row in cells)

    def __repr__(self) -> str:
        return f"RingMatrix({self.dim}x{self.dim})"


def identity_matrix(dim: int) -> RingMatrix:
    return RingMatrix.from_function(dim, lambda i, j: ONE if i == j else ZERO)


# -- determinants ----------------------------------------------------------------

def determinant(matrix: RingMatrix) -> RingValue:
    """Bareiss elimination; every division is exact over an integral domain,
    so an InexactDivision here is a bug and is raised, not worked around.

    Most divisors are one-term pivots (all 650 of a 13 x 13 pq-binomial,
    zeta or q-binomial Hankel matrix), which exact_div takes in one pass.
    """
    n = matrix.dim
    m = [list(row) for row in matrix.rows]
    sign = 1
    prev = ONE
    for col in range(n - 1):
        pivot_row = next((i for i in range(col, n) if not m[i][col].is_zero()), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * m[col][col] - m[i][col] * m[col][j]).exact_div(prev)
            m[i][col] = ZERO
        prev = m[col][col]
    return m[n - 1][n - 1] * sign



# -- orthogonality ----------------------------------------------------------------

def _orthogonal_sum(pair, alpha, beta, n, m, gamma=0):
    return ring_sum(
        _sign(n - k)
        * first_kind(pair, alpha, beta + m + 1, n + gamma, k + gamma)
        * second_kind(pair, alpha, beta + n, k + gamma, m + gamma)
        for k in range(m, n + 1))


def _orthogonal_sum_reversed(pair, alpha, beta, n, m):
    # the w-offset must slide with the summation index; holding it fixed
    # breaks the sum as soon as w actually varies (try V=(p^i,q^i), n=1, m=0)
    return ring_sum(
        second_kind(pair, alpha, beta - k, n, k)
        * _sign(k - m) * first_kind(pair, alpha, beta - k + 1, k, m)
        for k in range(m, n + 1))


# relation name -> index shift gamma of its sum.  A shifted sum is a claim only
# for m + gamma >= 0: below index 0 the diagonal delta itself fails.
ORTHOGONALITY_RELATIONS = {"signed-c-dot-S": 0, "S-dot-signed-c": 0,
                           "signed-c-dot-S@shift-1": -1, "signed-c-dot-S@shift+1": 1,
                           "signed-c-dot-S@shift+2": 2}


def orthogonality_sum(relation: str, n: int, m: int, alpha: int, beta: int,
                      weights: WeightPair) -> RingValue:
    """One sum of ORTHOGONALITY_RELATIONS at (n, m); it equals the Kronecker
    delta of n and m.  Raises NegativeQInteger or UndefinedIndex where the
    weights are undefined."""
    if relation not in ORTHOGONALITY_RELATIONS:
        raise ValueError(f"unknown orthogonality relation {relation!r}")
    if relation == "S-dot-signed-c":
        return _orthogonal_sum_reversed(weights, alpha, beta, n, m)
    return _orthogonal_sum(weights, alpha, beta, n, m, ORTHOGONALITY_RELATIONS[relation])


def pq_binomial_delta_sum(n: int, m: int) -> RingValue:
    """The signed pq-binomial orthogonality sum at (n, m), which is the Kronecker
    delta: sum over k of (-1)^(k-m) p^C(k-m,2) q^C(n-k,2) [n k] [k m].  Stated
    with binomial-power prefactors, not as a weight specialization."""
    return ring_sum(
        _sign(k - m) * P ** comb(k - m, 2) * Q ** comb(n - k, 2)
        * pq_binomial(n, k) * pq_binomial(k, m)
        for k in range(m, n + 1))


# -- inverse pairs and relations ---------------------------------------------------

def _pair_entries(kind: str, alpha: int, beta: int, weights: WeightPair):
    """Entry rules (n, k) -> value of the signed first-kind and the
    second-kind matrix of one inverse pair."""
    if kind == "beta":
        return (lambda n, k: _sign(n - k) * first_kind(weights, alpha, beta - n + 1, n, k),
                lambda n, k: second_kind(weights, alpha, beta - k, n, k))
    return (lambda n, k: _sign(n - k) * first_kind(weights, alpha - n + 1, beta, n, k),
            lambda n, k: second_kind(weights, alpha - k, beta, n, k))


def inverse_pair(kind: str, r: int, alpha: int, beta: int, weights: WeightPair):
    """The signed first-kind and the second-kind matrix of an inverse pair,
    which are two-sided inverses.

    "beta" slides the w-offset with the indices (row n of the first-kind
    matrix re-anchors at beta-n+1, column k of the second-kind matrix at
    beta-k); "alpha" slides the v-offset the same way.
    """
    if kind not in PAIR_KINDS:
        raise ValueError(f"kind must be one of {PAIR_KINDS}, got {kind!r}")
    if r < 0:
        raise ValueError("dimension parameter r must be nonnegative")
    first, second = _pair_entries(kind, alpha, beta, weights)
    return RingMatrix.from_function(r + 1, first), RingMatrix.from_function(r + 1, second)


DIRECTIONS = ("beta-forward", "beta-backward", "alpha-forward", "alpha-backward",
              "transposed-forward", "transposed-backward")


def inverse_relation_apply(direction: str, sequence, r: int, alpha: int, beta: int,
                           weights: WeightPair) -> list:
    """Apply one leg of an inverse relation to a length r+1 sequence.

    forward legs produce the a-sequence from b through the signed first-kind
    matrix, backward legs recover b from a through the second-kind matrix;
    composing the two legs of the same family is the identity.  The
    transposed legs use the transposed matrices of the "beta" pair.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    seq = [RingValue.coerce(x) for x in sequence]
    if len(seq) != r + 1:
        raise ValueError(f"sequence must have length r+1 = {r + 1}, got {len(seq)}")
    family, leg = direction.split("-")
    first, second = _pair_entries("beta" if family == "transposed" else family,
                                  alpha, beta, weights)
    entry = first if leg == "forward" else second
    if family == "transposed":
        return [ring_sum(entry(k, n) * seq[k] for k in range(n, r + 1)) for n in range(r + 1)]
    return [ring_sum(entry(n, k) * seq[k] for k in range(n + 1)) for n in range(r + 1)]


# -- convolutions -------------------------------------------------------------------

def convolution_sum(kind: str, m1: int, m2: int, n: int, alpha: int, beta: int,
                    weights: WeightPair) -> RingValue:
    """The convolution sum, which is the entry (m1+m2, n) at (alpha, beta).

    The paper states a sum for each split r + s = n, over the k outside which
    one factor vanishes by index range.  Term k of split (r, s) is term k + s
    of the row split (n, 0), over the same window, so every split is this sum.
    """
    _check(kind, m1, m2, n)
    window = range(max(n - m1, 0), min(n, m2) + 1)
    if kind == "first":
        return ring_sum(first_kind(weights, alpha + m2, beta, m1, n - k)
                        * first_kind(weights, alpha, beta + m1, m2, k) for k in window)
    return ring_sum(second_kind(weights, alpha + k, beta, m1, n - k)
                    * second_kind(weights, alpha, beta + n - k, m2, k) for k in window)


# -- LU factorization and determinants ----------------------------------------------

def hankel_matrix(kind: str, r: int, s: int, alpha: int, beta: int,
                  weights: WeightPair) -> RingMatrix:
    """The (r+1)-square matrix with entries at (s+i+j, s+j) and sliding offsets."""
    _check(kind, r, s)
    if kind == "first":
        return RingMatrix.from_function(
            r + 1,
            lambda i, j: first_kind(weights, alpha - i, beta - j, s + i + j, s + j))
    return RingMatrix.from_function(
        r + 1,
        lambda i, j: second_kind(weights, alpha, beta - j, s + i + j, s + j))


def lu_factors(kind: str, r: int, s: int, alpha: int, beta: int, weights: WeightPair):
    """The triangular factors (L, U) of hankel_matrix(kind, r, s, alpha, beta, weights)."""
    _check(kind, r, s)
    if kind == "first":
        lower = RingMatrix.from_function(
            r + 1, lambda i, k: first_kind(weights, alpha - i, beta, s + i, s + k))
        upper = RingMatrix.from_function(
            r + 1, lambda k, j: first_kind(weights, alpha + s, beta - j, j, j - k))
    else:
        lower = RingMatrix.from_function(
            r + 1, lambda i, k: second_kind(weights, alpha, beta - k, s + i, s + k))
        upper = RingMatrix.from_function(
            r + 1, lambda k, j: second_kind(weights, alpha + s + k, beta - j, j, j - k))
    return lower, upper


def det_formula(kind: str, r: int, s: int, alpha: int, beta: int,
                weights: WeightPair) -> RingValue:
    """Closed-form product for the determinant of hankel_matrix."""
    _check(kind, r, s)
    if kind == "first":
        return product(
            weights.v.eval(alpha + s + k - 1 - t) * weights.w.eval(beta - k + t)
            for k in range(r + 1) for t in range(k))
    return product(
        (weights.v.eval(alpha + s + k) * weights.w.eval(beta - k)) ** k
        for k in range(r + 1))


def scaled_q_hankel_matrix(r: int, s: int) -> RingMatrix:
    """The (r+1)-square second-kind q-Stirling matrix with entries at
    (s+i+j, s+j), column j scaled by q^C(s+j, 2)."""
    _check("second", r, s)
    pair = builtin("q-stirling")
    return RingMatrix.from_function(
        r + 1,
        lambda i, j: Q ** comb(s + j, 2) * second_kind(pair, 0, 0, s + i + j, s + j))


def scaled_q_det_formula(r: int, s: int) -> RingValue:
    """Closed form of the determinant of scaled_q_hankel_matrix."""
    _check("second", r, s)
    qint = WeightSpec("q-integer")
    return Q ** (comb(s + r + 1, 3) - comb(s, 3)) \
        * product(qint.eval(s + t) ** t for t in range(r + 1))
