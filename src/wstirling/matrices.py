"""Triangular-matrix layer: orthogonality, inversion, convolution, LU.

Matrices here are small dense square grids of exact ring values, read
entry by entry through first_kind/second_kind(pair, alpha, beta, n, k), the
signature the stirling recurrence steps share, except the first-kind
Hankel matrix.  Its entry (i, j) is first_kind(alpha-i, beta-j, s+i+j, s+j),
e_i of products v(a)w(b) whose indices sum to a + b = alpha+beta+s-1 in
every entry, so all of them are terms of one sequence x_u =
v(alpha+s-1-u)w(beta+u) and the entry is e_i of x_-j, ..., x_(s+i-1).  Row i
is then one e-DP truncated at degree i, not a table per entry; lu_factors still
reads tables, so the LU identity compares the two.  The two inverse pairs
differ in which offset re-anchors with the indices: the "beta" pair slides
the w-offset (row n uses beta-n+1, column k uses beta-k), the "alpha" pair
slides the v-offset the same way.  One entry rule per pair serves both the
matrices and the inverse relations; the forward "beta" leg sends x^k to
stirling.bracket(k, ...), a RingValue in x.  A version with both offsets
held fixed is NOT an inverse pair for general weights; constant weights hide
that because the sliding offset lands in a weight that never changes.
Determinants run Gaussian elimination while each pivot divides its column,
as it does on every Hankel matrix here, and fraction-free (Bareiss)
elimination after that; the tests compare them with a cofactor expansion.

The functions return the values they compute and wstirling.identities compares
them.
"""

from __future__ import annotations

from math import comb, prod

from .ring import Coercible, InexactDivision, P, Q, checked, exact_div, render
from .stirling import KINDS, first_kind, pq_binomial, second_kind
from .symfunc import elementary_step
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
    """Immutable square matrix of ring values, ints or RingValues."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        grid = tuple(tuple(map(checked, row)) for row in rows)
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
            tuple(tuple(sum(self.rows[i][t] * other.rows[t][j] for t in range(n))
                        for j in range(n)) for i in range(n)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def render(self) -> str:
        cells = [[render(e) for e in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.dim)) for j in range(self.dim)]
        return "\n".join(
            "[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]"
            for row in cells)

    def __repr__(self) -> str:
        return f"RingMatrix({self.dim}x{self.dim})"


def identity_matrix(dim: int) -> RingMatrix:
    return RingMatrix.from_function(dim, lambda i, j: 1 if i == j else 0)


# -- determinants ----------------------------------------------------------------

def determinant(matrix: RingMatrix) -> Coercible:
    """Gaussian elimination while the pivot divides its column, then Bareiss.

    A Gauss step divides each entry below the pivot by it, and subtracts that
    multiplier times the pivot row: one division a row and one product an
    entry, on Schur complements, which are never larger than Bareiss's minors.
    The Hankel matrices here are L.U with L unit lower triangular in the ring,
    so every multiplier exists and no step of theirs leaves this phase.  At
    the first column where a multiplier does not exist, the rest of the matrix
    runs fraction-free (Bareiss) from a previous pivot of 1, and the
    determinant is the product of the Gauss pivots times Bareiss's last
    entry.  Every Bareiss division is exact over an integral domain, so an
    InexactDivision there is a bug and is raised, not worked around.
    """
    n = matrix.dim
    m = [list(row) for row in matrix.rows]
    sign = 1
    scale = 1  # the product of the Gauss pivots
    prev = None  # the last Bareiss pivot, None while the Gauss steps last
    for col in range(n - 1):
        pivot_row = next((i for i in range(col, n) if m[i][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        top = m[col]
        pivot = top[col]
        if prev is None:
            try:
                multipliers = [(row, exact_div(row[col], pivot))
                               for row in m[col + 1:] if row[col]]
            except InexactDivision:
                prev = 1
            else:
                for row, multiplier in multipliers:
                    for j in range(col + 1, n):
                        if top[j]:
                            row[j] = row[j] - multiplier * top[j]
                    row[col] = 0
                scale = scale * pivot
                continue
        for row in m[col + 1:]:
            for j in range(col + 1, n):
                row[j] = exact_div(row[j] * pivot - row[col] * top[j], prev)
            row[col] = 0
        prev = pivot
    return scale * m[n - 1][n - 1] * sign



# -- orthogonality ----------------------------------------------------------------

def _orthogonal_sum(pair, alpha, beta, n, m, gamma=0):
    return sum(
        _sign(n - k)
        * first_kind(pair, alpha, beta + m + 1, n + gamma, k + gamma)
        * second_kind(pair, alpha, beta + n, k + gamma, m + gamma)
        for k in range(m, n + 1))


def _orthogonal_sum_reversed(pair, alpha, beta, n, m):
    # the w-offset must slide with the summation index; holding it fixed
    # breaks the sum as soon as w actually varies (try V=(p^i,q^i), n=1, m=0)
    return sum(
        second_kind(pair, alpha, beta - k, n, k)
        * _sign(k - m) * first_kind(pair, alpha, beta - k + 1, k, m)
        for k in range(m, n + 1))


# relation name -> index shift gamma of its sum.  A shifted sum is a claim only
# for m + gamma >= 0: below index 0 the diagonal delta itself fails.
ORTHOGONALITY_RELATIONS = {"signed-c-dot-S": 0, "S-dot-signed-c": 0,
                           "signed-c-dot-S@shift-1": -1, "signed-c-dot-S@shift+1": 1,
                           "signed-c-dot-S@shift+2": 2}


def orthogonality_sum(relation: str, n: int, m: int, alpha: int, beta: int,
                      weights: WeightPair) -> Coercible:
    """One sum of ORTHOGONALITY_RELATIONS at (n, m); it equals the Kronecker
    delta of n and m.  Raises UndefinedIndex where the weights are undefined."""
    if relation not in ORTHOGONALITY_RELATIONS:
        raise ValueError(f"unknown orthogonality relation {relation!r}")
    if relation == "S-dot-signed-c":
        return _orthogonal_sum_reversed(weights, alpha, beta, n, m)
    return _orthogonal_sum(weights, alpha, beta, n, m, ORTHOGONALITY_RELATIONS[relation])


def pq_binomial_delta_sum(n: int, m: int) -> Coercible:
    """The signed pq-binomial orthogonality sum at (n, m), which is the Kronecker
    delta: sum over k of (-1)^(k-m) p^C(k-m,2) q^C(n-k,2) [n k] [k m].  Stated
    with binomial-power prefactors, not as a weight specialization."""
    return sum(
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
    seq = list(map(checked, sequence))
    if len(seq) != r + 1:
        raise ValueError(f"sequence must have length r+1 = {r + 1}, got {len(seq)}")
    family, leg = direction.split("-")
    first, second = _pair_entries("beta" if family == "transposed" else family,
                                  alpha, beta, weights)
    entry = first if leg == "forward" else second
    if family == "transposed":
        return [sum(entry(k, n) * seq[k] for k in range(n, r + 1)) for n in range(r + 1)]
    return [sum(entry(n, k) * seq[k] for k in range(n + 1)) for n in range(r + 1)]


# -- convolutions -------------------------------------------------------------------

def convolution_sum(kind: str, m1: int, m2: int, n: int, alpha: int, beta: int,
                    weights: WeightPair) -> Coercible:
    """The convolution sum, which is the entry (m1+m2, n) at (alpha, beta).

    The paper states a sum for each split r + s = n, over the k outside which
    one factor vanishes by index range.  Term k of split (r, s) is term k + s
    of the row split (n, 0), over the same window, so every split is this sum.
    """
    _check(kind, m1, m2, n)
    window = range(max(n - m1, 0), min(n, m2) + 1)
    if kind == "first":
        return sum(first_kind(weights, alpha + m2, beta, m1, n - k)
                   * first_kind(weights, alpha, beta + m1, m2, k) for k in window)
    return sum(second_kind(weights, alpha + k, beta, m1, n - k)
               * second_kind(weights, alpha, beta + n - k, m2, k) for k in window)


# -- LU factorization and determinants ----------------------------------------------

def _first_hankel_rows(r: int, s: int, alpha: int, beta: int, weights: WeightPair) -> list:
    """Rows of the first-kind hankel_matrix (see the module docstring): row i
    walks its e-DP down from x_(s+i-1) and reads e_i at u = 0, -1, ..., -r."""
    v, w = weights.v, weights.w
    # the order in which entries (0, 0), (0, 1), ..., (1, 0), ... first need them
    x = {u: v.eval(alpha + s - 1 - u) * w.eval(beta + u)
         for u in (*range(s), *range(-1, -r - 1, -1), *range(s, s + r))}
    rows = [[1] * (r + 1)]
    for i in range(1, r + 1):
        e = [1] + [0] * i
        row = []
        for u in range(s + i - 1, -r - 1, -1):
            elementary_step(e, x[u], min(i, s + i - u))  # e_t is zero past s + i - u products
            if u <= 0:
                row.append(e[i])
        rows.append(row)
    return rows


def hankel_matrix(kind: str, r: int, s: int, alpha: int, beta: int,
                  weights: WeightPair) -> RingMatrix:
    """The (r+1)-square matrix with entries at (s+i+j, s+j) and sliding
    offsets: first_kind(alpha-i, beta-j) or second_kind(alpha, beta-j)."""
    _check(kind, r, s)
    if kind == "first":
        return RingMatrix(_first_hankel_rows(r, s, alpha, beta, weights))
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
                weights: WeightPair) -> Coercible:
    """Closed-form product for the determinant of hankel_matrix."""
    _check(kind, r, s)
    if kind == "first":
        return prod(
            weights.v.eval(alpha + s + k - 1 - t) * weights.w.eval(beta - k + t)
            for k in range(r + 1) for t in range(k))
    return prod(
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


def scaled_q_det_formula(r: int, s: int) -> Coercible:
    """Closed form of the determinant of scaled_q_hankel_matrix."""
    _check("second", r, s)
    qint = WeightSpec("q-integer")
    return Q ** (comb(s + r + 1, 3) - comb(s, 3)) \
        * prod(qint.eval(s + t) ** t for t in range(r + 1))
