"""Two-row tableaux underlying the weighted Stirling numbers.

A tableau here is a 2 x s array of integers whose top row is nonincreasing
and whose columns all share one sum; the first kind sums weights over
tableaux with distinct top entries, the second kind over plain ones.  The
2 x 0 tableau is allowed and has weight 1.

The enumeration cap, here and in combinat, is decided here alone, from the
count before the first object: T and Td count C(r+s, s) and C(r+1, s),
combinat's families e or h of each mark's colors.  The first lower bound on
the count past `cap` raises EnumerationCapExceeded("more than {cap} {noun}").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb, prod

from .ring import ENUMERATION_CAP, Coercible, EnumerationCapExceeded
from .weights import WeightPair


class IncompatibleTableaux(ValueError):
    """Juxtaposition needs both tableaux to share one column sum."""


class DomainViolation(ValueError):
    """An object was passed to a map whose domain does not contain it."""


@dataclass(frozen=True)
class BTableau:
    """Immutable 2 x s array stored as ((top, bottom), ...) column pairs.

    Only the columns are identity; the ambient (alpha, beta, r) parameters
    are arguments to the validators and enumerators, so tableaux drawn from
    different ambient sets can be compared and juxtaposed directly.
    """

    columns: tuple

    def __post_init__(self):
        cols = tuple((t, b) for t, b in self.columns)
        if any(type(e) is not int for col in cols for e in col):
            raise ValueError(f"tableau entries are integers, got {cols}")
        object.__setattr__(self, "columns", cols)
        sums = {t + b for t, b in cols}
        if len(sums) > 1:
            raise ValueError(f"column sums differ: {sorted(sums)}")
        tops = [t for t, _ in cols]
        if any(a < b for a, b in zip(tops, tops[1:])):
            raise ValueError("top row must be nonincreasing")

    @classmethod
    def from_tops(cls, tops, column_sum: int) -> "BTableau":
        return cls(tuple((t, column_sum - t) for t in tops))

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def column_sum(self):
        """Shared top+bottom sum; None for the empty tableau."""
        if not self.columns:
            return None
        return self.columns[0][0] + self.columns[0][1]

    def tops(self) -> tuple:
        return tuple(t for t, _ in self.columns)

    def bottoms(self) -> tuple:
        return tuple(b for _, b in self.columns)

    def is_member(self, alpha: int, beta: int, r: int, distinct: bool = False) -> bool:
        """Does this tableau satisfy the entry constraints for (alpha, beta, r)?

        The column count is not checked here; callers that care about a
        specific width compare it themselves.
        """
        if not self.columns:
            # the 2 x 0 array belongs to every nonempty tableau set
            return r >= -1
        tops = self.tops()
        if distinct and len(set(tops)) != len(tops):
            return False
        return (all(alpha <= t <= alpha + r for t in tops)
                and all(beta <= b <= beta + r for b in self.bottoms())
                and self.column_sum == alpha + beta + r)

    def render(self) -> str:
        if not self.columns:
            return "[]"
        top = " ".join(str(t) for t in self.tops())
        bottom = " ".join(str(b) for b in self.bottoms())
        return f"[{top} / {bottom}]"

    def __repr__(self) -> str:
        return f"BTableau({self.render()})"


def _refuse_past(counts, cap: int, noun: str) -> None:
    # counts: lower bounds on the enumeration's count that end at the count
    if any(count > cap for count in counts):
        raise EnumerationCapExceeded(f"more than {cap} {noun}")


def _capped_binomial(n: int, s: int, cap: int) -> None:
    # C(n - m + i, i), m = min(s, n - s), grows with i = 0..m up to C(n, s)
    m = min(s, n - s)
    _refuse_past((comb(n - m + i, i) for i in range(m + 1)), cap, "tableaux")


def capped_sum(sizes, degree: int, cap: int, noun: str, complete: bool = False) -> None:
    """Refuse past cap a family of e_degree(sizes) objects, h_degree(sizes) if complete.

    The DP reads the nonzero sizes largest first and holds each entry at cap + 1.
    Every size is at least 1, so each h-DP entry is a lower bound on the count,
    and so is each e-DP entry that the sizes still to come can carry to degree,
    the only ones it fills.  The first entry past the cap refuses.
    """
    sizes = sorted(filter(None, sizes), reverse=True)
    sums = [1] + [0] * degree  # sums[j]: e_j (h_j if complete) of the sizes read so far

    def lower_bounds():
        yield sums[degree]  # the empty product at degree 0
        for i, x in enumerate(sizes, 1):
            for j in (range(1, degree + 1) if complete
                      else range(min(i, degree), max(1, degree - len(sizes) + i) - 1, -1)):
                sums[j] = min(sums[j] + x * sums[j - 1], cap + 1)
                yield sums[j]

    _refuse_past(lower_bounds(), cap, noun)


def enumerate_T(alpha: int, beta: int, r: int, s: int,
                cap: int = ENUMERATION_CAP) -> list:
    """All 2 x s tableaux for (alpha, beta, r), tops nonincreasing.

    The bottom entry of a column is forced to alpha+beta+r minus its top,
    which automatically lands in the allowed range, so enumeration reduces
    to nonincreasing top rows drawn from {alpha..alpha+r}.
    """
    if s < 0 or r < -1:
        return []
    _capped_binomial(max(r + s, 0), s, cap)  # C(r+s, s), and C(0, 0) for the 2 x 0 at r = -1
    column_sum = alpha + beta + r
    return [BTableau.from_tops(tops, column_sum)
            for tops in combinations_with_replacement(range(alpha + r, alpha - 1, -1), s)]


def enumerate_Td(alpha: int, beta: int, r: int, s: int,
                 cap: int = ENUMERATION_CAP) -> list:
    """The subset of enumerate_T whose top rows are distinct."""
    if s < 0 or r < s - 1:
        return []
    _capped_binomial(r + 1, s, cap)
    column_sum = alpha + beta + r
    return [BTableau.from_tops(tops, column_sum)
            for tops in combinations(range(alpha + r, alpha - 1, -1), s)]


def weight(tableau: BTableau, weights: WeightPair) -> Coercible:
    """Product over columns of v(top) * w(bottom); empty tableau gives 1."""
    return prod(weights.v.eval(t) * weights.w.eval(b) for t, b in tableau.columns)


def juxtapose(t1: BTableau, t2: BTableau) -> BTableau:
    """Merge the columns of two compatible tableaux, tops nonincreasing.

    Columns with equal tops are ordered by nondecreasing bottoms; equal
    column sums make that secondary key a tie as well, so the canonical
    form is unique.
    """
    if not t1.columns:
        return t2
    if not t2.columns:
        return t1
    if t1.column_sum != t2.column_sum:
        raise IncompatibleTableaux(
            f"column sums {t1.column_sum} and {t2.column_sum} differ")
    merged = sorted(t1.columns + t2.columns, key=lambda col: (-col[0], col[1]))
    return BTableau(tuple(merged))


def tau(tableau: BTableau, n: int, k: int, alpha: int, beta: int) -> BTableau:
    """Bijection from distinct-top tableaux (r=n-1, s=n-k) to plain ones
    (r=k, same width): column j keeps top - (n-k-j) and rebalances the
    bottom against the new column sum alpha+beta+k."""
    s = n - k
    if tableau.width != s or not tableau.is_member(alpha, beta, n - 1, distinct=True):
        raise DomainViolation(
            f"{tableau!r} is not a distinct-top tableau for "
            f"(alpha={alpha}, beta={beta}, r={n - 1}) with {s} columns")
    new_sum = alpha + beta + k
    tops = [t - (s - j) for j, t in enumerate(tableau.tops(), start=1)]
    return BTableau.from_tops(tops, new_sum)


def weight_sum(kind: str, n: int, k: int, alpha: int, beta: int,
               weights: WeightPair) -> Coercible:
    """Total weight over the tableau set that realizes a Stirling number:
    distinct tops over (n-1, n-k) for the first kind, plain tableaux over
    (k, n-k) for the second."""
    if kind == "first":
        pool = enumerate_Td(alpha, beta, n - 1, n - k)
    elif kind == "second":
        pool = enumerate_T(alpha, beta, k, n - k)
    else:
        raise ValueError(f"kind must be first or second, got {kind!r}")
    return sum(weight(t, weights) for t in pool)


def triangular_split(n: int, k: int, alpha: int = 0, beta: int = 0) -> list:
    """The tableau-set partition behind the triangular recurrence, as one list.

    The distinct-top set for (n-1, n-k) splits into the tableaux avoiding
    top alpha+n-1 and those containing the column [alpha+n-1 / beta], with
    the column stripped off the rest.
    """
    rho = BTableau(((alpha + n - 1, beta),))
    return enumerate_Td(alpha, beta + 1, n - 2, n - k) + [
        juxtapose(rho, t) for t in enumerate_Td(alpha, beta + 1, n - 2, n - k - 1)]


def convolution_split(m1: int, m2: int, n: int, alpha: int = 0, beta: int = 0) -> list:
    """The tableau-set partition behind the convolution formula, as one list.

    The distinct-top set for (m1+m2-1, m1+m2-n) is the disjoint union over k
    of juxtapositions of distinct-top tableaux with tops above and below
    alpha+m2.
    """
    pieces = []
    for split in range(n + 1):
        left = enumerate_Td(alpha + m2, beta, m1 - 1, m1 - n + split)
        right = enumerate_Td(alpha, beta + m1, m2 - 1, m2 - split)
        pieces.extend(juxtapose(t1, t2) for t1 in left for t2 in right)
    return pieces
