"""Generating functions for the weighted triangles, plus their p,q forms.

Three shapes: the row generating function of the first kind is a finite
product over x-linear factors; the column generating function of the second
kind is a truncated geometric series; and the basis expansion writes x^n in
terms of bracket polynomials with second-kind coefficients.  Everything is
an ordinary ring value in the series variable x, so coefficient extraction
is exact.  The b-Stirling oracles expand the row product and the column
series of V = (i, i) once more, from tabulated factors.  The functions
return the series, expansions, residuals and values they compute;
wstirling.identities compares them with the other side.
"""

from __future__ import annotations

from math import comb, prod

from .ring import Coercible, P, Q, RingValue, X
from .stirling import bracket, pq_binomial, second_kind
from .weights import WeightPair, WeightSpec, builtin


def cgf_product(n: int, alpha: int, beta: int, weights: WeightPair) -> Coercible:
    """Row generating function of the first kind: prod_j (x + v.w products)."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    return prod(
        X + weights.v.eval(alpha + n - 1 - j) * weights.w.eval(beta + j) for j in range(n))


def _geometric(rates, upto: int) -> list:
    """Coefficients of prod_a 1/(1 - a*x) through degree upto."""
    coeffs = [1] + [0] * upto
    for a in rates:
        for d in range(1, upto + 1):
            coeffs[d] = coeffs[d] + a * coeffs[d - 1]
    return coeffs


def sgf_series(k: int, order: int, alpha: int, beta: int, weights: WeightPair) -> Coercible:
    """Column generating function of the second kind, truncated at x^order."""
    if k < 0:
        raise ValueError("column index must be nonnegative")
    if order < k:
        raise ValueError("truncation order must be at least k")
    rates = [weights.v.eval(alpha + k - j) * weights.w.eval(beta + j) for j in range(k + 1)]
    coeffs = _geometric(rates, order - k)
    return sum(c * X ** (k + d) for d, c in enumerate(coeffs))


def basis_expansion(n: int, alpha: int, beta: int, weights: WeightPair) -> Coercible:
    """The bracket-basis expansion of x^n, which equals x^n."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    return sum(
        second_kind(weights, alpha, beta - k, n, k) * bracket(k, alpha, beta, weights)
        for k in range(n + 1))


# -- p,q specializations: each returns its residual, 0 where the form holds -----

def pq_product_form_residual(n: int) -> Coercible:
    """Row form for V=(p^i, q^i): both the direct sum and the rescaled
    substitution of cgf_product must equal prod_t (p^t + x q^t); the direct
    sum's residual comes first."""
    target = prod(P ** t + X * Q ** t for t in range(n))
    direct = sum(
        P ** comb(n - k, 2) * Q ** comb(k, 2) * pq_binomial(n, k) * X ** k
        for k in range(n + 1))
    row = RingValue.coerce(cgf_product(n, 0, 0, builtin("pq-binomial")))  # 1 at n = 0
    rescaled = Q ** comb(n, 2) * row.substitute({"p": P * Q ** -1, "q": 1})
    return (direct - target) if direct != target else (rescaled - target)


def pq_series_reduction_residual(k: int, n: int) -> Coercible:
    """Column form for V=(p^i, q^i): coefficient x^n of the geometric expansion
    of the displayed product, x^k / prod_j (1 - p^(k-j) q^j x), against the
    symmetric-function value pq_binomial(n, k)."""
    if n < k:
        raise ValueError("coefficient index must be at least k")
    coeffs = _geometric([P ** (k - j) * Q ** j for j in range(k + 1)], n - k)
    return coeffs[n - k] - pq_binomial(n, k)


def pq_basis_form_residual(n: int) -> Coercible:
    """Bracket-basis expansion specialized to V=(p^i, q^i), written with
    one-variable-per-side scaling."""
    return sum(
        (-1) ** (n - k) * Q ** comb(n - k, 2) * pq_binomial(n, k)
        * prod(X * Q ** t + P ** t for t in range(k))
        for k in range(n + 1)) - Q ** comb(n, 2) * X ** n


# -- b-Stirling oracles for V = (i, i): factors from tabulated rows, no symfunc ----

def b_stirling_row_by_product(n: int) -> list:
    """First-kind row n for V=(i,i): its factors (n-1-t)t, 0 <= t < n, are
    row n-3 of the tabulated triangle, expanded by a plain product."""
    spec = WeightSpec("oeis-T", row=n - 3)
    poly = RingValue.coerce(prod(X + spec.eval(j) for j in range(n)))  # 1 at n = 0
    return [poly.coefficient("x", d) for d in range(n + 1)]


def b_stirling_by_series(n: int, k: int) -> Coercible:
    """Second-kind value at (n, k) for V=(i,i): the x^n coefficient of
    x^k / prod_j (1 - T_j x), T_j the entries of tabulated row k-2."""
    if k < 0 or n < k:
        return 0
    spec = WeightSpec("oeis-T", row=k - 2)
    return _geometric([spec.eval(j) for j in range(k + 1)], n - k)[n - k]
