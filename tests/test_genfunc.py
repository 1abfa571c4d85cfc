import pytest

from wstirling.genfunc import (
    basis_expansion,
    cgf_product,
    pq_basis_form_residual,
    pq_product_form_residual,
    pq_series_reduction_residual,
    sgf_series,
)
from wstirling.ring import P, Q, RingValue, X, ZERO
from wstirling.stirling import first_kind, second_kind
from wstirling.weights import builtin

CLASSICAL = builtin("classical")
PQ = builtin("pq-binomial")


def test_cgf_examples():
    assert cgf_product(1, 2, -1, PQ) == X + P ** 2 * Q ** -1
    assert cgf_product(3, 0, 0, CLASSICAL) == X ** 3 + 3 * X ** 2 + 2 * X
    assert cgf_product(2, 0, 0, PQ) == X ** 2 + (P + Q) * X + P * Q
    assert cgf_product(0, 5, 5, PQ) == 1
    with pytest.raises(ValueError):
        cgf_product(-1, 0, 0, PQ)


def test_sgf_examples():
    geo = sgf_series(0, 4, 1, 0, PQ)
    assert [geo.coefficient("x", n) for n in range(5)] == [P ** n for n in range(5)]
    classical = sgf_series(2, 4, 0, 0, CLASSICAL)
    assert [classical.coefficient("x", n) for n in range(5)] == [0, 0, 1, 3, 7]
    pq = sgf_series(1, 3, 0, 0, PQ)
    assert pq == X + (P + Q) * X ** 2 + (P ** 2 + P * Q + Q ** 2) * X ** 3
    with pytest.raises(ValueError):
        sgf_series(-1, 3, 0, 0, PQ)
    with pytest.raises(ValueError):
        sgf_series(3, 2, 0, 0, PQ)


def test_basis_expand_examples():
    assert basis_expansion(0, 0, 0, CLASSICAL) == 1
    assert basis_expansion(1, 1, -1, builtin("jacobi")) == X
    assert basis_expansion(4, 0, 0, PQ) == X ** 4
    with pytest.raises(ValueError, match="^exponent must be nonnegative$"):
        basis_expansion(-1, 0, 0, CLASSICAL)


def test_gf_invariants_across_catalog():
    names = ("classical", "pq-binomial", "q-binomial", "q-stirling", "b-stirling",
             "legendre", "jacobi", "noncentral(-1)", "sun(2)", "zeta")
    for name in names:
        pair = builtin(name)
        for alpha in (-1, 1):
            for beta in (-1, 1):
                for n in range(7):
                    row = RingValue.coerce(cgf_product(n, alpha, beta, pair))  # 1 at n = 0
                    for k in range(n + 1):
                        assert row.coefficient("x", k) == \
                            first_kind(pair, alpha, beta, n, k), f"{name} cgf ({n},{k})"
                    expansion = basis_expansion(n, alpha, beta, pair)
                    assert expansion == X ** n, f"{name} basis ({alpha},{beta},{n}): {expansion}"
                for k in range(5):
                    col = sgf_series(k, 6, alpha, beta, pair)
                    for n in range(k, 7):
                        assert col.coefficient("x", n) == \
                            second_kind(pair, alpha, beta, n, k), f"{name} sgf ({n},{k})"


def test_pq_forms():
    for n in range(9):
        residual = pq_product_form_residual(n)
        assert residual == ZERO, f"product form n={n}: {residual}"
        residual = pq_basis_form_residual(n)
        assert residual == ZERO, f"basis form n={n}: {residual}"
    for k in range(5):
        for n in range(k, 9):
            residual = pq_series_reduction_residual(k, n)
            assert residual == ZERO, f"series reduction k={k} n={n}: {residual}"
    with pytest.raises(ValueError):
        pq_series_reduction_residual(3, 2)
