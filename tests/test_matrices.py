import random

import pytest

from wstirling.identities import REGISTRY, delta_cells, scan
from wstirling.matrices import (
    RingMatrix,
    convolution_sum,
    det_formula,
    determinant,
    hankel_matrix,
    identity_matrix,
    inverse_pair,
    inverse_relation_apply,
    lu_factors,
    orthogonality_sum,
    pq_binomial_delta_sum,
    scaled_q_det_formula,
    scaled_q_hankel_matrix,
)
from wstirling.ring import ONE, P, Q, RingValue, X, ZERO, ring_sum
from wstirling.stirling import bracket, first_kind, second_kind
from wstirling.weights import builtin

CLASSICAL = builtin("classical")
PQ = builtin("pq-binomial")
B = builtin("b-stirling")


def det_cofactor(matrix: RingMatrix) -> RingValue:
    """Oracle for determinant: Laplace expansion memoized on the active
    column set, with no division."""
    n = matrix.dim
    rows = matrix.rows
    memo: dict = {(): ONE}

    def minor(cols: tuple) -> RingValue:
        got = memo.get(cols)
        if got is None:
            row = n - len(cols)
            got = memo[cols] = ring_sum(
                (-1) ** idx * rows[row][c] * minor(cols[:idx] + cols[idx + 1:])
                for idx, c in enumerate(cols)
                if not rows[row][c].is_zero())
        return got

    return minor(tuple(range(n)))


def test_matrix_basics():
    m = RingMatrix([[1, 2], [3, 4]])
    assert m.dim == 2
    assert m.rows[1][0] == 3
    assert (m * identity_matrix(2)) == m
    assert identity_matrix(3) == RingMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m != identity_matrix(2)
    symbolic = RingMatrix([[P, Q], [1, P + Q]])
    twin = RingMatrix([[P, Q], [ONE, Q + P]])
    assert hash(symbolic) == hash(twin)
    assert len({symbolic, twin, m}) == 2
    assert not m == [[1, 2], [3, 4]] and m != "m"
    assert m.render() == "[ 1  2 ]\n[ 3  4 ]"
    with pytest.raises(ValueError):
        RingMatrix([[1, 2]])
    with pytest.raises(ValueError):
        RingMatrix([])
    with pytest.raises(ValueError, match="^dimension must be at least 1$"):
        RingMatrix.from_function(0, lambda i, j: 1)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        m * identity_matrix(3)


def test_determinants_integer():
    m = RingMatrix([[2, 0, 1], [1, 3, 2], [0, 1, 4]])
    # cofactor by hand: 2*(12-2) - 0 + 1*(1-0)
    assert determinant(m) == 21
    assert det_cofactor(m) == 21
    assert determinant(RingMatrix([[5]])) == 5
    singular = RingMatrix([[1, 2], [2, 4]])
    assert determinant(singular) == 0
    assert det_cofactor(singular) == 0
    # needs a row swap
    swapped = RingMatrix([[0, 1], [1, 0]])
    assert determinant(swapped) == -1


def test_determinants_polynomial_paths_agree():
    rng = random.Random(2871)
    atoms = [ZERO, ONE, P, Q, P + Q, P * Q, 2, Q ** 2, P - 1]
    for _ in range(40):
        dim = rng.randint(1, 5)
        m = RingMatrix([[rng.choice(atoms) for _ in range(dim)] for _ in range(dim)])
        assert determinant(m) == det_cofactor(m)


def delta_sums(n_max, grid, pair):
    return scan(delta_cells(n_max, grid), REGISTRY["orthogonality/delta-sums"].probe(pair))


def test_orthogonality_small():
    assert orthogonality_sum("signed-c-dot-S", 3, 3, 0, 0, CLASSICAL) == ONE
    assert orthogonality_sum("S-dot-signed-c", 3, 1, 0, 0, CLASSICAL) == ZERO
    with pytest.raises(ValueError):
        orthogonality_sum("diagonal", 1, 0, 0, 0, CLASSICAL)
    for name in ("classical", "pq-binomial", "b-stirling"):
        checked, _, failure = delta_sums(6, [(0, 0)], builtin(name))
        assert failure is None, f"{name}: {failure}"
        assert checked > 0


def test_orthogonality_offsets():
    checked, _, failure = delta_sums(5, [(-1, 1), (2, -2), (1, 1)], builtin("jacobi"))
    assert failure is None and checked > 0, failure


def test_orthogonality_reports_skips():
    checked, skipped, failure = delta_sums(4, [(-2, 0)], builtin("q-stirling"))
    assert skipped > 0
    assert failure is None


def test_pq_binomial_orthogonality():
    for n in range(9):
        for m in range(n + 1):
            assert pq_binomial_delta_sum(n, m) == (1 if n == m else 0), (n, m)


def assert_two_sided_inverse(kind, r, alpha, beta, pair):
    a, b = inverse_pair(kind, r, alpha, beta, pair)
    unit = identity_matrix(r + 1)
    assert a * b == unit, (kind, r, alpha, beta, pair.label)
    assert b * a == unit, (kind, r, alpha, beta, pair.label)
    return a, b


def test_inverse_pair_examples():
    for kind in ("beta", "alpha"):
        a, b = assert_two_sided_inverse(kind, 0, 0, 0, CLASSICAL)
        assert a.rows == ((ONE,),) and b.rows == ((ONE,),)
    a, b = assert_two_sided_inverse("beta", 4, 0, 0, CLASSICAL)
    # signed first-kind triangle against the plain second-kind triangle
    assert a.rows[3][2] == -3 and a.rows[4][2] == 11
    assert b.rows[4][2] == 7
    # sliding the v-offset instead moves the signs onto the second kind
    a, b = assert_two_sided_inverse("alpha", 4, 0, 0, CLASSICAL)
    assert a.rows[3][2] == 3 and a.rows[4][2] == 11
    assert b.rows[3][2] == -3 and b.rows[4][2] == 7
    assert_two_sided_inverse("beta", 3, 0, 0, PQ)
    assert_two_sided_inverse("alpha", 3, -1, 2, builtin("zeta"))
    with pytest.raises(ValueError):
        inverse_pair("diagonal", 2, 0, 0, CLASSICAL)
    with pytest.raises(ValueError):
        inverse_pair("alpha", -1, 0, 0, CLASSICAL)


def test_inverse_pair_catalog_sweep():
    for name in ("classical", "pq-binomial", "q-binomial", "b-stirling", "legendre",
                 "jacobi", "noncentral(-1)", "merris(2)", "sun(2)", "zeta"):
        pair = builtin(name)
        for kind in ("beta", "alpha"):
            for alpha, beta in [(0, 0), (-2, 1), (1, -2)]:
                assert_two_sided_inverse(kind, 4, alpha, beta, pair)


def test_inverse_relation_round_trips():
    rng = random.Random(60)
    for family in ("beta", "alpha", "transposed"):
        for pair in (CLASSICAL, PQ, B):
            seq = [rng.randint(-9, 9) for _ in range(7)]
            forward = inverse_relation_apply(f"{family}-forward", seq, 6, 0, 1, pair)
            back = inverse_relation_apply(f"{family}-backward", forward, 6, 0, 1, pair)
            assert back == [RingValue.from_int(x) for x in seq], family
            # and the other way around
            inverse = inverse_relation_apply(f"{family}-backward", seq, 6, 0, 1, pair)
            there = inverse_relation_apply(f"{family}-forward", inverse, 6, 0, 1, pair)
            assert there == [RingValue.from_int(x) for x in seq], family


def test_inverse_relation_unit_and_errors():
    unit = [1, 0, 0, 0]
    out = inverse_relation_apply("alpha-forward", unit, 3, 0, 0, CLASSICAL)
    back = inverse_relation_apply("alpha-backward", out, 3, 0, 0, CLASSICAL)
    assert back == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        inverse_relation_apply("sideways-forward", unit, 3, 0, 0, CLASSICAL)
    with pytest.raises(ValueError):
        inverse_relation_apply("alpha-forward", unit, 5, 0, 0, CLASSICAL)


def test_inverse_relation_matches_bracket_expansion():
    # the forward leg that slides the w-offset sends x-powers to brackets
    alpha, beta, r = 0, 0, 4
    for pair in (CLASSICAL, PQ):
        powers = [X ** k for k in range(r + 1)]
        a = inverse_relation_apply("beta-forward", powers, r, alpha, beta, pair)
        for n in range(r + 1):
            assert a[n] == bracket(n, alpha, beta, pair), n
        back = inverse_relation_apply("beta-backward", a, r, alpha, beta, pair)
        assert back == powers


def entry(kind, pair, alpha, beta, n, k):
    return (first_kind if kind == "first" else second_kind)(pair, alpha, beta, n, k)


def split_sum(kind, m1, m2, r, s, alpha, beta, pair):
    """Oracle for convolution_sum: the sum as stated for the split r + s = n,
    over the window outside which one factor vanishes by index range."""
    window = range(max(r - m1, -s), min(r, m2 - s) + 1)
    if kind == "first":
        return ring_sum(first_kind(pair, alpha + m2, beta, m1, r - k)
                        * first_kind(pair, alpha, beta + m1, m2, s + k) for k in window)
    return ring_sum(second_kind(pair, alpha + s + k, beta, m1, r - k)
                    * second_kind(pair, alpha, beta + r - k, m2, s + k) for k in window)


def test_convolution_examples():
    for kind, m1, m2, n, alpha, beta, pair in [("second", 1, 2, 2, 0, 0, CLASSICAL),
                                               ("first", 1, 2, 2, 0, 0, CLASSICAL),
                                               ("second", 3, 0, 2, 1, -1, PQ),
                                               ("first", 3, 3, 4, 0, 0, PQ)]:
        assert convolution_sum(kind, m1, m2, n, alpha, beta, pair) == \
            entry(kind, pair, alpha, beta, m1 + m2, n)
    assert convolution_sum("second", 1, 2, 2, 0, 0, CLASSICAL) == 3  # S(3, 2)
    with pytest.raises(ValueError):
        convolution_sum("third", 1, 1, 1, 0, 0, CLASSICAL)


def test_convolution_sweep():
    # every split r + s = n is the row split, and that sum is the entry (m1+m2, n)
    for name in ("classical", "pq-binomial", "b-stirling", "zeta"):
        pair = builtin(name)
        for kind in ("first", "second"):
            for m1 in range(4):
                for m2 in range(4):
                    for n in range(m1 + m2 + 1):
                        total = convolution_sum(kind, m1, m2, n, -1, 1, pair)
                        assert total == entry(kind, pair, -1, 1, m1 + m2, n), \
                            f"{name} {kind} ({m1},{m2},{n})"
                        for r in range(n + 1):
                            assert split_sum(kind, m1, m2, r, n - r, -1, 1, pair) == total, \
                                f"{name} {kind} ({m1},{m2},{n}) r={r}"


def test_lu_example():
    lower, upper = lu_factors("second", 1, 1, 0, 0, CLASSICAL)
    assert lower == RingMatrix([[1, 0], [1, 1]])
    assert upper == RingMatrix([[1, 1], [0, 2]])
    m = hankel_matrix("second", 1, 1, 0, 0, CLASSICAL)
    assert m == RingMatrix([[1, 1], [1, 3]])
    assert lower * upper == m
    lower, upper = lu_factors("second", 0, 3, 1, 1, PQ)
    assert lower * upper == hankel_matrix("second", 0, 3, 1, 1, PQ)


def test_hankel_arguments_are_checked():
    for fn in (hankel_matrix, det_formula, lu_factors):
        with pytest.raises(ValueError, match="kind must be first or second"):
            fn("third", 1, 1, 0, 0, CLASSICAL)
        with pytest.raises(ValueError, match="nonnegative"):
            fn("first", -1, 0, 0, 0, CLASSICAL)
        with pytest.raises(ValueError, match="nonnegative"):
            fn("second", 0, -2, 0, 0, CLASSICAL)
    with pytest.raises(ValueError, match="nonnegative"):
        convolution_sum("first", 1, -1, 0, 0, 0, CLASSICAL)
    for fn in (scaled_q_hankel_matrix, scaled_q_det_formula):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(-1, 0)


def test_lu_sweep():
    for name in ("classical", "pq-binomial", "jacobi", "zeta", "legendre"):
        pair = builtin(name)
        for kind in ("first", "second"):
            for r in range(4):
                for s in range(4):
                    lower, upper = lu_factors(kind, r, s, 0, 0, pair)
                    matrix = hankel_matrix(kind, r, s, 0, 0, pair)
                    assert lower * upper == matrix, f"{name} {kind} r={r} s={s}"
                    det = determinant(matrix)
                    formula = det_formula(kind, r, s, 0, 0, pair)
                    assert det == formula, f"{name} {kind} r={r} s={s}: {det} != {formula}"


def test_det_examples():
    def det_and_formula(*hankel):
        return determinant(hankel_matrix(*hankel)), det_formula(*hankel)

    det, formula = det_and_formula("second", 1, 1, 0, 0, CLASSICAL)
    assert det == formula == 2
    det, formula = det_and_formula("first", 0, 4, 1, -1, PQ)
    assert det == formula == 1
    det, formula = det_and_formula("second", 2, 1, 0, 0, builtin("q-stirling"))
    assert det == formula
    two = 1 + Q
    three = 1 + Q + Q ** 2
    assert det == two * three ** 2


def test_ehrenborg():
    for r in range(3):
        for s in range(3):
            det = determinant(scaled_q_hankel_matrix(r, s))
            assert det == scaled_q_det_formula(r, s), f"r={r} s={s}"
