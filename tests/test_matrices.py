import itertools
import random

import pytest

from wstirling import matrices
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
from wstirling.ring import ONE, P, Q, InexactDivision, RingValue, X, ZERO
from wstirling.stirling import bracket, first_kind, second_kind
from wstirling.weights import CATALOG, UndefinedIndex, WeightPair, WeightSpec, builtin

CLASSICAL = builtin("classical")
PQ = builtin("pq-binomial")
B = builtin("b-stirling")
# v is a table with no default: undefined below index 0 and above index 4
NO_DEFAULT = WeightPair(WeightSpec("table", values={i: i for i in range(5)}),
                        WeightSpec("constant", value=1), label="table-no-default")


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
            got = memo[cols] = sum(
                (-1) ** idx * rows[row][c] * minor(cols[:idx] + cols[idx + 1:])
                for idx, c in enumerate(cols)
                if rows[row][c])
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


def test_integer_hankel_matrices_stay_on_ints():
    for name in ("classical", "legendre", "b-stirling"):
        for kind in ("first", "second"):
            hankel = (kind, 4, 1, 1, -1, builtin(name))
            matrix = hankel_matrix(*hankel)
            assert {type(e) for row in matrix.rows for e in row} == {int}
            det = determinant(matrix)
            assert type(det) is int and det == det_formula(*hankel), (name, kind)


def test_determinants_polynomial_paths_agree():
    rng = random.Random(2871)
    atoms = [ZERO, ONE, P, Q, P + Q, P * Q, 2, Q ** 2, P - 1]
    for _ in range(40):
        dim = rng.randint(1, 5)
        m = RingMatrix([[rng.choice(atoms) for _ in range(dim)] for _ in range(dim)])
        assert determinant(m) == det_cofactor(m)


def divisions(monkeypatch) -> list:
    """Record every (value, divisor) determinant hands exact_div, with the
    quotient, or None where it does not exist in the ring."""
    calls = []

    def recorded(value, divisor, divide=matrices.exact_div):
        try:
            quotient = divide(value, divisor)
        except InexactDivision:
            calls.append((value, divisor, None))
            raise
        calls.append((value, divisor, quotient))
        return quotient
    monkeypatch.setattr(matrices, "exact_div", recorded)
    return calls


def test_an_inexact_first_multiplier_runs_bareiss(monkeypatch):
    calls = divisions(monkeypatch)
    m = RingMatrix([[2, 1], [1, 1]])
    assert determinant(m) == det_cofactor(m) == 1
    # 1/2 is no multiplier, so Bareiss divides 2*1 - 1*1 by a previous pivot of 1
    assert calls == [(1, 2, None), (1, 1, 1)]
    calls.clear()
    m = RingMatrix([[1 + P, Q], [Q, P]])
    assert determinant(m) == det_cofactor(m) == P + P ** 2 - Q ** 2
    assert calls == [(Q, 1 + P, None), (P + P ** 2 - Q ** 2, 1, P + P ** 2 - Q ** 2)]


def test_gauss_steps_then_bareiss(monkeypatch):
    calls = divisions(monkeypatch)
    # one Gauss step leaves [[3, -5], [-5, -4]], and -5/3 is no multiplier
    m = RingMatrix([[1, 2, 3], [2, 7, 1], [3, 1, 5]])
    assert determinant(m) == det_cofactor(m) == -37
    assert calls == [(2, 1, 2), (3, 1, 3), (-5, 3, None), (-37, 1, -37)]
    calls.clear()
    # the same in the polynomial ring: (2 - PQ)/(1 + Q) does not exist
    m = RingMatrix([[ONE, P, Q], [P, P * P + 1 + Q, ONE], [Q, 2, P]])
    assert determinant(m) == det_cofactor(m)
    assert [quotient is None for _, _, quotient in calls] == [False, False, True, False]
    assert calls[-1][1] == 1


def test_a_row_swap_inside_the_gauss_steps(monkeypatch):
    calls = divisions(monkeypatch)
    # column 1 of the Schur complement [[0, -1], [1, -8]] needs a swap
    m = RingMatrix([[1, 2, 3], [2, 4, 5], [3, 7, 1]])
    assert determinant(m) == det_cofactor(m) == 1
    assert calls == [(2, 1, 2), (3, 1, 3)]
    calls.clear()
    m = RingMatrix([[0, 1 + Q, P], [P, Q, 1], [P * Q, 1, Q]])
    assert determinant(m) == det_cofactor(m)
    assert all(quotient is not None for _, _, quotient in calls)


# the Hankel matrices of the det benchmark, at one offset: (pair, kind, r, s, alpha, beta)
BENCHMARK_HANKELS = [("pq-binomial", "second", 12, 4, -2, 2), ("q-stirling", "second", 8, 3, 0, -3),
                     ("zeta", "first", 12, 0, 1, -2), ("q-binomial", "first", 12, 0, -2, 3),
                     ("jacobi", "second", 11, 2, 2, -3), ("jacobi", "first", 11, 2, 0, 3)]


def test_hankel_determinants_take_only_gauss_steps(monkeypatch):
    # L.U with L unit lower triangular in the ring: every multiplier exists,
    # so an n x n matrix takes at most n(n-1)/2 divisions, where Bareiss
    # takes (n-1)n(2n-1)/6 (650 at n = 13)
    calls = divisions(monkeypatch)
    for name, kind, r, s, alpha, beta in BENCHMARK_HANKELS:
        hankel = (kind, r, s, alpha, beta, builtin(name))
        calls.clear()
        assert determinant(hankel_matrix(*hankel)) == det_formula(*hankel), name
        assert all(quotient is not None for _, _, quotient in calls), name
        assert len(calls) <= (r + 1) * r // 2, name


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
    checked, skipped, failure = delta_sums(4, [(-2, 0)], NO_DEFAULT)
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


def test_entries_outside_the_ring_are_refused():
    with pytest.raises(TypeError, match="^cannot coerce float into the ring$"):
        RingMatrix([[1.5]])
    with pytest.raises(TypeError, match="^cannot coerce float into the ring$"):
        inverse_relation_apply("beta-forward", [1, 2.5], 1, 0, 1, CLASSICAL)


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
        return sum(first_kind(pair, alpha + m2, beta, m1, r - k)
                   * first_kind(pair, alpha, beta + m1, m2, s + k) for k in window)
    return sum(second_kind(pair, alpha + s + k, beta, m1, r - k)
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


def outcome(build):
    """What build returns, or the type and message of the weight error it raises."""
    try:
        return build()
    except UndefinedIndex as exc:
        return type(exc), str(exc)


def test_first_kind_hankel_is_its_entries():
    # each entry read from its own table is the oracle for the per-row DP,
    # refusals included: the same error at the same weight index
    refusals = 0
    for pair in [builtin(name) for name in CATALOG] + [NO_DEFAULT]:
        for r, s, alpha, beta in itertools.product(range(6), range(4), range(-3, 4),
                                                   range(-3, 4)):
            entries = outcome(lambda: RingMatrix.from_function(
                r + 1, lambda i, j: first_kind(pair, alpha - i, beta - j, s + i + j, s + j)))
            built = outcome(lambda: hankel_matrix("first", r, s, alpha, beta, pair))
            assert built == entries, f"{pair.label} r={r} s={s} alpha={alpha} beta={beta}"
            refusals += isinstance(entries, tuple)
    assert refusals > 0


def test_first_kind_hankel_builds_no_table(monkeypatch):
    # one truncated e-DP per row builds a 13 x 13 zeta matrix in 1437 ring
    # products; one table per entry would take 17589
    def refuse(*args):
        raise AssertionError("first_kind called")

    calls = 0
    mul = RingValue.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(matrices, "first_kind", refuse)
    monkeypatch.setattr(RingValue, "__mul__", counted)
    matrix = hankel_matrix("first", 12, 0, 0, 1, builtin("zeta"))
    monkeypatch.undo()
    assert calls <= 2000
    assert determinant(matrix) == det_formula("first", 12, 0, 0, 1, builtin("zeta"))


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
