import itertools
import random

import pytest

from wstirling import ring
from wstirling.ring import (ONE, P, Q, Z, ExponentOverflow, RingValue, X, ZERO, packed_line,
                            as_int, parse, ring_sum, product)
from wstirling.symfunc import elementary_all, elementary_dp, homogeneous_series, homogeneous_step
from wstirling.weights import WeightSpec, builtin


def brute_elementary(t, xs):
    return ring_sum(product(sub) for sub in itertools.combinations(xs, t))


def brute_homogeneous(t, xs):
    return ring_sum(product(sub) for sub in itertools.combinations_with_replacement(xs, t))


def test_elementary_examples():
    assert elementary_all(()) == [1]
    assert elementary_all((5, 7)) == [1, 12, 35]
    assert elementary_all((0, 1, 2, 3)) == [1, 6, 11, 6, 0]
    assert elementary_all((1, 1)) == [1, 2, 1]
    assert elementary_all((P, Q)) == [1, P + Q, P * Q]


def test_homogeneous_examples():
    assert list(itertools.islice(homogeneous_series((1, Q)), 3)) == [1, 1 + Q, 1 + Q + Q ** 2]
    assert list(itertools.islice(homogeneous_series((P ** 2, P * Q, Q ** 2)), 3))[2] == \
        P ** 4 + P ** 3 * Q + 2 * P ** 2 * Q ** 2 + P * Q ** 3 + Q ** 4
    assert list(itertools.islice(homogeneous_series(()), 6)) == [1, 0, 0, 0, 0, 0]


def test_matches_brute_force():
    rng = random.Random(1158)
    for _ in range(120):
        n = rng.randrange(6)
        xs = [rng.choice([rng.randint(-3, 3), P, Q, P + Q, 2 * Q]) for _ in range(n)]
        assert elementary_all(xs) == [brute_elementary(t, xs) for t in range(n + 1)]
        assert list(itertools.islice(homogeneous_series(xs), 6)) == \
            [brute_homogeneous(t, xs) for t in range(6)]


def test_permutation_invariance():
    rng = random.Random(52)
    xs = [1, 2, P, Q, P + 1]
    for _ in range(20):
        shuffled = xs[:]
        rng.shuffle(shuffled)
        assert elementary_all(shuffled) == elementary_all(xs)
        assert list(itertools.islice(homogeneous_series(shuffled), 6)) == \
            list(itertools.islice(homogeneous_series(xs), 6))


def test_generating_function_duality():
    # sum_t e_t x^t times sum_t (-1)^t h_t x^t is 1 up to x^6
    rng = random.Random(7310)
    for _ in range(25):
        n = rng.randrange(7)
        xs = [rng.choice([rng.randint(-2, 3), P, Q]) for _ in range(n)]
        egf = ring_sum(e * X ** t for t, e in enumerate(elementary_all(xs)))
        hgf = ring_sum((-1) ** t * h * X ** t
                       for t, h in enumerate(itertools.islice(homogeneous_series(xs), 7)))
        prod = egf * hgf
        truncated = ring_sum(prod.coefficient("x", t) * X ** t for t in range(7))
        assert truncated == ONE


def test_bulk_helpers_agree():
    # the public functions against their DPs, on RingValues and on plain ints
    xs = (P, Q, 3, P * Q)
    assert elementary_all(xs) == elementary_dp(xs)
    assert list(itertools.islice(homogeneous_series(xs), 5)) == dict_homogeneous(xs, 4)
    ints = (2, -1, 3, 0, 5, 4)
    h = [1] * len(ints)
    assert elementary_all(ints) == elementary_dp(ints)
    assert list(itertools.islice(homogeneous_series(ints), 4)) == \
        [1] + [homogeneous_step(ints, h) for _ in range(3)]
    assert elementary_all(()) == [ONE]
    assert next(homogeneous_series(())) == ONE


# -- the packed-int backend against the dict DP ---------------------------------------

def q_integers(*indices):
    spec = WeightSpec("q-integer")
    return [spec.eval(j) for j in indices]


def jacobi_products(alpha, n):
    v = builtin("jacobi").v
    return [v.eval(alpha + j) for j in range(n)]


def laurent_products(n):
    # the spec weight z^-1 + i at i = 0..n-1: z^-1 alone at 0, then two terms
    v = WeightSpec("polynomial", coefficients=["z^-1", 1])
    return [v.eval(j) for j in range(n)]


def five(*values):
    """values padded with zero products to the five a line needs to pack; a
    zero product changes no entry of h and only appends zeros to e."""
    return list(values) + [ZERO] * (5 - len(values))


def dict_homogeneous(values, degree):
    """h_0 .. h_degree of values by the h-DP on RingValues alone."""
    h = [ONE] * len(values)
    return [ONE] + [homogeneous_step(values, h) for _ in range(degree)]


def assert_packed_matches(values, degree):
    """values pack, and both public DPs over them equal the dict DPs."""
    assert packed_line(values) is not None
    assert elementary_all(values) == elementary_dp(values)
    assert list(itertools.islice(homogeneous_series(values), degree + 1)) == \
        dict_homogeneous(values, degree)


INTEGER_LINES = {
    "positive integers": [RingValue.from_int(c) for c in (3, 1, 4, 1, 5, 9, 2, 6)],
    "negative integers": [RingValue.from_int(c) for c in (-3, -1, -4, -1, -5, -9, -2, -6)],
    "mixed-sign integers": [RingValue.from_int(c) for c in (7, -2, 0, 5, -11)],
    "plain ints": [3, 1, 4, 1, 5, 9],
}

LINES = {
    "q-stirling": q_integers(6, 5, 4, 3, 2, 1),
    "q-stirling with a zero product": q_integers(4, 3, 2, 1, 0),
    "long q-stirling": q_integers(*range(12, 0, -1)),  # entries pass 32 slots
    "jacobi": jacobi_products(1, 9),
    "laurent in z": laurent_products(7),
    # 254 + z and 256 + z: the largest value at z = 1 is 255 * 257 = 2^16 - 1
    "byte boundary": five(254 + Z, 256 + Z),
    "gaps in p": five(1 + P ** 3, 2 * P ** 2, RingValue.from_int(7)),
    "monomials": five(Q ** 2, 2 * Q, ONE),
    "gaussian": [Q ** j for j in range(6)],  # e_t is q^(t(t-1)/2) times a Gaussian binomial
    "ints mixed with ring values": [3, 1 + Q, 0, Q ** 2 + 2 * Q, 5, 2],
}


@pytest.mark.parametrize("name", sorted(LINES))
def test_packed_dp_matches_dict_dp(name):
    assert_packed_matches(LINES[name], 12)


@pytest.mark.parametrize("name", sorted(INTEGER_LINES))
def test_integer_lines_run_on_their_values(name):
    values = INTEGER_LINES[name]
    assert packed_line(values) is None
    e, h = elementary_all(values), list(itertools.islice(homogeneous_series(values), 13))
    assert e == elementary_dp(values) and h == dict_homogeneous(values, 12)
    if name == "plain ints":
        assert {type(v) for v in e + h} == {int}


def test_line_kinds():
    for name in INTEGER_LINES:
        assert packed_line(INTEGER_LINES[name]) is None, name
    for name in ("q-stirling", "jacobi", "laurent in z", "byte boundary", "monomials",
                 "gaussian", "ints mixed with ring values"):
        assert isinstance(packed_line(LINES[name]), ring.PackedLine), name
    # the boundary case is what it claims: the DP at z = 1 reaches exactly 16 bits
    values = LINES["byte boundary"]
    assert max(elementary_dp(packed_line(values).ones)).bit_length() == 16
    assert elementary_all(values)[2] == Z ** 2 + 510 * Z + 65024


def test_column_outgrows_its_width():
    # h_d at q = 1 grows about 4 bits a degree, so the slots widen from 1 byte
    # through every size up to 11 bytes
    values = q_integers(7, 8, 9, 10, 11)
    assert_packed_matches(values, 22)
    want = dict_homogeneous(values, 22)[-1]
    assert as_int(want.substitute({"q": 1})).bit_length() == 85
    assert len(want.terms) == 221


@pytest.mark.parametrize("values", [
    jacobi_products(-3, 6),  # -3z + 9: mixed signs
    five(1 - Q, Q),  # a negative coefficient in one variable
    five(P + Q, ONE),  # two variables in one product
    five(P + 1, Q + 1),  # one variable a product, two in the line
    five(X + 1, ONE),  # the series variable
    q_integers(4, 3, 2, 1),  # four products: too few to repay packing
], ids=["mixed signs", "negative coefficient", "two variables",
        "two variables across products", "x", "short"])
def test_ineligible_lines_stay_on_dicts(values):
    assert packed_line(values) is None


def test_lines_past_the_budget_return_to_dicts(monkeypatch):
    # 1 + q^2 packs into 3 slots but has 2 terms; under a budget of 21 slot
    # pairs the packed column stops after degree 4 and the dict DP, which walks
    # 2 * d term pairs at degree d, carries on from its state
    values = five(1 + Q ** 2)
    want = dict_homogeneous(values, 9)
    monkeypatch.setattr(ring, "TERM_BUDGET", 21)
    line = packed_line(values)
    assert line.fits(4) and not line.fits(5)
    assert list(itertools.islice(homogeneous_series(values), 10)) == want
    # the dict DP, not the packed one, reaches degree 11 and its 22 term pairs
    with pytest.raises(ring.TermBudgetExceeded):
        list(itertools.islice(homogeneous_series(values), 12))
    # under a budget of 2 no packed step fits, so the dict DP starts at degree 0
    monkeypatch.setattr(ring, "TERM_BUDGET", 2)
    assert list(itertools.islice(homogeneous_series(values), 2)) == want[:2]
    monkeypatch.setattr(ring, "TERM_BUDGET", 21)
    # a row over budget never packs; its dict DP raises as it always did
    wide = five(*q_integers(5, 5))
    assert not packed_line(wide).fits(2)
    with pytest.raises(ring.TermBudgetExceeded):
        elementary_all(wide)


def test_mostly_empty_lines_stay_on_dicts():
    # at most 4 slots a term: 1 + q^7 packs into 8 slots, 1 + q^8 into 9
    assert packed_line(five(1 + Q ** 7)) is not None
    assert packed_line(five(1 + Q ** 8)) is None
    assert packed_line(five(parse("z^536870912 + 1"))) is None


def test_lines_past_the_exponent_range_return_to_dicts():
    big = parse("z^536870912 + z^536870913")  # z^(2^29) (1 + z): a product of two overflows
    line = packed_line(five(big, big))
    assert line.fits(1) and not line.fits(2)
    with pytest.raises(ExponentOverflow):
        elementary_all(five(big, big))
    column = homogeneous_series(five(big))
    assert [next(column) for _ in range(2)] == [ONE, big]
    with pytest.raises(ExponentOverflow):
        next(column)
