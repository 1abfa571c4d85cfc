import itertools
import math
import random

import pytest

from wstirling import ring
from wstirling.ring import ONE, P, Q, ExponentOverflow, X, parse
from wstirling.symfunc import elementary_all, homogeneous_series
from wstirling.weights import WeightSpec


def brute_elementary(t, xs):
    return sum(math.prod(sub) for sub in itertools.combinations(xs, t))


def brute_homogeneous(t, xs):
    return sum(math.prod(sub) for sub in itertools.combinations_with_replacement(xs, t))


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
        egf = sum(e * X ** t for t, e in enumerate(elementary_all(xs)))
        hgf = sum((-1) ** t * h * X ** t
                  for t, h in enumerate(itertools.islice(homogeneous_series(xs), 7)))
        prod = egf * hgf
        truncated = sum(prod.coefficient("x", t) * X ** t for t in range(7))
        assert truncated == ONE


def test_bulk_helpers_agree():
    # the public functions against brute force, on RingValues and on plain
    # ints, whose entries stay ints
    for xs in [(P, Q, 3, P * Q), (2, -1, 3, 0, 5, 4)]:
        e, h = elementary_all(xs), list(itertools.islice(homogeneous_series(xs), 5))
        assert e == [brute_elementary(t, xs) for t in range(len(xs) + 1)]
        assert h == [brute_homogeneous(t, xs) for t in range(5)]
    assert {type(v) for v in e + h} == {int}
    assert elementary_all(()) == [ONE]
    assert next(homogeneous_series(())) == ONE


# -- lines past the term budget or the exponent range raise -------------------------

def test_lines_past_the_budget_raise(monkeypatch):
    # h_d of 1 + q^2 is (1 + q^2)^d, whose step from degree d - 1 walks 2d
    # term pairs: under a budget of 21, degree 10 builds and degree 11 raises
    x = 1 + Q ** 2
    want = [x ** d for d in range(11)]
    monkeypatch.setattr(ring, "TERM_BUDGET", 21)
    assert list(itertools.islice(homogeneous_series([x]), 11)) == want
    with pytest.raises(ring.TermBudgetExceeded):
        list(itertools.islice(homogeneous_series([x]), 12))
    # e_2 of [5]_q and [5]_q walks 25 term pairs
    q5 = WeightSpec("q-integer").eval(5)
    with pytest.raises(ring.TermBudgetExceeded):
        elementary_all([q5, q5])


def test_lines_past_the_exponent_range_raise():
    big = parse("z^536870912 + z^536870913")  # z^(2^29) (1 + z): a product of two overflows
    with pytest.raises(ExponentOverflow):
        elementary_all([big, big])
    column = homogeneous_series([big])
    assert [next(column) for _ in range(2)] == [ONE, big]
    with pytest.raises(ExponentOverflow):
        next(column)
