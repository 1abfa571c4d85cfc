import collections
import random
import time
import tracemalloc
from decimal import Decimal

import pytest

from wstirling import cli, ring, stirling
from wstirling.ring import (
    ONE,
    P,
    Q,
    RingParseError,
    RingValue,
    X,
    Z,
    ZERO,
    ExponentOverflow,
    InexactDivision,
    NonInvertibleSubstitution,
    TermBudgetExceeded,
    as_int,
    parse,
)
from wstirling.stirling import StirlingTable
from wstirling.weights import WeightPair, WeightSpec, builtin


def rand_value(rng, max_terms=5, exp_range=(-3, 3), coeff_range=(-9, 9), laurent=True):
    terms = {}
    lo = exp_range[0] if laurent else 0
    for _ in range(rng.randrange(max_terms + 1)):
        key = (
            rng.randint(lo, exp_range[1]),
            rng.randint(lo, exp_range[1]),
            rng.randint(lo, exp_range[1]),
            rng.randint(0, exp_range[1]),
        )
        terms[key] = rng.randint(*coeff_range)
    return RingValue(terms)


def test_constants_compare_and_hash_like_ints():
    assert RingValue.from_int(7) == 7
    assert 7 == RingValue.from_int(7)
    assert hash(RingValue.from_int(7)) == hash(7)
    assert RingValue({}) == 0
    assert not RingValue.from_int(0)
    assert {RingValue.from_int(3): "a"}[3] == "a"


def test_non_constants_hash_like_they_compare():
    assert hash(P + Q) == hash(Q + P)
    assert len({P * Q + 1, 1 + Q * P, (P + 1) * Q - Q + 1}) == 1
    assert RingValue.monomial(0, p=3) is ZERO
    # a foreign type is unequal, not an error
    assert not P == "p" and P != "p"
    assert not ONE == 1.0 and ONE != "1"


def test_basic_arithmetic():
    assert (P + Q) * (P + Q) == P ** 2 + 2 * P * Q + Q ** 2
    assert (P - P) == ZERO
    assert P * 0 == 0
    assert 1 + Z == Z + ONE
    assert (P + 1) * (P - 1) == P ** 2 - 1


def test_pow_and_unit_inverse():
    assert P ** 0 == 1
    assert (P * Q) ** 3 == RingValue.monomial(1, p=3, q=3)
    assert P ** -1 * P == 1
    assert (-P) ** -1 == RingValue.monomial(-1, p=-1)
    with pytest.raises(NonInvertibleSubstitution):
        (P + Q).invert()
    with pytest.raises(NonInvertibleSubstitution):
        (2 * P).invert()
    with pytest.raises(NonInvertibleSubstitution):
        X.invert()


def test_negative_x_exponent_rejected():
    with pytest.raises(ValueError):
        RingValue.monomial(1, x=-1)
    with pytest.raises(ValueError):
        RingValue({(0, 0, 0, -2): 1})


def test_render_graded_lex_descending():
    v = P ** 4 + P ** 3 * Q + 2 * P ** 2 * Q ** 2
    assert v.render() == "p^4 + p^3*q + 2*p^2*q^2"
    assert (Q - P).render() == "-p + q"
    assert (P ** -1 + 1).render() == "1 + p^-1"
    assert ZERO.render() == "0"
    assert (3 * X * Z - 2).render() == "3*z*x - 2"


def test_parse_round_trip_fixed():
    for text in ["p^4 + p^3*q + 2*p^2*q^2", "-p + q", "1 + p^-1", "0", "3*z*x - 2"]:
        assert parse(text).render() == text


def test_parse_rejects_garbage():
    for text in ["", "p +", "p^", "y + 1", "2**p", "x^-1"]:
        with pytest.raises(RingParseError):
            parse(text)
    for text, message in [("2a*p", "bad integer factor '2a'"), ("3²", "bad integer factor '3²'"),
                          ("p^a", "bad exponent 'a'"), ("q^1.5", "bad exponent '1.5'")]:
        with pytest.raises(RingParseError, match=f"^{message}$"):
            parse(text)


def test_integers_of_any_size_render_and_parse():
    # str() and int() refuse more than 4300 digits; these values have 5000 and 6000
    big = 10 ** 1000 - 1
    for v in [RingValue.from_int(big ** 5), -RingValue.from_int(big ** 5),
              big ** 5 * P ** -2 - big ** 6 * Q * X + 1]:
        text = v.render()
        assert len(text) >= 5000
        assert parse(text) == v
    assert (-10 ** 5000 * P + 1).render() == "-1" + "0" * 5000 + "*p + 1"


def test_construction_refusals():
    with pytest.raises(ValueError, match="^exponent vector must have 4 entries, got \\(1, 2, 3\\)$"):
        RingValue({(1, 2, 3): 1})
    with pytest.raises(TypeError, match="^cannot coerce float into the ring$"):
        RingValue.coerce(1.5)
    with pytest.raises(TypeError, match="^cannot coerce float into the ring$"):
        ring.checked(1.5)
    with pytest.raises(KeyError, match="unknown variable 'y'"):
        (P + Q).substitute({"y": 1})
    with pytest.raises(ValueError, match="^not a constant: p \\+ 1$"):
        as_int(P + 1)
    # coefficients and exponents are ints, as weight specs' are: no float, no bool
    for terms, bad in [({(0, 0, 0, 0): 1.5}, "1.5"), ({(0, 0, 0, 0): True}, "True"),
                       ({(0, 0, 0, 0): 0.0}, "0.0"), ({(True, 0, 0, 0): 1}, "True"),
                       ({(0, 0, 1.0, 0): 1}, "1.0"), ({(0, 0, 0, 2.5): 1}, "2.5"),
                       ({(0, "1", 0, 0): 1}, "'1'")]:
        with pytest.raises(ValueError, match=f"^exponents and coefficients must be integers, "
                                             f"got {bad}$"):
            RingValue(terms)


def test_parse_render_round_trip_random():
    rng = random.Random(20260819)
    for _ in range(300):
        v = rand_value(rng)
        assert parse(v.render()) == v, f"round trip broke on {v.render()}"


def test_ring_axioms_random():
    rng = random.Random(4257)
    for _ in range(200):
        a, b, c = (rand_value(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_substitute_is_a_homomorphism():
    rng = random.Random(991)
    for _ in range(150):
        a = rand_value(rng, laurent=False)
        b = rand_value(rng, laurent=False)
        image = {"p": rng.randint(-3, 3), "q": rand_value(rng, max_terms=2, laurent=False)}
        assert (a + b).substitute(image) == a.substitute(image) + b.substitute(image)
        assert (a * b).substitute(image) == a.substitute(image) * b.substitute(image)


def test_substitute_examples():
    v = P ** 2 + P * Q
    assert v.substitute({"p": 1, "q": 1}) == 2
    assert (P + Q).substitute({"p": Q}) == 2 * Q
    assert (P * X + Z).substitute({"p": 0}) == Z
    assert (P ** -2).substitute({"p": Q}) == Q ** -2
    # untouched variables stay put
    assert (P * Q).substitute({"p": 5}) == 5 * Q


def test_substitute_negative_power_needs_unit():
    with pytest.raises(NonInvertibleSubstitution):
        (P ** -1).substitute({"p": 0})
    with pytest.raises(NonInvertibleSubstitution):
        (P ** -1).substitute({"p": Q + 1})
    with pytest.raises(NonInvertibleSubstitution):
        (P ** -1).substitute({"p": 2})
    # unit images are fine
    assert (P ** -1).substitute({"p": Q ** 2}) == Q ** -2


def test_coefficient_extraction():
    v = (1 + X * P) * (1 + X * Q)
    assert v.coefficient("x", 0) == 1
    assert v.coefficient("x", 1) == P + Q
    assert v.coefficient("x", 2) == P * Q
    assert v.coefficient("x", 3) == 0
    assert v.degree("x") == 2
    assert ZERO.degree("x") == 0


def test_exact_div_basic():
    assert (P ** 2 - Q ** 2).exact_div(P - Q) == P + Q
    assert (6 * P * Q).exact_div(3) == 2 * P * Q
    assert ZERO.exact_div(P) == 0
    # many-term quotient
    n = 12
    geom = sum(X ** i for i in range(n))
    assert (X ** n - 1).exact_div(X - 1) == geom
    # Laurent shifts work; monomials in p, q, z are units
    assert (P + Q).exact_div(P ** 2) == P ** -1 + Q * P ** -2
    assert (P + 1).exact_div(Q) == (P + 1) * Q ** -1


def test_exact_div_failures():
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)
    with pytest.raises(InexactDivision):
        (P + 1).exact_div(Q + 1)
    with pytest.raises(InexactDivision):
        (3 * P).exact_div(2)
    with pytest.raises(InexactDivision):
        ONE.exact_div(X + 1)
    with pytest.raises(InexactDivision):
        ONE.exact_div(P - 1)


def test_exact_div_random_products():
    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        a = rand_value(rng, max_terms=4)
        b = rand_value(rng, max_terms=4)
        if not b:
            continue
        assert (a * b).exact_div(b) == a
        checked += 1
    assert checked > 150


# -- the value contract: an int or a RingValue ------------------------------------------

@pytest.mark.parametrize("n", [0, 1, -1, -7, 10 ** 5000 + 1],
                         ids=["0", "1", "-1", "-7", "past the digit limit"])
def test_ring_functions_treat_an_int_like_its_constant(n):
    value = RingValue.from_int(n)
    for fn in (ring.render, ring.is_constant, ring.as_int, ring.checked, bool):
        assert fn(n) == fn(value), fn.__name__
    assert ring.checked(n) is n and ring.checked(value) is value
    assert type(ring.as_int(n)) is int
    for divisor in filter(None, (1, -1, 7, n)):
        outcomes = []
        for dividend, by in ((n, divisor), (value, RingValue.from_int(divisor))):
            try:
                outcomes.append(ring.exact_div(dividend, by))
            except InexactDivision:
                outcomes.append(InexactDivision)
        assert outcomes[0] == outcomes[1], divisor
    assert type(ring.exact_div(n, 1)) is int


def test_ring_functions_on_variables():
    assert not ring.is_constant(P + 1) and P
    assert ring.render(P - 2) == "p - 2"
    assert ring.exact_div(2 * P, 2) == P and ring.exact_div(6, RingValue.from_int(3)) == 2


def test_int_division_fails_as_the_method_does():
    for dividend in (7, RingValue.from_int(7)):
        with pytest.raises(InexactDivision):
            ring.exact_div(dividend, 2)
    for dividend in (0, 5, RingValue.from_int(5)):
        with pytest.raises(ZeroDivisionError):
            ring.exact_div(dividend, 0)
    with pytest.raises(ZeroDivisionError):
        RingValue.from_int(5).exact_div(0)


def test_operators_take_an_int_operand_as_it_is(monkeypatch):
    def refuse(value):
        raise AssertionError(f"coerced {value!r}")
    monkeypatch.setattr(RingValue, "coerce", staticmethod(refuse))
    v = P - 2
    assert v + 0 is v and 0 + v is v
    assert v * 1 is v and 1 * v is v
    assert v * 0 is ZERO and 0 * v is ZERO
    assert v + 1 == 1 + v == P - 1 and v + -1 == -1 + v == P - 3
    assert v * -1 == -1 * v == 2 - P and v * 3 == 3 * v == 3 * P - 6
    assert v - 1 == P - 3 and 1 - v == 3 - P
    # a constant that cancels the constant term leaves no zero coefficient behind
    assert (v + 2).terms == (2 + v).terms == P.terms
    assert (RingValue.from_int(4) + -4).terms == {}
    assert isinstance(ZERO + 3, RingValue) and ZERO + 3 == 3
    for op in (lambda: v + 1.5, lambda: 1.5 * v, lambda: v - "1"):
        with pytest.raises(TypeError):
            op()


# -- differential check of the packed keys against plain exponent tuples -------

LIMIT = 2 ** 30  # every exponent lies in [-LIMIT, LIMIT)


def ref_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def ref_order(key):
    return (sum(key), key)


def ref_exact_div(a, b):
    """Greedy graded-lex division on shifted tuple exponents; None if inexact."""
    amin = [min(k[i] for k in a) for i in range(4)]
    bmin = [min(k[i] for k in b) for i in range(4)]
    if amin[3] < bmin[3]:
        return None
    dividend = {tuple(x - m for x, m in zip(k, amin)): c for k, c in a.items()}
    divisor = {tuple(x - m for x, m in zip(k, bmin)): c for k, c in b.items()}
    lead = max(divisor, key=ref_order)
    quotient = {}
    while dividend:
        top = max(dividend, key=ref_order)
        qkey = tuple(x - y for x, y in zip(top, lead))
        c, rem = divmod(dividend[top], divisor[lead])
        if rem or min(qkey) < 0:
            return None
        quotient[qkey] = c
        for dk, dc in divisor.items():
            key = tuple(x + y for x, y in zip(qkey, dk))
            acc = dividend.get(key, 0) - c * dc
            if acc:
                dividend[key] = acc
            else:
                dividend.pop(key, None)
    shift = [x - y for x, y in zip(amin, bmin)]
    return {tuple(x + s for x, s in zip(k, shift)): c for k, c in quotient.items()}


def ref_render(terms):
    parts = []
    for key in sorted(terms, key=ref_order, reverse=True):
        coeff = terms[key]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("pqzx", key) if e]
        # Decimal, since str() refuses an int of more than 4300 digits
        body = "*".join(([str(Decimal(abs(coeff)))] if abs(coeff) != 1 or not factors else []) + factors)
        parts.append(("-" if coeff < 0 else "") + body if not parts
                     else (" - " if coeff < 0 else " + ") + body)
    return "".join(parts) or "0"


def in_range(terms):
    return all(-LIMIT <= e < LIMIT for key in terms for e in key)


def rand_terms(rng, corner, spread=3, max_terms=4):
    """Random Laurent terms clustered around the exponent vector corner."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        key = tuple(min(max(c + rng.randint(-spread, spread), -LIMIT if i < 3 else 0), LIMIT - 1)
                    for i, c in enumerate(corner))
        terms[key] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return {k: c for k, c in terms.items() if c}


def rand_corners(rng):
    """Two corners: each exponent at an edge of the range, near zero, or
    mirroring or repeating the other corner's, so that products and quotients
    land both inside and outside the range."""
    edges = [0, LIMIT - 1, -(LIMIT - 1), -LIMIT, LIMIT // 2, -(LIMIT // 2)]
    first = [rng.choice(edges) for _ in range(3)] + [rng.choice([0, LIMIT - 1, LIMIT // 2])]
    second = [rng.choice([rng.choice(edges), -e, e]) for e in first[:3]]
    second.append(rng.choice([0, first[3]]))
    return first, second


def test_packed_keys_match_tuple_reference():
    rng = random.Random(20261018)
    seen = {"product overflow": 0, "exact": 0, "inexact": 0, "quotient overflow": 0}
    for _ in range(1500):
        corner_a, corner_b = rand_corners(rng)
        a, b = rand_terms(rng, corner_a), rand_terms(rng, corner_b)
        va, vb = RingValue(a), RingValue(b)
        assert va.render() == ref_render(a)
        for name, idx in (("p", 0), ("q", 1), ("z", 2), ("x", 3)):
            assert va.degree(name) == max((k[idx] for k in a), default=0)
            e = rng.choice([k[idx] for k in a] or [0])
            assert va.coefficient(name, e) == RingValue(
                {k[:idx] + (0,) + k[idx + 1:]: c for k, c in a.items() if k[idx] == e})
        want = ref_mul(a, b)
        if in_range(want):
            got = va * vb
            assert got == RingValue(want) and got.render() == ref_render(want)
        else:
            # a key past the range is never returned, aliased or not
            with pytest.raises(ExponentOverflow):
                va * vb
            seen["product overflow"] += 1
            continue
        if not b:
            continue
        assert (va * vb).exact_div(vb) == va
        seen["exact"] += 1
        # b, and a unit: one term of b without its x, which always divides
        unit = {key[:3] + (0,): rng.choice([-1, 1]) for key in list(b)[:1]}
        for divisor in (b, unit):
            quotient = ref_exact_div(a, divisor) if a else {}
            if quotient is None:
                with pytest.raises(InexactDivision):
                    va.exact_div(RingValue(divisor))
                seen["inexact"] += 1
            elif in_range(quotient):
                assert va.exact_div(RingValue(divisor)) == RingValue(quotient)
            else:
                with pytest.raises(ExponentOverflow):
                    va.exact_div(RingValue(divisor))
                seen["quotient overflow"] += 1
    assert min(seen.values()) > 100, seen


def test_exponent_range_edges():
    top, bottom = LIMIT - 1, -LIMIT
    assert RingValue.monomial(1, p=top, q=bottom, z=top, x=top).render() == (
        f"p^{top}*q^{bottom}*z^{top}*x^{top}")
    for exps in [(LIMIT, 0, 0, 0), (0, bottom - 1, 0, 0), (0, 0, 0, LIMIT)]:
        with pytest.raises(ExponentOverflow):
            RingValue({exps: 1})
    with pytest.raises(ExponentOverflow):
        parse("p^3000000000")
    edge = RingValue.monomial(1, q=top)
    assert (edge * RingValue.monomial(1, q=bottom)).render() == "q^-1"
    for bad in [lambda: edge * Q, lambda: edge ** 2,
                lambda: RingValue.monomial(1, p=bottom) * P ** -1,
                lambda: RingValue.monomial(1, z=bottom).invert(),
                lambda: (edge * Z).exact_div(RingValue.monomial(1, q=-2, z=1))]:
        with pytest.raises(ExponentOverflow):
            bad()
    # the overflow error is a ValueError, so malformed input stays a usage error
    assert issubclass(ExponentOverflow, ValueError)


def test_term_budget(monkeypatch):
    monkeypatch.setattr(ring, "TERM_BUDGET", 12)
    a, b = 1 + P + Q, 1 + Q + Z + P * Z
    assert (a * b) * ONE == a * b  # 3 * 4 pairs: on the budget; a unit factor walks none
    for bad in [lambda: a * (b + Z ** 2), lambda: (b + Z ** 2) * a, lambda: b ** 2]:
        with pytest.raises(TermBudgetExceeded):
            bad()
    # a resource limit, not malformed input: the CLI maps it to exit 3
    assert not issubclass(TermBudgetExceeded, ValueError)


# -- the fast paths of products and quotients against the references above ---------

def count_paths(monkeypatch, names=("_mul_term", "_mul_kronecker", "_div_term",
                                    "_div_kronecker")) -> collections.Counter:
    """Count the results each named fast path returns; None, no result, counts 0."""
    seen = collections.Counter()
    for name in names:
        def counted(*args, path=getattr(ring, name), name=name):
            out = path(*args)
            seen[name] += out is not None
            return out
        monkeypatch.setattr(ring, name, counted)
    return seen


def one_var(var, coeffs):
    """The tuple terms of sum c y^e over coeffs {e: c}, y the variable var."""
    at = "pqz".index(var)
    return {tuple(e if i == at else 0 for i in range(4)): c for e, c in coeffs.items() if c}


def dense(rng, var, count, low, spread=0):
    """count terms in var with mixed signs, spanning count + spread exponents
    from low, both ends used."""
    inner = rng.sample(range(low + 1, low + count + spread - 1), count - 2)
    return one_var(var, {e: rng.choice([-1, 1]) * rng.randint(1, 9)
                         for e in [low, low + count + spread - 1] + inner})


def test_kronecker_products_match_the_dict_loop(monkeypatch):
    seen = count_paths(monkeypatch)
    rng = random.Random(20090101)
    taken = 0
    for var in "pqz":
        # (terms, low, spread) of each factor: term counts on both sides of 256
        # pairs, and slots, counted per value from its own least exponent, at
        # most 4 a term (40 + 120 = 4 * (10 + 30); 64 + 64 = 4 * (16 + 16)) and
        # one past, however far apart the two values start
        for (na, la, sa), (nb, lb, sb), kronecker in [
                ((16, 0, 0), (16, 0, 0), True), ((12, -5, 12), (30, 3, 12), True),
                ((40, 2, 40), (7, -9, 0), True), ((15, 0, 0), (17, 0, 0), False),
                ((10, 0, 30), (30, 0, 90), True), ((10, 0, 30), (30, 0, 91), False),
                ((16, 0, 48), (16, 97, 48), True), ((16, 0, 48), (16, 97, 49), False)]:
            base = rng.randint(-9, 4)
            a = dense(rng, var, na, base + la, sa)
            b = dense(rng, var, nb, base + lb, sb)
            got = RingValue(a) * RingValue(b)
            assert got == RingValue(ref_mul(a, b)) and got.render() == ref_render(ref_mul(a, b))
            taken += kronecker
            assert seen["_mul_kronecker"] == taken, (var, na, la, sa, nb, lb, sb)
    # values on crossing lines, p against q or z against p with x, stay on the dict loop
    for a, b in [(dense(rng, "p", 20, 0), dense(rng, "q", 20, 0)),
                 (dense(rng, "z", 20, 0), {k[:3] + (k[0] + 1,): c
                                           for k, c in dense(rng, "p", 20, 0).items()})]:
        assert RingValue(a) * RingValue(b) == RingValue(ref_mul(a, b))
    assert seen["_mul_kronecker"] == taken


@pytest.mark.parametrize("ca, na, cb, nb, top", [
    (7, 31, 151, 40, 2 ** 15 - 1),  # 7 * 151 * 31: the most two-byte slots hold
    (-7, 31, 151, 40, 2 ** 15 - 1),
    (2 ** 10, 32, 1, 32, 2 ** 15),  # one more: three-byte slots
    (-(2 ** 10), 32, 1, 32, 2 ** 15),
])
def test_kronecker_slots_on_a_byte_boundary(monkeypatch, ca, na, cb, nb, top):
    seen = count_paths(monkeypatch)
    for var in "pqz":
        a = one_var(var, {e: ca for e in range(-3, na - 3)})
        b = one_var(var, {e: cb for e in range(nb)})
        want = ref_mul(a, b)
        assert max(map(abs, want.values())) == top  # the bound is reached
        assert RingValue(a) * RingValue(b) == RingValue(want)
    assert seen["_mul_kronecker"] == 3


def test_kronecker_products_at_the_range_edges(monkeypatch):
    seen = count_paths(monkeypatch)
    half = LIMIT // 2  # factors near the same half of the range, so they pack together
    for var in "pqz":
        high = one_var(var, {e: e % 5 - 2 for e in range(half - 20, half)})
        low = one_var(var, {e: e % 3 + 1 for e in range(-half, -half + 20)})
        for a, b in [(high, one_var(var, {e: 1 for e in range(half - 19, half + 1)})),
                     (low, one_var(var, {e: -1 for e in range(-half, -half + 20)}))]:
            assert RingValue(a) * RingValue(b) == RingValue(ref_mul(a, b))  # reaches an end
        for a, b in [(high, one_var(var, {e: 1 for e in range(half - 18, half + 2)})),
                     (low, one_var(var, {e: -1 for e in range(-half - 1, -half + 19)}))]:
            assert not in_range(ref_mul(a, b))
            with pytest.raises(ExponentOverflow):
                RingValue(a) * RingValue(b)
    assert seen["_mul_kronecker"] == 12


def test_kronecker_budget_comes_before_packing(monkeypatch):
    packed = []
    pack_slots = ring._pack_slots
    monkeypatch.setattr(ring, "_pack_slots", lambda *args: packed.append(args) or pack_slots(*args))
    rng = random.Random(5)
    a, b = dense(rng, "q", 16, -2), dense(rng, "q", 16, 0, 8)
    monkeypatch.setattr(ring, "TERM_BUDGET", 255)
    with pytest.raises(TermBudgetExceeded):
        RingValue(a) * RingValue(b)
    assert packed == []
    monkeypatch.setattr(ring, "TERM_BUDGET", 256)
    assert RingValue(a) * RingValue(b) == RingValue(ref_mul(a, b))
    assert len(packed) == 2


def test_sparse_values_build_no_slot_list():
    # 1 + z^(2^29) would fill 2^29 + 1 slots; the density limit is tested on
    # the exponents first, so a product of 2 * 128 term pairs lays none out
    sparse, dense = parse("z^536870912 + 1"), sum(Z ** e for e in range(128))
    tracemalloc.start()
    try:
        began = time.perf_counter()
        got = sparse * dense
        took = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == dense + Z ** 536870912 * dense
    assert peak < 2 ** 22 and took < 0.5, (peak, took)


def division_outcome(dividend, divisor):
    """dividend.exact_div(divisor), or the type and message of its error."""
    try:
        return dividend.exact_div(divisor)
    except (InexactDivision, ExponentOverflow) as err:
        return type(err), str(err)


def test_one_term_division_matches_long_division(monkeypatch):
    seen = count_paths(monkeypatch)
    rng = random.Random(1968)
    found = collections.Counter()
    for trial in range(400):
        kind = trial % 4
        coeff = rng.choice([2, -2, 3, -3, 1, -1])
        dexps = [rng.randint(-3, 3) for _ in range(3)] + [rng.choice([0, 1, 2])]
        quotient = {}
        while len(quotient) < 2:
            quotient = rand_terms(rng, [rng.randint(-3, 3) for _ in range(3)] + [2])
        dividend = ref_mul(quotient, {tuple(dexps): coeff})
        if kind == 1:  # an indivisible coefficient below the leading term
            key = min(dividend, key=ref_order)
            dividend[key] += rng.choice([-1, 1])
        elif kind == 2:  # x would go negative
            dexps[3] = max(k[3] for k in dividend) + rng.randint(1, 2)
        elif kind == 3:  # a quotient exponent past either end of the range
            at, edge = rng.randrange(3), rng.choice([LIMIT - 1, -LIMIT])
            dexps[at] = -3 if edge > 0 else 3
            dividend = {k[:at] + (edge,) + k[at + 1:]: c for k, c in dividend.items()}
        divisor = {tuple(dexps): coeff}
        got = division_outcome(RingValue(dividend), RingValue(divisor))
        with monkeypatch.context() as patch:
            patch.setattr(ring, "_div_term", lambda terms, term: None)  # the loop alone
            assert division_outcome(RingValue(dividend), RingValue(divisor)) == got
        want = ref_exact_div(dividend, divisor)
        if isinstance(got, RingValue):
            assert got == RingValue(want)
            found["exact"] += 1
        elif got[0] is ExponentOverflow:
            assert got[1] == "a quotient has an exponent outside [-2^30, 2^30)"
            assert want is not None and not in_range(want)
            found["overflow"] += 1
        else:
            assert got[0] is InexactDivision and want is None
            if got[1] == "quotient would need a negative power of x":
                found["negative x"] += 1
            else:
                assert kind == 1 and got[1] == (
                    f"leading coefficient {dividend[key]} not divisible by {coeff}")
                found["indivisible"] += 1
    assert min(found.values()) >= 60 and len(found) == 4, found
    assert seen["_div_term"] == found["exact"]


def shifted(terms, at, by):
    """terms with exponent at moved by by."""
    return {k[:at] + (k[at] + by,) + k[at + 1:]: c for k, c in terms.items()}


def test_kronecker_division_matches_long_division(monkeypatch):
    seen = count_paths(monkeypatch)
    rng = random.Random(1968)
    found = collections.Counter()
    for trial in range(600):
        var, kind = "pqz"[trial % 3], trial // 3 % 5
        at = "pqz".index(var)
        quotient = dense(rng, var, rng.randint(2, 8), rng.randint(-4, 4), rng.randint(0, 4))
        divisor = dense(rng, var, rng.randint(2, 8), rng.randint(-9, 4), rng.randint(0, 4))
        qlow, qtop = min(k[at] for k in quotient), max(k[at] for k in quotient)
        if kind == 1:  # operands near either end of the range, the quotient near 0
            divisor = shifted(divisor, at, rng.choice([LIMIT - 40, -(LIMIT - 40)]))
        elif kind == 2:  # a quotient exponent past either end of the range
            dtop, dlow = max(k[at] for k in divisor), min(k[at] for k in divisor)
            if rng.random() < 0.5:
                quotient = shifted(quotient, at, LIMIT + rng.randint(0, 3) - qtop)
                divisor = shifted(divisor, at, -20 - dtop)
            else:
                quotient = shifted(quotient, at, -LIMIT - rng.randint(1, 4) - qlow)
                divisor = shifted(divisor, at, 20 - dlow)
        elif kind == 3:  # a second variable, or x, in either operand
            other = rng.choice([i for i in range(4) if i != at])
            if rng.random() < 0.5:  # a term each
                quotient = {shift: c for k, c in quotient.items()
                            for shift in shifted({k: c}, other, rng.randint(1, 2))}
            else:
                divisor = shifted(divisor, other, rng.randint(1, 2))
        dividend = ref_mul(quotient, divisor)
        if kind == 4:  # a divisor that does not divide: one coefficient moved, or longer
            if rng.random() < 0.5:
                dividend, divisor = divisor, dividend
            else:
                spot = rng.choice(sorted(dividend))
                spot = spot[:at] + (spot[at] + rng.randint(-2, 2),) + spot[at + 1:]
                dividend[spot] = dividend.get(spot, 0) + rng.choice([-1, 1])
        assert in_range(dividend) and in_range(divisor)
        got = division_outcome(RingValue(dividend), RingValue(divisor))
        with monkeypatch.context() as patch:
            patch.setattr(ring, "_div_kronecker", lambda terms, dterms: None)  # the loop alone
            assert division_outcome(RingValue(dividend), RingValue(divisor)) == got
        want = ref_exact_div(dividend, divisor)
        if kind == 2:
            assert got == (ExponentOverflow, "a quotient has an exponent outside [-2^30, 2^30)")
            assert want is not None and not in_range(want)
        elif kind == 4:
            assert got[0] is InexactDivision and want is None
        else:
            assert got == RingValue(want) == RingValue(quotient)
            # the path takes both operands where each lies on a line in var:
            # kinds 0 and 1, and kind 3 where it moves a whole operand, or
            # every term of the quotient alike
            if all(len({k[:at] + k[at + 1:] for k in t}) == 1 for t in (dividend, divisor)):
                found["taken"] += 1
                found[f"taken, kind {kind}"] += 1
                # the quotient's least exponent: the dividend's least key lies
                # below the divisor's, above it, or level with it
                found["below" if qlow < 0 else "above" if qlow else "level"] += 1
        found[kind] += 1
    assert min(found.values()) >= 10, found
    assert seen["_div_kronecker"] == found["taken"], (seen, found)


def test_kronecker_division_refuses_a_quotient_wider_than_its_slots(monkeypatch):
    # (1 - y)^8 [21]_y^9 = (1 - y^21)^8 [21]_y has 189 terms, the largest 70,
    # while its quotient [21]_y^9 by (1 - y)^8 reaches 1.7 * 10^10: the packed
    # ints divide exactly, but the quotient's slots carry into each other
    seen = count_paths(monkeypatch)
    for var in "pqz":
        y = RingValue(one_var(var, {1: 1}))
        divisor, quotient = (1 - y) ** 8, sum(y ** e for e in range(21)) ** 9
        dividend = divisor * quotient
        assert len(dividend.terms) == 189 and max(dividend.terms.values()) == 70
        assert max(quotient.terms.values()) == 17148949027
        assert dividend.exact_div(divisor) == quotient
    assert seen["_div_kronecker"] == 0


@pytest.mark.parametrize("coeff", [2 ** 15 - 1, -(2 ** 15 - 1), 2 ** 23 - 1, 3])
def test_kronecker_division_slots_keep_a_spare_byte(monkeypatch, coeff):
    # coeff y^-4 (1 - y^10) / (y^-4 (1 - y)): the certificate's bound 2 |coeff|
    # takes one bit more than the dividend's largest coefficient, so slots one
    # byte narrower would refuse the first three
    seen = count_paths(monkeypatch)
    for var in "pqz":
        quotient = one_var(var, {e: coeff for e in range(10)})
        divisor = one_var(var, {-4: 1, -3: -1})
        dividend = RingValue(ref_mul(quotient, divisor))
        assert dividend.exact_div(RingValue(divisor)) == RingValue(quotient)
    assert seen["_div_kronecker"] == 3


# -- Kronecker substitution along any line: a value packs when its keys lie on one
# line, each from its own least key, in steps of the gcd of both values' key gaps

def along(rng, step, start, count, spread=0):
    """count terms with mixed signs at start + e step, e running through
    count + spread values from 0, both ends used."""
    es = [0, count + spread - 1] + rng.sample(range(1, count + spread - 1), count - 2)
    return {tuple(s + e * d for s, d in zip(start, step)): rng.choice([-1, 1]) * rng.randint(1, 9)
            for e in es}


def loop_outcome(monkeypatch, dividend, divisor):
    """division_outcome with the Kronecker path off: the loop's answer."""
    with monkeypatch.context() as patch:
        patch.setattr(ring, "_div_kronecker", lambda terms, dterms: None)
        return division_outcome(dividend, divisor)


# homogeneous in p and q, p^d f(q/p), as pq-binomial's values are; q and x
# together; a line through three variables; one variable
LINES = [((-1, 1, 0, 0), (24, -12, 0, 0)), ((0, 1, 0, 1), (3, -5, 0, 0)),
         ((2, 0, -1, 0), (-9, 4, 6, 1)), ((0, 0, 1, 0), (0, 0, -7, 0))]


def test_kronecker_products_and_quotients_on_a_line(monkeypatch):
    seen = count_paths(monkeypatch)
    rng = random.Random(2009)
    for step, start in LINES:
        for trial in range(4):
            a = along(rng, step, start, 16 + trial, trial)
            b = along(rng, step, tuple(c + trial for c in start[:3]) + (start[3],), 20, 3)
            product = RingValue(a) * RingValue(b)
            assert product == RingValue(ref_mul(a, b))
            for quotient, divisor in [(a, b), (b, a)]:
                got = product.exact_div(RingValue(divisor))
                assert got == RingValue(quotient) == RingValue(ref_exact_div(ref_mul(a, b), divisor))
                assert loop_outcome(monkeypatch, product, RingValue(divisor)) == got
    assert seen["_mul_kronecker"] == seen["_div_kronecker"] / 2 == len(LINES) * 4


def test_kronecker_quotients_that_do_not_exist_on_a_line(monkeypatch):
    seen = count_paths(monkeypatch)
    rng = random.Random(44)
    for step, start in LINES:
        a, b = along(rng, step, start, 12, 4), along(rng, step, start, 6, 2)
        dividend = ref_mul(a, b)
        moved = dict(dividend)  # one coefficient changed, still on the line
        moved[min(dividend, key=ref_order)] *= -2
        for n, d in [(moved, b), (a, b), (b, a), (ref_mul(a, a), ref_mul(b, b))]:
            assert ref_exact_div(n, d) is None and ring._slot_lists([RingValue(n).terms,
                                                                     RingValue(d).terms])
            got = division_outcome(RingValue(n), RingValue(d))
            assert got[0] is InexactDivision and got == loop_outcome(monkeypatch, RingValue(n),
                                                                     RingValue(d))
    assert seen["_div_kronecker"] == 0


def test_kronecker_quotients_that_need_a_negative_power_of_x(monkeypatch):
    # each pair packs and divides in y, but the quotient holds x^-1: at its
    # first slot, (1 + q)^3 / (x (1 + q)), or at its last, (x + q)^2 / (x (x + q))
    seen = count_paths(monkeypatch)
    for n, d in [((1 + Q) ** 3, X * (1 + Q)), ((X + Q) ** 2, X * (X + Q))]:
        assert ring._slot_lists([n.terms, d.terms]) is not None
        got = division_outcome(n, d)
        assert got == (InexactDivision, "quotient would need a negative power of x")
        assert got == loop_outcome(monkeypatch, n, d)
    assert seen["_div_kronecker"] == 0


def test_kronecker_exponent_overflow_through_a_line(monkeypatch):
    seen = count_paths(monkeypatch)
    rng = random.Random(7)
    step, top = (-1, 1, 0, 0), LIMIT - 1
    high = along(rng, step, (top, -10, 0, 0), 16)  # p from 2^30 - 1 down
    for start, fits in [((0, 3, 0, 0), True), ((1, 3, 0, 0), False)]:
        other = along(rng, step, start, 16)
        want = ref_mul(high, other)
        assert in_range(want) == fits
        if fits:
            assert RingValue(high) * RingValue(other) == RingValue(want)
        else:
            with pytest.raises(ExponentOverflow):
                RingValue(high) * RingValue(other)
    assert seen["_mul_kronecker"] == 2
    # a quotient past the top of p: the path refuses it, and the loop names it
    quotient, divisor = along(rng, step, (top + 2, -5, 0, 0), 8), along(rng, step, (-20, 0, 0, 0), 6)
    dividend = RingValue(ref_mul(quotient, divisor))
    assert ring._slot_lists([dividend.terms, RingValue(divisor).terms]) is not None
    got = division_outcome(dividend, RingValue(divisor))
    assert got == (ExponentOverflow, "a quotient has an exponent outside [-2^30, 2^30)")
    assert got == loop_outcome(monkeypatch, dividend, RingValue(divisor))
    assert seen["_div_kronecker"] == 0


def test_kronecker_values_on_two_lines_build_no_slot_list():
    # the key gaps of p and q have a gcd of 2^64, so [p]_128 (1 + q) would fill
    # more than 2^64 slots; the limit is tested on the keys first, and no list
    # is built
    along_p, along_q = sum(P ** e for e in range(128)), 1 + Q
    assert ring._slot_lists([along_p.terms, along_q.terms]) is None
    tracemalloc.start()
    try:
        began = time.perf_counter()
        got = along_p * along_q
        took = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == along_p + Q * along_p
    assert peak < 2 ** 22 and took < 0.5, (peak, took)


def tuple_terms(value):
    """The terms of value keyed by exponent tuples, as the references take them."""
    return {ring._unpack(key): c for key, c in value.terms.items()}


def test_kronecker_step_is_the_gcd_of_both_values_key_gaps(monkeypatch):
    seen = count_paths(monkeypatch)
    # zeta's shape: the first value's two least keys, z^-11 and z^-9, lie two
    # steps apart, so a step read off them alone would fit no other key; the
    # gcd of every gap is one z
    gap = Z ** -11 + sum(Z ** e for e in range(-9, 6))
    dense_z = RingValue(dense(random.Random(3), "z", 16, -4))
    # a line in q^2 packs at step q^2, the odd value from its own least key
    even = sum(Q ** (2 * e) for e in range(16))
    odd = sum((e % 3 + 1) * Q ** (2 * e + 1) for e in range(-8, 8))
    for a, b, unit, spans in [(gap, dense_z, (0, 0, 1, 0), [17, 16]),
                              (even, odd, (0, 2, 0, 0), [16, 16])]:
        step, _, slots = ring._slot_lists([a.terms, b.terms])
        assert step == ring._pack(unit) - ring._UNIT and list(map(len, slots)) == spans
        assert a * b == RingValue(ref_mul(tuple_terms(a), tuple_terms(b)))
    assert seen["_mul_kronecker"] == 2


# -- render's piece tables and the fused DP step -------------------------------------

def test_render_past_its_piece_tables(monkeypatch):
    cap = 3
    monkeypatch.setattr(ring, "_PIECE_CAP", cap)
    monkeypatch.setattr(ring, "_PIECES", tuple({LIMIT: ""} for _ in "pqzx"))
    huge = 7 * 10 ** 4400  # past the digit limit of str(int)
    values = []
    for i in range(4):
        for exp in (1, -1, LIMIT - 1, -LIMIT) if i < 3 else (1, LIMIT - 1):
            key = (0,) * i + (exp,) + (0,) * (3 - i)
            values.append({key: 1, (1, 2, 3, 4): -1})
            values.append({key: -1, (2, 0, -5, 1): 1, (0, 0, 0, 0): -1})
    # more distinct exponents in every variable than a table holds
    values.append({(e, -e, 2 * e, e + 6): (-1) ** (e % 2) for e in range(-6, 7)})
    values.append({(0, 3, 0, 0): huge, (1, 0, 0, 0): -huge, (0, 0, 0, 0): huge})
    for terms in values:
        for sign in (1, -1):
            value = RingValue({k: sign * c for k, c in terms.items()})
            text = value.render()
            assert text == ref_render({k: sign * c for k, c in terms.items()})
            assert parse(text) == value
            assert max(map(len, ring._PIECES)) <= cap
    assert min(map(len, ring._PIECES)) == cap  # every table filled to its cap


def step_cases(rng):
    """(acc, x, y) triples: ints, zero, the unit, one-term values, terms that
    cancel, and factors of Kronecker size."""
    one_term = [RingValue.monomial(rng.choice([-2, -1, 1, 3]), *(rng.randint(-3, 3) for _ in range(3)),
                                   rng.randint(0, 3)) for _ in range(4)]
    plain = [rand_value(rng) for _ in range(6)]
    big = [RingValue(dense(rng, "q", 20, 0)), RingValue(dense(rng, "q", 16, -3))]
    operands = [0, 1, -3, ZERO, ONE, *one_term, *plain, *big]
    for _ in range(400):
        acc, x, y = (rng.choice(operands) for _ in range(3))
        yield acc, x, y
        yield -(x * y), x, y  # every term cancels
        yield acc - x * y + 1, x, y  # all but the constant cancel


def test_addmul_is_acc_plus_a_product(monkeypatch):
    seen = count_paths(monkeypatch)
    rng = random.Random(26)
    for acc, x, y in step_cases(rng):
        before = ring.render(acc)
        want, got = acc + x * y, ring.addmul(acc, x, y)
        assert got == want and type(got) is type(want), (acc, x, y)
        if isinstance(got, RingValue):
            assert 0 not in got.terms.values()
        assert ring.render(acc) == before  # acc's terms are copied, never written
    # a one-term factor takes one _mul_term, writing into the copy
    acc, x, y = P + Q, 2 * Z, RingValue(dense(rng, "q", 20, 0))
    taken = seen["_mul_term"]
    ring.addmul(acc, x, y)
    assert seen["_mul_term"] == taken + 1


def test_addmul_raises_where_the_operators_do(monkeypatch):
    top = LIMIT - 1
    edge = RingValue.monomial(1, q=top)
    for acc, x, y in [(P, edge, Q), (P, Q + 1, edge), (edge, RingValue.monomial(1, p=-LIMIT), P ** -1),
                      (1 + Q, RingValue(dense(random.Random(1), "q", 20, top - 30)), Q ** 20 + Q)]:
        for step in (lambda: acc + x * y, lambda: ring.addmul(acc, x, y)):
            with pytest.raises(ExponentOverflow):
                step()
    assert ring.addmul(P, edge, Q ** -1) == P + RingValue.monomial(1, q=top - 1)
    monkeypatch.setattr(ring, "TERM_BUDGET", 12)
    a, b = 1 + P + Q, 1 + Q + Z + P * Z
    assert ring.addmul(Z, a, b) == Z + a * b  # 3 * 4 pairs: on the budget
    assert ring.addmul(Z, ONE, b + Z ** 2 + a) == Z + b + Z ** 2 + a  # a unit walks 6 terms
    for x, y in [(a, b + Z ** 2), (b + Z ** 2, a), (P, sum(Q ** e for e in range(13)))]:
        for step in (lambda: Z + x * y, lambda: ring.addmul(Z, x, y)):
            with pytest.raises(TermBudgetExceeded):
                step()


def test_addmul_adds_a_kronecker_product_into_its_sum(monkeypatch):
    seen = count_paths(monkeypatch)
    rng = random.Random(37)
    a, b = dense(rng, "q", 20, 0), dense(rng, "q", 16, -3)  # 320 term pairs
    x, y, xy = RingValue(a), RingValue(b), RingValue(ref_mul(a, b))
    # accs apart from the product, overlapping it, and cancelling it to p and to 0
    accs = [P + Q ** 5 + 3, RingValue(dense(rng, "q", 12, 10)), P - xy, -xy]
    taken = seen["_mul_kronecker"]
    for acc in accs:
        before = acc.render(), x.render(), y.render()
        got = ring.addmul(acc, x, y)
        assert got == acc + xy and 0 not in got.terms.values()
        assert (acc.render(), x.render(), y.render()) == before
    assert seen["_mul_kronecker"] == taken + len(accs)
    assert ring.addmul(P - xy, x, y).terms == P.terms
    assert ring.addmul(-xy, x, y).terms == {}


def test_subtraction_adds_the_negation():
    rng = random.Random(37)
    for acc, x, y in step_cases(rng):
        for a, b in [(acc, x), (x, y), (acc, x * y), (x * y, acc), (x, x)]:
            before = ring.render(a), ring.render(b)
            got, want = a - b, a + (-b)
            assert got == want and type(got) is type(want), (a, b)
            if isinstance(got, RingValue):
                assert 0 not in got.terms.values()
            assert (ring.render(a), ring.render(b)) == before


def test_subtraction_negates_no_copy(monkeypatch):
    values = [ZERO, ONE, P, P - 2, 2 - P, P * Q + Z ** -1, RingValue(dense(random.Random(3), "q", 20, 0))]
    cases = [(a, b) for a in values for b in [*values, 0, 1, -3]]
    wants = [a + (-b) for a, b in cases]

    def refuse(self):
        raise AssertionError(f"negated {self!r}")
    monkeypatch.setattr(RingValue, "__neg__", refuse)
    for (a, b), want in zip(cases, wants):
        got = a - b
        assert got == want and 0 not in got.terms.values(), (a, b)


def test_zero_coefficients_are_never_stored():
    assert parse("0*p + q - q").terms == {}
    assert parse("2*p + q - p - q + 0 - p").terms == {}
    assert RingValue({(1, 0, 0, 0): 0}).terms == {}
    assert RingValue({(1, 0, 0, 0): 0, (0, 1, 0, 0): 3}).terms == (3 * Q).terms


# the fewest results each fast path returns over the jobs below
REACH = {"_mul_kronecker": 320, "_mul_term": 150, "_div_term": 80, "_div_kronecker": 80}


def fresh(name: str) -> WeightPair:
    """builtin(name) with its own weight specs, whose value memos start empty
    whatever ran before."""
    return WeightPair.from_json(builtin(name).to_json())


def test_fast_paths_are_reached(monkeypatch, capsys, tmp_path):
    # a later change to eligibility cannot drain a path silently; every job
    # reads fresh weight specs and tables, so no earlier test fills them
    stirling.clear_tables()  # a pair equal to a builtin one shares its tables
    seen = count_paths(monkeypatch, ("_mul_kronecker", "_div_term", "_div_kronecker"))

    # every sum runs _mul_term too, so its reach counts products with a one-term operand
    def one_term(a, b, out, mul=ring._mul):
        out = mul(a, b, out)
        seen["_mul_term"] += min(len(a), len(b)) == 1
        return out
    monkeypatch.setattr(ring, "_mul", one_term)
    # det divides once a row: by pivots in one variable for q-stirling and
    # jacobi, by one-term pivots for pq-binomial and q-binomial; the row
    # updates of q-stirling, q-binomial and pq-binomial, whose values are
    # homogeneous in p and q, are Kronecker products
    packed = {}
    for name, kind, r, s in [("q-stirling", "second", 8, 3), ("jacobi", "second", 11, 2),
                             ("pq-binomial", "second", 12, 4), ("q-binomial", "first", 12, 0)]:
        spec = tmp_path / f"{name}.json"
        spec.write_text(builtin(name).to_json(), encoding="utf-8")
        before = seen["_mul_kronecker"]
        assert cli.main(["det", "--kind", kind, "--weights", f"@{spec}",
                         "--r", str(r), "--s", str(s)]) == 0
        packed[name] = seen["_mul_kronecker"] - before
    # pq-binomial packs all 325 of its products of 256 or more term pairs
    assert packed["pq-binomial"] >= 300, packed
    StirlingTable(fresh("q-stirling"), "first", method="recurrence").row(20)
    StirlingTable(fresh("q-binomial"), "second", method="recurrence").row(12)
    # q-binomial's columns extend from one another, a product an entry; v = z i
    # and w = i have no ratio, so every column runs its own DP on one-term
    # products, 165 of them
    no_ratio = WeightPair(WeightSpec("polynomial", coefficients=[0, "z"]),
                          WeightSpec("polynomial", coefficients=[0, 1]))
    StirlingTable(no_ratio, "second", 1, 1, method="recurrence").row(10)
    assert [name for name, least in REACH.items() if seen[name] < least] == [], seen
