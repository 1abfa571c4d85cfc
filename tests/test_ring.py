import collections
import random
import time
import tracemalloc

import pytest

from wstirling import cli, ring
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
    parse,
    product,
    ring_sum,
)
from wstirling.stirling import StirlingTable
from wstirling.weights import builtin


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
    with pytest.raises(KeyError, match="unknown variable 'y'"):
        (P + Q).substitute({"y": 1})
    with pytest.raises(ValueError, match="^not a constant: p \\+ 1$"):
        (P + 1).as_int()


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
    geom = ring_sum(X ** i for i in range(n))
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
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
        checked += 1
    assert checked > 150


def test_product_and_sum_helpers():
    assert product([]) == 1
    assert ring_sum([]) == 0
    assert product([P, Q, 2]) == 2 * P * Q
    assert ring_sum([P, Q, P]) == 2 * P + Q


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
        body = "*".join(([str(abs(coeff))] if abs(coeff) != 1 or not factors else []) + factors)
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

def count_paths(monkeypatch) -> collections.Counter:
    """Count the results each fast path returns; None, no result, counts 0."""
    seen = collections.Counter()
    for name in ("_mul_term", "_mul_kronecker", "_div_term"):
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
        # pairs, and slots, counted from the pair's least exponent, at most 4 a
        # term (40 + 120 = 4 * (10 + 30); 16 + 112 = 4 * (16 + 16)) and one past
        for (na, la, sa), (nb, lb, sb), kronecker in [
                ((16, 0, 0), (16, 0, 0), True), ((12, -5, 12), (30, 3, 12), True),
                ((40, 2, 40), (7, -9, 0), True), ((15, 0, 0), (17, 0, 0), False),
                ((10, 0, 30), (30, 0, 90), True), ((10, 0, 30), (30, 0, 91), False),
                ((16, 0, 0), (16, 96, 0), True), ((16, 0, 0), (16, 97, 0), False)]:
            base = rng.randint(-9, 4)
            a = dense(rng, var, na, base + la, sa)
            b = dense(rng, var, nb, base + lb, sb)
            got = RingValue(a) * RingValue(b)
            assert got == RingValue(ref_mul(a, b)) and got.render() == ref_render(ref_mul(a, b))
            taken += kronecker
            assert seen["_mul_kronecker"] == taken, (var, na, la, sa, nb, lb, sb)
    # two variables, or x, stay on the dict loop
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
    # the exponents first, so neither a line nor a product of 2 * 128 term
    # pairs lays them out
    sparse, dense = parse("z^536870912 + 1"), ring_sum(Z ** e for e in range(128))
    tracemalloc.start()
    try:
        began = time.perf_counter()
        line, got = ring.packed_line([sparse] * 5), sparse * dense
        took = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert line is None and got == dense + Z ** 536870912 * dense
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


# the fewest results each fast path returns over the jobs below
REACH = {"_mul_kronecker": 250, "_mul_term": 150, "_div_term": 80}


def test_fast_paths_are_reached(monkeypatch, capsys):
    # a later change to eligibility cannot drain a path silently
    seen = count_paths(monkeypatch)
    assert cli.main(["det", "--kind", "second", "--weights", "builtin:q-stirling",
                     "--r", "8", "--s", "3"]) == 0
    StirlingTable(builtin("q-stirling"), "first", method="recurrence").row(20)
    StirlingTable(builtin("q-binomial"), "second", method="recurrence").row(12)
    assert [name for name, least in REACH.items() if seen[name] < least] == [], seen
