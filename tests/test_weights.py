import json
import pathlib
import re
import time

import pytest

from wstirling import weights
from wstirling.ring import P, Q, RingValue, Z, as_int, parse
from wstirling.weights import (
    CATALOG,
    KINDS,
    UndefinedIndex,
    UnknownBuiltin,
    WeightPair,
    WeightSpec,
    builtin,
    swap,
)


def test_polynomial_weight():
    spec = WeightSpec("polynomial", coefficients=[4, 2])
    assert spec.eval(3) == 10
    assert spec.eval(0) == 4
    assert spec.eval(-2) == 0


def test_eval_memo_is_bounded():
    spec = WeightSpec("polynomial", coefficients=[4, 2])
    indices = range(-weights.EVAL_MEMO_SIZE, weights.EVAL_MEMO_SIZE)
    for i in indices:
        assert spec.eval(i) == 4 + 2 * i
    assert len(spec._cache) == weights.EVAL_MEMO_SIZE
    for i in reversed(indices):  # evicted and memoized values alike
        assert spec.eval(i) == 4 + 2 * i
    assert len(spec._cache) == weights.EVAL_MEMO_SIZE


def test_polynomial_weight_ring_coefficients():
    spec = WeightSpec("polynomial", coefficients=[0, "z", 1])
    assert spec.eval(2) == 4 + 2 * Z
    assert spec.eval(1) == 1 + Z


def test_monomial_weight_laurent():
    spec = WeightSpec("monomial", base="p")
    assert spec.eval(-1) == P ** -1
    assert spec.eval(0) == 1
    assert spec.eval(4) == P ** 4
    with pytest.raises(ValueError):
        WeightSpec("monomial", base="x")


def test_monomial_recursion_invariant():
    for base, var in [("p", P), ("q", Q), ("z", Z)]:
        spec = WeightSpec("monomial", base=base)
        for i in range(-10, 11):
            assert spec.eval(i + 1) == var * spec.eval(i)


def test_q_integer_weight():
    spec = WeightSpec("q-integer")
    assert spec.eval(0) == 0
    assert spec.eval(1) == 1
    assert spec.eval(3) == 1 + Q + Q ** 2
    # the negative indices take the Laurent values [-m]_q = -q^-m [m]_q
    for n in range(-50, 51):
        assert spec.eval(n) * (1 - Q) == 1 - Q ** n, n


def test_pq_integer_weight():
    spec = WeightSpec("pq-integer")
    assert spec.eval(2) == P + Q
    assert spec.eval(3) == P ** 2 + P * Q + Q ** 2
    assert spec.eval(0) == 0
    # the negative indices take the Laurent values [-m]_pq = -(pq)^-m [m]_pq
    for n in range(-50, 51):
        assert spec.eval(n) * (P - Q) == P ** n - Q ** n, n


def test_pq_integer_specializes_to_integer():
    spec = WeightSpec("pq-integer")
    for i in range(21):
        assert spec.eval(i).substitute({"p": 1, "q": 1}) == i


def test_product_shifted_weight():
    spec = WeightSpec("product-shifted", shifts=[0, 1])
    assert spec.eval(3) == 12
    assert spec.eval(0) == 0
    assert spec.eval(-3) == 6


def test_oeis_row_weight():
    spec = WeightSpec("oeis-T", row=2)
    assert [as_int(spec.eval(j)) for j in range(-1, 4)] == [0, 3, 3, 4, 0]
    wide = WeightSpec("oeis-T", row=5)
    assert [as_int(wide.eval(j)) for j in range(6)] == [6, 6, 10, 10, 12, 12]


def test_table_weight():
    spec = WeightSpec("table", values={0: 1, 1: 3, 2: 2})
    assert spec.eval(1) == 3
    with pytest.raises(UndefinedIndex):
        spec.eval(5)
    with_default = WeightSpec("table", values={0: 7}, default=0)
    assert with_default.eval(99) == 0


def test_offset_shifts_the_index():
    spec = WeightSpec("polynomial", coefficients=[0, 1], offset=-1)
    assert spec.eval(0) == -1
    assert spec.eval(5) == 4


def test_swap_examples():
    pair = builtin("classical")
    swapped = swap(pair)
    assert swapped.v.eval(4) == 1
    assert swapped.w.eval(4) == 4
    assert swap(swapped) == pair
    pq = builtin("pq-binomial")
    assert swap(pq).v.eval(2) == Q ** 2
    assert swap(pq).w.eval(2) == P ** 2


def test_builtin_classical_and_friends():
    classical = builtin("classical")
    assert classical.v.eval(6) == 6
    assert classical.w.eval(6) == 1
    b = builtin("b-stirling")
    assert b.v.eval(5) == 5
    assert b.w.eval(5) == 5
    legendre = builtin("legendre")
    assert legendre.v.eval(3) == 12
    jacobi = builtin("jacobi")
    assert jacobi.v.eval(3) == 9 + 3 * Z
    zeta = builtin("zeta")
    assert zeta.v.eval(-2) == Z ** -2
    assert zeta.w.eval(0) == -1
    assert zeta.w.eval(3) == 2


def test_builtin_parameterized():
    assert builtin("noncentral(-1)").v.eval(3) == 2
    assert builtin("merris(2)").v.eval(3) == 5
    assert builtin("sun(2)").v.eval(3) == 9
    assert builtin("sun(0)").v.eval(3) == 1


def test_polynomial_weights_skip_zero_coefficients():
    # sun(m) is i^m, m zero coefficients under a one; a power j^t for each of
    # them would cost time quadratic in m
    v = builtin("sun(200000)").v
    start = time.monotonic()
    assert v.eval(2) == 2 ** 200000
    assert time.monotonic() - start < 1


def test_builtin_rejections():
    for bad in ["nope", "merris", "merris(-1)", "sun(-2)", "classical(3)", "Merris(2)", ""]:
        with pytest.raises(UnknownBuiltin):
            builtin(bad)


def test_b_stirling_products_match_oeis_rows():
    b = builtin("b-stirling")
    for k in range(2, 13):
        row = WeightSpec("oeis-T", row=k - 2)
        products = sorted(
            as_int(b.v.eval(k - j) * b.w.eval(j)) for j in range(k + 1))
        entries = sorted(as_int(row.eval(j)) for j in range(k + 1))
        assert products == entries, f"k={k}: {products} != {entries}"


def test_json_round_trip():
    pair = builtin("jacobi")
    text = pair.to_json()
    again = WeightPair.from_json(text)
    assert again == pair
    assert hash(again) == hash(pair)
    for i in range(-3, 4):
        assert again.v.eval(i) == pair.v.eval(i)


def test_json_format_shape():
    data = json.loads(builtin("zeta").to_json())
    assert set(data) == {"v", "w"}
    assert data["v"] == {"kind": "monomial", "base": "z"}
    assert data["w"] == {"kind": "polynomial", "coefficients": [0, 1], "offset": -1}


def test_table_json_uses_string_keys():
    spec = WeightSpec("table", values={-1: 5, 2: parse("p + q")})
    data = spec.to_dict()
    assert data["values"] == {"-1": 5, "2": "p + q"}
    assert WeightSpec.from_dict(data) == spec


def test_id_is_stable_and_content_based():
    a = WeightSpec("polynomial", coefficients=[0, 1])
    b = WeightSpec("polynomial", coefficients=[0, 1, 0])
    assert hash(a) == hash(b)
    assert a == b
    assert a != WeightSpec("polynomial", coefficients=[1, 1])
    # a foreign type is unequal, not an error
    pair = builtin("classical")
    assert not a == "polynomial" and a != 1
    assert not pair == "classical" and pair != (pair.v, pair.w)


def test_is_combinatorial():
    expected = {"classical", "b-stirling", "legendre", "noncentral(1)", "merris(2)", "sun(2)"}
    assert {name for name in CATALOG if builtin(name).is_combinatorial()} == expected
    assert not builtin("noncentral(-1)").is_combinatorial()
    assert not builtin("zeta").is_combinatorial()
    assert WeightSpec("table", values={0: 2}, default=0).is_combinatorial()
    assert not WeightSpec("table", values={0: -2}).is_combinatorial()
    assert not WeightSpec("polynomial", coefficients=[0, 1], offset=-1).is_combinatorial()


def test_catalog_evaluates_everywhere():
    # every catalog weight is total on a window: no index raises
    for name in CATALOG:
        pair = builtin(name)
        for spec in (pair.v, pair.w):
            for i in range(-4, 8):
                assert isinstance(spec.eval(i), (int, RingValue)), (name, i)


def test_integer_catalog_weights_are_ints():
    for name in ("classical", "legendre", "b-stirling", "noncentral(1)", "noncentral(-1)",
                 "merris(2)", "sun(2)"):
        pair = builtin(name)
        for spec in (pair.v, pair.w):
            assert {type(spec.eval(i)) for i in range(-4, 8)} == {int}, name


def test_constant_parameters_are_ints_in_either_json_form():
    # "2" and 2 give equal specs, so they must give values of one kind
    for spec in (WeightSpec("constant", value="2"), WeightSpec("constant", value=2),
                 WeightSpec("polynomial", coefficients=["1", 2, " 0 "]),
                 WeightSpec("table", values={"0": "-3"}, default="2")):
        assert {type(spec.eval(i)) for i in range(-2, 3)} == {int}, spec
    assert WeightSpec("constant", value="2") == WeightSpec("constant", value=2)


# one spec per kind, with every parameter it takes
SAMPLES = {
    "constant": {"value": "p - 2"},
    "polynomial": {"coefficients": [1, "z", 0, 3, 0]},
    "monomial": {"base": "q"},
    "q-integer": {},
    "pq-integer": {},
    "product-shifted": {"shifts": [2, -1, 0]},
    "oeis-T": {"row": 3},
    "table": {"values": {"-2": "q", "0": 4, "3": -1}, "default": 2},
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_parses_and_round_trips(kind):
    params = SAMPLES[kind]
    with pytest.raises(ValueError, match=re.escape(f"{kind} weight does not take ['bogus']")):
        WeightSpec(kind, bogus=1, **params)
    for name in set(params) - {"default"}:
        rest = {key: value for key, value in params.items() if key != name}
        with pytest.raises(ValueError, match=re.escape(f"{kind} weight needs ['{name}']")):
            WeightSpec(kind, **rest)
    for offset in (0, 2):
        spec = WeightSpec(kind, offset=offset, **params)
        again = WeightSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec and hash(again) == hash(spec)
        indices = range(-3, 6)
        assert [again.eval(i) for i in indices] == [spec.eval(i) for i in indices]
    assert set(SAMPLES) == set(KINDS)


def test_ratio_is_the_step_between_values():
    # ratio g means eval(i + 1) == g * eval(i) for every i, at any offset;
    # only constant (g = 1) and monomial (g = its base) specs promise one
    ratios = {}
    for kind in KINDS:
        for offset in (-3, 0, 2):
            spec = WeightSpec(kind, offset=offset, **SAMPLES[kind])
            g = ratios.setdefault(kind, spec.ratio())
            assert spec.ratio() == g, (kind, offset)
            if g is not None:
                assert all(spec.eval(i + 1) == g * spec.eval(i) for i in range(-4, 6)), kind
    assert ratios == {"constant": 1, "polynomial": None, "monomial": Q,
                      "q-integer": None, "pq-integer": None, "product-shifted": None,
                      "oeis-T": None, "table": None}


def test_offsets_read_as_zero_where_the_weight_ignores_the_index():
    # a triangle reads alpha only through v and beta only through w
    assert builtin("classical").offsets(-1, 1) == (-1, 0)
    assert swap(builtin("jacobi")).offsets(-1, 1) == (0, 1)
    assert builtin("zeta").offsets(-1, 1) == (-1, 1)
    constants = WeightPair.from_json('{"v": {"kind": "constant", "value": 2}, '
                                     '"w": {"kind": "constant", "value": 3}}')
    assert constants.offsets(-1, 1) == (0, 0)


def test_spec_must_be_an_object():
    for bad in [[1], "constant", 1, None]:
        with pytest.raises(ValueError, match="weight spec must be a JSON object"):
            WeightSpec.from_dict(bad)


def test_readme_kind_table_matches_the_kinds():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-zA-Z-]+)` +\|([^|]*)\|", readme, re.MULTILINE)
    documented = {kind: re.findall(r"`([^`]+)`", cell) for kind, cell in rows}
    assert documented == {kind: list(weights._KINDS[kind].params) for kind in KINDS}
