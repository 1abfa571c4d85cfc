"""Weight pairs: the two index-weight functions driving every triangle.

A weight spec is a small declarative value (kind, parameters, index offset)
for a total function from the integers into the coefficient ring.  Specs
serialize to and from JSON and report whether they are combinatorial
(nonnegative integer values at nonnegative indices), which the enumeration
layer requires.  Everything a kind means, its parameters, its rule and when
it is combinatorial, lives in one row of `_KINDS`.

A weight pair bundles the two specs (v, w); the builtin catalog covers the
classical pair, the p,q and q analogues, and the named polynomial families.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from .ring import ZERO, RingValue, ring_sum
from .ring import parse as parse_ring

_BASES = ("p", "q", "z")

# values one spec memoizes: verify --suite all asks for about 470 distinct
# indices over all its specs, and a table of rows 0..N about N + 1 per spec
EVAL_MEMO_SIZE = 4096


class UndefinedIndex(KeyError):
    """A table weight was queried outside its value map with no default."""


class NegativeQInteger(ValueError):
    """q-integer and pq-integer weights are undefined at negative indices."""


class UnknownBuiltin(ValueError):
    """The requested builtin weight pair does not exist."""


class WeightSpec:
    """One weight function.  eval(i) applies the offset, then the kind rule."""

    __slots__ = ("kind", "offset", "params", "_cache", "_key")

    def __init__(self, kind: str, offset: int = 0, **params):
        if kind not in KINDS:
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.offset = _int_in(offset, "offset")
        self.params = _check_params(kind, params)
        self._cache: dict = {}
        # the JSON form is canonical, so it is the identity
        self._key = json.dumps(self.to_dict(), sort_keys=True)

    def eval(self, i: int) -> RingValue:
        value = self._cache.get(i)
        if value is None:
            if len(self._cache) >= EVAL_MEMO_SIZE:
                del self._cache[next(iter(self._cache))]  # the oldest entry
            value = self._cache[i] = _KINDS[self.kind].evaluate(self.params, i + self.offset)
        return value

    def is_combinatorial(self) -> bool:
        """True when eval(i) is a nonnegative integer for every i >= 0."""
        return _KINDS[self.kind].combinatorial(self.params, self.offset)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, **_value_out(self.params)}
        if self.offset:
            out["offset"] = self.offset
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "WeightSpec":
        if not isinstance(data, Mapping):
            raise ValueError("weight spec must be a JSON object")
        data = dict(data)
        return cls(data.pop("kind", None), offset=data.pop("offset", 0), **data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightSpec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"WeightSpec({self.to_dict()!r})"


class WeightPair:
    """The pair V = (v, w).  label is cosmetic and excluded from identity."""

    __slots__ = ("v", "w", "label", "_hash")

    def __init__(self, v: WeightSpec, w: WeightSpec, label: str | None = None):
        self.v = v
        self.w = w
        self.label = label
        # kept as an int: pairs key the table cache behind stirling.first_kind
        self._hash = hash((v, w))

    def is_combinatorial(self) -> bool:
        return self.v.is_combinatorial() and self.w.is_combinatorial()

    def to_dict(self) -> dict:
        return {"v": self.v.to_dict(), "w": self.w.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping, label: str | None = None) -> "WeightPair":
        if not isinstance(data, Mapping) or "v" not in data or "w" not in data:
            raise ValueError('weight pair JSON must have "v" and "w" entries')
        return cls(WeightSpec.from_dict(data["v"]), WeightSpec.from_dict(data["w"]), label=label)

    @classmethod
    def from_json(cls, text: str, label: str | None = None) -> "WeightPair":
        return cls.from_dict(json.loads(text), label=label)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightPair):
            return NotImplemented
        return self.v == other.v and self.w == other.w

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"WeightPair({self.label or self.to_json()})"


def swap(pair: WeightPair) -> WeightPair:
    label = f"swap({pair.label})" if pair.label else None
    return WeightPair(pair.w, pair.v, label=label)


# -- parameters --------------------------------------------------------------------

def _value_in(value) -> RingValue:
    # JSON true would otherwise count as 1 and be echoed back as true
    if isinstance(value, bool):
        raise ValueError(f"weight values must be integers or strings, got {value!r}")
    out = parse_ring(value) if isinstance(value, str) else RingValue.coerce(value)
    if out.degree("x") > 0:
        raise ValueError("weights may not use the series variable x")
    return out


def _value_out(value):
    """The JSON form of a parsed parameter: ring values as ints or strings,
    tuples as lists, maps with string keys."""
    if isinstance(value, RingValue):
        return value.as_int() if value.is_constant() else value.render()
    if isinstance(value, tuple):
        return [_value_out(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _value_out(v) for k, v in value.items()}
    return value


def _int_in(value, what: str) -> int:
    # int() would truncate 1.7 and accept "2"; a spec must say what it means
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _index_in(key) -> int:
    # int() would read "1_0" as 10 and " 1" as 1; a key must name its index plainly
    if isinstance(key, str) and re.fullmatch(r"0|-?[1-9][0-9]*", key):
        return int(key)
    return _int_in(key, "table index")


def _coefficients_in(coefficients) -> tuple:
    if not isinstance(coefficients, (list, tuple)):
        raise ValueError("polynomial coefficients must be a list, lowest degree first")
    coeffs = [_value_in(c) for c in coefficients]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def _base_in(base) -> str:
    if base not in _BASES:
        raise ValueError(f"monomial base must be one of {_BASES}, got {base!r}")
    return base


def _values_in(values) -> dict:
    if not isinstance(values, Mapping):
        raise ValueError("table weight values must map indices to values")
    return {_index_in(k): _value_in(v) for k, v in values.items()}


def _check_params(kind: str, params: dict) -> dict:
    parsers = _KINDS[kind].params
    extra = set(params) - set(parsers)
    if extra:
        raise ValueError(f"{kind} weight does not take {sorted(extra)}")
    missing = set(parsers) - set(params) - {"default"}
    if missing:
        raise ValueError(f"{kind} weight needs {sorted(missing)}")
    return {name: parse(params[name]) for name, parse in parsers.items() if name in params}


# -- the kinds ---------------------------------------------------------------------

def _counts(value: RingValue) -> bool:
    return value.is_constant() and value.as_int() >= 0


def _eval_q_integer(params, j):
    if j < 0:
        raise NegativeQInteger(f"[{j}]_q is undefined")
    return RingValue({(0, t, 0, 0): 1 for t in range(j)})


def _eval_pq_integer(params, j):
    if j < 0:
        raise NegativeQInteger(f"[{j}]_pq is undefined")
    return RingValue({(j - 1 - t, t, 0, 0): 1 for t in range(j)})


def _eval_product_shifted(params, j):
    out = 1
    for a in params["shifts"]:
        out *= j + a
    return RingValue.from_int(out)


def _eval_oeis_t(params, j):
    r = params["row"]
    if 0 <= j <= r:
        return RingValue.from_int(((j + 2) // 2) * (r - j + (j + 3) // 2))
    return RingValue.from_int(0)


def _eval_table(params, j):
    value = params["values"].get(j, params.get("default"))
    if value is None:
        raise UndefinedIndex(f"table weight has no value at index {j}")
    return value


class _Kind(NamedTuple):
    params: dict  # name -> parser, in JSON order; every name but "default" is required
    evaluate: Callable  # (params, index after the offset) -> RingValue
    combinatorial: Callable  # (params, offset) -> bool


def _never(params, offset) -> bool:
    return False


_KINDS = {
    "constant": _Kind({"value": _value_in}, lambda params, j: params["value"],
                      lambda params, offset: _counts(params["value"])),
    "polynomial": _Kind(
        {"coefficients": _coefficients_in},
        lambda params, j: ring_sum(c * j ** t for t, c in enumerate(params["coefficients"]) if c),
        lambda params, offset: offset >= 0 and all(map(_counts, params["coefficients"]))),
    "monomial": _Kind({"base": _base_in},
                      lambda params, j: RingValue.variable(params["base"]) ** j, _never),
    "q-integer": _Kind({}, _eval_q_integer, _never),
    "pq-integer": _Kind({}, _eval_pq_integer, _never),
    "product-shifted": _Kind(
        {"shifts": lambda shifts: tuple(sorted(_int_in(a, "shift") for a in shifts))},
        _eval_product_shifted,
        lambda params, offset: offset >= 0 and all(a >= 0 for a in params["shifts"])),
    "oeis-T": _Kind({"row": lambda row: _int_in(row, "row")}, _eval_oeis_t,
                    lambda params, offset: True),
    "table": _Kind({"values": _values_in, "default": _value_in}, _eval_table,
                   lambda params, offset: all(map(_counts, (*params["values"].values(),
                                                           params.get("default", ZERO))))),
}

KINDS = tuple(_KINDS)


# -- builtin catalog -----------------------------------------------------------

_NAME_RE = re.compile(r"^([a-z-]+)(?:\((-?\d+)\))?$")

CATALOG = ("classical", "pq-binomial", "q-binomial", "q-stirling", "b-stirling",
           "legendre", "jacobi", "noncentral(1)", "noncentral(-1)", "merris(2)",
           "sun(2)", "zeta")


@lru_cache(maxsize=128)
def builtin(name: str) -> WeightPair:
    match = _NAME_RE.match(name.strip())
    if not match:
        raise UnknownBuiltin(f"cannot parse builtin weight name {name!r}")
    family, arg = match.groups()
    rule, make = _FAMILIES.get(family, (None, None))
    if rule is None:
        if arg is not None:
            raise UnknownBuiltin(f"{family} does not take a parameter")
        if make is None:
            raise UnknownBuiltin(f"no builtin weight pair named {name!r}")
        return WeightPair(*make(), label=family)
    if arg is None:
        raise UnknownBuiltin(f"{family} needs an integer parameter, e.g. {family}(2)")
    m = int(arg)
    if not rule(m):
        raise UnknownBuiltin(f"parameter {m} out of range for {family}")
    return WeightPair(*make(m), label=f"{family}({m})")


def _one() -> WeightSpec:
    return WeightSpec("constant", value=1)


def _identity() -> WeightSpec:
    return WeightSpec("polynomial", coefficients=[0, 1])


def _shifted(m: int) -> tuple:
    return WeightSpec("polynomial", coefficients=[m, 1]), _one()


def _monomial(base: str) -> WeightSpec:
    return WeightSpec("monomial", base=base)


# family -> (parameter rule, maker of (v, w)); a rule of None takes no parameter
_FAMILIES = {
    "classical": (None, lambda: (_identity(), _one())),
    "pq-binomial": (None, lambda: (_monomial("p"), _monomial("q"))),
    "q-binomial": (None, lambda: (_monomial("q"), _one())),
    "q-stirling": (None, lambda: (WeightSpec("q-integer"), _one())),
    "b-stirling": (None, lambda: (_identity(), _identity())),
    "legendre": (None, lambda: (WeightSpec("product-shifted", shifts=[0, 1]), _one())),
    "jacobi": (None, lambda: (WeightSpec("polynomial", coefficients=[0, "z", 1]), _one())),
    "zeta": (None, lambda: (_monomial("z"),
                            WeightSpec("polynomial", coefficients=[0, 1], offset=-1))),
    "noncentral": (lambda m: True, _shifted),
    "merris": (lambda m: m >= 0, _shifted),
    # sun: v(i) = i^m
    "sun": (lambda m: m >= 0, lambda m: (WeightSpec("polynomial", coefficients=[0] * m + [1]),
                                         _one())),
}
