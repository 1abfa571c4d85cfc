"""Weight pairs: the two index-weight functions driving every triangle.

A weight spec is a small declarative value (kind, parameters, index offset)
for a total function from the integers into the coefficient ring.  Specs
serialize to and from JSON, expose a stable id for cache keying, and report
whether they are combinatorial (nonnegative integer values at nonnegative
indices), which the enumeration layer requires.

A weight pair bundles the two specs (v, w); the builtin catalog covers the
classical pair, the p,q and q analogues, and the named polynomial families.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import lru_cache
from typing import Mapping, Union

from .ring import RingValue, ring_sum
from .ring import parse as parse_ring

WeightValue = Union[int, RingValue]

KINDS = ("constant", "polynomial", "monomial", "q-integer", "pq-integer",
         "product-shifted", "oeis-T", "table")

_BASES = ("p", "q", "z")


class UndefinedIndex(KeyError):
    """A table weight was queried outside its value map with no default."""


class NegativeQInteger(ValueError):
    """q-integer and pq-integer weights are undefined at negative indices."""


class UnknownBuiltin(ValueError):
    """The requested builtin weight pair does not exist."""


class WeightSpec:
    """One weight function.  eval(i) applies the offset, then the kind rule."""

    __slots__ = ("kind", "offset", "params", "_cache", "_id")

    def __init__(self, kind: str, offset: int = 0, **params):
        if kind not in KINDS:
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.offset = _int_in(offset, "offset")
        self.params = _check_params(kind, params)
        self._cache: dict = {}
        self._id = None

    def eval(self, i: int) -> RingValue:
        value = self._cache.get(i)
        if value is None:
            value = self._cache[i] = _EVALUATORS[self.kind](self.params, i + self.offset)
        return value

    def is_combinatorial(self) -> bool:
        """True when eval(i) is a nonnegative integer for every i >= 0."""
        kind, params = self.kind, self.params
        if kind == "constant":
            v = params["value"]
            return v.is_constant() and v.as_int() >= 0
        if kind == "polynomial":
            return self.offset >= 0 and all(
                c.is_constant() and c.as_int() >= 0 for c in params["coefficients"])
        if kind == "product-shifted":
            return self.offset >= 0 and all(a >= 0 for a in params["shifts"])
        if kind == "oeis-T":
            return True
        if kind == "table":
            values = list(params["values"].values())
            if "default" in params:
                values.append(params["default"])
            return all(v.is_constant() and v.as_int() >= 0 for v in values)
        return False

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "constant":
            out["value"] = _value_out(self.params["value"])
        elif self.kind == "polynomial":
            out["coefficients"] = [_value_out(c) for c in self.params["coefficients"]]
        elif self.kind == "monomial":
            out["base"] = self.params["base"]
        elif self.kind == "product-shifted":
            out["shifts"] = list(self.params["shifts"])
        elif self.kind == "oeis-T":
            out["row"] = self.params["row"]
        elif self.kind == "table":
            out["values"] = {str(k): _value_out(v) for k, v in self.params["values"].items()}
            if "default" in self.params:
                out["default"] = _value_out(self.params["default"])
        if self.offset:
            out["offset"] = self.offset
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "WeightSpec":
        data = dict(data)
        kind = data.pop("kind", None)
        if kind not in KINDS:
            raise ValueError(f"unknown weight kind {kind!r}")
        offset = data.pop("offset", 0)
        return cls(kind, offset=offset, **data)

    @property
    def id(self) -> str:
        if self._id is None:
            blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            self._id = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self._id

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"WeightSpec({self.to_dict()!r})"


class WeightPair:
    """The pair V = (v, w).  label is cosmetic and excluded from identity."""

    __slots__ = ("v", "w", "label", "_id", "_hash")

    def __init__(self, v: WeightSpec, w: WeightSpec, label: str | None = None):
        self.v = v
        self.w = w
        self.label = label
        self._id = None
        self._hash = None

    @property
    def id(self) -> str:
        if self._id is None:
            self._id = f"{self.v.id}:{self.w.id}"
        return self._id

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
        # kept as an int: pairs key the table cache behind stirling.first_kind
        if self._hash is None:
            self._hash = hash(self.id)
        return self._hash

    def __repr__(self) -> str:
        return f"WeightPair({self.label or self.id})"


def swap(pair: WeightPair) -> WeightPair:
    label = f"swap({pair.label})" if pair.label else None
    return WeightPair(pair.w, pair.v, label=label)


# -- parameter validation and evaluation --------------------------------------

def _value_in(value) -> RingValue:
    # JSON true would otherwise count as 1 and be echoed back as true
    if isinstance(value, bool):
        raise ValueError(f"weight values must be integers or strings, got {value!r}")
    out = parse_ring(value) if isinstance(value, str) else RingValue.coerce(value)
    if out.degree("x") > 0:
        raise ValueError("weights may not use the series variable x")
    return out


def _value_out(value: RingValue):
    return value.as_int() if value.is_constant() else value.render()


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


def _check_params(kind: str, params: dict) -> dict:
    extra = set(params) - _ALLOWED_KEYS[kind]
    if extra:
        raise ValueError(f"{kind} weight does not take {sorted(extra)}")
    out: dict = {}
    if kind == "constant":
        out["value"] = _value_in(params["value"])
    elif kind == "polynomial":
        if not isinstance(params["coefficients"], (list, tuple)):
            raise ValueError("polynomial coefficients must be a list, lowest degree first")
        coeffs = [_value_in(c) for c in params["coefficients"]]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        out["coefficients"] = tuple(coeffs)
    elif kind == "monomial":
        base = params["base"]
        if base not in _BASES:
            raise ValueError(f"monomial base must be one of {_BASES}, got {base!r}")
        out["base"] = base
    elif kind == "product-shifted":
        out["shifts"] = tuple(sorted(_int_in(a, "shift") for a in params["shifts"]))
    elif kind == "oeis-T":
        out["row"] = _int_in(params["row"], "row")
    elif kind == "table":
        if not isinstance(params["values"], Mapping):
            raise ValueError("table weight values must map indices to values")
        out["values"] = {_index_in(k): _value_in(v) for k, v in params["values"].items()}
        if "default" in params:
            out["default"] = _value_in(params["default"])
    missing = _REQUIRED_KEYS[kind] - set(out)
    if missing:
        raise ValueError(f"{kind} weight needs {sorted(missing)}")
    return out


_ALLOWED_KEYS = {
    "constant": {"value"},
    "polynomial": {"coefficients"},
    "monomial": {"base"},
    "q-integer": set(),
    "pq-integer": set(),
    "product-shifted": {"shifts"},
    "oeis-T": {"row"},
    "table": {"values", "default"},
}
_REQUIRED_KEYS = {k: v - {"default"} for k, v in _ALLOWED_KEYS.items()}


def _eval_constant(params, j):
    return params["value"]


def _eval_polynomial(params, j):
    return ring_sum(c * j ** t for t, c in enumerate(params["coefficients"]))


def _eval_monomial(params, j):
    return RingValue.variable(params["base"]) ** j


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


_EVALUATORS = {
    "constant": _eval_constant,
    "polynomial": _eval_polynomial,
    "monomial": _eval_monomial,
    "q-integer": _eval_q_integer,
    "pq-integer": _eval_pq_integer,
    "product-shifted": _eval_product_shifted,
    "oeis-T": _eval_oeis_t,
    "table": _eval_table,
}


# -- builtin catalog -----------------------------------------------------------

_NAME_RE = re.compile(r"^([a-z-]+)(?:\((-?\d+)\))?$")

# Parameter rule per family: None means no parameter, otherwise a predicate.
_PARAMETERIZED = {
    "noncentral": lambda m: True,
    "merris": lambda m: m >= 0,
    "sun": lambda m: m >= 0,
}

CATALOG = ("classical", "pq-binomial", "q-binomial", "q-stirling", "b-stirling",
           "legendre", "jacobi", "noncentral(1)", "noncentral(-1)", "merris(2)",
           "sun(2)", "zeta")


@lru_cache(maxsize=None)
def builtin(name: str) -> WeightPair:
    match = _NAME_RE.match(name.strip())
    if not match:
        raise UnknownBuiltin(f"cannot parse builtin weight name {name!r}")
    family, arg = match.group(1), match.group(2)
    if family in _PARAMETERIZED:
        if arg is None:
            raise UnknownBuiltin(f"{family} needs an integer parameter, e.g. {family}(2)")
        m = int(arg)
        if not _PARAMETERIZED[family](m):
            raise UnknownBuiltin(f"parameter {m} out of range for {family}")
        if family == "noncentral" or family == "merris":
            v = WeightSpec("polynomial", coefficients=[m, 1])
        else:  # sun: v(i) = i^m
            v = WeightSpec("polynomial", coefficients=[0] * m + [1])
        return WeightPair(v, _one(), label=f"{family}({m})")
    if arg is not None:
        raise UnknownBuiltin(f"{family} does not take a parameter")
    maker = _FIXED_BUILTINS.get(family)
    if maker is None:
        raise UnknownBuiltin(f"no builtin weight pair named {name!r}")
    return maker()


def _one() -> WeightSpec:
    return WeightSpec("constant", value=1)


def _identity() -> WeightSpec:
    return WeightSpec("polynomial", coefficients=[0, 1])


_FIXED_BUILTINS = {
    "classical": lambda: WeightPair(_identity(), _one(), label="classical"),
    "pq-binomial": lambda: WeightPair(WeightSpec("monomial", base="p"),
                                      WeightSpec("monomial", base="q"), label="pq-binomial"),
    "q-binomial": lambda: WeightPair(WeightSpec("monomial", base="q"), _one(),
                                     label="q-binomial"),
    "q-stirling": lambda: WeightPair(WeightSpec("q-integer"), _one(), label="q-stirling"),
    "b-stirling": lambda: WeightPair(_identity(), _identity(), label="b-stirling"),
    "legendre": lambda: WeightPair(WeightSpec("product-shifted", shifts=[0, 1]), _one(),
                                   label="legendre"),
    "jacobi": lambda: WeightPair(WeightSpec("polynomial", coefficients=[0, "z", 1]), _one(),
                                 label="jacobi"),
    "zeta": lambda: WeightPair(WeightSpec("monomial", base="z"),
                               WeightSpec("polynomial", coefficients=[0, 1], offset=-1),
                               label="zeta"),
}


def combinatorial_catalog() -> tuple:
    return tuple(name for name in CATALOG if builtin(name).is_combinatorial())
