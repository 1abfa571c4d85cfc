"""Exact ring arithmetic: integers and sparse multivariate Laurent polynomials.

Every value lives in Z[p, q, z, p^-1, q^-1, z^-1][x]: integer coefficients,
signed exponents for p, q, z, nonnegative exponents for x.  A value is stored
as a map from a packed int key to a nonzero integer coefficient; the zero
polynomial is the empty map.  Plain Python ints coerce to constant values and
compare equal to them.

The key of the exponent vector (ep, eq, ez, ex) is

    (ep + eq + ez + ex) << 128  +  (ep + 2^30) << 96  +  (eq + 2^30) << 64
                                +  (ez + 2^30) << 32  +  (ex + 2^30)

four 32-bit fields, x lowest and p highest, each holding its exponent plus a
bias of 2^30, under an unbounded top field holding the total degree.  Every
exponent lies in [-2^30, 2^30), so a field stays below bit 31, its guard bit.
Int order on keys is graded lexicographic order (total degree first, then
the exponent vector), so sorting and max() need no key function.

Adding two keys and subtracting the key of 1 adds the exponent vectors, so
products add ints.  A sum field that leaves its range sets its guard bit: an
overflow reaches bit 31, an underflow wraps to the top of the field (and
borrows from the field above, which the lower guard bit already reports).
A sum field spans fewer than 2^32 values, so no two exponent vectors share a
key, and `key & _GUARD` over the result keys catches every overflow.  A value
with an exponent outside [-2^30, 2^30) is never built: ExponentOverflow is
raised instead.

Rendering sorts monomials by that order, descending, so output is stable,
e.g. "p^4 + p^3*q + 2*p^2*q^2".  parse() accepts exactly what render() emits,
modulo whitespace, and both take integers past the digit limit of str(int).

A product with a one-term factor shifts the keys of the other; two values
in the same one of p, q, z, dense enough to pack, multiply as two big ints
(Kronecker substitution); the rest walk every pair of terms.  exact_div
divides by one term in one pass, and otherwise, or to name a failure, by
leading-term cancellation.  Every product ends in the same guard test.

A second format serves the symmetric-function DP in symfunc: packed_line()
turns a line of integer values, or of values in one variable with
nonnegative coefficients, into Python ints the DP can run on (Kronecker
substitution again), and PackedLine.decode() turns each entry back into a
RingValue.  One builder, _slot_lists, lays out the slots of both big-int
formats under one density limit, at most _SPREAD slots a term, and one
signed codec packs them.  See "packed lines" below.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

VARIABLES = ("p", "q", "z", "x")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

# Key layout (see the module docstring).  _SHIFTS[i] is the lowest bit of the
# field of VARIABLES[i].
_FIELD = 32
_LIMIT = 1 << 30
_MASK = (1 << _FIELD) - 1
_SHIFTS = (3 * _FIELD, 2 * _FIELD, _FIELD, 0)
_DEGREE_SHIFT = 4 * _FIELD
_GUARD = sum(1 << (shift + _FIELD - 1) for shift in _SHIFTS)

# x is the generating-function variable; nothing in the library ever divides
# by it, so a negative x exponent is always a construction error.
_X = 3

Coercible = Union[int, "RingValue"]


class NonInvertibleSubstitution(ValueError):
    """A negative exponent met an image that is not a unit."""


class InexactDivision(ArithmeticError):
    """exact_div was asked for a quotient that does not exist in the ring."""


class RingParseError(ValueError):
    """Input text is not in the canonical polynomial format."""


class ExponentOverflow(ValueError):
    """An exponent would leave the representable range [-2^30, 2^30)."""


class TermBudgetExceeded(ArithmeticError):
    """A product would walk more than TERM_BUDGET pairs of terms."""


# A product of an a-term and a b-term value walks a*b term pairs.  Past this
# budget it raises instead of running for hours or exhausting memory; the
# largest product the tests and the benchmark make walks under 50,000.
TERM_BUDGET = 10 ** 8


class EnumerationCapExceeded(ValueError):
    """The enumeration would produce more objects than the configured cap."""


ENUMERATION_CAP = 10 ** 6


def _pack(exps) -> int:
    """Key of the exponent vector exps = (ep, eq, ez, ex)."""
    if not -_LIMIT <= min(exps) <= max(exps) < _LIMIT:
        raise ExponentOverflow(f"exponent vector {tuple(exps)} is outside [-2^30, 2^30)")
    ep, eq, ez, ex = exps
    return (((ep + eq + ez + ex) << _DEGREE_SHIFT) + ((ep + _LIMIT) << _SHIFTS[0])
            + ((eq + _LIMIT) << _SHIFTS[1]) + ((ez + _LIMIT) << _SHIFTS[2]) + ex + _LIMIT)


def _unpack(key: int) -> tuple:
    """The exponent vector (ep, eq, ez, ex) of a key."""
    return (((key >> _SHIFTS[0]) & _MASK) - _LIMIT, ((key >> _SHIFTS[1]) & _MASK) - _LIMIT,
            ((key >> _SHIFTS[2]) & _MASK) - _LIMIT, (key & _MASK) - _LIMIT)


def _floor(terms) -> int:
    """Key of the componentwise minimum of the exponent vectors of terms."""
    return _pack([min([(key >> shift) & _MASK for key in terms]) - _LIMIT
                  for shift in _SHIFTS])


_UNIT = _pack((0, 0, 0, 0))
_ONE_TERMS = {_UNIT: 1}


class RingValue:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        # Canonicalize defensively; internal fast paths use _raw instead.
        clean = {}
        for key, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            key = tuple(key)
            if len(key) != 4:
                raise ValueError(f"exponent vector must have 4 entries, got {key!r}")
            if key[_X] < 0:
                raise ValueError("negative exponent for x is not representable")
            key = _pack(key)
            clean[key] = clean.get(key, 0) + coeff
        self.terms = {k: c for k, c in clean.items() if c != 0}

    # -- construction ------------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict) -> "RingValue":
        """Trusted constructor: terms already canonical, keyed by packed ints."""
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def from_int(cls, n: int) -> "RingValue":
        return cls._raw({_UNIT: n} if n else {})

    @classmethod
    def variable(cls, name: str) -> "RingValue":
        return cls.monomial(1, **{name: 1})

    @classmethod
    def monomial(cls, coeff: int, p: int = 0, q: int = 0, z: int = 0, x: int = 0) -> "RingValue":
        if x < 0:
            raise ValueError("negative exponent for x is not representable")
        if coeff == 0:
            return ZERO
        return cls._raw({_pack((p, q, z, x)): coeff})

    @staticmethod
    def coerce(value: Coercible) -> "RingValue":
        if isinstance(value, RingValue):
            return value
        if isinstance(value, int):
            return RingValue.from_int(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into the ring")

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and _UNIT in t)

    def as_int(self) -> int:
        """The value as a plain integer; raises if any variable is present."""
        t = self.terms
        if not t:
            return 0
        if len(t) == 1 and _UNIT in t:
            return t[_UNIT]
        raise ValueError(f"not a constant: {self}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Coercible) -> "RingValue":
        other = RingValue.coerce(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        return RingValue._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "RingValue":
        return RingValue._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: Coercible) -> "RingValue":
        return self + (-RingValue.coerce(other))

    def __rsub__(self, other: Coercible) -> "RingValue":
        return RingValue.coerce(other) + (-self)

    def __mul__(self, other: Coercible) -> "RingValue":
        other = RingValue.coerce(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        # values are never mutated, so a unit factor hands back the other operand
        if a == _ONE_TERMS:
            return other
        if b == _ONE_TERMS:
            return self
        if len(a) * len(b) > TERM_BUDGET:
            raise TermBudgetExceeded(f"a product of {len(a)}-term and {len(b)}-term values "
                                     f"exceeds the budget of {TERM_BUDGET} term pairs")
        if len(a) > len(b):
            a, b = b, a
        out = None
        if len(a) == 1:
            out = _mul_term(a, b)
        elif len(a) * len(b) >= _KRONECKER_PAIRS:
            out = _mul_kronecker(a, b)
        if out is None:
            out = {}
            for ka, ca in a.items():
                ka -= _UNIT
                for kb, cb in b.items():
                    key = ka + kb
                    acc = out.get(key, 0) + ca * cb
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        for key in out:
            if key & _GUARD:
                raise ExponentOverflow("a product has an exponent outside [-2^30, 2^30)")
        return RingValue._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingValue":
        if n < 0:
            return self.invert() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def invert(self) -> "RingValue":
        """Inverse of a unit (+-1 times a monomial in p, q, z)."""
        if len(self.terms) == 1:
            (key, coeff), = self.terms.items()
            ep, eq, ez, ex = _unpack(key)
            if coeff in (1, -1) and ex == 0:
                return RingValue._raw({_pack((-ep, -eq, -ez, 0)): coeff})
        raise NonInvertibleSubstitution(f"not a unit: {self}")

    def substitute(self, assignment: Mapping[str, Coercible]) -> "RingValue":
        """Ring homomorphism sending each assigned variable to its image.

        Each term maps through **, so a negative exponent whose image is not a
        unit raises NonInvertibleSubstitution from invert.
        """
        images = [RingValue.variable(name) for name in VARIABLES]
        for name, value in assignment.items():
            if name not in _VAR_INDEX:
                raise KeyError(f"unknown variable {name!r}")
            images[_VAR_INDEX[name]] = RingValue.coerce(value)
        return ring_sum(coeff * product(image ** exp for image, exp in zip(images, _unpack(key)))
                        for key, coeff in sorted(self.terms.items()))

    def exact_div(self, divisor: Coercible) -> "RingValue":
        """Quotient self/divisor when it exists in the ring, else InexactDivision.

        Both operands are first shifted so every exponent is nonnegative (the
        shift monomials are units except for x, whose valuation must not
        drop).  Greedy leading-term cancellation under graded lex then
        terminates because the order is a well-order on shifted exponents,
        and any divisibility failure certifies the quotient does not exist.
        A shifted quotient exponent must be nonnegative and, as a difference
        of exponents in [-2^30, 2^30), below 2^31; one guard test rejects
        both failures.  So every field the loop builds stays below 2^32 and
        never carries into the next.

        A one-term divisor, Bareiss's usual pivot, divides in one pass instead;
        where that finds no quotient in range, the loop runs to name the failure.
        """
        divisor = RingValue.coerce(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("exact_div by zero")
        if not self.terms:
            return ZERO
        if len(divisor.terms) == 1:
            out = _div_term(self.terms, divisor.terms)
            if out is not None:
                return RingValue._raw(out)
        low, dlow = _floor(self.terms), _floor(divisor.terms)
        if (low & _MASK) < (dlow & _MASK):  # x is the lowest field
            raise InexactDivision("quotient would need a negative power of x")
        dividend = {k - low: c for k, c in self.terms.items()}
        dpoly = {k - dlow: c for k, c in divisor.terms.items()}
        lead_key = max(dpoly)
        lead_coeff = dpoly[lead_key]
        quotient: dict = {}
        while dividend:
            rkey = max(dividend)
            qkey = rkey - lead_key
            if qkey & _GUARD:
                raise InexactDivision(f"{divisor} does not divide {self}")
            c, rem = divmod(dividend[rkey], lead_coeff)
            if rem:
                raise InexactDivision(
                    f"leading coefficient {dividend[rkey]} not divisible by {lead_coeff}")
            quotient[qkey] = c
            for dk, dc in dpoly.items():
                key = qkey + dk
                acc = dividend.get(key, 0) - c * dc
                if acc:
                    dividend[key] = acc
                else:
                    dividend.pop(key, None)
        shift = low - dlow + _UNIT
        out = {k + shift: c for k, c in quotient.items()}
        for key in out:
            if key & _GUARD:
                raise ExponentOverflow("a quotient has an exponent outside [-2^30, 2^30)")
        return RingValue._raw(out)

    # -- coefficient access --------------------------------------------------

    def coefficient(self, name: str, exponent: int) -> "RingValue":
        """Coefficient of name^exponent, as a value in the remaining variables."""
        shift = _SHIFTS[_VAR_INDEX[name]]
        field = exponent + _LIMIT
        drop = (exponent << _DEGREE_SHIFT) + (exponent << shift)
        return RingValue._raw({key - drop: coeff for key, coeff in self.terms.items()
                               if (key >> shift) & _MASK == field})

    def degree(self, name: str) -> int:
        """Largest exponent of name present (0 for the zero value)."""
        shift = _SHIFTS[_VAR_INDEX[name]]
        return max((((key >> shift) & _MASK) - _LIMIT for key in self.terms), default=0)

    # -- equality, hashing, rendering ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({_UNIT: other} if other else {})
        if isinstance(other, RingValue):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_constant():
            return hash(self.terms.get(_UNIT, 0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"RingValue({self.render()!r})"

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            coeff = self.terms[key]
            factors = []
            for idx, exp in enumerate(_unpack(key)):
                if exp == 0:
                    continue
                factors.append(VARIABLES[idx] if exp == 1 else f"{VARIABLES[idx]}^{exp}")
            if factors and abs(coeff) == 1:
                body = "*".join(factors)
            else:
                try:
                    body = str(abs(coeff))
                except ValueError:  # past sys.get_int_max_str_digits(), which Decimal ignores
                    from decimal import Decimal  # imported on use, so start-up does not pay for it
                    body = str(Decimal(abs(coeff)))
                if factors:
                    body = "*".join([body] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)


# -- fast paths of __mul__ and exact_div: each returns the terms of its result,
# before the guard test, or None where the general loop must run

_KRONECKER_PAIRS = 256


def _mul_term(term: dict, terms: dict) -> dict:
    """term * terms, term a single term: every key shifts by the same amount.
    A loop, because a comprehension costs more on the one- and few-term
    values most products have."""
    (shift, coeff), = term.items()
    shift -= _UNIT
    out = {}
    for key, c in terms.items():
        out[key + shift] = coeff * c
    return out


def _mul_kronecker(a: dict, b: dict) -> dict | None:
    """a * b by Kronecker substitution, or None unless _slot_lists takes both:
    one y of p, q, z, at most _SPREAD slots a term.

    Each value packs as the int sum c_e 2^(8B(e - S)), S their least exponent.
    A coefficient of the product sums at most min(len a, len b) products of
    coefficients, so B bytes a slot, one bit of them the sign, hold it.
    """
    found = _slot_lists([a, b])
    if found is None:
        return None
    low, step, (sa, sb) = found
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    size = bound.bit_length() // 8 + 1
    coeffs = _unpack_slots(_pack_slots(sa, size) * _pack_slots(sb, size), size,
                           len(sa) + len(sb) - 1)
    return _slot_terms(coeffs, _UNIT + 2 * low * step, step)


def _div_term(terms: dict, term: dict) -> dict | None:
    """terms / term, term a single term, or None unless every coefficient
    divides and every quotient exponent is in range, x's nonnegative."""
    (shift, coeff), = term.items()
    if any(c % coeff for c in terms.values()):
        return None
    if shift & _MASK != _LIMIT and min(key & _MASK for key in terms) < shift & _MASK:
        return None  # a negative power of x, which the guard test does not see
    shift -= _UNIT
    out = {key - shift: c // coeff for key, c in terms.items()}
    return None if any(key & _GUARD for key in out) else out


ZERO = RingValue._raw({})
ONE = RingValue._raw({_UNIT: 1})

P = RingValue.monomial(1, p=1)
Q = RingValue.monomial(1, q=1)
Z = RingValue.monomial(1, z=1)
X = RingValue.monomial(1, x=1)


def parse(text: str) -> RingValue:
    """Inverse of RingValue.render (whitespace-insensitive)."""
    compact = text.replace(" ", "")
    if not compact:
        raise RingParseError("empty input")
    # Split into signed terms; a '-' directly after '^' is an exponent sign.
    terms = []
    start = 0
    for i in range(1, len(compact)):
        if compact[i] in "+-" and compact[i - 1] not in "^+-*":
            terms.append(compact[start:i])
            start = i
    terms.append(compact[start:])
    total: dict = {}
    for term in terms:
        sign = 1
        if term.startswith("+"):
            term = term[1:]
        elif term.startswith("-"):
            sign = -1
            term = term[1:]
        if not term:
            raise RingParseError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0, 0, 0, 0]
        for factor in term.split("*"):
            if not factor:
                raise RingParseError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                if not factor.isdecimal():  # "²" is a digit, which int() and Decimal refuse
                    raise RingParseError(f"bad integer factor {factor!r}")
                from decimal import Decimal  # int(str) has a digit limit, Decimal none
                coeff *= int(Decimal(factor))
                continue
            name, caret, exp_text = factor.partition("^")
            if name not in _VAR_INDEX:
                raise RingParseError(f"unknown variable {name!r}")
            if caret and not exp_text:
                raise RingParseError(f"missing exponent in {factor!r}")
            if exp_text:
                try:
                    exp = int(exp_text)
                except ValueError as err:
                    raise RingParseError(f"bad exponent {exp_text!r}") from err
            else:
                exp = 1
            exps[_VAR_INDEX[name]] += exp
        if exps[_X] < 0:
            raise RingParseError("negative exponent for x is not representable")
        key = _pack(exps)
        acc = total.get(key, 0) + coeff
        if acc:
            total[key] = acc
        else:
            total.pop(key, None)
    return RingValue._raw(total)


# -- packed lines --------------------------------------------------------------------
#
# symfunc runs its DP over one line of values; a table's definition path
# hands it a first-kind row or a second-kind column of weight products.  Two
# kinds of line run it on Python ints instead of dicts:
#
# * every product is an integer: the DP runs on the integers themselves;
# * every product lies in one variable y of p, q, z and has nonnegative
#   coefficients: the product sum c_e y^e is packed as the int
#   sum c_e 2^(8B(e - S)), S the least exponent of the line (Kronecker
#   substitution).  The DP over the packed products then yields y^(-tS)
#   times its entry t, packed, as long as no coefficient reaches 2^(8B - 1).
#   With nonnegative coefficients, no coefficient of an entry, or of any
#   value the DP builds on the way to it, exceeds its value at y = 1.  So
#   the same DP run first on the values at y = 1 bounds every coefficient,
#   and B is the byte count of that bound and a sign bit: the slot codec,
#   _pack_slots and _unpack_slots, is the signed one RingValue's Kronecker
#   products use.  Values are packed and unpacked a byte string at a time,
#   in time linear in their size.
#
# Every other line stays on dicts.  So does a line of fewer than _MIN_PRODUCTS
# products, whose DP is a handful of ring operations, fewer than packing costs
# to set up; a line whose packed products would be mostly zeros, more than
# _SPREAD slots a term (1 + q^100, say), which costs the packed DP more than it
# saves; and every line the packed DP could take past the term budget or the
# exponent range, so that the dict path raises there exactly as it would have.
# _slot_lists applies the same limit to the factors of a Kronecker product.

_MIN_PRODUCTS = 5
_SPREAD = 4


class PackedLine:
    """One line of values, ready for a DP on Python ints.

    ones holds the products' values at y = 1 (for an integer line, the
    integers themselves, which is all its DP needs), and packed the products
    packed at the current width, first that of their largest coefficient.
    An entry the DP builds from t products (e_t, or h_t) decodes with
    decode(entry, t).
    """

    __slots__ = ("ones", "packed", "is_integer", "_low", "_top", "_step", "_size")

    def __init__(self, ones, slots=None, low=0, step=0):
        self.ones = ones
        self.is_integer = slots is None
        self._low = low  # S
        self._top = max(map(len, slots)) - 1 if slots else 0  # the largest slot used
        self._step = step  # key of y^(e+1) minus key of y^e
        # bytes per slot, first enough for the largest coefficient and its sign
        self._size = max(map(max, filter(None, slots))).bit_length() // 8 + 1 if slots else 0
        self.packed = [_pack_slots(row, self._size) for row in slots] if slots else None

    def fits(self, degree: int) -> bool:
        """Whether the DP may build entries of up to degree products here.

        A packed product spans at most top + 1 slots and an entry of degree
        d - 1 at most (d - 1) * top + 1, which bounds the term pairs of every
        product the dict path would make; entries of degree d hold exponents
        in [d * S, d * (S + top)], which must stay in the ring's range.
        """
        top, low = self._top, self._low
        return ((top + 1) * (max(degree - 1, 0) * top + 1) <= TERM_BUDGET
                and -_LIMIT <= degree * low and degree * (low + top) < _LIMIT)

    def widen(self, bound: int, state: list = None) -> None:
        """Make slots hold any coefficient up to bound, re-packing the products
        and, in place, the packed values of state."""
        size = bound.bit_length() // 8 + 1  # one bit of a slot is the sign
        if size <= self._size:
            return
        count = len(self.packed)
        values = _resize(self.packed + (state or []), self._size, size)
        self.packed = values[:count]
        if state:
            state[:] = values[count:]
        self._size = size

    def decode(self, value: int, degree: int) -> RingValue:
        """The RingValue of an entry packed from degree products."""
        step = self._step
        coeffs = _unpack_slots(value, self._size, degree * self._top + 1)
        return RingValue._raw(_slot_terms(coeffs, _UNIT + degree * self._low * step, step))


def packed_line(values) -> PackedLine | None:
    """The products values, ints or RingValues, as a PackedLine, or None where
    they must stay on dicts."""
    if len(values) < _MIN_PRODUCTS:
        return None
    terms = [RingValue.coerce(value).terms for value in values]
    ints = [t.get(_UNIT, 0) for t in terms if not t or (len(t) == 1 and _UNIT in t)]
    if len(ints) == len(terms):
        return PackedLine(ints)
    if any(c < 0 for t in terms for c in t.values()):
        return None
    found = _slot_lists(terms)
    if found is None:
        return None
    low, step, slots = found
    return PackedLine([sum(t.values()) for t in terms], slots, low, step)


def _slot_lists(values: list) -> tuple | None:
    """(S, step, slots) when every term of the term maps values lies in one y
    of p, q, z and their slots from S, y's least exponent, number at most
    _SPREAD a term; else None.  step is the key of y^(e+1) minus that of y^e;
    slots[i] holds the coefficients of y^S, y^(S+1), ... of values[i], up to
    its largest exponent.  The limit is tested on the exponents alone, before
    any list is built, so 1 + y^(2^29) builds none."""
    key = next(key for terms in values for key in terms if key != _UNIT)
    shift = next((s for s in _SHIFTS[:_X] if (key >> s) & _MASK != _LIMIT), None)
    if shift is None:
        return None
    step = (1 << _DEGREE_SHIFT) + (1 << shift)
    if any(key != _UNIT + (key >> _DEGREE_SHIFT) * step for terms in values for key in terms):
        return None
    rows = [{key >> _DEGREE_SHIFT: c for key, c in terms.items()} for terms in values]
    low = min(min(row) for row in rows if row)
    spans = [max(row) - low + 1 if row else 0 for row in rows]
    if sum(spans) > _SPREAD * sum(map(len, rows)):
        return None
    return low, step, [[row.get(e, 0) for e in range(low, low + span)]
                       for row, span in zip(rows, spans)]


def _pack_slots(coeffs: list, size: int) -> int:
    """The int sum coeffs[i] 2^(8 size i), each |coeffs[i]| < 2^(8 size - 1).

    Flipping the top bit of a two's complement slot c gives c + 2^(8 size - 1),
    nonnegative, so no slot borrows; subtracting halves leaves the sum."""
    halves = _halves(size, len(coeffs))
    data = b"".join(c.to_bytes(size, "little", signed=True) for c in coeffs)
    return (int.from_bytes(data, "little") ^ halves) - halves


def _unpack_slots(value: int, size: int, count: int) -> list:
    """The count coefficients, lowest first, that _pack_slots packed into
    value: the steps of _pack_slots in reverse."""
    halves = _halves(size, count)
    data = ((value + halves) ^ halves).to_bytes(count * size, "little")
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + size], "little", signed=True) for i in range(0, len(data), size)]


def _halves(size: int, count: int) -> int:
    """The int with 2^(8 size - 1), half a slot, in each of count slots."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _slot_terms(coeffs: list, key: int, step: int) -> dict:
    """The terms of sum coeffs[i] y^(e + i), key the key of y^e and step the
    key of y^(e+1) minus that of y^e."""
    out = {}
    for coeff in coeffs:
        if coeff:
            out[key] = coeff
        key += step
    return out


def _resize(values: list, old: int, new: int) -> list:
    """values, packed with old bytes a slot, packed with new > old bytes a slot.
    Every slot of values holds a nonnegative coefficient, as on a PackedLine.

    All of them go through one byte string, so the cost per value is a few
    calls however many bytes a slot has.
    """
    bits = 8 * old
    chunks = [value.to_bytes(-(-value.bit_length() // bits) * old, "little") for value in values]
    data = b"".join(chunks)
    out = bytearray(len(data) // old * new)
    for byte in range(old):  # little-endian: each slot keeps its low bytes
        out[byte::new] = data[byte::old]
    resized, start = [], 0
    for chunk in chunks:
        end = start + len(chunk) // old * new
        resized.append(int.from_bytes(out[start:end], "little"))
        start = end
    return resized


def product(values: Iterable[Coercible]) -> RingValue:
    result = ONE
    for value in values:
        result = result * value
    return result


def ring_sum(values: Iterable[Coercible]) -> RingValue:
    result = ZERO
    for value in values:
        result = result + value
    return result
