"""Exact ring arithmetic: integers and sparse multivariate Laurent polynomials.

Every value lives in Z[p, q, z, p^-1, q^-1, z^-1][x]: integer coefficients,
signed exponents for p, q, z, nonnegative exponents for x.  A value is stored
as a map from a packed int key to a nonzero integer coefficient; the zero
polynomial is the empty map.

A value is an int or a RingValue.  Integer values stay ints wherever they
arise (weights, integer table lines, sums and products of ints); parse(),
StirlingTable.row and any value that holds a variable are RingValues.  A
RingValue may still hold a constant, and equality, hashing and render treat
it like the int.  The operators take an int operand as it is, so the
builtins sum and math.prod take either kind (0 + v and 1 * v hand back v),
as do the module functions render, addmul, exact_div, is_constant, as_int
and checked; callers need not tell the two apart, save the DP steps:
symfunc.elementary_step, symfunc.homogeneous_step and StirlingTable._column
branch on int, since routing int steps through addmul made integer tables
about 60% slower to build.  Both kinds test zero with `not value`.

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
A monomial is four pieces, one per variable, such as "*q^7", or "" for
exponent 0, looked up by the fields of its key in tables of at most
_PIECE_CAP (1024) pieces each; see "render's exponent pieces" below.

One kernel, _mul_term, adds a term times a value into a term map, dropping
the coefficients that cancel: a sum adds the other operand times 1, a
difference times -1 (no negated copy), RingValue() and parse() add each
term, and the exact_div loop subtracts each quotient term times the divisor.
Two values whose keys lie on one line, dense enough to pack, multiply as two
big ints (Kronecker substitution); any other product, a one-term factor
among them, takes one _mul_term a term of its smaller factor.  Every product
ends in the same guard test.  addmul(acc, x, y), the step of the
symmetric-function DPs, writes the terms of x * y into a copy of acc's, not
into a product built only to be added.  exact_div
divides by one term in one pass, by more on one line with the dividend as
two big ints certified by a coefficient bound, and otherwise, or to name a
failure, by leading-term cancellation.

Both big-int paths, products and quotients, lay out their slots with one
builder, _slot_lists: a value's slots run from its least key in steps of the
gcd of both values' key gaps, at most _SPREAD slots a term, so values in one
variable and homogeneous ones, p^d f(q/p), pack alike.  One signed codec,
_pack_slots and _unpack_slots, packs them, and _slot_terms adds the slots
back as terms.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Mapping, Union

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
        out: dict = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != 4:
                raise ValueError(f"exponent vector must have 4 entries, got {key!r}")
            for n in (*key, coeff):
                if isinstance(n, bool) or not isinstance(n, int):
                    raise ValueError(f"exponents and coefficients must be integers, got {n!r}")
            if key[_X] < 0:
                raise ValueError("negative exponent for x is not representable")
            if coeff:
                _mul_term(_pack(key), coeff, _ONE_TERMS, out)
        self.terms = out

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

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Coercible) -> "RingValue":
        if isinstance(other, int):
            if not other:
                return self
            other = RingValue._raw({_UNIT: other})
        elif not isinstance(other, RingValue):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        return RingValue._raw(_mul_term(_UNIT, 1, other.terms, dict(self.terms)))

    __radd__ = __add__

    def __neg__(self) -> "RingValue":
        return RingValue._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: Coercible) -> "RingValue":
        if isinstance(other, int):
            return self + -other
        if not isinstance(other, RingValue):
            return NotImplemented
        if not other.terms:
            return self
        return RingValue._raw(_mul_term(_UNIT, -1, other.terms, dict(self.terms)))

    def __rsub__(self, other: int) -> "RingValue":
        return -self + other

    def __mul__(self, other: Coercible) -> "RingValue":
        if isinstance(other, int):
            if other == 1:
                return self
            if not other:
                return ZERO
            return RingValue._raw({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, RingValue):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        # values are never mutated, so a unit factor hands back the other operand
        if a == _ONE_TERMS:
            return other
        if b == _ONE_TERMS:
            return self
        return RingValue._raw(_mul(a, b, {}))

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
        return sum(coeff * prod(image ** exp for image, exp in zip(images, _unpack(key)))
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

        A one-term divisor, such as a monomial pivot of a determinant,
        divides in one pass instead, and more terms on one line with self's
        as two big ints; where neither returns a quotient, the loop runs and
        names any failure.
        """
        divisor = RingValue.coerce(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("exact_div by zero")
        if not self.terms:
            return ZERO
        if len(divisor.terms) == 1:
            out = _div_term(self.terms, divisor.terms)
        else:
            out = _div_kronecker(self.terms, divisor.terms)
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
                raise InexactDivision(f"leading coefficient {_digits(dividend[rkey])} "
                                      f"not divisible by {_digits(lead_coeff)}")
            quotient[qkey] = c
            _mul_term(qkey + _UNIT, -c, dpoly, dividend)
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
        if self.terms.keys() <= _ONE_TERMS.keys():
            return hash(self.terms.get(_UNIT, 0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"RingValue({self.render()!r})"

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        pp, pq, pz, px = _PIECES
        sp, sq, sz, _ = _SHIFTS
        mask = _MASK
        parts = []
        for key in sorted(terms, reverse=True):
            coeff = terms[key]
            try:
                mono = (pp[(key >> sp) & mask] + pq[(key >> sq) & mask]
                        + pz[(key >> sz) & mask] + px[key & mask])
            except KeyError:
                mono = _monomial(key)
            if coeff > 0:
                parts.append(" + ")
            else:
                parts.append(" - ")
                coeff = -coeff
            if coeff == 1 and mono:
                parts.append(mono[1:])
            else:
                try:
                    parts.append(str(coeff) + mono)
                except ValueError:  # past the digit limit of str(int)
                    parts.append(_digits(coeff) + mono)
        text = "".join(parts)  # " + " or " - " leads every term; the first keeps a "-"
        return text[3:] if text[1] == "+" else "-" + text[3:]


# -- render's exponent pieces: _PIECES[i] maps the field of VARIABLES[i] in a
# key to its piece of a monomial, "" for exponent 0, else "*q" or "*q^-7", so
# a term's monomial is four lookups and its text str(coeff) + monomial, or the
# monomial less its "*" where coeff is 1.  Each table holds at most
# _PIECE_CAP pieces; past that, _monomial builds the rest each time.

_PIECE_CAP = 1024
_PIECES = tuple({_LIMIT: ""} for _ in VARIABLES)


def _monomial(key: int) -> str:
    """The monomial of key, its pieces taken from _PIECES or added while they fit."""
    pieces = []
    for name, shift, table in zip(VARIABLES, _SHIFTS, _PIECES):
        field = (key >> shift) & _MASK
        piece = table.get(field)
        if piece is None:
            exp = field - _LIMIT
            piece = f"*{name}" if exp == 1 else f"*{name}^{exp}"
            if len(table) < _PIECE_CAP:
                table[field] = piece
        pieces.append(piece)
    return "".join(pieces)


# -- products: the term kernel, and the fast paths of __mul__ and exact_div,
# each of which returns the terms of its result, before the guard test, or
# None where the general loop must run

_KRONECKER_PAIRS = 256


def _mul(a: dict, b: dict, out: dict) -> dict:
    """out plus a * b, written into out, for a and b nonzero: by
    Kronecker substitution or by one _mul_term a term of the smaller, then
    the guard test.  __mul__ hands an empty out, addmul a copy of its sum's
    terms."""
    if len(a) * len(b) > TERM_BUDGET:
        raise TermBudgetExceeded(f"a product of {len(a)}-term and {len(b)}-term values "
                                 f"exceeds the budget of {TERM_BUDGET} term pairs")
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1 or len(a) * len(b) < _KRONECKER_PAIRS or _mul_kronecker(a, b, out) is None:
        for key, coeff in a.items():
            _mul_term(key, coeff, b, out)
    for key in out:
        if key & _GUARD:
            raise ExponentOverflow("a product has an exponent outside [-2^30, 2^30)")
    return out


def _mul_term(key: int, coeff: int, terms: dict, out: dict) -> dict:
    """out plus the term coeff*m times terms, m the monomial of key, written
    into out, coeff nonzero: the one place that adds terms into a term map
    and drops those that cancel.  Every key of terms shifts by the same
    amount, so none meets another, and into an empty out the terms go without
    a lookup or a zero test.  Loops, because a comprehension costs more on the
    one- and few-term values most sums and products have."""
    shift = key - _UNIT
    if not out:
        for key, c in terms.items():
            out[key + shift] = coeff * c
        return out
    for key, c in terms.items():
        key += shift
        c = out.get(key, 0) + coeff * c
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _mul_kronecker(a: dict, b: dict, out: dict) -> dict | None:
    """out plus a * b by Kronecker substitution, written into out, or None,
    out untouched, unless _slot_lists takes both.

    Each value packs as the int sum c_i 2^(8Bi) over its slots, and slots i
    and j meet at key base_a + base_b - _UNIT + (i + j) step, the key of the
    product of their terms.  A coefficient of the product sums at most min(len a, len b)
    products of coefficients, so B bytes a slot, one bit the sign, hold it.
    """
    found = _slot_lists([a, b])
    if found is None:
        return None
    step, (base_a, base_b), (sa, sb) = found
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    size = bound.bit_length() // 8 + 1
    coeffs = _unpack_slots(_pack_slots(sa, size) * _pack_slots(sb, size), size,
                           len(sa) + len(sb) - 1)
    return _slot_terms(coeffs, base_a + base_b - _UNIT, step, out)


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


def _div_kronecker(terms: dict, dterms: dict) -> dict | None:
    """terms / dterms by Kronecker substitution, or None unless _slot_lists
    takes both and the quotient is exact, certified and in range, x's power
    nonnegative.

    A quotient's slot i lies at key base_n - base_d + _UNIT + i step.  Its
    slots, B bytes each, cannot have carried if max|q| max|d| min(len q, len
    d) < 2^(8B - 1): then q * d and n are signed slot vectors with one packed
    value, so they are equal.  A nonzero slot i sits at n's slot i less d's
    slot 0, or at a nonzero slot i - j plus d's gap from slot 0 to slot j; so
    where the guard test passes every key, by induction on i each is in range.
    """
    found = _slot_lists([terms, dterms])
    if found is None:
        return None
    step, (base_n, base_d), (sn, sd) = found
    count = len(sn) - len(sd) + 1
    if count < 1:
        return None
    dmax = max(map(abs, sd))
    size = max(dmax, max(map(abs, sn))).bit_length() // 8 + 2  # a sign bit, a byte to spare
    quotient, rem = divmod(_pack_slots(sn, size), _pack_slots(sd, size))
    # every slot is below 2^(8 size - 9), so |quotient| < B^count / 499 for
    # B = 2^(8 size), and count slots always hold it
    coeffs = _unpack_slots(quotient, size, count)
    if rem or max(map(abs, coeffs)) * dmax * min(count, len(sd)) >> (8 * size - 1):
        return None
    out = _slot_terms(coeffs, base_n - base_d + _UNIT, step, {})
    return None if any(key & _GUARD or key & _MASK < _LIMIT for key in out) else out


ZERO = RingValue._raw({})
ONE = RingValue._raw({_UNIT: 1})

P = RingValue.monomial(1, p=1)
Q = RingValue.monomial(1, q=1)
Z = RingValue.monomial(1, z=1)
X = RingValue.monomial(1, x=1)


# -- operations on a value of either kind, an int or a RingValue ---------------------

def checked(value) -> Coercible:
    """value itself if an int, else RingValue.coerce(value), which refuses a non-ring type."""
    return value if isinstance(value, int) else RingValue.coerce(value)


def is_constant(value: Coercible) -> bool:
    """Whether value holds no variable."""
    return isinstance(value, int) or value.terms.keys() <= _ONE_TERMS.keys()


def as_int(value: Coercible) -> int:
    """The value as a plain integer; raises ValueError if it holds a variable."""
    if not is_constant(value):
        raise ValueError(f"not a constant: {render(value)}")
    return value if isinstance(value, int) else value.terms.get(_UNIT, 0)


def render(value: Coercible) -> str:
    """The canonical text of value, which parse() reads back."""
    return value.render() if isinstance(value, RingValue) else _digits(value)


def addmul(acc: Coercible, x: Coercible, y: Coercible) -> Coercible:
    """acc + x * y, the step of the symmetric-function DPs, with the terms of
    x * y written straight into a copy of acc's by _mul, not into a product
    built only to be added; int operands and a zero operand take the
    operators."""
    if (isinstance(acc, RingValue) and isinstance(x, RingValue) and isinstance(y, RingValue)
            and acc.terms and x.terms and y.terms):
        return RingValue._raw(_mul(x.terms, y.terms, dict(acc.terms)))
    return acc + x * y


def exact_div(value: Coercible, divisor: Coercible) -> Coercible:
    """RingValue.exact_div for either kind of operand; two ints divide as ints."""
    if isinstance(value, RingValue) or isinstance(divisor, RingValue):
        return RingValue.coerce(value).exact_div(divisor)
    quotient, rem = divmod(value, divisor)
    if rem:
        raise InexactDivision(f"{render(divisor)} does not divide {render(value)}")
    return quotient


def _digits(n: int) -> str:
    """str(n), also past sys.get_int_max_str_digits(), which Decimal ignores."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # imported on use, so start-up does not pay for it
        return str(Decimal(n))


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
        if coeff:
            _mul_term(key, coeff, _ONE_TERMS, total)
    return RingValue._raw(total)


# -- slots of the Kronecker paths: values whose slots would be mostly zeros,
# more than _SPREAD a term (1 + q^100, say), cost more as big ints than the
# term walk does, so _slot_lists refuses them.

_SPREAD = 4


def _slot_lists(values: list) -> tuple | None:
    """(step, bases, slots) when each nonzero term map in values lies on a
    line, one step for all, at most _SPREAD slots a term, else None: bases[i]
    is values[i]'s least key, step the gcd of every key less its base, and
    slots[i] the coefficients at bases[i] + k step up to its largest key.
    The limit is tested first, so 1 + y^(2^29) builds no list, nor do values
    on crossing lines, whose step is tiny."""
    bases = [min(terms) for terms in values]
    step = gcd(*[key - base for terms, base in zip(values, bases) for key in terms])
    spans = [(max(terms) - base) // step + 1 for terms, base in zip(values, bases)]
    if sum(spans) > _SPREAD * sum(map(len, values)):
        return None
    return step, bases, [[terms.get(base + i * step, 0) for i in range(span)]
                         for terms, base, span in zip(values, bases, spans)]


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


def _slot_terms(coeffs: list, key: int, step: int, out: dict) -> dict:
    """out plus the terms of coeffs at keys key, key + step, ..., in order,
    written into out: straight into an empty out, else by _mul_term, as a
    copy through it would cost a Kronecker product a fifth more."""
    terms = {} if out else out
    for coeff in coeffs:
        if coeff:
            terms[key] = coeff
        key += step
    return out if terms is out else _mul_term(_UNIT, 1, terms, out)
