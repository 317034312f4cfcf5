"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars have one canonical form.  Over Q an integral value is an ``int`` and
any other value a ``fractions.Fraction`` with denominator > 1 (:func:`canonical`);
over F_p a scalar is an int in ``[0, p)``.  Equal ints and Fractions compare
and hash equal, so the form never changes a result, only its cost: a zero
test or a product of ints is one machine-level step.  The :class:`Field`
object supplies the operations, and each returns the canonical form.  No
floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from operator import attrgetter

from .errors import FieldMismatch, ParseError, UnsupportedField, echo

_INT_RE = re.compile(r"-?(0|[1-9][0-9]*)")
_FRACTION_RE = re.compile(r"(-?(?:0|[1-9][0-9]*))/([1-9][0-9]*)")


# Miller-Rabin with the first 13 primes as bases is exact below PRIME_BOUND
# (the least strong pseudoprime to all of them); no larger p is supported.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981

# digits allowed in the numerator and in the denominator of a rational token:
# CPython converts no longer digit string to an int
RATIONAL_DIGITS = 4300


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; raises ValueError for n >= PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_BOUND}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group of F_p, for a prime p.
    The prime factors of p - 1 come by trial division, so a large p costs
    up to sqrt(p) steps: ask only when the root is needed."""
    factors, m, d = [], p - 1, 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def canonical(x):
    """A rational in canonical form: its numerator when it is integral."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


class Value:
    """An immutable value: its ``__init__`` sets its fields, the class's annotated
    names, with one ``vars(self).update``; after that only ``cached_property``
    writes, to keep what is read off it.  Values of one class with equal fields
    are equal and hash as the fields' tuple, read by one ``attrgetter``: no exec."""

    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__annotations__)
        get = attrgetter(*names)
        key = get if len(names) > 1 else lambda value: (get(value),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return self is other or get(self) == get(other)
            return NotImplemented
        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Field(Value):
    """``Field(0)`` is the rationals, ``Field(p)`` the prime field F_p."""

    char: int

    def __init__(self, char=0):
        vars(self).update(char=char)
        if char != 0 and not is_prime(char):
            raise ValueError(f"characteristic must be 0 or a prime, got {char}")

    @property
    def is_rational(self) -> bool:
        return self.char == 0

    def __str__(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"

    # element constructors ------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1 % self.char if self.char else 1

    def from_int(self, n: int):
        return n % self.char if self.char else n

    def coerce(self, x):
        """Bring an int or Fraction into canonical form for this field."""
        if self.char == 0:
            if isinstance(x, int):
                return int(x)  # a bool is an int, but not a canonical one
            if isinstance(x, Fraction):
                return canonical(x)
        else:
            if isinstance(x, int):
                return x % self.char
            if isinstance(x, Fraction) and x.denominator == 1:
                return x.numerator % self.char
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

    # arithmetic -----------------------------------------------------------

    def add(self, x, y):
        return canonical(x + y) if self.char == 0 else (x + y) % self.char

    def sub(self, x, y):
        return canonical(x - y) if self.char == 0 else (x - y) % self.char

    def neg(self, x):
        return -x if self.char == 0 else (-x) % self.char

    def mul(self, x, y):
        return canonical(x * y) if self.char == 0 else (x * y) % self.char

    def inv(self, x):
        if self.char == 0:
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return canonical(1 / Fraction(x))
        if x % self.char == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.char - 2, self.char)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def elements(self):
        """All field elements, in canonical order.  Finite fields only."""
        if self.char == 0:
            raise UnsupportedField("cannot enumerate the rationals")
        return range(self.char)

    # serialization --------------------------------------------------------

    def show(self, x) -> str:
        """Canonical token: reduced ``p/q`` (or ``n``) over Q, ``0..p-1`` over F_p;
        a Fraction writes itself so, its denominator left out when it is 1."""
        return str(x)

    def parse(self, token: str):
        """Parse a canonical token; anything non-canonical is a ParseError.
        Digit counts are checked before any digits are converted."""
        if not isinstance(token, str):
            raise ParseError(f"scalar must be a string, got {echo(repr(token))}")
        if self.char == 0:
            m = _FRACTION_RE.fullmatch(token) or _INT_RE.fullmatch(token)
            if not m:
                raise ParseError(f"malformed rational {echo(repr(token))}")
            if len(token) > RATIONAL_DIGITS and any(
                    len(digits.lstrip("-")) > RATIONAL_DIGITS for digits in m.groups()):
                raise ParseError(f"rational with more than {RATIONAL_DIGITS} digits in its "
                                 "numerator or denominator")
            if m.re is _INT_RE:
                if token == "-0":
                    raise ParseError("non-canonical zero '-0'")
                return int(token)
            num, den = int(m.group(1)), int(m.group(2))
            if den == 1:
                raise ParseError(f"non-canonical rational {echo(repr(token))}: "
                                 f"write {echo(str(num))}")
            value = Fraction(num, den)  # den > 1, so never integral when canonical
            if value.denominator != den:
                raise ParseError(f"non-canonical rational {echo(repr(token))}: "
                                 "not in lowest terms")
            return value
        m = _INT_RE.fullmatch(token)
        if not m or token.startswith("-"):
            raise ParseError(f"malformed {self} element {echo(repr(token))}")
        # a token with more digits than p is never canonical: int() is not called on it
        if len(token) > len(str(self.char)) or (value := int(token)) >= self.char:
            raise ParseError(f"{echo(repr(token))} is not a canonical representative "
                             f"mod {self.char}")
        return value


@cache
def GF(p: int) -> Field:
    return Field(p)


QQ = GF(0)


def parse_field(name: str) -> Field:
    if name == "Q":
        return QQ
    m = re.fullmatch(r"F([1-9][0-9]*)", name)
    if m:
        digits = m.group(1)
        # compare lengths first: int() refuses very long digit strings
        if len(digits) > len(str(PRIME_BOUND)) or int(digits) >= PRIME_BOUND:
            raise ParseError(f"prime fields need p < {PRIME_BOUND}")
        p = int(digits)
        if not is_prime(p):
            raise ParseError(f"field F{p} is not a prime field")
        return GF(p)
    raise ParseError(f"unknown field {echo(repr(name))}")


def same_field(*fields: Field) -> Field:
    first = fields[0]
    for f in fields[1:]:
        if f is not first and f != first:
            raise FieldMismatch(f"mixed fields {first} and {f}")
    return first
