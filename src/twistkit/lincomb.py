"""Finite rational linear combinations: the arithmetic shared by PBW
elements, tensor elements and commutative polynomials.

A combination is a dict from keys (monomials) to nonzero Fractions; zero
coefficients are never stored, so two combinations are equal exactly
when their dicts are.  Rational scalars act as multiples of the unit.
A subclass fixes what a key is: it sets UNIT, the key of the ring unit,
and defines its rendering, built from ``_term_body`` and ``_signed_sum``,
and its product kernel ``_mul_into(acc, xs, ys, scale)``, which adds
scale * xs * ys to acc for term dicts with int values.
Products run in integers: each operand is scaled once by the lcm of its
denominators (``_integral``), the kernel adds up the term-pair products
in ints, and each output term is divided once by the product of the two
scales (``_rational``).  Series products (``hseries``) call the same
kernel, summing a whole Cauchy sum into one integer dict.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational


def _iadd(acc: dict, key, val):
    v = acc.get(key)
    if v is None:
        if val:
            acc[key] = val
    else:
        v = v + val
        if v:
            acc[key] = v
        else:
            del acc[key]


def _integral(terms: dict):
    """(ints, den) with ints[k] = terms[k] * den an int for every key, den
    the lcm of the denominators of the values (ints or Fractions)."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


def _rational(ints: dict, den: int) -> dict:
    """Inverse of _integral: the non-zero ints over den, as Fractions."""
    return {k: Fraction(v, den) for k, v in ints.items() if v}


def _add_scaled(acc: dict, ints: dict, scale: int):
    """acc += scale * ints, key by key, in integers (zeros stay in acc)."""
    for key, v in ints.items():
        acc[key] = acc.get(key, 0) + scale * v


def _term_body(c, mono: str) -> str:
    """The unsigned text of the term c*mono: the unit coefficient is left
    out, and an empty monomial text stands for the unit monomial."""
    if not mono:
        return str(abs(c))
    return mono if abs(c) == 1 else f"{abs(c)}*{mono}"


def _signed_sum(terms) -> str:
    """'a + b - c' from (coefficient, unsigned body) pairs; '0' for none."""
    text = "".join((" - " if c < 0 else " + ") + body for c, body in terms)
    if not text:
        return "0"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


class LinearCombination:
    """Base class; see the module docstring."""

    __slots__ = ("terms",)

    UNIT = None

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[key] = c

    @classmethod
    def _raw(cls, terms: dict):
        x = cls.__new__(cls)
        x.terms = terms
        return x

    def _like(self, terms: dict):
        """A combination in the same ring as self, from zero-free terms."""
        return self._raw(terms)

    def _unit(self):
        return self.UNIT

    def _operand(self, other):
        """other as an element of self's ring, or NotImplemented."""
        if isinstance(other, Rational):
            q = Fraction(other)
            return self._like({self._unit(): q} if q else {})
        if not isinstance(other, type(self)):
            return NotImplemented
        return other

    def _scale(self, q):
        q = Fraction(q)
        if not q:
            return self._like({})
        return self._like({k: c * q for k, c in self.terms.items()})

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({cls.UNIT: Fraction(1)})

    def zero_like(self):
        """The zero of self's ring."""
        return self._like({})

    def one_like(self):
        """The unit of self's ring."""
        return self._like({self._unit(): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def as_unit_scalar(self):
        """The Fraction c if this combination equals c*1, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            return self.terms.get(self._unit())
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _iadd(terms, key, c)
        return self._like(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Rational):
            return self._scale(other)
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        xs, dx = _integral(self.terms)
        ys, dy = _integral(other.terms)
        acc = {}
        self._mul_into(acc, xs, ys, 1)
        return self._like(_rational(acc, dx * dy))

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of {type(self).__name__}")
        out = self.one_like()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms
