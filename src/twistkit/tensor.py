"""Arithmetic in the tensor powers of U(sl2), and coproducts.

A tensor element with n legs keeps each leg in PBW normal form: its keys
are n-tuples of monomials, and products are legwise.  The classical
coproduct is primitive on generators and extended as an algebra
morphism.  Since g (x) 1 and 1 (x) g commute, Delta of a monomial is the
binomial sum

    Delta(E^e F^f H^d) = sum C(e,a) C(f,b) C(d,c)
                         E^a F^b H^c (x) E^(e-a) F^(f-b) H^(d-c),

whose two legs are already in normal order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from .hseries import HSeries, _cauchy, _ints
from .lincomb import LinearCombination, _iadd, _signed_sum
from .pbw import (E_MONO, F_MONO, H_MONO, UNIT_MONO, Element, _mono_str,
                  mono_mul)

UNIT2 = (UNIT_MONO, UNIT_MONO)


class TensorElement(LinearCombination):
    """Finite rational linear combination of n-tuples of PBW monomials,
    one per leg.  Elements with different leg counts never combine."""

    __slots__ = ("legs",)

    UNIT = UNIT2

    def __init__(self, terms=None):
        super().__init__(terms)
        # the leg count comes from the keys given, zero coefficients included
        lengths = {len(key) for key in terms} if terms else {2}
        if len(lengths) != 1:
            raise ValueError("tensor terms have different numbers of legs")
        (self.legs,) = lengths

    @classmethod
    def _raw(cls, terms: dict, legs: int = 2) -> "TensorElement":
        x = cls.__new__(cls)
        x.terms = terms
        x.legs = legs
        return x

    def _like(self, terms: dict) -> "TensorElement":
        return TensorElement._raw(terms, self.legs)

    def _unit(self):
        return (UNIT_MONO,) * self.legs

    def _operand(self, other):
        other = super()._operand(other)
        if other is not NotImplemented and other.legs != self.legs:
            raise ValueError(f"cannot combine a {self.legs}-leg and a "
                             f"{other.legs}-leg tensor element")
        return other

    @staticmethod
    def _mul_into(acc, xs, ys, scale):
        for keys1, c1 in xs.items():
            c1 *= scale
            for keys2, c2 in ys.items():
                # multiply leg by leg, expanding each leg's product
                partial = [((), c1 * c2)]
                for x, y in zip(keys1, keys2):
                    partial = [(key + (m,), c * d) for key, c in partial
                               for m, d in mono_mul(x, y)]
                for key, c in partial:
                    acc[key] = acc.get(key, 0) + c

    def __mul__(self, other):
        # its own function, traced by name like Element.__mul__; a
        # leg-count mismatch raises in _operand
        return LinearCombination.__mul__(self, other)

    def __str__(self):
        return tensor_to_str(self)

    def __repr__(self):
        return f"TensorElement({tensor_to_str(self)})"


# the triple tensor power is the 3-leg case of the same type; as for any
# leg count, x.one_like() and x.zero_like() match x's legs, while the
# classmethods one() and zero() give the 2-leg unit and zero
TensorElement3 = TensorElement


def flip(x: TensorElement) -> TensorElement:
    """Exchange the two legs (legs stay normal-ordered)."""
    out = {}
    for (m1, m2), c in x.terms.items():
        _iadd(out, (m2, m1), c)
    return TensorElement._raw(out)


def outer(x: Element, y: Element) -> TensorElement:
    """x (x) y."""
    acc = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            acc[(m1, m2)] = c1 * c2
    return TensorElement._raw(acc)


def leg_embed(x: Element, leg: int) -> TensorElement:
    """x_1 = x (x) 1 or x_2 = 1 (x) x."""
    if leg == 1:
        return TensorElement._raw({(m, UNIT_MONO): c for m, c in x.terms.items()})
    if leg == 2:
        return TensorElement._raw({(UNIT_MONO, m): c for m, c in x.terms.items()})
    raise ValueError("leg must be 1 or 2")


def weight(mono_pair) -> int:
    """(e1 - f1) + (e2 - f2), the total H-adjoint weight of a monomial pair."""
    (e1, f1, _), (e2, f2, _) = mono_pair
    return (e1 - f1) + (e2 - f2)


def is_weight_zero(x: TensorElement) -> bool:
    return all(weight(m) == 0 for m in x.terms)


# ---------------------------------------------------------------------------
# coproducts

@cache
def _delta_mono(mono) -> TensorElement:
    """Delta(E^e F^f H^d) as the binomial sum of the module docstring."""
    e, f, d = mono
    return TensorElement._raw({
        ((a, b, c), (e - a, f - b, d - c)):
            Fraction(comb(e, a) * comb(f, b) * comb(d, c))
        for a in range(e + 1) for b in range(f + 1) for c in range(d + 1)})


def coproduct(x: Element) -> TensorElement:
    """Delta(x): primitive on generators, extended multiplicatively."""
    acc = {}
    for mono, c in x.terms.items():
        for pair, d in _delta_mono(mono).terms.items():
            _iadd(acc, pair, c * d)
    return TensorElement._raw(acc)


def coproduct_leg(x: TensorElement, leg: int) -> TensorElement:
    """Apply Delta to one leg: leg 1 gives (Delta (x) id)(x), leg 2 gives
    (id (x) Delta)(x)."""
    acc = {}
    for (m1, m2), c in x.terms.items():
        if leg == 1:
            for (a, b), d in _delta_mono(m1).terms.items():
                _iadd(acc, (a, b, m2), c * d)
        elif leg == 2:
            for (a, b), d in _delta_mono(m2).terms.items():
                _iadd(acc, (m1, a, b), c * d)
        else:
            raise ValueError("leg must be 1 or 2")
    return TensorElement._raw(acc, legs=3)


def extend_back(x: TensorElement) -> TensorElement:
    """x (x) 1 in the triple tensor power."""
    return TensorElement._raw(
        {(m1, m2, UNIT_MONO): c for (m1, m2), c in x.terms.items()}, legs=3)


def extend_front(x: TensorElement) -> TensorElement:
    """1 (x) x in the triple tensor power."""
    return TensorElement._raw(
        {(UNIT_MONO, m1, m2): c for (m1, m2), c in x.terms.items()}, legs=3)


def counit_leg(x: TensorElement, leg: int) -> Element:
    """Apply the counit to one leg, collapsing to a single-leg element."""
    acc = {}
    for (m1, m2), c in x.terms.items():
        if leg == 1 and m1 == UNIT_MONO:
            _iadd(acc, m2, c)
        elif leg == 2 and m2 == UNIT_MONO:
            _iadd(acc, m1, c)
    return Element._raw(acc)


# ---------------------------------------------------------------------------
# distinguished elements


def classical_r() -> TensorElement:
    """r = F (x) E - E (x) F."""
    return TensorElement({(F_MONO, E_MONO): 1, (E_MONO, F_MONO): -1})


def cartan_killing() -> TensorElement:
    """P = 2(E (x) F + F (x) E + H (x) H), i.e. Delta(I) - I (x) 1 - 1 (x) I."""
    return TensorElement({(E_MONO, F_MONO): 2, (F_MONO, E_MONO): 2,
                          (H_MONO, H_MONO): 2})


# ---------------------------------------------------------------------------
# series helpers


def _outer_into(acc, xs, ys, scale):
    for m1, c1 in xs.items():
        c1 *= scale
        for m2, c2 in ys.items():
            key = (m1, m2)
            acc[key] = acc.get(key, 0) + c1 * c2


def series_outer(a: HSeries, b: HSeries) -> HSeries:
    """Cauchy combination of two element series into a tensor series:
    sum_k a_k (x) b_(n-k), each h^n coefficient summed in integers."""
    if a.order != b.order:
        raise ValueError("series_outer needs equal truncation orders")
    return HSeries(_cauchy(_ints(a.coeffs), _ints(b.coeffs), _outer_into,
                           TensorElement._raw), a.order)


def series_coproduct(s: HSeries) -> HSeries:
    return s.map(coproduct)


def series_flip(s: HSeries) -> HSeries:
    return s.map(flip)


# ---------------------------------------------------------------------------
# canonical renderings


def tensor_to_str(x: TensorElement) -> str:
    parts = []
    for key, c in sorted(x.terms.items()):
        body = "(" + " ⊗ ".join(_mono_str(m) for m in key) + ")"
        parts.append((c, body if abs(c) == 1 else f"{abs(c)} * {body}"))
    return _signed_sum(parts)


def tensor_to_json(x: TensorElement) -> list:
    out = []
    for key in sorted(x.terms):
        c = x.terms[key]
        term = {f"leg{i}": {"e": m[0], "f": m[1], "d": m[2]}
                for i, m in enumerate(key, 1)}
        term.update(num=c.numerator, den=c.denominator)
        out.append(term)
    return out


def _mono_from_json(leg) -> tuple:
    mono = (leg["e"], leg["f"], leg["d"])
    if not all(isinstance(x, int) and x >= 0 for x in mono):
        raise ValueError(f"exponents must be non-negative integers, got {mono}")
    return mono


def tensor_from_json(data) -> TensorElement:
    """Inverse of tensor_to_json; rejects malformed terms with ValueError."""
    terms = {}
    for t in data:
        legs = []
        while (name := f"leg{len(legs) + 1}") in t:
            legs.append(_mono_from_json(t[name]))
        num, den = t["num"], t["den"]
        if not (isinstance(num, int) and isinstance(den, int)) or den == 0:
            raise ValueError(f"coefficient {num}/{den} is not a fraction of "
                             "integers with a non-zero denominator")
        terms[tuple(legs)] = Fraction(num, den)
    return TensorElement(terms)
