"""Arithmetic in the tensor powers of U(sl2), and coproducts.

A tensor element with n legs keeps each leg in PBW normal form: its keys
are n-tuples of monomials, and products are legwise.  The structure maps
(outer, coproduct on one leg, counit on one leg) take any number of legs,
an Element counting as one.  The classical
coproduct is primitive on generators and extended as an algebra
morphism.  Since g (x) 1 and 1 (x) g commute, Delta of a monomial is the
binomial sum

    Delta(E^e F^f H^d) = sum C(e,a) C(f,b) C(d,c)
                         E^a F^b H^c (x) E^(e-a) F^(f-b) H^(d-c),

whose two legs are already in normal order.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .hseries import HSeries, _cauchy, _ints
from .lincomb import LinearCombination, _outer_into, _signed_sum
from .pbw import (E_MONO, F_MONO, H_MONO, UNIT_MONO, Element, _coeff_from_json,
                  _json_list, _mono_from_json, _mono_str, _only_fields,
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
        if not self.legs:
            raise ValueError("a tensor term has no legs")

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
        # (x1 (x) x')(y1 (x) y') = x1 y1 (x) x'y': the remaining legs of
        # each pair of first-leg groups are multiplied once, down to the
        # one-leg Element kernel, and spread over mono_mul(x1, y1)
        if not xs or not ys:
            return
        legs = len(next(iter(xs)))
        if legs == 1:
            rest = {}
            Element._mul_into(rest, {m: c for (m,), c in xs.items()},
                              {m: c for (m,), c in ys.items()}, scale)
            for m, c in rest.items():
                acc[(m,)] = acc.get((m,), 0) + c
            return
        rest_into = Element._mul_into if legs == 2 else TensorElement._mul_into
        y_groups = _by_first_leg(ys)
        for x1, x_rest in _by_first_leg(xs).items():
            for y1, y_rest in y_groups.items():
                rest = {}
                rest_into(rest, x_rest, y_rest, scale)
                for m, d in mono_mul(x1, y1):
                    for r, c in rest.items():
                        key = (m, r) if legs == 2 else (m, *r)
                        acc[key] = acc.get(key, 0) + c * d

    def __mul__(self, other):
        # its own function, traced by name like Element.__mul__; a
        # leg-count mismatch raises in _operand
        return LinearCombination.__mul__(self, other)

    def __str__(self):
        return tensor_to_str(self)

    def __repr__(self):
        return f"TensorElement({tensor_to_str(self)})"


def _by_first_leg(terms: dict) -> dict:
    """{first monomial: {rest: c}} for terms keyed by tuples of two or
    more monomials; rest is the second monomial of a 2-leg key, else the
    tuple of the remaining ones."""
    groups = {}
    for key, c in terms.items():
        rest = key[1] if len(key) == 2 else key[1:]
        groups.setdefault(key[0], {})[rest] = c
    return groups


# the triple tensor power is the 3-leg case of the same type; as for any
# leg count, x.one_like() and x.zero_like() match x's legs, while the
# classmethods one() and zero() give the 2-leg unit and zero
TensorElement3 = TensorElement


# ---------------------------------------------------------------------------
# structure maps, for any number of legs; an Element counts as one leg
#
# Each map sends distinct keys to distinct keys: outer concatenates them,
# the two legs of Delta add up to the original monomial, the counit drops
# a unit leg and flip permutes.  So each builds its dict in one pass, and
# no two terms ever meet in a sum.


def _keyed(x) -> tuple:
    """(the terms of x keyed by tuples of monomials, one per leg, and the
    number of legs)."""
    if isinstance(x, Element):
        return {(m,): c for m, c in x.terms.items()}, 1
    return x.terms, x.legs


def _from_keyed(terms: dict, legs: int):
    """Inverse of _keyed: an Element at one leg, else a TensorElement."""
    if legs == 1:
        return Element._raw({m: c for (m,), c in terms.items()})
    return TensorElement._raw(terms, legs)


def _leg_index(legs: int, leg: int) -> int:
    if not 1 <= leg <= legs:
        raise ValueError(f"leg must be in 1..{legs} for a {legs}-leg "
                         f"element, got {leg}")
    return leg - 1


def outer(*factors):
    """The tensor product of the factors, their legs in order; for example
    x (x) 1 is outer(x, Element.one())."""
    terms, legs = _keyed(factors[0])
    for y in factors[1:]:
        ys, n = _keyed(y)
        terms = {k1 + k2: c1 * c2 for k1, c1 in terms.items()
                 for k2, c2 in ys.items()}
        legs += n
    return _from_keyed(terms, legs)


def weight(key) -> int:
    """The total H-adjoint weight sum(e - f) of a tuple of monomials."""
    return sum(e - f for e, f, _ in key)


def is_weight_zero(x) -> bool:
    return all(weight(key) == 0 for key in _keyed(x)[0])


def flip(x: TensorElement) -> TensorElement:
    """Exchange the two legs of a 2-leg element (legs stay normal-ordered)."""
    legs = _keyed(x)[1]
    if legs != 2:
        raise ValueError(f"flip needs a 2-leg element, got {legs} legs")
    return TensorElement._raw({(m2, m1): c for (m1, m2), c in x.terms.items()})


@cache
def _delta_mono(mono) -> tuple:
    """Delta(E^e F^f H^d) as ((pair, int), ...), the binomial sum of the
    module docstring."""
    e, f, d = mono
    return tuple((((a, b, c), (e - a, f - b, d - c)),
                  comb(e, a) * comb(f, b) * comb(d, c))
                 for a in range(e + 1) for b in range(f + 1)
                 for c in range(d + 1))


def coproduct(x, leg: int = 1) -> TensorElement:
    """Apply Delta to one leg of x, which gains a leg: Delta(x) for an
    Element; on two legs, leg 1 gives (Delta (x) id)(x) and leg 2 gives
    (id (x) Delta)(x)."""
    terms, legs = _keyed(x)
    i = _leg_index(legs, leg)
    acc = {}
    for key, c in terms.items():
        head, tail = key[:i], key[i + 1:]
        for pair, d in _delta_mono(key[i]):
            acc[head + pair + tail] = c * d
    return TensorElement._raw(acc, legs + 1)


def counit_leg(x: TensorElement, leg: int):
    """Apply the counit to one leg of an element with two or more legs,
    dropping that leg; from two legs the result is an Element."""
    legs = _keyed(x)[1]
    if legs < 2:
        raise ValueError(f"counit_leg needs an element with two or more "
                         f"legs, got {legs}")
    i = _leg_index(legs, leg)
    return _from_keyed({key[:i] + key[i + 1:]: c
                        for key, c in x.terms.items() if key[i] == UNIT_MONO},
                       legs - 1)


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


def series_outer(a: HSeries, b: HSeries) -> HSeries:
    """Cauchy combination of two element series into a tensor series:
    sum_k a_k (x) b_(n-k), each h^n coefficient summed in integers."""
    if a.order != b.order:
        raise ValueError("series_outer needs equal truncation orders")
    return HSeries(_cauchy(((_ints(a.coeffs), _ints(b.coeffs), 1),),
                           _outer_ints_into, TensorElement._raw), a.order)


def _outer_ints_into(acc, x, y, scale):
    """_outer_into for Element operands in the form of hseries._ints, where
    a scalar multiple of the unit is an int."""
    _outer_into(acc, {UNIT_MONO: x} if isinstance(x, int) else x,
                {UNIT_MONO: y} if isinstance(y, int) else y, scale)


# ---------------------------------------------------------------------------
# canonical renderings


def tensor_to_str(x: TensorElement) -> str:
    """'c * (m1 ⊗ m2) - ...' over the terms in key order, a unit
    coefficient left out.  Each coefficient is written from its
    numerator and denominator, without a Fraction operation, and each
    monomial's text is read from the cache of pbw._mono_str."""
    parts = []
    for key, c in sorted(x.terms.items()):
        n, d = c.numerator, c.denominator
        body = "(" + " ⊗ ".join(map(_mono_str, key)) + ")"
        if d != 1:
            body = f"{abs(n)}/{d} * {body}"
        elif n != 1 and n != -1:
            body = f"{abs(n)} * {body}"
        parts.append((n, body))
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


def tensor_from_json(data) -> TensorElement:
    """Inverse of tensor_to_json; ValueError for a malformed or repeated
    term, or for a field other than leg1, leg2, ... (numbered without a
    gap), num and den in a term or other than e, f and d in a leg."""
    terms = {}
    for t in _json_list(data, "a tensor element"):
        c = _coeff_from_json(t, "a tensor term")
        legs, names = [], ["num", "den"]
        while (name := f"leg{len(legs) + 1}") in t:
            legs.append(_mono_from_json(t[name], "a tensor leg"))
            _only_fields(t[name], ("e", "f", "d"), "a tensor leg")
            names.append(name)
        _only_fields(t, names, "a tensor term")
        key = tuple(legs)
        if key in terms:
            raise ValueError(f"term {' ⊗ '.join(map(_mono_str, key))} is "
                             "listed twice")
        terms[key] = c
    return TensorElement(terms)
