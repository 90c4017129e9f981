"""Exact arithmetic in the universal enveloping algebra of sl(2).

Generators H, E, F satisfy [H,E] = E, [H,F] = -F, [E,F] = H.  Elements
are rational linear combinations of normal-ordered monomials E^e F^f H^d
(all E factors left of all F factors left of all H factors); products
reduce to that form with the exchange relations

    phi(H) E^n = E^n phi(H+n),    phi(H) F^n = F^n phi(H-n)

and the single commutator rewrite F E = E F - H.  The quadratic Casimir
is I = 2EF + H(H-1) = 2FE + H(H+1), and {H^a I^b E^n} u {H^a I^b F^n}
is a basis of U(sl2).  This module owns the coordinates in it: the key
(a, b, n) names H^a I^b E^n (n > 0), H^a I^b F^-n (n < 0) or H^a I^b
(n = 0); to_casimir_basis gives x as {(a, b, n): Fraction} and
from_casimir_basis takes such a dict back to PBW normal form, each
through one cached integer conversion per PBW monomial (mono_to_casimir)
or per basis element (casimir_to_pbw).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, lcm

from .lincomb import (LinearCombination, _add_scaled, _iadd, _integral,
                      _rational, _signed_sum, _term_body)

UNIT_MONO = (0, 0, 0)
E_MONO = (1, 0, 0)
F_MONO = (0, 1, 0)
H_MONO = (0, 0, 1)

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# monomial products


def _fm_e(k: int) -> dict:
    """Normal form of the word F^k E, as {mono: coeff}.

    [E, F^k] = sum_j F^j H F^{k-1-j} = F^{k-1} (kH - k(k-1)/2), because
    H F^m = F^m (H - m); so F^k E = E F^k - k F^{k-1} H + k(k-1)/2 F^{k-1}.
    """
    terms = {(1, k, 0): 1, (0, k - 1, 1): -k, (0, k - 1, 0): k * (k - 1) // 2}
    return {mono: c for mono, c in terms.items() if c}


@cache
def _fe_normal(m: int, n: int) -> dict:
    """Normal form of the word F^m E^n, built up one E at a time (a loop,
    so the exponent n is not bounded by the interpreter's recursion limit)."""
    result = {(0, m, 0): 1}
    for _ in range(n):
        prev, result = result, {}
        for (a, b, c), coef in prev.items():
            # (E^a F^b H^c) E = E^a (F^b E) (H+1)^c
            for (p, q, r), c2 in _fm_e(b).items():
                base = coef * c2
                for i in range(c + 1):
                    _iadd(result, (a + p, q, r + i), base * comb(c, i))
    return result


@cache
def mono_mul(m1, m2):
    """Product of two normal-ordered monomials as ((mono, coeff), ...).
    The coefficients are ints: the structure constants of U(sl2) in the
    PBW basis are integers."""
    e1, f1, d1 = m1
    e2, f2, d2 = m2
    # H^{d1} commuted through E^{e2} F^{f2} leaves (H + e2 - f2)^{d1} H^{d2}
    shift = e2 - f2
    qpoly = {}
    for k in range(d1 + 1):
        _iadd(qpoly, d2 + k, comb(d1, k) * shift ** (d1 - k))
    acc = {}
    for (p, q, r), cw in _fe_normal(f1, e2).items():
        # trailing H^r moves right through F^{f2} as (H - f2)^r
        for j in range(r + 1):
            cj = cw * comb(r, j) * (-f2) ** (r - j)
            for deg, cq in qpoly.items():
                _iadd(acc, (e1 + p, q + f2, j + deg), cj * cq)
    return tuple(sorted(acc.items()))


@cache
def mono_commutator(m1, m2):
    """The commutator [m1, m2] = mono_mul(m1, m2) - mono_mul(m2, m1) of two
    monomials as ((mono, int), ...), without zeros, cached."""
    acc = dict(mono_mul(m1, m2))
    for mono, c in mono_mul(m2, m1):
        acc[mono] = acc.get(mono, 0) - c
    return tuple((mono, c) for mono, c in sorted(acc.items()) if c)


# ---------------------------------------------------------------------------
# elements


class Element(LinearCombination):
    """Finite rational linear combination of PBW monomials E^e F^f H^d."""

    __slots__ = ()

    UNIT = UNIT_MONO

    @classmethod
    def monomial(cls, e: int, f: int, d: int, coeff=1) -> "Element":
        return cls({(e, f, d): coeff})

    @staticmethod
    def _mul_into(acc, xs, ys, scale):
        for m1, c1 in xs.items():
            c1 *= scale
            for m2, c2 in ys.items():
                c12 = c1 * c2
                for mono, c in mono_mul(m1, m2):
                    acc[mono] = acc.get(mono, 0) + c12 * c

    def __mul__(self, other):
        # a function of its own, so that Element products can be traced
        # by name apart from the other rings' (perfbench/spans.py)
        return LinearCombination.__mul__(self, other)

    def __str__(self):
        return element_to_str(self)

    def __repr__(self):
        return f"Element({element_to_str(self)})"


E = Element._raw({E_MONO: Fraction(1)})
F = Element._raw({F_MONO: Fraction(1)})
H = Element._raw({H_MONO: Fraction(1)})


def commutator(x: Element, y: Element) -> Element:
    return x * y - y * x


# I = 2EF + H(H-1) as {mono: int}
_CASIMIR = {(1, 1, 0): 2, (0, 0, 2): 1, (0, 0, 1): -1}


def casimir() -> Element:
    """I = 2EF + H(H-1), central in U(sl2)."""
    return Element(_CASIMIR)


def counit(x: Element) -> Fraction:
    """The coefficient of the empty monomial (epsilon kills H, E, F)."""
    return x.terms.get(UNIT_MONO, _ZERO)


# ---------------------------------------------------------------------------
# Casimir coordinates, keyed (a, b, n) as in the module docstring


def _hpoly_shift(poly: dict, s: int) -> dict:
    """H -> H + s on a dense-in-degree H-polynomial {deg: coeff}."""
    out = {}
    for a, c in poly.items():
        for k in range(a + 1):
            _iadd(out, k, c * comb(a, k) * s ** (a - k))
    return out


@cache
def mono_to_casimir(mono) -> tuple:
    """E^e F^f H^d in Casimir coordinates, as ({(a, b, n): int}, den)
    without zeros, cached: the dict must not be modified.

    With n = e - f and m = min(e, f), E^m F^m = P(H) = prod_{t<m}
    (I - (H-t)(H-t-1))/2, as E^(t+1) F^(t+1) = E^t F^t EF(H-t) and
    EF = (I - H(H-1))/2.  H moves left by E^n q(H) = q(H-n) E^n and
    F^l q(H) = q(H+l) F^l, so E^e F^f H^d = P(H-s) (H-n)^d G^|n| with
    s = max(n, 0): the product below, over den = 2^m."""
    e, f, d = mono
    m, n = min(e, f), e - f
    s = max(n, 0)
    poly = {(k, 0): comb(d, k) * (-n) ** (d - k) for k in range(d + 1)}
    for t in range(s, s + m):
        # I - (H-t)(H-t-1) = I - H^2 + (2t+1) H - t(t+1)
        factor = (((0, 1), 1), ((2, 0), -1), ((1, 0), 2 * t + 1),
                  ((0, 0), -t * (t + 1)))
        prev, poly = poly, {}
        for (a, b), c in prev.items():
            for (da, db), q in factor:
                _iadd(poly, (a + da, b + db), c * q)
    return {(a, b, n): c for (a, b), c in poly.items() if c}, 2 ** m


@cache
def casimir_to_pbw(key) -> dict:
    """The basis element of key = (a, b, n) in PBW normal form, as
    {mono: int} without zeros, cached: the dict must not be modified.
    Built as H^a G^|n| times I, b times, with mono_mul; products of H, I,
    E and F have integer coefficients in the PBW basis."""
    a, b, n = key
    if a < 0 or b < 0:
        raise ValueError(f"Casimir key {key} has a negative exponent")
    if not b:
        return dict(mono_mul((0, 0, a), (n, 0, 0) if n >= 0 else (0, -n, 0)))
    acc: dict = {}
    Element._mul_into(acc, casimir_to_pbw((a, b - 1, n)), _CASIMIR, 1)
    return {mono: c for mono, c in acc.items() if c}


def to_casimir_basis(x: Element) -> dict:
    """x in Casimir coordinates, {(a, b, n): Fraction} without zeros: the
    sum of mono_to_casimir over the terms of x, taken in integers."""
    xs, dx = _integral(x.terms)
    coords = [(mono_to_casimir(mono), c) for mono, c in xs.items()]
    den = lcm(*(d for (_, d), _ in coords))
    acc: dict = {}
    for (ints, d), c in coords:
        _add_scaled(acc, ints, c * (den // d))
    return _rational(acc, den * dx)


def from_casimir_basis(coords: dict) -> Element:
    """The element sum c * key over {key: c} in Casimir coordinates, in PBW
    normal form: the sum of casimir_to_pbw, taken in integers."""
    ints, den = _integral(coords)
    acc: dict = {}
    for key, c in ints.items():
        _add_scaled(acc, casimir_to_pbw(key), c)
    return Element._raw(_rational(acc, den))


def is_hi_polynomial(x: Element) -> bool:
    """True when x lies in the commuting subalgebra generated by H and I."""
    return not any(n for _, _, n in to_casimir_basis(x))


def shift_h(x: Element, n: int) -> Element:
    """Formal substitution H -> H + n on a polynomial in H and I (the image
    of x under conjugation through E^n by the exchange relations)."""
    coords = to_casimir_basis(x)
    if any(key[2] for key in coords):
        raise ValueError("shift_h is defined on polynomials in H and I only")
    shifted: dict = {}
    for (a, b, _), c in coords.items():
        for k, q in _hpoly_shift({a: 1}, n).items():
            _iadd(shifted, (k, b, 0), c * q)
    return from_casimir_basis(shifted)


# ---------------------------------------------------------------------------
# canonical renderings


# cached: a printed element or tensor repeats few distinct monomials
@cache
def _mono_str(mono) -> str:
    e, f, d = mono
    parts = []
    for sym, exp in (("E", e), ("F", f), ("H", d)):
        if exp == 1:
            parts.append(sym)
        elif exp > 1:
            parts.append(f"{sym}^{exp}")
    return "*".join(parts) if parts else "1"


def element_to_str(x: Element) -> str:
    return _signed_sum(
        (c, _term_body(c, "" if mono == UNIT_MONO else _mono_str(mono)))
        for mono, c in sorted(x.terms.items(), reverse=True))


def element_to_json(x: Element) -> list:
    return [
        {"e": m[0], "f": m[1], "d": m[2],
         "num": x.terms[m].numerator, "den": x.terms[m].denominator}
        for m in sorted(x.terms, reverse=True)
    ]


def _json_field(obj, name: str, what: str):
    """obj[name] for the JSON object obj; ValueError, naming what obj is,
    when obj is not an object or has no such field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"{what} has no {name!r} field")
    return obj[name]


def _json_list(data, what: str) -> list:
    """data, which must be a JSON list; ValueError naming what it is."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list, got {type(data).__name__}")
    return data


def _only_fields(obj: dict, names, what: str):
    """ValueError naming a field of the JSON object obj that is not one of
    names; obj holds every one of names."""
    if len(obj) != len(names):
        extra = next(name for name in obj if name not in names)
        raise ValueError(f"{what} has an unexpected {extra!r} field")


def _mono_from_json(obj, what: str) -> tuple:
    """The monomial (e, f, d) of the JSON object obj."""
    mono = tuple(_json_field(obj, name, what) for name in ("e", "f", "d"))
    if not all(type(x) is int and x >= 0 for x in mono):
        raise ValueError(f"exponents must be non-negative integers, got {mono}")
    return mono


def _coeff_from_json(term, what: str) -> Fraction:
    """The coefficient num/den of the JSON term."""
    num, den = (_json_field(term, name, what) for name in ("num", "den"))
    if not (type(num) is int and type(den) is int) or den == 0:
        raise ValueError(f"coefficient {num}/{den} is not a fraction of "
                         "integers with a non-zero denominator")
    return Fraction(num, den)


def element_from_json(data) -> Element:
    """Inverse of element_to_json; ValueError for a malformed or repeated
    term, or one with a field other than e, f, d, num and den."""
    terms = {}
    for t in _json_list(data, "an element"):
        c = _coeff_from_json(t, "an element term")
        mono = _mono_from_json(t, "an element term")
        _only_fields(t, ("e", "f", "d", "num", "den"), "an element term")
        if mono in terms:
            raise ValueError(f"term {_mono_str(mono)} is listed twice")
        terms[mono] = c
    return Element(terms)
