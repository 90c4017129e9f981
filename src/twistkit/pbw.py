"""Exact arithmetic in the universal enveloping algebra of sl(2).

Generators H, E, F satisfy [H,E] = E, [H,F] = -F, [E,F] = H.  Elements
are rational linear combinations of normal-ordered monomials E^e F^f H^d
(all E factors left of all F factors left of all H factors); products
reduce to that form with the exchange relations

    phi(H) E^n = E^n phi(H+n),    phi(H) F^n = F^n phi(H-n)

and the single commutator rewrite F E = E F - H.  The quadratic Casimir
is I = 2EF + H(H-1) = 2FE + H(H+1); the Casimir-adapted spanning set
{H^a I^b E^c} u {H^r I^s F^t} is available through to_casimir_basis /
from_casimir_basis.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb

from .lincomb import LinearCombination, _iadd, _signed_sum, _term_body

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


def casimir() -> Element:
    """I = 2EF + H(H-1), central in U(sl2)."""
    return Element({(1, 1, 0): 2, (0, 0, 2): 1, (0, 0, 1): -1})


def counit(x: Element) -> Fraction:
    """The coefficient of the empty monomial (epsilon kills H, E, F)."""
    return x.terms.get(UNIT_MONO, _ZERO)


# ---------------------------------------------------------------------------
# Casimir-adapted spanning set


class CasimirTerm(namedtuple("CasimirTerm", "side a b c")):
    """One monomial H^a I^b E^c (side 'E'), H^a I^b F^c (side 'F') or
    H^a I^b (side 'pure', c = 0)."""

    __slots__ = ()

    def __new__(cls, side, a, b, c):
        if side not in ("pure", "E", "F"):
            raise ValueError(f"bad side {side!r}")
        if side == "pure" and c != 0:
            raise ValueError("pure terms have c = 0")
        if side != "pure" and c < 1:
            raise ValueError("E/F-side terms need c >= 1")
        return tuple.__new__(cls, (side, a, b, c))


def _hpoly_shift(poly: dict, s: int) -> dict:
    """H -> H + s on a dense-in-degree H-polynomial {deg: coeff}."""
    out = {}
    for a, c in poly.items():
        for k in range(a + 1):
            _iadd(out, k, c * comb(a, k) * s ** (a - k))
    return out


def to_casimir_basis(x: Element):
    """Decompose over {H^a I^b E^c} u {H^a I^b F^c} u {H^a I^b} by
    eliminating mixed EF pairs via 2EF = I - H(H-1)."""
    work: dict = {}
    for (e, f, d), c in x.terms.items():
        poly = work.setdefault((e, f, 0), {})
        _iadd(poly, d, c)
    while True:
        mixed = [k for k in work if k[0] > 0 and k[1] > 0]
        if not mixed:
            break
        for e, f, b in mixed:
            poly = work.pop((e, f, b))
            # E^e F^f = E^{e-1} F^{f-1} (I - (H-f+1)(H-f)) / 2
            half = {a: c * Fraction(1, 2) for a, c in poly.items()}
            dest = work.setdefault((e - 1, f - 1, b + 1), {})
            for a, c in half.items():
                _iadd(dest, a, c)
            # -(H-f+1)(H-f)/2 = -(H^2 + (1-2f)H + f^2 - f)/2
            psi = {2: Fraction(-1, 2), 1: Fraction(2 * f - 1, 2),
                   0: Fraction(-(f * f - f), 2)}
            dest = work.setdefault((e - 1, f - 1, b), {})
            for a1, c1 in poly.items():
                for a2, c2 in psi.items():
                    _iadd(dest, a1 + a2, c1 * c2)
    out = {}
    for (e, f, b), poly in work.items():
        if e:
            side, c_exp, shifted = "E", e, _hpoly_shift(poly, -e)
        elif f:
            side, c_exp, shifted = "F", f, _hpoly_shift(poly, f)
        else:
            side, c_exp, shifted = "pure", 0, poly
        for a, coef in shifted.items():
            _iadd(out, CasimirTerm(side, a, b, c_exp), coef)
    order = {"pure": 0, "E": 1, "F": 2}
    return sorted(out.items(), key=lambda kv: (order[kv[0].side], kv[0].c,
                                               kv[0].b, kv[0].a))


def from_casimir_basis(terms) -> Element:
    """Expand I -> 2EF + H^2 - H and multiply out to PBW normal form."""
    I = casimir()
    total = Element.zero()
    for term, coef in terms:
        x = Element.monomial(0, 0, term.a) * I ** term.b
        if term.side == "E":
            x = x * E ** term.c
        elif term.side == "F":
            x = x * F ** term.c
        total = total + x * coef
    return total


def is_hi_polynomial(x: Element) -> bool:
    """True when x lies in the commuting subalgebra generated by H and I."""
    return all(t.side == "pure" for t, _ in to_casimir_basis(x))


def shift_h(x: Element, n: int) -> Element:
    """Formal substitution H -> H + n on a polynomial in H and I (the image
    of x under conjugation through E^n by the exchange relations)."""
    decomp = to_casimir_basis(x)
    if any(t.side != "pure" for t, _ in decomp):
        raise ValueError("shift_h is defined on polynomials in H and I only")
    I = casimir()
    total = Element.zero()
    hplus = Element({H_MONO: 1, UNIT_MONO: n})
    for term, coef in decomp:
        total = total + hplus ** term.a * I ** term.b * coef
    return total


# ---------------------------------------------------------------------------
# canonical renderings


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


def element_from_json(data) -> Element:
    terms = {}
    for t in data:
        terms[(t["e"], t["f"], t["d"])] = Fraction(t["num"], t["den"])
    return Element(terms)
