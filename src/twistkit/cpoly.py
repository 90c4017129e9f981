"""Sparse commutative polynomials with exact rational coefficients.

A monomial is a tuple of (symbol, exponent) pairs, sorted by symbol name,
with all exponents positive; the empty tuple is the constant monomial.
These polynomials carry the coefficients of q-analogue series and the
scalar bookkeeping that must stay polynomial in its argument.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .lincomb import LinearCombination, _iadd, _signed_sum, _term_body


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for sym, e in m2:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted(exps.items()))


def _mono_degree(mono):
    return sum(e for _, e in mono)


class Poly(LinearCombination):
    """Polynomial in named commuting symbols over the rationals."""

    __slots__ = ()

    UNIT = ()

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls({(): Fraction(c)})

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        return cls({((name, 1),): Fraction(1)})

    def __mul__(self, other):
        if isinstance(other, Rational):
            return self._scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _iadd(acc, _mono_mul(m1, m2), c1 * c2)
        return Poly._raw(acc)

    def substitute(self, assignments: dict) -> "Poly":
        """Replace symbols by polynomials or scalars; others are kept."""
        full = {}
        for mono in self.terms:
            for sym, _ in mono:
                if sym not in full:
                    v = assignments.get(sym, None)
                    if v is None:
                        v = Poly.symbol(sym)
                    elif isinstance(v, Rational):
                        v = Poly.constant(v)
                    full[sym] = v
        return self.eval_in(Poly.one(), full)

    def eval_in(self, one, assignments: dict):
        """Evaluate in any ring: `one` is the ring unit, assignments map
        every symbol to a ring element (elements must commute when the
        polynomial semantics require it)."""
        total = one * 0
        for mono, c in sorted(self.terms.items()):
            term = one * c
            for sym, exp in mono:
                v = assignments[sym]
                for _ in range(exp):
                    term = term * v
            total = total + term
        return total

    def __str__(self):
        def mono_str(mono):
            return "*".join(s if e == 1 else f"{s}^{e}" for s, e in mono)
        return _signed_sum(
            (c, _term_body(c, mono_str(mono)))
            for mono, c in sorted(self.terms.items(),
                                  key=lambda kv: (-_mono_degree(kv[0]), kv[0])))

    def __repr__(self):
        return f"Poly({self})"

