"""A twist candidate and the checks that verify it order by order.

A candidate F = F0 + h F1 + h^2 F2 + ... conjugates the classical
coproduct into the image of the q-deformed one; instead of dividing by F,
the residuals are kept in multiplied-through form

    rho(g) = F * Delta(m(g)) - Delta_q~(g) * F        for g in {J0, J+, J-},

which must vanish order by order (twist_residual_series).  The h^n
coefficient of rho(g) depends only on F_0..F_n, so a candidate
zero-padded past its order is checked exactly up to any order.  The
other checks are normalization_check, unitarity_defect and
cocycle_defect.  This module holds no solver: twist solves for F_k
against these residuals and certifies its solution with the same
brackets (_residual_coefficient, _brackets_vanish, kernel_check), so
verifying or evaluating a candidate loads neither twist nor linsolve.

The residuals are built coefficient by coefficient.  Each coefficient
is one signed Cauchy sum,
sum_i F_i Delta(m(g))_(n-i) - Delta_q~(g)_(n-i) F_i, summed in integers
(lincomb._sum_products, _residual_coefficient) against the two operands,
which depend on the order alone and are built once per order.  Both
order-0 operands are Delta(g), so the pair i = n is the commutator
[F_n, Delta(g)]: it is added in the same integer sum as the other pairs,
not as two tensor products (_residual_pairs).  For J0 both operands
vanish above order 0 (m(J0) = H and Delta_q~(J0) = Delta(H)), so its sum
is that commutator alone.  The commutator with a primitive Delta(g) is
taken leg by leg: [x (x) y, Delta(g)] = [x, g] (x) y + x (x) [y, g].
Each bracket [m, g] of a PBW monomial m is read from a cache
(pbw.mono_commutator) with its cancelling terms already gone, and the
sum is taken in integers, so every check is exact.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache

from .hseries import HSeries, _ints, _ring_into, mul_sub
from .lincomb import _integral, _rational, _sum_products
from .pbw import (E, E_MONO, F, F_MONO, H, H_MONO, Element, _json_field,
                  _json_list, _only_fields, casimir, mono_commutator)
from .report import VerificationReport
from .tensor import (TensorElement, _keyed, cartan_killing, classical_r,
                     coproduct, counit_leg, flip, outer, tensor_from_json,
                     tensor_to_json)


# ---------------------------------------------------------------------------
# candidates


class TwistCandidate(namedtuple("TwistCandidate", "series")):
    """A truncated twist series F0 + h F1 + ... + h^N F_N."""

    __slots__ = ()

    def __new__(cls, series):
        for c in series.coeffs:
            if not isinstance(c, TensorElement) or c.legs != 2:
                raise ValueError("twist coefficients must be 2-leg tensor elements")
        return tuple.__new__(cls, (series,))

    @classmethod
    def from_coefficients(cls, coeffs) -> "TwistCandidate":
        return cls(HSeries(tuple(coeffs)))

    @property
    def order(self) -> int:
        return self.series.order

    def coefficient(self, k: int) -> TensorElement:
        return self.series.coeffs[k]

    def at_order(self, order: int) -> "TwistCandidate":
        """Deliberately pad with zeros or truncate to the given order."""
        if order == self.order:
            return self
        if order > self.order:
            return TwistCandidate(self.series.pad_to(order))
        return TwistCandidate(self.series.truncate(order))

    def leading_invertible(self) -> bool:
        s = self.series.coeffs[0].as_unit_scalar()
        return s is not None and s != 0

    def to_json(self) -> dict:
        return {"order": self.order,
                "coeffs": [tensor_to_json(c) for c in self.series.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "TwistCandidate":
        """Inverse of to_json; ValueError for a malformed candidate, or
        one with a field other than order and coeffs."""
        if isinstance(data, dict):
            # against the fields present: a stray field is named first
            _only_fields(data, data.keys() & {"order", "coeffs"}, "a candidate")
        coeffs = [tensor_from_json(c) for c in
                  _json_list(_json_field(data, "coeffs", "a candidate"),
                             "the candidate's coeffs")]
        order = _json_field(data, "order", "a candidate")
        if type(order) is not int or len(coeffs) != order + 1:
            raise ValueError("candidate order does not match coefficient count")
        cand = cls.from_coefficients(coeffs)
        if not cand.leading_invertible():
            raise ValueError("leading coefficient is not an invertible scalar")
        return cand


def second_order_term() -> TensorElement:
    """The explicit second-order particular solution built from the
    Cartan-Killing element P."""
    I = casimir()
    one = Element.one()
    one2 = TensorElement.one()
    P = cartan_killing()
    half = Fraction(1, 2)
    t = (outer(I, H * H) + outer(H * H, I)) * half
    t = t + (outer(E, H * F) - outer(H * E, F)
             + outer(H * F, E) - outer(F, H * E)) * Fraction(1, 3)
    t = t + outer(H, H) * (one2 - P * 3) * Fraction(1, 6)
    t = t - P * Fraction(11, 24)
    t = t + ((one2 + P) * (one2 + P) - one2 - outer(I, I) * 2) * half
    return t


def reference_candidate(order: int = 2) -> TwistCandidate:
    """The canonical particular twist: F0 = 1, F1 = r (the classical
    r-matrix), F2 the explicit second-order term.  Defined up to order 2."""
    if not 0 <= order <= 2:
        raise ValueError("the reference candidate is defined for orders 0..2")
    coeffs = [TensorElement.one(), classical_r(), second_order_term()]
    return TwistCandidate.from_coefficients(coeffs[: order + 1])


# ---------------------------------------------------------------------------
# residual verification


def twist_residual_series(cand: TwistCandidate, order: int) -> dict:
    """The three residual series F*Delta(m(g)) - Delta_q~(g)*F, keyed by
    generator name in the order J0, J+, J-, each coefficient a
    _residual_coefficient; ValueError for a negative order."""
    if order < 0:
        raise ValueError(f"the residual order must be >= 0, got {order}")
    if not cand.leading_invertible():
        raise ValueError("twist candidate has a non-invertible leading term")
    fs = _ints(cand.at_order(order).series.coeffs)
    ring_into = _ring_into(cand.series.coeffs[0])
    return {g: HSeries(tuple(
                TensorElement._raw(_rational(*_residual_coefficient(
                    fs, ring_into, g, n)))
                for n in range(order + 1)), order)
            for g in _GENERATOR_MONOS}


def _residual_coefficient(fs, ring_into, g: str, n: int) -> tuple:
    """(ints, den): the h^n coefficient of the residual of the generator
    g (J0, J+ or J-), zeros kept, for the coefficients fs of F through
    order N >= n in the form of hseries._ints and F's ring kernel
    ring_into (hseries._ring_into).  One integer sum over _residual_pairs
    against the order-N operands."""
    cs, ds = _residual_operands(len(fs) - 1)[g]
    return _sum_products(_residual_pairs(fs, cs, ds, n),
                         _bracket_or_product(ring_into, _GENERATOR_MONOS[g]))


# the operand that stands for Delta(g) in the order-0 pair of _residual_pairs
_DELTA = (None, 1)


def _residual_pairs(fs, cs, ds, n: int) -> list:
    """The signed pairs of the h^n coefficient of F*C - D*F for operands in
    the form of hseries._ints: F_i C_(n-i) and -D_(n-i) F_i for i < n, and
    F_n against _DELTA, which stands for the order-0 pair F_n C_0 - D_0 F_n
    = [F_n, Delta(g)].  A scalar F_n commutes with Delta(g) and gives no
    pair."""
    pairs = [(x, y, 1) for x, y in zip(fs[:n], cs[n:0:-1]) if x and y]
    f = fs[n]
    if f is not None and not isinstance(f[0], int):
        pairs.append((f, _DELTA, 1))
    pairs += [(x, y, -1) for x, y in zip(ds[1:n + 1], reversed(fs[:n]))
              if x and y]
    return pairs


def _bracket_or_product(ring_into, g):
    """The kernel of a lincomb._sum_products over _residual_pairs: the
    bracket with the primitive Delta(g) for the pair against _DELTA, the
    ring's product (hseries._ring_into) for every other pair."""
    def into(acc, x, y, scale):
        if y is None:
            _delta_bracket_into(acc, x, g, scale)
        else:
            ring_into(acc, x, y, scale)
    return into


@cache
def _residual_operands(order: int) -> dict:
    """Delta(m(g)) and Delta_q~(g) for each generator g, their
    coefficients in the integer form of hseries._ints; they depend on the
    order alone and are cached by it.  Both order-0 coefficients are
    Delta(g), which _residual_pairs reads as a bracket and not from here;
    those of J0 are zero above order 0.  deform is imported here, so that
    a process that only reads candidates does not load it."""
    from .deform import IMAGES, delta_q_image

    return {g: (_ints(image(order).map(coproduct).coeffs),
                _ints(delta_q_image(g, order).coeffs))
            for g, image in IMAGES.items()}


def twist_residuals(cand: TwistCandidate, order: int) -> VerificationReport:
    """Pass iff every residual coefficient vanishes up to the given order."""
    return VerificationReport.of({f"twist[{g}]": series for g, series
                                  in twist_residual_series(cand, order).items()})


# the PBW monomial g of each generator, with m(g) = g and Delta_q~(g) =
# Delta(g) at order 0
_GENERATOR_MONOS = {"J0": H_MONO, "J+": E_MONO, "J-": F_MONO}


def _delta_bracket_into(acc: dict, xs: dict, g, scale: int = 1):
    """acc += scale * [x, Delta(g)] in integers, for the 2-leg term dict xs
    of x with int values and the PBW monomial g.  Delta(g) = g (x) 1 +
    1 (x) g is primitive, so each term c m1 (x) m2 contributes
    c ([m1, g] (x) m2 + m1 (x) [m2, g]), each bracket a cached
    pbw.mono_commutator."""
    for (m1, m2), c in xs.items():
        c *= scale
        for m, d in mono_commutator(m1, g):
            key = (m, m2)
            acc[key] = acc.get(key, 0) + c * d
        for m, d in mono_commutator(m2, g):
            key = (m1, m)
            acc[key] = acc.get(key, 0) + c * d


def _brackets_vanish(xs: dict, seed) -> bool:
    """True iff acc + scale * [x, Delta(g)] = 0 for each generator g = H,
    E, F, where xs is the 2-leg term dict of x with int values and
    (acc, scale) = seed(name of g): an int dict keyed like xs, which is
    consumed, and an int."""
    for name, g in _GENERATOR_MONOS.items():
        acc, scale = seed(name)
        _delta_bracket_into(acc, xs, g, scale)
        if any(acc.values()):
            return False
    return True


def kernel_check(f: TensorElement) -> bool:
    """True iff the 2-leg tensor element f commutes with Delta(H),
    Delta(E) and Delta(F); ValueError for any other leg count."""
    legs = _keyed(f)[1]
    if legs != 2:
        raise ValueError(f"kernel_check needs a 2-leg tensor element, "
                         f"got {legs} legs")
    return _brackets_vanish(_integral(f.terms)[0], lambda _: ({}, 1))


# ---------------------------------------------------------------------------
# the other checks


def normalization_check(cand: TwistCandidate) -> VerificationReport:
    """(eps (x) id)(F) = (id (x) eps)(F) = 1, order by order."""
    s = cand.series
    one = HSeries.constant(Element.one(), s.order)
    return VerificationReport.of(
        {f"counit(leg{leg})": s.map(lambda c: counit_leg(c, leg)) - one
         for leg in (1, 2)})


def unitarity_defect(cand: TwistCandidate) -> HSeries:
    """sigma(F) F - 1 at the universal level."""
    s = cand.series
    one = HSeries.constant(TensorElement.one(), s.order)
    return s.map(flip) * s - one


def cocycle_defect(cand: TwistCandidate) -> HSeries:
    """(F (x) 1)(Delta (x) id)(F) - (1 (x) F)(id (x) Delta)(F) as a series
    in the triple tensor power."""
    s = cand.series
    one = Element.one()
    return mul_sub(s.map(lambda c: outer(c, one)), s.map(coproduct),
                   s.map(lambda c: outer(one, c)),
                   s.map(lambda c: coproduct(c, 2)))
