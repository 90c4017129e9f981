"""Classical and quantum universal R-matrices and the twist relation.

The classical R-matrix is q^P = exp(hP) with P the Cartan-Killing
element.  The quantum R-matrix is only ever represented through its image
under the deforming map:

    R_q~ = q^{2 H (x) H} sum_n q^{n(n-1)/2} 2^n (1-q^{-2})^n / [n]! x^n (x) y^n

with x = q^H m(J+), y = q^{-H} m(J-) and the prefactor on the left: each
summand is a pure tensor, the n-th powers of its two legs.  Commuting
q^H through m(J+-) turns it into q^{-n(n-1)/2} 2^n (1-q^{-2})^n / [n]!
q^{nH} m(J+)^n (x) q^{-nH} m(J-)^n: the dressing applies to the n-th
powers.  Collapsing the dressing into one tensor and taking its n-th
power under that scalar would differ by q^{-n(n-1)} per summand: both
readings give the same expansion through order 2, but only the one above
intertwines the twisted coproduct with its opposite at every order
(checked in the tests), so it is the one implemented.
The n-sum truncates at n = N because 1 - q^{-2} is O(h).  For the same
reason summand n, whose scalar is O(h^n), needs x^n, y^n and their
outer product only to order N - n: they are built at that order and
padded back to N, and [n]! is built up one factor per n.  A twist
candidate F is tied to the two R-matrices by the residual
R_q~ F - sigma(F) R."""

from __future__ import annotations

from fractions import Fraction

from .deform import m_Jminus, m_Jplus
from .hseries import HSeries, mul_sub, q_analog, series_exp_h
from .pbw import H, Element
from .tensor import TensorElement, cartan_killing, flip, series_outer


def classical_R(order: int) -> HSeries:
    """R = q^P = exp(hP)."""
    return series_exp_h(cartan_killing(), order)


def quantum_R_image(order: int) -> HSeries:
    """The deforming-map image of the quantum R-matrix, truncated at the
    given order; the n-sum stops at n = order (module docstring)."""
    hh = TensorElement({((0, 0, 1), (0, 0, 1)): 2})
    prefactor = series_exp_h(hh, order)
    x_leg = series_exp_h(H, order) * m_Jplus(order)
    y_leg = series_exp_h(H * -1, order) * m_Jminus(order)

    one_scalar = HSeries.constant(Fraction(1), order)
    geom = one_scalar - series_exp_h(Fraction(-2), order)  # 1 - q^{-2}, O(h)

    total = HSeries.constant(TensorElement.zero(), order)
    x_pow = y_pow = HSeries.constant(Element.one(), order)
    geom_pow = q_fact = one_scalar
    for n in range(order + 1):
        cut = order - n
        if n:
            x_pow = x_pow.truncate(cut) * x_leg.truncate(cut)
            y_pow = y_pow.truncate(cut) * y_leg.truncate(cut)
            geom_pow = geom_pow * geom
            q_fact = q_fact * q_analog(Fraction(n), order)
        scalar = (series_exp_h(Fraction(n * (n - 1), 2), order)
                  * geom_pow * q_fact.inverse() * Fraction(2 ** n))
        total = total + scalar * series_outer(x_pow, y_pow).pad_to(order)
    return prefactor * total


def quasitriangular_residual(cand, order: int) -> HSeries:
    """R_q~ F - sigma(F) R, order by order."""
    Fs = cand.at_order(order).series
    return mul_sub(quantum_R_image(order), Fs, Fs.map(flip), classical_R(order))
