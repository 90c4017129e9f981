"""The deforming map from the q-deformed algebra into U(sl2)[[h]].

The generator images are J0 -> H, J+ -> phi+ * E, J- -> phi- * F with

    phi+- = sqrt([j +- H][1 + j -+ H] / ((j +- H)(1 + j -+ H))),

where [x] is the q-analogue and j the spectral label with I = j(j+1).
The label j never enters any computation.  With a = j +- H and
b = 1 + j -+ H put X = a + b and Y = a - b, so that

    X^2 = 4I + 1      and      Y^2 = (2H -+ 1)^2

are honest elements of U(sl2).  Then [a][b] = (cosh hX - cosh hY) /
(2 sinh^2 h) and ab = (X^2 - Y^2)/4, so

    phi+-^2 = 2 (cosh hX - cosh hY) / (sinh^2 h (X^2 - Y^2)),

a series of commuting polynomials in H and I: the quotient
2 (cosh hX - cosh hY) / (h^2 (X^2 - Y^2)) has h^{2m} coefficient
2 T_m / (2m+2)! with T_0 = 1 and T_m = (X^2)^m + Y^2 T_{m-1}, and it is
divided by the scalar series (sinh h / h)^2.  The square root is taken
at the series level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .hseries import HSeries, q_analog, series_exp_h, sinhc
from .pbw import E, F, H, Element, casimir
from .report import VerificationReport
from .tensor import coproduct, series_outer

_SIGNS = {"+": +1, "plus": +1, "-": -1, "minus": -1}


@dataclass(frozen=True)
class PhiSeries:
    """phi+ or phi-: an even series whose coefficients are polynomials in
    H and I, with constant term 1."""

    sign: str
    series: HSeries

    @property
    def order(self) -> int:
        return self.series.order


def phi(sign: str, order: int) -> PhiSeries:
    """The deforming-map coefficient phi+ (sign '+') or phi- (sign '-')
    as a truncated series, exact at every order."""
    s = _SIGNS.get(sign)
    if s is None:
        raise ValueError("sign must be '+'/'plus' or '-'/'minus'")
    return _phi(s, order)


@cache
def _phi(s: int, order: int) -> PhiSeries:
    # the numerator series 2 T_m / (2m+2)! of the module docstring
    x2 = casimir() * 4 + 1
    y2 = (H * 2 - s) ** 2
    t = [Element.one()]
    for m in range(1, order // 2 + 1):
        t.append(x2 ** m + y2 * t[-1])
    num = HSeries(tuple(t[k // 2] * Fraction(2, factorial(k + 2)) if k % 2 == 0
                        else Element.zero() for k in range(order + 1)), order)
    phi_sq = num * (sinhc(order) ** 2).inverse()
    return PhiSeries("+" if s > 0 else "-", phi_sq.sqrt())


def m_J0(order: int) -> HSeries:
    """Image of J0: the constant series H."""
    return HSeries.constant(H, order)


def m_Jplus(order: int) -> HSeries:
    """Image of J+: phi+ * E."""
    return phi("+", order).series.map(lambda c: c * E)


def m_Jminus(order: int) -> HSeries:
    """Image of J-: phi- * F (equal to F * phi+)."""
    return phi("-", order).series.map(lambda c: c * F)


# generator name -> the function of the order giving its image
IMAGES = {"J0": m_J0, "J+": m_Jplus, "J-": m_Jminus}


def q_analog_2h(order: int) -> HSeries:
    """[2H] as a series of elements of U(sl2)."""
    return q_analog(H * 2, order)


def quantum_commutator_check(order: int, *, jplus: HSeries | None = None,
                             jminus: HSeries | None = None) -> VerificationReport:
    """Verify the three q-deformed commutation relations on the generator
    images up to the given order.  Alternative images may be injected to
    exercise falsification."""
    j0 = m_J0(order)
    jp = jplus if jplus is not None else m_Jplus(order)
    jm = jminus if jminus is not None else m_Jminus(order)

    def comm(a, b):
        return a * b - b * a

    report = VerificationReport()
    relations = (
        ("[J0,J+] = J+", comm(j0, jp) - jp),
        ("[J0,J-] = -J-", comm(j0, jm) + jm),
        ("[J+,J-] = [2J0]/2", comm(jp, jm) - q_analog_2h(order) * Fraction(1, 2)),
    )
    for name, residual in relations:
        bad = residual.first_nonzero()
        report.add(name, bad is None, bad)
    return report


def delta_q_image(gen: str, order: int) -> HSeries:
    """The twisted coproduct on a generator image: for J0 the primitive
    Delta(H); for J+- the image of J+- (x) q^{J0} + q^{-J0} (x) J+-."""
    if gen not in IMAGES:
        raise ValueError(f"unknown generator {gen!r}; "
                         f"expected one of {tuple(IMAGES)}")
    if gen == "J0":
        return HSeries.constant(coproduct(H), order)
    img = IMAGES[gen](order)
    qh = series_exp_h(H, order)
    qh_inv = series_exp_h(H * -1, order)
    return series_outer(img, qh) + series_outer(qh_inv, img)


def generator_images(order: int) -> dict:
    """All three generator images, keyed by generator name."""
    return {g: image(order) for g, image in IMAGES.items()}
