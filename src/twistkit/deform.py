"""The deforming map from the q-deformed algebra into U(sl2)[[h]].

The generator images are J0 -> H, J+ -> phi+ * E, J- -> phi- * F with

    phi+- = sqrt([j +- H][1 + j -+ H] / ((j +- H)(1 + j -+ H))),

where [x] is the q-analogue and j the spectral label with I = j(j+1).
The label j never enters any computation: writing u = (j +- H)^2 and
v = (1 + j -+ H)^2, the ratio under the square root is S(u)S(v) with S
the sinh-ratio series, each h-coefficient of which is symmetric in (u, v)
and therefore a polynomial in

    u + v = 2I + 2H^2 -+ 2H + 1      and      u*v = (I +- H - H^2)^2,

both honest elements of U(sl2).  The square root is taken at the series
level, where all coefficients are commuting polynomials in H and I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .hseries import HSeries, q_analog, series_exp_h
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

    def coefficient(self, k: int) -> Element:
        return self.series.coeffs[k]


def _sym_to_elementary(poly2: dict) -> dict:
    """Rewrite a symmetric {(i, j): c} polynomial in (u, v) over the
    elementary symmetric pair e1 = u+v, e2 = uv, as {(p, q): c} for
    e1^p e2^q."""
    out: dict = {}
    work = dict(poly2)
    while work:
        i, j = max(work)
        c = work.pop((i, j))
        if not c:
            continue
        if i < j:
            raise ValueError("polynomial is not symmetric in (u, v)")
        p, q = i - j, j
        out[(p, q)] = out.get((p, q), Fraction(0)) + c
        # subtract c * (u+v)^p (uv)^q; its k = p term is (i, j), already popped
        for k in range(p):
            key = (k + q, p - k + q)
            v = work.get(key, Fraction(0)) - c * comb(p, k)
            if v:
                work[key] = v
            else:
                work.pop(key, None)
    return {k: v for k, v in out.items() if v}


def phi(sign: str, order: int) -> PhiSeries:
    """The deforming-map coefficient phi+ (sign '+') or phi- (sign '-')
    as a truncated series, exact at every order."""
    s = _SIGNS.get(sign)
    if s is None:
        raise ValueError("sign must be '+'/'plus' or '-'/'minus'")
    return _phi(s, order)


@cache
def _phi(s: int, order: int) -> PhiSeries:
    # s_m(w): the h^{2m} coefficient of the sinh-ratio series S(x) as a
    # polynomial in w = x^2, represented {w-degree: Fraction}
    den = HSeries(tuple(Fraction(1, factorial(k + 1)) if k % 2 == 0 else Fraction(0)
                        for k in range(order + 1)), order)
    dinv = den.inverse()
    m_top = order // 2
    spoly = []
    for m in range(m_top + 1):
        spoly.append({a: Fraction(1, factorial(2 * a + 1)) * dinv.coeffs[2 * (m - a)]
                      for a in range(m + 1)})

    # e1 = u + v and e2 = u*v as elements of U(sl2)
    h_term = H * (-2 * s)
    e1 = casimir() * 2 + H * H * 2 + h_term + Element.one()
    p_lin = casimir() + H * s - H * H
    e2 = p_lin * p_lin
    e1_pow = [Element.one()]
    e2_pow = [Element.one()]

    def _pow(cache, base, n):
        while len(cache) <= n:
            cache.append(cache[-1] * base)
        return cache[n]

    coeffs = []
    for k in range(order + 1):
        if k % 2:
            coeffs.append(Element.zero())
            continue
        m = k // 2
        # sum over a+b=m of s_a(u) s_b(v), symmetric in (u, v)
        prod: dict = {}
        for a in range(m + 1):
            b = m - a
            for du, cu in spoly[a].items():
                for dv, cv in spoly[b].items():
                    key2 = (du, dv)
                    prod[key2] = prod.get(key2, Fraction(0)) + cu * cv
        elem = Element.zero()
        for (p, q), c in sorted(_sym_to_elementary(prod).items()):
            elem = elem + _pow(e1_pow, e1, p) * _pow(e2_pow, e2, q) * c
        coeffs.append(elem)

    return PhiSeries("+" if s > 0 else "-", HSeries(tuple(coeffs), order).sqrt())


def m_J0(order: int) -> HSeries:
    """Image of J0: the constant series H."""
    return HSeries.constant(H, order)


def m_Jplus(order: int) -> HSeries:
    """Image of J+: phi+ * E."""
    return phi("+", order).series.map(lambda c: c * E)


def m_Jminus(order: int) -> HSeries:
    """Image of J-: phi- * F (equal to F * phi+)."""
    return phi("-", order).series.map(lambda c: c * F)


_GENS = ("J0", "J+", "J-")


def _m_image(gen: str, order: int) -> HSeries:
    if gen == "J0":
        return m_J0(order)
    if gen == "J+":
        return m_Jplus(order)
    if gen == "J-":
        return m_Jminus(order)
    raise ValueError(f"unknown generator {gen!r}; expected one of {_GENS}")


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
    if gen == "J0":
        return HSeries.constant(coproduct(H), order)
    if gen in ("J+", "J-"):
        img = _m_image(gen, order)
        qh = series_exp_h(H, order)
        qh_inv = series_exp_h(H * -1, order)
        return series_outer(img, qh) + series_outer(qh_inv, img)
    raise ValueError(f"unknown generator {gen!r}; expected one of {_GENS}")


def generator_images(order: int) -> dict:
    """All three generator images, keyed by generator name."""
    return {g: _m_image(g, order) for g in _GENS}
