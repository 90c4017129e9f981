import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistkit.cpoly import Poly
from twistkit.hseries import (HSeries, OrderMismatchError, divide, mul_sub,
                              q_analog, q_factorial, series_exp_h, sinh_ratio)
from twistkit.lincomb import _integral, _rational, _sum_products
from twistkit.pbw import UNIT_MONO, H, Element, mono_mul
from twistkit.tensor import TensorElement, classical_r, series_outer

from conftest import random_element, random_fraction, random_tensor


def scalar(coeffs):
    return HSeries([Fraction(c) for c in coeffs])


def test_mul_difference_of_squares():
    a = scalar([1, 1, 0])
    b = scalar([1, -1, 0])
    assert a * b == scalar([1, 0, -1])


def test_mul_tensor_truncation_kills_h2():
    r = classical_r()
    one = TensorElement.one()
    a = HSeries([one, r])
    b = HSeries([one, -r])
    assert (a * b).is_one()


def test_mul_exponentials_cancel():
    # hand expansion of e^h and e^-h through order 4
    ep = scalar([1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)])
    em = scalar([1, -1, Fraction(1, 2), Fraction(-1, 6), Fraction(1, 24)])
    assert series_exp_h(1, 4) == ep
    assert series_exp_h(-1, 4) == em
    assert (ep * em).is_one()


def test_mul_order_mismatch_is_error():
    with pytest.raises(OrderMismatchError):
        scalar([1, 1]) * scalar([1, 1, 1])


def test_inverse_geometric():
    assert scalar([1, 1, 0, 0]).inverse() == scalar([1, -1, 1, -1])


def test_inverse_tensor_first_order():
    r = classical_r()
    a = HSeries([TensorElement.one(), r])
    assert a.inverse() == HSeries([TensorElement.one(), -r])


def test_inverse_scalar_constant():
    assert scalar([2]).inverse() == scalar([Fraction(1, 2)])


def test_inverse_requires_invertible_constant():
    with pytest.raises(ValueError):
        scalar([0, 1]).inverse()
    with pytest.raises(ValueError):
        HSeries([H, Element.one()]).inverse()


def test_sqrt_binomial():
    u = H  # any commuting coefficient
    a = HSeries([Element.one(), Element.zero(), u])
    assert a.sqrt() == HSeries([Element.one(), Element.zero(), u * Fraction(1, 2)])


def test_sqrt_one():
    assert scalar([1, 0, 0, 0]).sqrt().is_one()


def test_sqrt_perfect_square():
    assert scalar([1, 2, 1]).sqrt() == scalar([1, 1, 0])


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        scalar([4, 0]).sqrt()


def test_exp_zero():
    assert series_exp_h(0, 3).is_one()


def test_exp_h_of_H():
    got = series_exp_h(H, 2)
    assert got == HSeries([Element.one(), H, H * H * Fraction(1, 2)])


def test_exp_h_first_order_of_cartan_killing():
    from twistkit.tensor import cartan_killing
    P = cartan_killing()
    got = series_exp_h(P, 2)
    assert got.coeffs[0] == TensorElement.one()
    assert got.coeffs[1] == P


def test_q_analog_of_one_is_one():
    assert q_analog(Fraction(1), 5).is_one()


def test_q_analog_of_two():
    # [2] = q + 1/q = 2 cosh h
    assert q_analog(Fraction(2), 2) == scalar([2, 0, 1])


def test_q_analog_h2_coefficient_polynomial():
    # [x]/x = S(x); its h^2 coefficient is (x^2 - 1)/6
    x = Poly.symbol("x")
    s = sinh_ratio(x, 2)
    assert s.coeffs[2] == (x * x - Poly.one()) * Fraction(1, 6)


def test_q_factorial_base_cases():
    assert q_factorial(0, 3).is_one()
    assert q_factorial(1, 3).is_one()
    assert q_factorial(2, 2) == scalar([2, 0, 1])


def test_q_factorial_negative_rejected():
    with pytest.raises(ValueError):
        q_factorial(-1, 2)


def test_divide_sides():
    a = scalar([1, 2, 1])
    b = scalar([1, 1, 0])
    assert divide(a, b, side="right") * b == a
    assert b * divide(a, b, side="left") == a
    with pytest.raises(ValueError):
        divide(a, b, side="sideways")


def _random_series(rng, order, invertible=False):
    coeffs = [random_fraction(rng) for _ in range(order + 1)]
    if invertible and coeffs[0] == 0:
        coeffs[0] = Fraction(1, 2)
    return HSeries(coeffs)


def test_ring_axioms_randomized(rng):
    for _ in range(100):
        order = rng.randint(0, 4)
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        c = _random_series(rng, order)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_inverse_randomized(rng):
    for _ in range(100):
        order = rng.randint(0, 4)
        a = _random_series(rng, order, invertible=True)
        assert (a * a.inverse()).is_one()
        assert (a.inverse() * a).is_one()


def test_sqrt_randomized(rng):
    for _ in range(60):
        order = rng.randint(0, 4)
        coeffs = [Fraction(1)] + [random_fraction(rng) for _ in range(order)]
        a = HSeries(coeffs)
        s = a.sqrt()
        assert s * s == a


def test_q_analog_at_integers_matches_q_factorial(rng):
    # substituting x = n into [x] agrees with [n]!/[n-1]!
    x = Poly.symbol("x")
    for n in range(1, 6):
        order = 4
        sub = q_analog(x, order).map(lambda p: p.substitute({"x": n}).as_unit_scalar())
        via_fact = q_factorial(n, order) * q_factorial(n - 1, order).inverse()
        assert sub == via_fact


def test_pad_and_truncate_are_explicit():
    a = scalar([1, 2])
    assert a.pad_to(3) == scalar([1, 2, 0, 0])
    assert a.pad_to(3).truncate(1) == a
    with pytest.raises(ValueError):
        a.pad_to(0)
    with pytest.raises(ValueError):
        a.truncate(5)


def test_text_rendering():
    assert str(scalar([1, -1, Fraction(1, 2)])) == "1 + (-1)*h + 1/2*h^2"
    assert str(HSeries([Element.one(), H * 2])) == "1 + (2*H)*h"
    assert str(scalar([0, 0])) == "0"


def test_first_nonzero():
    assert scalar([0, 0, 3]).first_nonzero() == 2
    assert scalar([0, 0, 0]).first_nonzero() is None
    r = classical_r()
    assert HSeries([r - r, r]).first_nonzero() == 1


# ---------------------------------------------------------------------------
# the integer series product against a plain Cauchy reference

COPRIME = (1, 2, 3, 5, 7, 11)


def cauchy_reference(a, b):
    """sum_k a_k b_(n-k), one ring product and one ring sum at a time."""
    out = []
    for n in range(a.order + 1):
        acc = a.coeffs[0] * b.coeffs[n]
        for k in range(1, n + 1):
            acc = acc + a.coeffs[k] * b.coeffs[n - k]
        out.append(acc)
    return HSeries(out)


def random_poly(rng, dens=COPRIME):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple((s, e) for s, e in (("x", rng.randint(0, 2)),
                                         ("y", rng.randint(0, 2))) if e)
        terms[mono] = random_fraction(rng, dens=dens)
    return Poly(terms)


def random_ring_series(rng, make, order):
    """A series of make(rng) coefficients, some of them zero, and now and
    then the zero series."""
    coeffs = [make(rng) for _ in range(order + 1)]
    if rng.random() < 0.1:
        return HSeries([c.zero_like() for c in coeffs])
    return HSeries([c.zero_like() if rng.random() < 0.2 else c for c in coeffs])


def scalar_series(rng, order):
    return HSeries([0 if rng.random() < 0.2 else random_fraction(rng, dens=COPRIME)
                    for _ in range(order + 1)])


RINGS = {
    "element": lambda rng: random_element(rng, dens=COPRIME),
    "tensor2": lambda rng: random_tensor(rng, dens=COPRIME),
    "tensor3": lambda rng: random_tensor(rng, max_deg=1, dens=COPRIME, legs=3),
    "poly": random_poly,
}


def assert_stored_fractions(series):
    for c in series.coeffs:
        assert all(type(v) is Fraction and v for v in c.terms.values())


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_fused_product_matches_reference(rng, ring):
    make = RINGS[ring]
    for _ in range(25):
        order = rng.randint(0, 4)
        a = random_ring_series(rng, make, order)
        b = random_ring_series(rng, make, order)
        s = scalar_series(rng, order)
        for x, y in ((a, b), (s, b), (a, s), (s, s)):
            got = x * y
            assert got == cauchy_reference(x, y)
            if x is y is s:
                assert all(type(c) is Fraction for c in got.coeffs)
                continue
            assert_stored_fractions(got)
            assert all(type(c) is type(a.coeffs[0]) for c in got.coeffs)
        if ring.startswith("tensor"):
            assert all(c.legs == a.coeffs[0].legs for c in (a * b).coeffs)


def test_fused_product_keeps_factor_order():
    from twistkit.pbw import E, F
    x = HSeries([E, H])
    y = HSeries([F, E])
    assert x * y == cauchy_reference(x, y)
    assert y * x == cauchy_reference(y, x)
    assert x * y != y * x


def test_fused_product_rejects_mismatches(rng):
    two = HSeries([random_tensor(rng, legs=2), random_tensor(rng, legs=2)])
    three = HSeries([random_tensor(rng, legs=3), random_tensor(rng, legs=3)])
    with pytest.raises(ValueError):
        two * three
    with pytest.raises(OrderMismatchError):
        two * two.pad_to(2)


def test_product_of_two_rings_raises_type_error(rng):
    elements = random_ring_series(rng, RINGS["element"], 2)
    polys = random_ring_series(rng, RINGS["poly"], 2)
    for x, y in ((elements, polys), (polys, elements)):
        with pytest.raises(TypeError):
            x * y
        with pytest.raises(TypeError):
            mul_sub(x, x, y, y)
        with pytest.raises(TypeError):
            mul_sub(x, y, x, x)


def test_sum_products_matches_fraction_sum(rng):
    def operand():
        return _integral(random_element(rng, dens=COPRIME).terms)

    for _ in range(25):
        pairs = [(operand(), operand(), rng.choice((1, -1, 3)))
                 for _ in range(rng.randint(1, 4))]
        ints, den = _sum_products(pairs, Element._mul_into)
        want = Element.zero()
        for (x, dx), (y, dy), w in pairs:
            want = want + (Element(x) * Element(y)) * Fraction(w, dx * dy)
        assert Element(_rational(ints, den)) == want
    assert _sum_products([], Element._mul_into) == ({}, 1)


# ---------------------------------------------------------------------------
# a difference of two products, summed in one integer pass


@pytest.mark.parametrize("ring", ["tensor2", "tensor3", "scalar"])
def test_mul_sub_matches_two_products(rng, ring):
    def make(order):
        if ring == "scalar":
            return scalar_series(rng, order)
        return random_ring_series(rng, RINGS[ring], order)
    for _ in range(25):
        order = rng.randint(0, 4)
        a, b, c, d = (make(order) for _ in range(4))
        got = mul_sub(a, b, c, d)
        assert got == a * b - c * d
        assert got == cauchy_reference(a, b) - cauchy_reference(c, d)
        if ring != "scalar":
            assert_stored_fractions(got)
            assert all(x.legs == a.coeffs[0].legs for x in got.coeffs)


def test_mul_sub_mixes_scalar_and_ring_series(rng):
    for _ in range(10):
        order = rng.randint(0, 3)
        a = random_ring_series(rng, RINGS["tensor2"], order)
        s = scalar_series(rng, order)
        assert mul_sub(a, s, s, a) == a * s - s * a
        assert mul_sub(s, s, a, a) == s * s - a * a


def test_mul_sub_of_equal_products_is_zero(rng):
    a = random_ring_series(rng, RINGS["tensor2"], 3)
    b = random_ring_series(rng, RINGS["tensor2"], 3)
    assert mul_sub(a, b, a, b) == HSeries([TensorElement.zero()] * 4)


def test_mul_sub_rejects_mismatches(rng):
    two = HSeries([random_tensor(rng, legs=2), random_tensor(rng, legs=2)])
    three = HSeries([random_tensor(rng, legs=3), random_tensor(rng, legs=3)])
    with pytest.raises(ValueError):
        mul_sub(two, two, three, three)
    with pytest.raises(OrderMismatchError):
        mul_sub(two, two, two, two.pad_to(2))


# ---------------------------------------------------------------------------
# coefficients that are scalar multiples of the unit, against plain Fractions

LEGS = {"scalar": 0, "element": 1, "tensor2": 2, "tensor3": 3}
unit_fractions = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                           st.sampled_from(COPRIME))
small_monos = st.tuples(*[st.integers(0, 2)] * 3)


def ring_coefficient(legs, terms):
    """The coefficient of a series in the ring with this many legs (0 for
    scalars) from {tuple of monomials: Fraction}."""
    if legs == 0:
        return terms.get((), Fraction(0))
    if legs == 1:
        return Element({key[0]: c for key, c in terms.items()})
    return TensorElement._raw(terms, legs)


@st.composite
def unit_heavy_series(draw, legs, order):
    """A series whose coefficients are zero, a scalar multiple of the unit
    or a small general element, each drawn often."""
    coeffs = []
    for _ in range(order + 1):
        kind = draw(st.sampled_from(["zero", "unit", "unit", "general"]))
        if kind == "zero":
            terms = {}
        elif kind == "unit" or legs == 0:
            terms = {(UNIT_MONO,) * legs: draw(unit_fractions)}
        else:
            terms = draw(st.dictionaries(st.tuples(*[small_monos] * legs),
                                         unit_fractions, min_size=1,
                                         max_size=3))
        coeffs.append(ring_coefficient(legs, terms))
    return HSeries(coeffs, order)


def fraction_terms(c, legs) -> dict:
    if legs == 0:
        return {(): c} if c else {}
    if legs == 1:
        return {(m,): v for m, v in c.terms.items()}
    return c.terms


def fraction_series_product(a, b, legs) -> list:
    """The h^n coefficients of a * b as {tuple of monomials: Fraction}, from
    a plain Fraction loop over the leg-wise mono_mul products."""
    out = []
    for n in range(a.order + 1):
        acc = {}
        for i in range(n + 1):
            xs = fraction_terms(a.coeffs[i], legs)
            ys = fraction_terms(b.coeffs[n - i], legs)
            for (k1, c1), (k2, c2) in itertools.product(xs.items(), ys.items()):
                for choice in itertools.product(
                        *(mono_mul(p, q) for p, q in zip(k1, k2))):
                    c = c1 * c2
                    for _, d in choice:
                        c *= d
                    key = tuple(m for m, _ in choice)
                    acc[key] = acc.get(key, Fraction(0)) + c
        out.append({key: c for key, c in acc.items() if c})
    return out


def assert_series_is(got, want_terms, legs):
    assert [fraction_terms(c, legs) for c in got.coeffs] == want_terms
    for c in got.coeffs:
        if legs == 0:
            assert type(c) is Fraction
        else:
            assert all(type(v) is Fraction and v for v in c.terms.values())
            assert getattr(c, "legs", 1) == legs


@settings(max_examples=80, deadline=None)
@given(data=st.data(), ring=st.sampled_from(sorted(LEGS)),
       order=st.integers(0, 3))
def test_unit_scalar_coefficients_match_fraction_reference(data, ring, order):
    legs = LEGS[ring]
    a, b, c, d = (data.draw(unit_heavy_series(legs, order)) for _ in range(4))
    ab = fraction_series_product(a, b, legs)
    assert_series_is(a * b, ab, legs)
    assert_series_is(b * a, fraction_series_product(b, a, legs), legs)
    cd = fraction_series_product(c, d, legs)
    want = []
    for x, y in zip(ab, cd):
        diff = dict(x)
        for key, v in y.items():
            diff[key] = diff.get(key, Fraction(0)) - v
        want.append({key: v for key, v in diff.items() if v})
    assert_series_is(mul_sub(a, b, c, d), want, legs)
    if legs == 1:
        # series_outer: the outer product of the two legs, unit or not
        got = series_outer(a, b)
        want = []
        for n in range(order + 1):
            acc = {}
            for i in range(n + 1):
                for m1, c1 in a.coeffs[i].terms.items():
                    for m2, c2 in b.coeffs[n - i].terms.items():
                        acc[(m1, m2)] = acc.get((m1, m2), Fraction(0)) + c1 * c2
            # terms that cancel, as in (1 + h) (x) (1 - h) at h^1, are absent
            want.append({key: v for key, v in acc.items() if v})
        assert [x.terms for x in got.coeffs] == want


def test_unit_scalar_coefficients_keep_ring_checks():
    def units(proto):
        return HSeries([proto * 3, proto * 0, proto * Fraction(1, 2)])

    two = units(TensorElement.one())
    three = units(TensorElement._raw({(UNIT_MONO,) * 3: Fraction(1)}, 3))
    with pytest.raises(ValueError):
        two * three
    with pytest.raises(ValueError):
        mul_sub(two, two, three, three)
    elements = units(Element.one())
    polys = units(Poly.one())
    for x, y in ((elements, polys), (polys, elements), (two, elements)):
        with pytest.raises(TypeError):
            x * y
        with pytest.raises(TypeError):
            mul_sub(x, x, y, y)
