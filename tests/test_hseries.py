import random
from fractions import Fraction

import pytest

from twistkit.cpoly import Poly
from twistkit.hseries import (HSeries, OrderMismatchError, divide, q_analog,
                              q_factorial, series_exp_h, sinh_ratio)
from twistkit.pbw import H, Element
from twistkit.tensor import TensorElement, classical_r

from conftest import random_fraction


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
