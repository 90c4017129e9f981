from fractions import Fraction

import pytest

from twistkit import deform
from twistkit.cpoly import Poly
from twistkit.deform import (delta_q_image, m_J0, m_Jminus, m_Jplus, phi,
                             q_analog_2h, quantum_commutator_check)
from twistkit.hseries import HSeries, q_analog
from twistkit.pbw import (E, F, H, Element, casimir, commutator,
                          is_hi_polynomial, shift_h, to_casimir_basis)
from twistkit.reps import element_matrix, spin_rep
from twistkit.tensor import coproduct, outer


def phi2_element(sign: int) -> Element:
    # (2I + 2H(H -+ 1) - 1)/12
    return (casimir() * 2 + H * (H + (-sign)) * 2 - Element.one()) * Fraction(1, 12)


def test_spectral_label_identities():
    # the two identities that eliminate the spectral label j, checked in a
    # commutative two-symbol ring with I standing for j(j+1)
    j = Poly.symbol("j")
    h = Poly.symbol("h")
    one = Poly.one()
    i_poly = j * j + j
    for s in (1, -1):
        u = j + h * s
        v = one + j - h * s
        assert u * v == i_poly + h * s - h * h
        assert u * u + v * v == i_poly * 2 + h * h * 2 - h * (2 * s) + one


def test_phi_second_order_both_signs():
    assert phi("+", 2).series.coeffs[2] == phi2_element(+1)
    assert phi("-", 2).series.coeffs[2] == phi2_element(-1)


def test_phi_order_zero_is_one():
    assert phi("+", 0).series.is_one()
    assert phi("-", 0).series.is_one()


def test_phi_odd_coefficients_vanish():
    p = phi("+", 5)
    for k in (1, 3, 5):
        assert p.series.coeffs[k].is_zero()


def test_phi_coefficients_are_hi_polynomials():
    for sign in ("+", "-"):
        for c in phi(sign, 4).series.coeffs:
            assert is_hi_polynomial(c)


def test_phi_sign_aliases():
    assert phi("plus", 2).series == phi("+", 2).series
    assert phi("minus", 2).series == phi("-", 2).series
    with pytest.raises(ValueError):
        phi("pm", 2)


def test_phi_square_recovers_sinh_ratio_product():
    # (phi+)^2 must square back exactly
    p = phi("+", 4).series
    sq = p * p
    assert sq.coeffs[0] == Element.one()
    assert sq.coeffs[2] == phi2_element(+1) * 2


@pytest.mark.parametrize("sign", [1, -1])
def test_phi_squared_on_weight_vectors(sign):
    # independent of how phi is built: on the weight vector e_m of spin j,
    # (phi+-)^2 acts as the scalar [a][b]/(ab), a = j +- m, b = 1 + j -+ m
    order = 8
    p = phi("+" if sign > 0 else "-", order).series
    sq = p * p
    points = 0
    for two_j in range(6):
        rep = spin_rep(two_j)
        mats = [element_matrix(c, rep) for c in sq.coeffs]
        j = Fraction(two_j, 2)
        for i in range(rep.dim):
            m = j - i
            a, b = j + sign * m, 1 + j - sign * m
            if a == 0 or b == 0:
                continue
            want = q_analog(a, order) * q_analog(b, order) * (1 / (a * b))
            assert HSeries(tuple(mat[i][i] for mat in mats), order) == want
            points += 1
    assert points == 15


def test_m_J0_constant():
    s = m_J0(3)
    assert all(c == H for c in s.coeffs[:1]) and all(
        c.is_zero() for c in s.coeffs[1:])


def test_m_images_classical_limit():
    assert m_J0(2).coeffs[0] == H
    assert m_Jplus(2).coeffs[0] == E
    assert m_Jminus(2).coeffs[0] == F


def test_exchange_consistency_of_minus_image():
    # phi- F = F phi+ and phi+ E = E phi-
    order = 4
    assert m_Jminus(order) == phi("+", order).series.map(lambda c: F * c)
    assert m_Jplus(order) == phi("-", order).series.map(lambda c: E * c)


def test_phi_shift_identity():
    # the exchange relations force phi- to be phi+ shifted by H -> H+1
    order = 4
    shifted = phi("+", order).series.map(lambda c: shift_h(c, 1))
    assert shifted == phi("-", order).series


def test_hermiticity_surrogate():
    # coefficients depend on H and I only, with rational coefficients
    for sign in ("+", "-"):
        for c in phi(sign, 4).series.coeffs:
            assert not any(n for _, _, n in to_casimir_basis(c))


def test_quantum_commutators_classical_limit():
    assert quantum_commutator_check(0).passed


def test_quantum_commutators_through_order_four():
    assert quantum_commutator_check(2).passed
    assert quantum_commutator_check(3).passed
    assert quantum_commutator_check(4).passed


def test_quantum_commutators_detect_corruption(monkeypatch):
    # dropping the h^2 term of phi+ must falsify [J+,J-] at order 2
    order = 2
    good = phi("+", order).series
    corrupted = HSeries([good.coeffs[0], good.coeffs[1], Element.zero()])
    bad_jplus = corrupted.map(lambda c: c * E)
    monkeypatch.setattr(deform, "m_Jplus", lambda n: bad_jplus)
    report = quantum_commutator_check(order)
    assert not report.passed
    assert report.first_failures["[J+,J-] = [2J0]/2"] == 2


def test_q_analog_2h_matches_generic_q_analog():
    direct = q_analog_2h(4)
    via_element = q_analog(H * 2, 4)
    assert direct == via_element


def test_delta_q_image_J0():
    s = delta_q_image("J0", 3)
    dH = coproduct(H)
    assert s.coeffs[0] == dH and all(c.is_zero() for c in s.coeffs[1:])


def test_delta_q_image_Jplus_first_order():
    s = delta_q_image("J+", 1)
    assert s.coeffs[1] == outer(E, H) - outer(H, E)


def test_delta_q_image_classical_limit():
    assert delta_q_image("J+", 0).coeffs[0] == coproduct(E)
    assert delta_q_image("J-", 0).coeffs[0] == coproduct(F)


def test_delta_q_image_rejects_unknown_generator():
    with pytest.raises(ValueError):
        delta_q_image("J?", 1)
