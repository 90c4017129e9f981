import itertools
from fractions import Fraction
from math import comb

import pytest

from twistkit.pbw import (E, F, H, E_MONO, F_MONO, H_MONO, UNIT_MONO, Element,
                          casimir, commutator, mono_mul)
from twistkit.tensor import (TensorElement, TensorElement3, cartan_killing,
                             classical_r, coproduct, coproduct_leg, counit_leg,
                             extend_back, extend_front, flip, is_weight_zero,
                             leg_embed, outer, tensor_from_json,
                             tensor_to_json, weight, UNIT2)

from conftest import random_element, random_tensor


def test_tensor_mul_legwise():
    lhs = outer(E, F) * outer(F, E)
    assert lhs == outer(E * F, E * F - H)


def test_tensor_mul_unit():
    one = TensorElement.one()
    x = outer(E * E, H) - outer(F, F) * Fraction(1, 3)
    assert one * x == x
    assert x * one == x


def test_r_squared_hand_expansion():
    r = classical_r()
    ef = E * F
    expected = (outer(F * F, E * E) + outer(E * E, F * F)
                - outer(ef - H, ef) - outer(ef, ef - H))
    assert r * r == expected


def test_flip_examples():
    assert flip(outer(E, F)) == outer(F, E)
    r = classical_r()
    assert flip(r) == -r
    P = cartan_killing()
    assert flip(P) == P


def test_flip_is_involutive_morphism(rng):
    for _ in range(25):
        x = random_tensor(rng)
        y = random_tensor(rng)
        assert flip(flip(x)) == x
        assert flip(x * y) == flip(x) * flip(y)


def test_coproduct_primitive():
    assert coproduct(H) == leg_embed(H, 1) + leg_embed(H, 2)


def test_coproduct_of_H_squared():
    expected = outer(H * H, Element.one()) + outer(H, H) * 2 + outer(Element.one(), H * H)
    assert coproduct(H * H) == expected


def test_coproduct_of_monomials_matches_tensor_powers():
    # reference: Delta as an algebra morphism, Delta(E)^e Delta(F)^f Delta(H)^d
    # multiplied out as 2-leg products
    powers = [[(leg_embed(g, 1) + leg_embed(g, 2)) ** n for n in range(6)]
              for g in (E, F, H)]
    for e, f, d in itertools.product(range(6), repeat=3):
        got = coproduct(Element.monomial(e, f, d))
        assert got == powers[0][e] * powers[1][f] * powers[2][d]
        assert all(type(c) is Fraction for c in got.terms.values())


def test_coproduct_of_high_power_is_binomial():
    got = coproduct(Element.monomial(1200, 0, 0))
    assert len(got.terms) == 1201
    assert got.terms == {((a, 0, 0), (1200 - a, 0, 0)): Fraction(comb(1200, a))
                         for a in range(1201)}


def test_coproduct_of_casimir():
    I = casimir()
    expected = leg_embed(I, 1) + leg_embed(I, 2) + cartan_killing()
    assert coproduct(I) == expected


def test_leg_embed():
    assert leg_embed(E, 1) == outer(E, Element.one())
    assert leg_embed(Element.one(), 2) == TensorElement.one()
    x = E * H
    y = F - H
    assert leg_embed(x, 1) * leg_embed(y, 2) == outer(x, y)
    with pytest.raises(ValueError):
        leg_embed(E, 3)


def test_coproduct_leg_examples():
    h1 = leg_embed(H, 1)
    got = coproduct_leg(h1, 1)
    assert got == TensorElement3({(H_MONO, UNIT_MONO, UNIT_MONO): 1,
                                  (UNIT_MONO, H_MONO, UNIT_MONO): 1})
    h2 = leg_embed(H, 2)
    got = coproduct_leg(h2, 2)
    assert got == TensorElement3({(UNIT_MONO, H_MONO, UNIT_MONO): 1,
                                  (UNIT_MONO, UNIT_MONO, H_MONO): 1})


def test_coproduct_leg_of_r():
    r = classical_r()
    expected = TensorElement3({
        (F_MONO, UNIT_MONO, E_MONO): 1,
        (UNIT_MONO, F_MONO, E_MONO): 1,
        (E_MONO, UNIT_MONO, F_MONO): -1,
        (UNIT_MONO, E_MONO, F_MONO): -1,
    })
    assert coproduct_leg(r, 1) == expected


def test_weight_examples():
    assert weight((E_MONO, F_MONO)) == 0
    assert weight((E_MONO, UNIT_MONO)) == 1
    assert is_weight_zero(classical_r())
    assert is_weight_zero(cartan_killing())


def test_weight_characterizes_dH_commutant(rng):
    dH = coproduct(H)
    for _ in range(100):
        x = random_tensor(rng, max_deg=4)
        commutes = (x * dH - dH * x).is_zero()
        assert commutes == is_weight_zero(x)


def test_counit_leg():
    x = TensorElement.one() + leg_embed(casimir(), 2)
    assert counit_leg(x, 1) == Element.one() + casimir()
    assert counit_leg(x, 2) == Element.one()


def test_coassociativity_randomized(rng):
    for _ in range(50):
        x = random_element(rng, max_deg=3)
        d = coproduct(x)
        assert coproduct_leg(d, 1) == coproduct_leg(d, 2)


def test_coproduct_is_morphism(rng):
    for _ in range(30):
        x = random_element(rng, max_deg=3)
        y = random_element(rng, max_deg=3)
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_kernel_characterization_randomized(rng):
    # polynomials in I1, I2, Delta(I) commute with all three coproducts
    I = casimir()
    gens = [leg_embed(I, 1), leg_embed(I, 2), coproduct(I)]
    deltas = [coproduct(g) for g in (H, E, F)]
    for _ in range(40):
        x = TensorElement.one() * Fraction(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(gens)
            c = Fraction(rng.randint(-2, 2))
            x = x * g + g * c if rng.random() < 0.5 else x + g * c
        for d in deltas:
            assert (x * d - d * x).is_zero()


def test_triple_product_legwise():
    a = extend_back(outer(E, F))
    b = extend_front(outer(F, E))
    assert a * b == TensorElement3({(E_MONO, F_MONO, UNIT_MONO): 1}) \
        * TensorElement3({(UNIT_MONO, F_MONO, E_MONO): 1})
    got = a * b
    expected = TensorElement3({(m1, m2, m3): c for ((m1, m2), cf) in outer(E, F * F).terms.items()
                               for (m3, c) in [(E_MONO, cf)]})
    # E (x) F*F (x) E with the middle leg in normal form
    assert got == TensorElement3({(E_MONO, (0, 2, 0), E_MONO): 1})


def test_json_round_trip(rng):
    for _ in range(20):
        x = random_tensor(rng, max_deg=3, nterms=4)
        assert tensor_from_json(tensor_to_json(x)) == x


def test_text_rendering():
    r = classical_r()
    assert str(r) == "(F ⊗ E) - (E ⊗ F)"
    assert str(TensorElement.zero()) == "0"
    assert str(cartan_killing()) == ("2 * (H ⊗ H) + 2 * (F ⊗ E) "
                                     "+ 2 * (E ⊗ F)")


def test_mixed_leg_counts_raise():
    two = outer(E, F)
    three = extend_back(two)
    for combine in (lambda a, b: a + b, lambda a, b: a - b,
                    lambda a, b: a * b, lambda a, b: a == b):
        with pytest.raises(ValueError):
            combine(two, three)
        with pytest.raises(ValueError):
            combine(three, two)
    with pytest.raises(ValueError):
        TensorElement({(E_MONO, F_MONO): 1, (E_MONO, F_MONO, H_MONO): 1})


def test_three_leg_unit_zero_and_json():
    x = coproduct_leg(classical_r(), 1)
    assert x.legs == 3
    one = x.one_like()
    assert one == TensorElement3({(UNIT_MONO, UNIT_MONO, UNIT_MONO): 1})
    assert one * x == x and x * one == x
    assert (x - x) == x.zero_like() and x.zero_like().legs == 3
    assert (x * 2).as_unit_scalar() is None and (one * 3).as_unit_scalar() == 3
    assert tensor_from_json(tensor_to_json(x)) == x
    assert tensor_to_json(x)[0].keys() == {"leg1", "leg2", "leg3", "num", "den"}


@pytest.mark.parametrize("leg, field, value", [
    ("leg1", "e", -1), ("leg2", "d", 1.5), ("leg1", "f", "2"),
    (None, "den", 0), (None, "num", 0.5)])
def test_json_rejects_malformed_terms(leg, field, value):
    data = tensor_to_json(classical_r())
    (data[0][leg] if leg else data[0])[field] = value
    with pytest.raises(ValueError):
        tensor_from_json(data)


# ---------------------------------------------------------------------------
# the integer product kernel against a plain Fraction reference


def fraction_product(x, y) -> dict:
    """x * y as the plain Fraction double loop over the legwise mono_mul
    products, for any number of legs."""
    acc = {}
    for keys1, c1 in x.terms.items():
        for keys2, c2 in y.terms.items():
            legs = [mono_mul(a, b) for a, b in zip(keys1, keys2)]
            for choice in itertools.product(*legs):
                key = tuple(mono for mono, _ in choice)
                c = c1 * c2
                for _, d in choice:
                    c *= d
                acc[key] = acc.get(key, Fraction(0)) + c
    return {key: c for key, c in acc.items() if c}


def assert_stored_fractions(x):
    assert all(type(c) is Fraction and c for c in x.terms.values())


@pytest.mark.parametrize("legs", [2, 3])
def test_product_matches_fraction_reference(rng, legs):
    # denominators of x and y are coprime, so dx * dy is the true lcm
    for _ in range(30):
        x = random_tensor(rng, nterms=4, dens=(1, 2, 4, 8), legs=legs)
        y = random_tensor(rng, nterms=4, dens=(3, 5, 9, 15), legs=legs)
        for a, b in ((x, y), (y, x), (x, x)):
            prod = a * b
            assert prod.legs == legs
            assert prod.terms == fraction_product(a, b)
            assert_stored_fractions(prod)


def test_product_drops_cancelled_terms():
    # the cross terms of (x + 1/3)(x - 1/3), x = E (x) F / 2, cancel exactly
    x = outer(E, F) * Fraction(1, 2)
    prod = (x + Fraction(1, 3)) * (x - Fraction(1, 3))
    assert prod.terms == {((2, 0, 0), (0, 2, 0)): Fraction(1, 4),
                          UNIT2: Fraction(-1, 9)}
    assert_stored_fractions(prod)
    # Delta(I) commutes with Delta(E): both products have the same terms
    dI = coproduct(casimir()) * Fraction(5, 6)
    dE = coproduct(E) * Fraction(2, 3)
    assert (dI * dE - dE * dI).terms == {}
    dI3, dE3 = coproduct_leg(dI, 1), coproduct_leg(dE, 1)
    assert (dI3 * dE3 - dE3 * dI3).terms == {}


@pytest.mark.parametrize("legs", [2, 3])
def test_product_with_zero_and_integer_elements(rng, legs):
    x = random_tensor(rng, nterms=4, dens=(2, 3), legs=legs)
    zero = x.zero_like()
    assert (zero * x).terms == {} and (x * zero).terms == {}
    assert (zero * zero).legs == legs
    ints = random_tensor(rng, nterms=4, dens=(1,), legs=legs)
    prod = ints * ints
    assert prod.terms == fraction_product(ints, ints)
    assert all(c.denominator == 1 for c in prod.terms.values())
    assert_stored_fractions(prod)
    assert (ints * x).terms == fraction_product(ints, x)
    assert_stored_fractions(x * ints)
