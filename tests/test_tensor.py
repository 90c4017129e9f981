import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistkit.lincomb import _iadd
from twistkit.pbw import (E, F, H, E_MONO, F_MONO, H_MONO, UNIT_MONO, Element,
                          casimir, commutator, mono_mul)
from twistkit.tensor import (TensorElement, TensorElement3, cartan_killing,
                             classical_r, coproduct, counit_leg, flip,
                             is_weight_zero, outer, tensor_from_json,
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
    assert coproduct(H) == outer(H, Element.one()) + outer(Element.one(), H)


def test_coproduct_of_H_squared():
    expected = outer(H * H, Element.one()) + outer(H, H) * 2 + outer(Element.one(), H * H)
    assert coproduct(H * H) == expected


def test_coproduct_of_monomials_matches_tensor_powers():
    # reference: Delta as an algebra morphism, Delta(E)^e Delta(F)^f Delta(H)^d
    # multiplied out as 2-leg products
    powers = [[(outer(g, Element.one()) + outer(Element.one(), g)) ** n
               for n in range(6)]
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
    expected = (outer(I, Element.one()) + outer(Element.one(), I)
                + cartan_killing())
    assert coproduct(I) == expected


def test_leg_embed():
    assert outer(E, Element.one()) == TensorElement({(E_MONO, UNIT_MONO): 1})
    assert outer(Element.one(), Element.one()) == TensorElement.one()
    x = E * H
    y = F - H
    assert outer(x, Element.one()) * outer(Element.one(), y) == outer(x, y)
    with pytest.raises(ValueError, match=r"1\.\.1"):
        coproduct(E, 2)


def test_coproduct_leg_examples():
    h1 = outer(H, Element.one())
    got = coproduct(h1, 1)
    assert got == TensorElement3({(H_MONO, UNIT_MONO, UNIT_MONO): 1,
                                  (UNIT_MONO, H_MONO, UNIT_MONO): 1})
    h2 = outer(Element.one(), H)
    got = coproduct(h2, 2)
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
    assert coproduct(r, 1) == expected


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
    x = TensorElement.one() + outer(Element.one(), casimir())
    assert counit_leg(x, 1) == Element.one() + casimir()
    assert counit_leg(x, 2) == Element.one()


def test_coassociativity_randomized(rng):
    for _ in range(50):
        x = random_element(rng, max_deg=3)
        d = coproduct(x)
        assert coproduct(d, 1) == coproduct(d, 2)


def test_coproduct_is_morphism(rng):
    for _ in range(30):
        x = random_element(rng, max_deg=3)
        y = random_element(rng, max_deg=3)
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_kernel_characterization_randomized(rng):
    # polynomials in I1, I2, Delta(I) commute with all three coproducts
    I = casimir()
    gens = [outer(I, Element.one()), outer(Element.one(), I), coproduct(I)]
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
    a = outer(outer(E, F), Element.one())
    b = outer(Element.one(), outer(F, E))
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
    three = outer(two, Element.one())
    for combine in (lambda a, b: a + b, lambda a, b: a - b,
                    lambda a, b: a * b, lambda a, b: a == b):
        with pytest.raises(ValueError):
            combine(two, three)
        with pytest.raises(ValueError):
            combine(three, two)
    with pytest.raises(ValueError):
        TensorElement({(E_MONO, F_MONO): 1, (E_MONO, F_MONO, H_MONO): 1})


def test_term_without_legs_is_refused():
    # a 0-leg element would reach _by_first_leg and fail there, at the
    # first product, with an IndexError
    for make in (lambda: TensorElement({(): 1}),
                 lambda: tensor_from_json([{"num": 1, "den": 1}])):
        with pytest.raises(ValueError, match="no legs"):
            make()


def test_three_leg_unit_zero_and_json():
    x = coproduct(classical_r(), 1)
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
    dI3, dE3 = coproduct(dI, 1), coproduct(dE, 1)
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


# the kernel groups each operand by its first leg: operands drawn from a
# few monomials share first legs, so groups hold several terms, and
# products of rests cancel within a group (EF - FE = H) and across groups
LEG_MONOS = st.sampled_from([UNIT_MONO, E_MONO, F_MONO, H_MONO, (1, 1, 0)])
SMALL_COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                                Fraction(-2, 3)])


@st.composite
def shared_first_leg_pair(draw):
    legs = draw(st.integers(1, 4))
    firsts = st.sampled_from(draw(st.lists(LEG_MONOS, min_size=1, max_size=2,
                                           unique=True)))
    keys = st.tuples(firsts, *[LEG_MONOS] * (legs - 1))
    x, y = (TensorElement._raw(draw(st.dictionaries(keys, SMALL_COEFFS,
                                                    max_size=5)), legs)
            for _ in range(2))
    return x, y


@settings(max_examples=200, deadline=None)
@given(shared_first_leg_pair(), SMALL_COEFFS)
def test_leg_factored_product_matches_fraction_reference(pair, c):
    x, y = pair
    for a, b in ((x, y), (y, x), (x, x), (x + c, x - c), (x - y, x + y)):
        prod = a * b
        assert prod.legs == x.legs
        assert prod.terms == fraction_product(a, b)
        assert_stored_fractions(prod)


# ---------------------------------------------------------------------------
# the n-leg structure maps against the fixed-arity maps they replaced


def ref_flip(x):
    out = {}
    for (m1, m2), c in x.terms.items():
        _iadd(out, (m2, m1), c)
    return TensorElement._raw(out)


def ref_outer(x, y):
    acc = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            acc[(m1, m2)] = c1 * c2
    return TensorElement._raw(acc)


def ref_leg_embed(x, leg):
    if leg == 1:
        return TensorElement._raw({(m, UNIT_MONO): c
                                   for m, c in x.terms.items()})
    return TensorElement._raw({(UNIT_MONO, m): c for m, c in x.terms.items()})


def ref_weight(mono_pair):
    (e1, f1, _), (e2, f2, _) = mono_pair
    return (e1 - f1) + (e2 - f2)


def ref_delta_mono(mono):
    e, f, d = mono
    return TensorElement._raw({
        ((a, b, c), (e - a, f - b, d - c)):
            Fraction(comb(e, a) * comb(f, b) * comb(d, c))
        for a in range(e + 1) for b in range(f + 1) for c in range(d + 1)})


def ref_coproduct(x):
    acc = {}
    for mono, c in x.terms.items():
        for pair, d in ref_delta_mono(mono).terms.items():
            _iadd(acc, pair, c * d)
    return TensorElement._raw(acc)


def ref_coproduct_leg(x, leg):
    acc = {}
    for (m1, m2), c in x.terms.items():
        if leg == 1:
            for (a, b), d in ref_delta_mono(m1).terms.items():
                _iadd(acc, (a, b, m2), c * d)
        else:
            for (a, b), d in ref_delta_mono(m2).terms.items():
                _iadd(acc, (m1, a, b), c * d)
    return TensorElement._raw(acc, legs=3)


def ref_extend_back(x):
    return TensorElement._raw(
        {(m1, m2, UNIT_MONO): c for (m1, m2), c in x.terms.items()}, legs=3)


def ref_extend_front(x):
    return TensorElement._raw(
        {(UNIT_MONO, m1, m2): c for (m1, m2), c in x.terms.items()}, legs=3)


def ref_counit_leg(x, leg):
    acc = {}
    for (m1, m2), c in x.terms.items():
        if leg == 1 and m1 == UNIT_MONO:
            _iadd(acc, m2, c)
        elif leg == 2 and m2 == UNIT_MONO:
            _iadd(acc, m1, c)
    return Element._raw(acc)


def assert_same(got, want):
    """Equal terms, the same ring and leg count, Fraction coefficients."""
    assert type(got) is type(want)
    assert getattr(got, "legs", 1) == getattr(want, "legs", 1)
    assert got.terms == want.terms
    assert_stored_fractions(got)


def test_maps_match_fixed_arity_references(rng):
    one = Element.one()
    for _ in range(60):
        # pairwise coprime denominators, so every product keeps its factors
        x = random_element(rng, dens=(1, 2, 4, 8))
        y = random_element(rng, dens=(3, 9))
        t = (random_tensor(rng, dens=(5, 25)) + ref_leg_embed(x, 1)
             + ref_leg_embed(y, 2))
        assert_same(outer(x, y), ref_outer(x, y))
        assert_same(outer(x, one), ref_leg_embed(x, 1))
        assert_same(outer(one, x), ref_leg_embed(x, 2))
        assert_same(outer(t, one), ref_extend_back(t))
        assert_same(outer(one, t), ref_extend_front(t))
        assert_same(coproduct(x), ref_coproduct(x))
        assert_same(flip(t), ref_flip(t))
        for leg in (1, 2):
            assert_same(coproduct(t, leg), ref_coproduct_leg(t, leg))
            assert_same(counit_leg(t, leg), ref_counit_leg(t, leg))
        assert [weight(k) for k in t.terms] == [ref_weight(k) for k in t.terms]


def random_legs(rng, legs, dens):
    """A random element with the given number of legs; one leg is an
    Element."""
    if legs == 1:
        return random_element(rng, max_deg=3, dens=dens)
    return random_tensor(rng, dens=dens, legs=legs)


@pytest.mark.parametrize("legs", [1, 2])
def test_coassociativity_across_leg_counts(rng, legs):
    # (Delta (x) id) Delta = (id (x) Delta) Delta on each leg, from n to
    # n + 2 legs, and Delta on two different legs commute
    for _ in range(30):
        x = random_legs(rng, legs, (1, 3, 5))
        for leg in range(1, legs + 1):
            d = coproduct(x, leg)
            assert d.legs == legs + 1
            dd = coproduct(d, leg)
            assert dd.legs == legs + 2
            assert dd == coproduct(d, leg + 1)
        if legs == 2:
            assert coproduct(coproduct(x, 1), 3) == coproduct(coproduct(x, 2), 1)


@pytest.mark.parametrize("legs", [1, 2])
def test_counit_axiom_across_leg_counts(rng, legs):
    # (eps (x) id) Delta = id = (id (x) eps) Delta on each leg
    for _ in range(30):
        x = random_legs(rng, legs, (2, 7))
        for leg in range(1, legs + 1):
            d = coproduct(x, leg)
            assert_same(counit_leg(d, leg), x)
            assert_same(counit_leg(d, leg + 1), x)


def test_outer_is_associative_with_unit(rng):
    one = Element.one()
    for _ in range(30):
        a = random_element(rng, dens=(1, 2))
        b = random_tensor(rng, dens=(3, 9))
        c = random_element(rng, dens=(5,))
        abc = outer(a, b, c)
        assert abc.legs == 4
        assert_same(outer(outer(a, b), c), abc)
        assert_same(outer(a, outer(b, c)), abc)
        # 1 is the unit of the legwise product and the counit drops it
        assert outer(a, one) * outer(one, c) == outer(a, c)
        assert_same(counit_leg(outer(a, one), 2), a)
        assert_same(counit_leg(outer(one, b), 1), b)
    assert_same(outer(one), one)
    for n in range(2, 5):
        assert_same(outer(*[one] * n), TensorElement({(UNIT_MONO,) * n: 1}))


def test_wrong_leg_raises():
    r = classical_r()
    three = coproduct(r, 1)
    for call, message in [
            (lambda: counit_leg(r, 3), r"1\.\.2"),
            (lambda: counit_leg(r, 0), r"1\.\.2"),
            (lambda: counit_leg(three, 4), r"1\.\.3"),
            (lambda: counit_leg(E, 1), "two or more legs, got 1"),
            (lambda: coproduct(r, 3), r"1\.\.2"),
            (lambda: coproduct(three, 4), r"1\.\.3"),
            (lambda: coproduct(E, 0), r"1\.\.1"),
            (lambda: flip(three), "2-leg element, got 3"),
            (lambda: flip(E), "2-leg element, got 1")]:
        with pytest.raises(ValueError, match=message):
            call()
    # the weight sums over every leg
    assert is_weight_zero(three)
    assert not is_weight_zero(outer(E, Element.one(), Element.one()))
    assert weight((E_MONO, F_MONO, E_MONO)) == 1
