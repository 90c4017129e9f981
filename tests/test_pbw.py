import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistkit import pbw
from twistkit.pbw import (E_MONO, F_MONO, H_MONO, E, F, H, Element, casimir,
                          casimir_to_pbw, commutator, counit,
                          element_from_json, element_to_json,
                          from_casimir_basis, is_hi_polynomial,
                          mono_commutator, mono_mul, mono_to_casimir,
                          shift_h, to_casimir_basis)

from conftest import random_element


def test_fe_rewrite():
    assert F * E == E * F - H


def test_exchange_relation_h2_e2():
    # phi(H) E^n = E^n phi(H+n) with phi = H^2, n = 2
    lhs = H * H * E * E
    rhs = E * E * (H + 2) * (H + 2)
    assert lhs == rhs


def test_unit_law(rng):
    one = Element.one()
    for _ in range(20):
        x = random_element(rng)
        assert one * x == x
        assert x * one == x


def test_casimir_normal_form():
    assert casimir() == Element({(1, 1, 0): 2, (0, 0, 2): 1, (0, 0, 1): -1})


def test_casimir_second_presentation():
    assert casimir() == F * E * 2 + H * (H + 1)


def test_casimir_commutes_with_E():
    assert commutator(casimir(), E).is_zero()


def test_generator_commutators():
    assert commutator(H, E) == E
    assert commutator(H, F) == -F
    assert commutator(E, F) == H


def test_commutator_antisymmetry(rng):
    for _ in range(20):
        x = random_element(rng)
        assert commutator(x, x).is_zero()


def test_counit():
    assert counit(Element.one() + H * 3 + E * F) == 1
    assert counit(E) == 0
    assert counit(casimir()) == 0


def test_casimir_basis_of_2EF():
    # 2EF = I - H^2 + H, keyed (a, b, n) for H^a I^b
    assert to_casimir_basis(E * F * 2) == {(0, 1, 0): 1, (2, 0, 0): -1,
                                           (1, 0, 0): 1}


def test_casimir_basis_of_E():
    assert to_casimir_basis(E) == {(0, 0, 1): 1}
    assert to_casimir_basis(F * F) == {(0, 0, -2): 1}
    # F H = (H + 1) F
    assert to_casimir_basis(F * H) == {(1, 0, -1): 1, (0, 0, -1): 1}
    assert to_casimir_basis(Element.zero()) == {}


def test_casimir_basis_round_trip_mixed_word():
    x = E * E * F  # normal form of a word with an unmatched E
    assert from_casimir_basis(to_casimir_basis(x)) == x


def test_from_casimir_basis_examples():
    assert from_casimir_basis({(0, 1, 0): 1}) == casimir()
    assert from_casimir_basis({(1, 0, 0): 1}) == H
    half = Fraction(1, 2)
    assert from_casimir_basis({(0, 0, -1): half}) == F * half
    assert from_casimir_basis({}) == Element.zero()
    for key in ((-1, 0, 0), (0, -1, 2)):
        with pytest.raises(ValueError, match="negative exponent"):
            from_casimir_basis({key: 1})


def _basis_element(key) -> Element:
    """The basis element of the key (a, b, n), multiplied out as Elements."""
    a, b, n = key
    return H ** a * casimir() ** b * (E ** n if n >= 0 else F ** -n)


elements = st.dictionaries(
    st.tuples(*[st.integers(0, 5)] * 3),
    st.fractions(max_denominator=12).filter(bool), max_size=6).map(Element)


@settings(max_examples=150, deadline=None)
@given(x=elements)
def test_casimir_coordinates_sum_back_to_the_element(x):
    # the reference multiplies H^a, I^b and E^n or F^-n as Elements
    coords = to_casimir_basis(x)
    assert all(a >= 0 and b >= 0 and type(c) is Fraction and c
               for (a, b, _), c in coords.items())
    total = Element.zero()
    for key, c in coords.items():
        total = total + _basis_element(key) * c
    assert total == x
    assert from_casimir_basis(coords) == x


@settings(max_examples=100, deadline=None)
@given(key=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-4, 4)),
       mono=st.tuples(*[st.integers(0, 5)] * 3))
def test_cached_conversions_are_integral(key, mono):
    pbw_form = casimir_to_pbw(key)
    assert all(type(c) is int and c for c in pbw_form.values())
    assert Element(pbw_form) == _basis_element(key)
    assert to_casimir_basis(Element(pbw_form)) == {key: 1}
    ints, den = mono_to_casimir(mono)
    assert all(type(c) is int and c for c in ints.values())
    assert den == 2 ** min(mono[:2])
    total = Element.zero()
    for k, c in ints.items():
        total = total + _basis_element(k) * Fraction(c, den)
    assert total == Element({mono: 1})


def test_casimir_basis_round_trip_randomized(rng):
    for _ in range(100):
        x = random_element(rng, max_deg=4, nterms=4)
        assert from_casimir_basis(to_casimir_basis(x)) == x


def test_associativity_randomized(rng):
    for _ in range(100):
        x = random_element(rng, max_deg=4)
        y = random_element(rng, max_deg=4)
        z = random_element(rng, max_deg=4)
        assert (x * y) * z == x * (y * z)


def test_casimir_centrality_randomized(rng):
    I = casimir()
    for g in (H, E, F):
        assert commutator(I, g).is_zero()
    for _ in range(50):
        x = random_element(rng, max_deg=4)
        assert commutator(I, x).is_zero()


def test_jacobi_identity_on_degree_one(rng):
    for _ in range(30):
        gens = [random_element(rng, max_deg=1) for _ in range(3)]
        x, y, z = gens
        jac = (commutator(x, commutator(y, z))
               + commutator(y, commutator(z, x))
               + commutator(z, commutator(x, y)))
        assert jac.is_zero()


def test_normal_form_confluence(rng):
    # reducing the same word with different association orders agrees
    for _ in range(30):
        word = [rng.choice((E, F, H)) for _ in range(6)]
        left = word[0]
        for w in word[1:]:
            left = left * w
        right = word[-1]
        for w in reversed(word[:-1]):
            right = w * right
        mid = (word[0] * word[1] * word[2]) * (word[3] * word[4] * word[5])
        assert left == right == mid


def test_is_hi_polynomial():
    assert is_hi_polynomial(casimir() * H + Element.one())
    assert is_hi_polynomial(E * F)
    assert not is_hi_polynomial(E)
    assert not is_hi_polynomial(E * F * F + H)


def test_shift_h():
    # shift by n realizes the exchange through E^n on H-I polynomials
    x = H * H + casimir() * 3
    assert shift_h(x, 1) == (H + 1) * (H + 1) + casimir() * 3
    with pytest.raises(ValueError):
        shift_h(E, 1)


def test_text_rendering():
    assert str(casimir()) == "2*E*F + H^2 - H"
    assert str(Element.zero()) == "0"
    assert str(-H) == "-H"
    assert str(E * E * F - Element.one() * Fraction(1, 2)) == "E^2*F - 1/2"


def test_json_round_trip(rng):
    for _ in range(20):
        x = random_element(rng, max_deg=4, nterms=4)
        assert element_from_json(element_to_json(x)) == x


def test_json_shape():
    data = element_to_json(casimir())
    assert data == [
        {"e": 1, "f": 1, "d": 0, "num": 2, "den": 1},
        {"e": 0, "f": 0, "d": 2, "num": 1, "den": 1},
        {"e": 0, "f": 0, "d": 1, "num": -1, "den": 1},
    ]


@pytest.mark.parametrize("data, message", [
    ([{"e": 1, "f": 0, "d": 0, "num": 1, "den": 1},
      {"e": 1, "f": 0, "d": 0, "num": 2, "den": 1}], "term E is listed twice"),
    ([{"e": 1, "f": 0, "d": 0, "num": 1}], "an element term has no 'den' field"),
    ([{"e": 1, "f": 0, "num": 1, "den": 1}], "an element term has no 'd' field"),
    ([3], "an element term must be a JSON object, got int"),
    (5, "an element must be a list, got int"),
    ([{"e": 1, "f": 0, "d": 0, "num": 1, "den": 1, "g": 2}],
     "an element term has an unexpected 'g' field"),
], ids=["repeated-term", "no-den", "no-exponent", "term-not-object",
        "not-list", "extra-field"])
def test_json_refuses_repeated_and_malformed_terms(data, message):
    with pytest.raises(ValueError) as exc:
        element_from_json(data)
    assert str(exc.value) == message


def _clear_pbw_caches():
    for fn in (pbw._fe_normal, pbw.mono_mul):
        fn.cache_clear()


def test_cold_cache_products_agree_across_threads():
    # the monomial-product caches are filled on demand; threads that fill
    # them at the same time must neither corrupt them nor see a partial entry
    k = 10
    _clear_pbw_caches()
    expected = F ** k * E ** k
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            _clear_pbw_caches()
            results = [None] * 4
            barrier = threading.Barrier(4)

            def work(i):
                barrier.wait()
                results[i] = F ** k * E ** k

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(old)


# ---------------------------------------------------------------------------
# the integer product kernel against a plain Fraction reference


def fraction_product(x, y) -> dict:
    """x * y as the plain Fraction double loop over mono_mul."""
    acc = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            for mono, c in mono_mul(m1, m2):
                acc[mono] = acc.get(mono, Fraction(0)) + c1 * c2 * c
    return {mono: c for mono, c in acc.items() if c}


def assert_stored_fractions(x):
    assert all(type(c) is Fraction and c for c in x.terms.values())


def test_product_matches_fraction_reference(rng):
    # denominators of x and y are coprime, so dx * dy is the true lcm
    for _ in range(60):
        x = random_element(rng, max_deg=4, nterms=5, dens=(1, 2, 4, 8))
        y = random_element(rng, max_deg=4, nterms=5, dens=(3, 5, 9, 15))
        for a, b in ((x, y), (y, x), (x, x)):
            prod = a * b
            assert prod.terms == fraction_product(a, b)
            assert_stored_fractions(prod)


def test_product_drops_cancelled_terms():
    # the E terms of (E/2 + 1/3)(E/2 - 1/3) cancel exactly
    x = E * Fraction(1, 2) + Fraction(1, 3)
    y = E * Fraction(1, 2) - Fraction(1, 3)
    prod = x * y
    assert prod.terms == {(2, 0, 0): Fraction(1, 4), (0, 0, 0): Fraction(-1, 9)}
    assert_stored_fractions(prod)
    # I is central: both products have the same terms, so nothing survives
    c = casimir() * Fraction(2, 7)
    y = E * Fraction(3, 5) - H * F * Fraction(1, 6)
    assert (c * y - y * c).terms == {}


def test_product_with_zero_and_integer_elements(rng):
    x = random_element(rng, nterms=4, dens=(2, 3))
    zero = Element.zero()
    assert (zero * x).terms == {} and (x * zero).terms == {}
    assert (zero * zero).terms == {}
    ints = Element({(1, 0, 0): 2, (0, 1, 1): -3, (0, 0, 0): 5})
    prod = ints * ints
    assert prod.terms == fraction_product(ints, ints)
    assert all(c.denominator == 1 for c in prod.terms.values())
    assert_stored_fractions(prod)
    assert (ints * x).terms == fraction_product(ints, x)
    assert_stored_fractions(ints * x)


# ---------------------------------------------------------------------------
# the cached commutator of two monomials

monomials_to_4 = st.tuples(*[st.integers(0, 4)] * 3)


@settings(max_examples=150, deadline=None)
@given(m1=monomials_to_4,
       m2=st.one_of(st.sampled_from([H_MONO, E_MONO, F_MONO]), monomials_to_4))
def test_mono_commutator_is_the_product_difference(m1, m2):
    want = dict(mono_mul(m1, m2))
    for mono, c in mono_mul(m2, m1):
        want[mono] = want.get(mono, 0) - c
    got = mono_commutator(m1, m2)
    assert dict(got) == {mono: c for mono, c in want.items() if c}
    assert all(type(c) is int and c for _, c in got)
    x, y = Element({m1: 1}), Element({m2: 1})
    assert Element(dict(got)) == commutator(x, y)
    assert mono_commutator(m2, m1) == tuple((m, -c) for m, c in got)
