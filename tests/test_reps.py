import json
from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod
from pathlib import Path

import pytest

from twistkit.hseries import HSeries
from twistkit.pbw import E, F, H, Element, casimir
from twistkit.reps import (RepMatrix, element_matrix, evaluate,
                           rep_unitarity_check, semi_universal, spin_rep,
                           _identity, _mat_add, _mat_mul, _mono_entries)
from twistkit.tensor import (TensorElement, cartan_killing, classical_r,
                             coproduct, outer)
from twistkit.candidate import (TwistCandidate, cocycle_defect,
                                reference_candidate, twist_residual_series,
                                unitarity_defect)

from conftest import random_tensor


def _kron(a, b):
    """Dense Kronecker product: the reference for evaluate on tensors."""
    na, nb = len(a), len(b)
    out = [[Fraction(0)] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            c = a[i][j]
            if c:
                for k in range(nb):
                    for l in range(nb):
                        if b[k][l]:
                            out[i * nb + k][j * nb + l] = c * b[k][l]
    return tuple(tuple(r) for r in out)


def _dense_mono(rep, mono):
    """rho(E^e F^f H^d) as a product of dense generator matrices."""
    e, f, d = mono
    out = _identity(rep.dim)
    for gen, n in ((rep.h, d), (rep.f, f), (rep.e, e)):
        for _ in range(n):
            out = _mat_mul(gen, out)
    return out


def _dense_evaluate(x, *reps):
    """evaluate through one dense Kronecker product per term."""
    dim = prod(rep.dim for rep in reps)
    out = []
    for c in x.coeffs:
        acc = tuple((Fraction(0),) * dim for _ in range(dim))
        for key, coef in c.terms.items():
            kr = reduce(_kron, (_dense_mono(rep, mono)
                                for rep, mono in zip(reps, key)))
            acc = _mat_add(acc, kr, coef)
        out.append(acc)
    return RepMatrix(dim, out)


def test_spin_half_matrices():
    rep = spin_rep(1)
    half = Fraction(1, 2)
    assert rep.h == ((half, 0), (0, -half))
    assert rep.e == ((0, 1), (0, 0))
    assert rep.f == ((0, 0), (half, 0))


def test_high_power_monomial_matrix():
    # E^1200 vanishes in spin 1/2; the power is built in a loop, so its
    # exponent is not bounded by the recursion limit
    zero = ((0, 0), (0, 0))
    assert element_matrix(Element.monomial(1200, 0, 0), spin_rep(1)) == zero


def test_spin_one_casimir_scalar():
    rep = spin_rep(2)
    assert element_matrix(casimir(), rep) == tuple(
        tuple(Fraction(2) if i == j else Fraction(0) for j in range(3))
        for i in range(3))


def test_trivial_rep():
    rep = spin_rep(0)
    assert rep.h == ((Fraction(0),),)
    assert rep.e == ((Fraction(0),),)
    assert rep.f == ((Fraction(0),),)


def test_negative_two_j_rejected():
    with pytest.raises(ValueError):
        spin_rep(-1)


def test_commutation_relations_through_two_j_8():
    for two_j in range(9):
        rep = spin_rep(two_j)
        neg = tuple(tuple(-x for x in row) for row in rep.f)
        assert _mat_add(_mat_mul(rep.h, rep.e), _mat_mul(rep.e, rep.h),
                        Fraction(-1)) == rep.e
        assert _mat_add(_mat_mul(rep.h, rep.f), _mat_mul(rep.f, rep.h),
                        Fraction(-1)) == neg
        assert _mat_add(_mat_mul(rep.e, rep.f), _mat_mul(rep.f, rep.e),
                        Fraction(-1)) == rep.h


def test_casimir_scalar_through_two_j_8():
    for two_j in range(9):
        rep = spin_rep(two_j)
        expected = tuple(
            tuple(rep.casimir_scalar() if i == j else Fraction(0)
                  for j in range(rep.dim)) for i in range(rep.dim))
        assert element_matrix(casimir(), rep) == expected


def test_evaluate_identity():
    one = HSeries.constant(TensorElement.one(), 2)
    for tj1, tj2 in ((1, 1), (1, 2), (2, 3)):
        m = evaluate(one, spin_rep(tj1), spin_rep(tj2))
        assert m.is_identity()


def test_evaluate_hr_in_half_half():
    half = spin_rep(1)
    r = classical_r()
    m = evaluate(HSeries([TensorElement.zero(), r]), half, half)
    expect1 = [[Fraction(0)] * 4 for _ in range(4)]
    expect1[2][1] = Fraction(1, 2)    # from F (x) E
    expect1[1][2] = Fraction(-1, 2)   # from E (x) F
    assert m.coeffs[0] == tuple(tuple(row) for row in
                                [[Fraction(0)] * 4 for _ in range(4)])
    assert m.coeffs[1] == tuple(tuple(row) for row in expect1)


def test_evaluate_cartan_killing_commutes_with_coproducts():
    P = cartan_killing()
    for tj in (1, 2):
        rep = spin_rep(tj)
        mp = evaluate(P, rep, rep)
        for g in (H, E, F):
            mg = evaluate(coproduct(g), rep, rep)
            assert mp * mg == mg * mp


def test_evaluate_is_algebra_morphism(rng):
    rep1, rep2 = spin_rep(1), spin_rep(2)
    for _ in range(30):
        x = random_tensor(rng)
        y = random_tensor(rng)
        assert (evaluate(x * y, rep1, rep2)
                == evaluate(x, rep1, rep2) * evaluate(y, rep1, rep2))


def test_semi_universal_identity():
    cand = TwistCandidate.from_coefficients([TensorElement.one()])
    mat = semi_universal(cand)
    assert mat[0][0] == HSeries([Element.one()])
    assert mat[1][1] == HSeries([Element.one()])
    assert mat[0][1].is_zero() and mat[1][0].is_zero()


def test_semi_universal_first_order():
    cand = reference_candidate(1)
    mat = semi_universal(cand)
    zero = Element.zero()
    assert mat[0][0] == HSeries([Element.one(), zero])
    assert mat[1][1] == HSeries([Element.one(), zero])
    assert mat[0][1] == HSeries([zero, -F])
    assert mat[1][0] == HSeries([zero, E * Fraction(1, 2)])


def test_semi_universal_at_order():
    cand = reference_candidate(2)
    full = semi_universal(cand)
    padded, cut = semi_universal(cand, 4), semi_universal(cand, 1)
    for i in range(2):
        for j in range(2):
            assert padded[i][j] == full[i][j].pad_to(4)
            assert cut[i][j] == full[i][j].truncate(1)


def test_semi_universal_two_path_consistency():
    # evaluating the universal leg afterwards agrees with direct evaluation
    cand = reference_candidate(2)
    half = spin_rep(1)
    for tj2 in (1, 2):
        rep2 = spin_rep(tj2)
        su = semi_universal(cand)
        direct = evaluate(cand.series, half, rep2)
        dim = rep2.dim
        for i in range(2):
            for j in range(2):
                for k in range(cand.order + 1):
                    block = element_matrix(su[i][j].coeffs[k], rep2)
                    for a in range(dim):
                        for b in range(dim):
                            assert direct.coeffs[k][i * dim + a][j * dim + b] \
                                == block[a][b]


def test_rep_unitarity_versus_universal():
    cand = reference_candidate(2)
    assert rep_unitarity_check(cand, 2).passed
    assert not unitarity_defect(cand).is_zero()


def test_rep_unitarity_trivial():
    cand = TwistCandidate.from_coefficients([TensorElement.one()])
    assert rep_unitarity_check(cand, 0).passed


def test_residual_evaluation_soundness():
    # universal residual zero evaluates to zero in every representation
    cand = reference_candidate(2)
    series = twist_residual_series(cand, 2)
    for g, s in series.items():
        assert s.is_zero()
        for tj1, tj2 in ((1, 1), (1, 2)):
            assert evaluate(s, spin_rep(tj1), spin_rep(tj2)).is_zero()


def test_cocycle_defect_nonzero_in_half_cubed():
    cand = reference_candidate(2)
    defect = cocycle_defect(cand)
    half = spin_rep(1)
    assert not evaluate(defect, half, half, half).is_zero()


def _braid_ok_per_order(series):
    half = spin_rep(1)
    Rm = evaluate(series, half, half)
    swap = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i][i * 2 + j] = Fraction(1)
    swap = tuple(tuple(row) for row in swap)
    B = RepMatrix(4, tuple(_mat_mul(swap, c) for c in Rm.coeffs))
    id2 = _identity(2)
    B12 = RepMatrix(8, tuple(_kron(c, id2) for c in B.coeffs))
    B23 = RepMatrix(8, tuple(_kron(id2, c) for c in B.coeffs))
    defect = B12 * B23 * B12 - B23 * B12 * B23
    return [all(all(x == 0 for x in row) for row in m) for m in defect.coeffs]


def test_braid_relation_smoke():
    # sigma composed with the quantum R-matrix image satisfies the braid
    # relation (sanity check on the evaluation plumbing); the classical
    # q^P does not: its order-h^2 defect is the [P13, P23] commutator,
    # which the shared-leg structure keeps nonzero
    from twistkit.rmatrix import classical_R, quantum_R_image
    assert _braid_ok_per_order(quantum_R_image(3)) == [True] * 4
    assert _braid_ok_per_order(classical_R(3)) == [True, True, False, False]


def test_repmatrix_entry_and_json():
    cand = reference_candidate(1)
    half = spin_rep(1)
    m = evaluate(cand.series, half, half)
    entry = m.entry(2, 1)
    assert entry == HSeries([Fraction(0), Fraction(1, 2)])
    data = m.to_json()
    assert data["dim"] == 4 and data["order"] == 1
    assert list(data["matrix"])[2][1] == [{"num": 0, "den": 1},
                                          {"num": 1, "den": 2}]


@pytest.mark.parametrize("two_j", range(7))
def test_generators_follow_the_stated_normalization(two_j):
    # rho(H) e_m = m e_m, rho(E) e_m = (j-m) e_{m+1},
    # rho(F) e_m = (j+m)/2 e_{m-1}, column i holding e_m with m = j - i
    rep = spin_rep(two_j)
    h, e, f = ([[Fraction(0)] * rep.dim for _ in range(rep.dim)]
               for _ in range(3))
    for i in range(rep.dim):
        h[i][i] = Fraction(two_j - 2 * i, 2)
        if i >= 1:
            e[i - 1][i] = Fraction(i)
        if i < two_j:
            f[i + 1][i] = Fraction(two_j - i, 2)
    assert (rep.h, rep.e, rep.f) == tuple(tuple(map(tuple, m)) for m in (h, e, f))


@pytest.mark.parametrize("two_j", range(7))
def test_mono_entries_match_dense_products(two_j):
    # every exponent up to 4, and exponents one past the dimension, which
    # leave no entries
    rep = spin_rep(two_j)
    big = two_j + 2
    monos = list(product(range(5), repeat=3))
    monos += [(big, 0, 0), (0, big, 0), (big, big, 1), (1, big, 0)]
    for mono in monos:
        dense = _dense_mono(rep, mono)
        entries = [(i, j, v) for i, row in enumerate(dense)
                   for j, v in enumerate(row) if v]
        assert list(_mono_entries(two_j, mono)) == sorted(
            entries, key=lambda t: t[1]), mono
        assert element_matrix(Element.monomial(*mono), rep) == dense
    for mono in monos[-4:-1]:
        assert _mono_entries(two_j, mono) == ()


def _random_series(rng, legs):
    """A series of random tensors with coprime denominators, a zero
    coefficient and terms whose coefficient is zero."""
    coeffs = []
    for k in range(3):
        x = random_tensor(rng, dens=(1, 2, 3, 5, 7), legs=legs)
        zero_key = tuple((k, 1, 0) for _ in range(legs))
        x = x + TensorElement({zero_key: 0})
        coeffs.append(x)
    coeffs.insert(1, TensorElement({((0, 0, 0),) * legs: 0}))
    return HSeries(coeffs)


@pytest.mark.parametrize("two_js", [(1, 2), (2, 3), (1, 1, 2)])
def test_evaluate_matches_dense_kron(rng, two_js):
    reps = [spin_rep(tj) for tj in two_js]
    for _ in range(10):
        s = _random_series(rng, len(two_js))
        assert evaluate(s, *reps) == _dense_evaluate(s, *reps)


def test_evaluate_leg_count_mismatch():
    half = spin_rep(1)
    with pytest.raises(ValueError):
        evaluate(TensorElement.one(), half, half, half)
    with pytest.raises(ValueError):
        evaluate(TensorElement({((0, 0, 0),) * 3: 1}), half, half)


def test_repmatrix_with_non_matrix_is_type_error():
    m = RepMatrix.identity(2, 1)
    for op in (lambda: m + 1, lambda: m - 1, lambda: 1 + m, lambda: m * 1):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("build", [lambda: RepMatrix.identity(2, -1),
                                   lambda: RepMatrix.identity(2, -3),
                                   lambda: RepMatrix(2, ())],
                         ids=["identity -1", "identity -3", "no coefficient"])
def test_negative_matrix_order_is_refused(build):
    # like HSeries: an order below 0 is an error, not an order-0 identity
    # or an empty matrix that reads as zero
    with pytest.raises(ValueError, match=r"matrix order must be >= 0, got -"):
        build()


def test_render_text_writes_the_whole_matrix_text_row_by_row():
    # the order-3 fixture at 8 (x) 8: each row is one write, and the rows
    # are the text of rendering every cell first and padding each column
    # to its widest cell
    path = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"
    with open(path / "candidate-order3.json") as fh:
        cand = TwistCandidate.from_json(json.load(fh))
    mat = evaluate(cand.series, spin_rep(8), spin_rep(8))
    cells = [[str(mat.entry(i, j)) for j in range(mat.dim)]
             for i in range(mat.dim)]
    widths = [max(len(row[j]) for row in cells) for j in range(mat.dim)]
    writes = []

    class Stream:
        def write(self, text):
            writes.append(text)

    mat.render_text(Stream())
    assert writes == ["[ " + " | ".join(c.ljust(w) for c, w in zip(row, widths))
                      + " ]\n" for row in cells]
