"""Acceptance suite: one test per criterion, exact comparisons throughout.

Every test prints a single PASS/FAIL line (visible with pytest -v -s or in
captured output) in addition to asserting.
"""

import random
from fractions import Fraction

import pytest

from twistkit.deform import phi, quantum_commutator_check
from twistkit.pbw import (E, F, H, Element, casimir, commutator,
                          from_casimir_basis, to_casimir_basis)
from twistkit.reps import (element_matrix, evaluate, rep_unitarity_check,
                           spin_rep, _mat_add, _mat_mul)
from twistkit.rmatrix import (classical_R, quantum_R_image,
                              quasitriangular_residual)
from twistkit.tensor import (TensorElement, cartan_killing, classical_r,
                             coproduct, outer)
from twistkit.twist import (TwistCandidate, cocycle_defect, kernel_check,
                            normalization_check, reference_candidate,
                            second_order_term, solve_order, twist_residuals,
                            unitarity_defect)

from conftest import random_element, random_tensor


def report(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_phi_expansion():
    one = Element.one()
    expected = {
        "+": (casimir() * 2 + H * (H - one) * 2 - one) * Fraction(1, 12),
        "-": (casimir() * 2 + H * (H + one) * 2 - one) * Fraction(1, 12),
    }
    ok = True
    for sign in ("+", "-"):
        series = phi(sign, 2).series
        ok &= series.coeffs[0] == one
        ok &= series.coeffs[1].is_zero()
        ok &= series.coeffs[2] == expected[sign]
    report(1, "phi expansion to second order", ok)


def test_criterion_2_isomorphism_relations():
    ok = quantum_commutator_check(3).passed
    report(2, "q-deformed commutators hold at N=3", ok)


def test_criterion_3_order1_twist():
    lower = TwistCandidate.from_coefficients([TensorElement.one()])
    sol = solve_order(1, lower)
    ok = sol.solved and sol.particular == classical_r()
    report(3, "order-1 minimal solution is the classical r-matrix", ok)


def test_criterion_4_order2_twist():
    cand = reference_candidate(2)
    ok = twist_residuals(cand, 2).passed
    lower = TwistCandidate.from_coefficients([TensorElement.one(), classical_r()])
    sol = solve_order(2, lower)
    ok &= sol.solved
    ok &= kernel_check(sol.particular - second_order_term())
    report(4, "order-2 twist: reference passes, solver differs by kernel", ok)


def test_criterion_5_rmatrix_expansions():
    I = casimir()
    R = classical_R(2)
    Rq = quantum_R_image(2)
    r1 = outer(E, F) * 2 + outer(F, E) * 2 + outer(H, H) * 2
    r2 = (outer(H, H) * -1 - outer(E, F) * 2 - outer(F, E) * 2
          + outer(E * E, F * F) * 2 + outer(F * F, E * E) * 2
          - outer(E, H * F) * 2 - outer(H * F, E) * 2
          + outer(F, H * E) * 2 + outer(H * E, F) * 2
          + outer(H * E, H * F) * 4 + outer(H * F, H * E) * 4
          + outer(H * H, H * H) * 3 + outer(I, I)
          - outer(I, H * H) - outer(H * H, I))
    q1 = outer(E, F) * 4 + outer(H, H) * 2
    q2 = (outer(H * H, H * H) * 2 - outer(E, F) * 4 - outer(E, H * F) * 4
          + outer(E * E, F * F) * 8 + outer(H * E, F) * 4
          + outer(H * E, H * F) * 8)
    ok = (R.coeffs[1] == r1 and R.coeffs[2] == r2
          and Rq.coeffs[1] == q1 and Rq.coeffs[2] == q2)
    report(5, "R-matrix expansions coefficient-for-coefficient", ok)


def test_criterion_6_quasitriangular_relation():
    cand = reference_candidate(2)
    residual = quasitriangular_residual(cand, 2)
    ok = residual.is_zero()
    ok &= residual.coeffs[1].is_zero()
    ok &= residual.coeffs[2].is_zero()
    report(6, "quasitriangular relation and symmetry sources", ok)


def test_criterion_7_remarks():
    cand = reference_candidate(2)
    ok = normalization_check(cand).passed
    ok &= rep_unitarity_check(cand, 2).passed
    ok &= not unitarity_defect(cand).coeffs[2].is_zero()
    defect = cocycle_defect(cand)
    ok &= not defect.is_zero()
    half = spin_rep(1)
    ok &= not evaluate(defect, half, half, half).is_zero()
    report(7, "normalization / unitarity / cocycle remarks", ok)


def test_criterion_8_order3_extension(order3_build):
    cand, sols = order3_build
    ok = all(s.solved for s in sols) and len(sols) == 3
    ok &= twist_residuals(cand, 3).passed
    ok &= quasitriangular_residual(cand, 3).is_zero()
    report(8, "order-3 twist passes both residuals", ok)


def test_criterion_9_property_suites():
    rng = random.Random(987654321)
    cases = 0
    ok = True

    # pbw associativity
    for _ in range(140):
        x = random_element(rng, max_deg=4)
        y = random_element(rng, max_deg=4)
        z = random_element(rng, max_deg=4)
        ok &= (x * y) * z == x * (y * z)
        cases += 1

    # pbw centrality
    I = casimir()
    for _ in range(60):
        x = random_element(rng, max_deg=4)
        ok &= commutator(I, x).is_zero()
        cases += 1

    # pbw casimir-basis round trip
    for _ in range(130):
        x = random_element(rng, max_deg=4, nterms=4)
        ok &= from_casimir_basis(to_casimir_basis(x)) == x
        cases += 1

    # tensor coassociativity
    for _ in range(60):
        x = random_element(rng, max_deg=3)
        d = coproduct(x)
        ok &= coproduct(d, 1) == coproduct(d, 2)
        cases += 1

    # tensor kernel characterization: random polynomials in I1, I2, Delta(I)
    gens = [outer(I, Element.one()), outer(Element.one(), I), coproduct(I)]
    deltas = [coproduct(g) for g in (H, E, F)]
    for _ in range(90):
        x = TensorElement.one() * Fraction(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 2)):
            g = rng.choice(gens)
            x = x * g if rng.random() < 0.5 else x + g * Fraction(rng.randint(-2, 2))
        ok &= all((x * d - d * x).is_zero() for d in deltas)
        cases += 1

    # repr commutation relations and Casimir scalars for two_j <= 8
    for two_j in range(9):
        rep = spin_rep(two_j)
        neg_f = tuple(tuple(-v for v in row) for row in rep.f)
        ok &= _mat_add(_mat_mul(rep.h, rep.e), _mat_mul(rep.e, rep.h),
                       Fraction(-1)) == rep.e
        ok &= _mat_add(_mat_mul(rep.h, rep.f), _mat_mul(rep.f, rep.h),
                       Fraction(-1)) == neg_f
        ok &= _mat_add(_mat_mul(rep.e, rep.f), _mat_mul(rep.f, rep.e),
                       Fraction(-1)) == rep.h
        expected = tuple(tuple(rep.casimir_scalar() if i == j else Fraction(0)
                               for j in range(rep.dim)) for i in range(rep.dim))
        ok &= element_matrix(I, rep) == expected
        cases += 4

    assert cases >= 500, f"only {cases} randomized cases"
    report(9, f"property suites, {cases} randomized cases", ok)
