import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_element
from twistkit.cli import main
from twistkit.deform import delta_q_image
from twistkit.hseries import HSeries
from twistkit.pbw import E, F, H, Element, casimir
from twistkit.rmatrix import (classical_R, quantum_R_image,
                              quasitriangular_residual)
from twistkit.tensor import (TensorElement, cartan_killing, classical_r, flip,
                             outer, series_outer)
from twistkit.twist import TwistCandidate, reference_candidate


def first_order_classical() -> TensorElement:
    return outer(E, F) * 2 + outer(F, E) * 2 + outer(H, H) * 2


def second_order_classical() -> TensorElement:
    I = casimir()
    return (outer(H, H) * -1 - outer(E, F) * 2 - outer(F, E) * 2
            + outer(E * E, F * F) * 2 + outer(F * F, E * E) * 2
            - outer(E, H * F) * 2 - outer(H * F, E) * 2
            + outer(F, H * E) * 2 + outer(H * E, F) * 2
            + outer(H * E, H * F) * 4 + outer(H * F, H * E) * 4
            + outer(H * H, H * H) * 3 + outer(I, I)
            - outer(I, H * H) - outer(H * H, I))


def first_order_quantum() -> TensorElement:
    return outer(E, F) * 4 + outer(H, H) * 2


def second_order_quantum() -> TensorElement:
    return (outer(H * H, H * H) * 2 - outer(E, F) * 4 - outer(E, H * F) * 4
            + outer(E * E, F * F) * 8 + outer(H * E, F) * 4
            + outer(H * E, H * F) * 8)


def test_classical_R_expansion():
    R = classical_R(2)
    assert R.coeffs[0] == TensorElement.one()
    assert R.coeffs[1] == first_order_classical()
    assert R.coeffs[2] == second_order_classical()


def test_quantum_R_expansion():
    Rq = quantum_R_image(2)
    assert Rq.coeffs[0] == TensorElement.one()
    assert Rq.coeffs[1] == first_order_quantum()
    assert Rq.coeffs[2] == second_order_quantum()


def test_classical_R_is_symmetric():
    R = classical_R(4)
    assert R.map(flip) == R


def test_quasitriangular_reference_candidate():
    cand = reference_candidate(2)
    assert quasitriangular_residual(cand, 2).is_zero()


def test_quasitriangular_symmetric_kernel_shift_passes():
    # F = 1 + h(r + f1) with f1 = P symmetric: residual stays zero
    cand = TwistCandidate.from_coefficients(
        [TensorElement.one(), classical_r() + cartan_killing()])
    assert quasitriangular_residual(cand, 1).is_zero()


def test_quasitriangular_asymmetric_kernel_shift_fails():
    # f1 = I (x) 1 is a kernel element but not symmetric
    f1 = outer(casimir(), Element.one())
    cand = TwistCandidate.from_coefficients(
        [TensorElement.one(), classical_r() + f1])
    resid = quasitriangular_residual(cand, 1)
    assert resid.coeffs[1] == f1 - flip(f1)
    assert not resid.is_zero()


def test_quasitriangular_trivial_candidate():
    cand = TwistCandidate.from_coefficients([TensorElement.one()])
    resid = quasitriangular_residual(cand, 1)
    expected = first_order_quantum() - first_order_classical()
    assert resid.coeffs[1] == expected
    assert expected == outer(E, F) * 2 - outer(F, E) * 2
    assert not resid.is_zero()


def symmetry_rhs(order: int, cand) -> TensorElement:
    # the order-k source term of R_q~ F = sigma(F) R
    return quasitriangular_residual(cand, order).coeffs[order]


def test_symmetry_rhs_vanishes():
    cand = reference_candidate(2)
    assert symmetry_rhs(1, cand).is_zero()
    assert symmetry_rhs(2, cand).is_zero()


def test_symmetry_rhs_mutation_detected():
    # replacing the quantum expansion by the classical one breaks it
    cand = reference_candidate(2)
    r1 = classical_R(2).coeffs[1]
    f1 = cand.coefficient(1)
    mutated = r1 - r1 - (flip(f1) - f1)   # quantum side replaced by classical
    assert mutated != symmetry_rhs(1, cand)
    assert not mutated.is_zero()


def test_quantum_R_n_sum_truncation_lossless():
    # the image two orders up, truncated back, has the summands and the
    # per-summand orders that the cutoffs drop at N
    for order in (1, 2, 3, 6, 7):
        assert quantum_R_image(order + 2).truncate(order) == quantum_R_image(order)


def test_intertwiner_property():
    # R_q~ Delta_q~(g) = flip(Delta_q~(g)) R_q~ at every computed order
    order = 3
    Rq = quantum_R_image(order)
    for g in ("J0", "J+", "J-"):
        dq = delta_q_image(g, order)
        assert (Rq * dq - dq.map(flip) * Rq).is_zero()


def test_classical_R_commutes_with_coproducts():
    from twistkit.tensor import coproduct
    R = classical_R(3)
    for g in (H, E, F):
        d = coproduct(g)
        ds = R.map(lambda c, d=d: c * d - d * c)
        assert ds.is_zero()


def test_show_rmatrix_order5_matches_golden_file(capsys):
    # tests/data/rmatrix-order5.json was written by
    #   twistkit show-rmatrix --order 5 --format json
    assert main(["show-rmatrix", "--order", "5", "--format", "json"]) == 0
    golden = (Path(__file__).parent / "data" / "rmatrix-order5.json").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_series_outer_matches_outer_sum(rng):
    dens = (1, 2, 3, 5, 7)
    for _ in range(20):
        order = rng.randint(0, 3)
        a = HSeries([random_element(rng, dens=dens) for _ in range(order + 1)])
        b = HSeries([random_element(rng, dens=dens) for _ in range(order + 1)])
        if rng.random() < 0.3:
            b = HSeries([Element.zero()] + list(b.coeffs[1:]))
        expected = [sum((outer(a.coeffs[k], b.coeffs[n - k]) for k in range(n + 1)),
                        TensorElement.zero()) for n in range(order + 1)]
        assert list(series_outer(a, b).coeffs) == expected


@pytest.mark.parametrize("fmt, digest", [
    ("text", "42ce89070e63fe3f2f871a6f5404c4d96791f6ec83798d2fcd0141b986026434"),
    ("json", "51cd4828b5e50633b27a37bb1d2d8c1255af37a3ff9e58796bbbfdaa3d7f097c"),
])
def test_show_rmatrix_order8_digest(capsys, fmt, digest):
    # sha256 of the output of
    #   twistkit show-rmatrix --order 8 --format text|json
    # as written before summand n of the quantum R-matrix was cut at
    # order N - n (161,943 and 1,181,386 bytes)
    assert main(["show-rmatrix", "--order", "8", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest
