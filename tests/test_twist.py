import copy
import hashlib
import itertools
import json
import os
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistkit.candidate as candidate
import twistkit.twist as twist
from twistkit.cli import _json_dumps, main
from twistkit.deform import IMAGES, delta_q_image, generator_images, m_J0
from twistkit.hseries import HSeries, _cauchy, _ints, _ring_into
from twistkit.lincomb import _integral, _rational
from twistkit.linsolve import solve_sparse
from twistkit.pbw import (E, E_MONO, F, F_MONO, H, H_MONO, Element, casimir,
                          casimir_to_pbw, from_casimir_basis,
                          to_casimir_basis)
from twistkit.rmatrix import (classical_R, quantum_R_image,
                              quasitriangular_residual)
from twistkit.tensor import (TensorElement, cartan_killing, classical_r,
                             coproduct, flip, is_weight_zero, outer, weight)
from twistkit.candidate import (TwistCandidate, cocycle_defect, kernel_check,
                                normalization_check, reference_candidate,
                                second_order_term, twist_residual_series,
                                twist_residuals, unitarity_defect)
from twistkit.twist import (TwistAnsatz, build_candidate, solve_order,
                            symmetrize_order)

from conftest import json_text, random_fraction, random_monomial


@pytest.fixture(scope="module")
def one_candidate():
    return TwistCandidate.from_coefficients([TensorElement.one()])


@pytest.fixture(scope="module")
def order1_solution(one_candidate):
    return solve_order(1, one_candidate)


@pytest.fixture(scope="module")
def order2_solution():
    lower = TwistCandidate.from_coefficients([TensorElement.one(), classical_r()])
    return solve_order(2, lower)


def tensors_span(basis, target) -> bool:
    """Exact membership of target in the rational span of basis."""
    keys = sorted(set().union(*(set(b.terms) for b in basis), set(target.terms)))
    idx = {k: i for i, k in enumerate(keys)}
    rows = [dict() for _ in keys]
    for ci, b in enumerate(basis):
        for k, c in b.terms.items():
            rows[idx[k]][ci] = c
    rhs = [Fraction(0)] * len(keys)
    for k, c in target.terms.items():
        rhs[idx[k]] = c
    return solve_sparse(rows, rhs, len(basis)).status == "solved"


# ---------------------------------------------------------------------------
# residual verification


def test_reference_candidate_passes_residuals():
    assert twist_residuals(reference_candidate(2), 2).passed


def test_trivial_candidate_fails_at_order_one(one_candidate):
    series = twist_residual_series(one_candidate, 1)
    # residual F*Delta(m(J+)) - Delta_q~(J+)*F at order 1 with F = 1
    assert series["J+"].coeffs[1] == -(outer(E, H) - outer(H, E))
    assert not twist_residuals(one_candidate, 1).passed


def test_trivial_candidate_passes_at_order_zero(one_candidate):
    assert twist_residuals(one_candidate, 0).passed


def test_residuals_require_invertible_leading_term():
    bad = TwistCandidate.from_coefficients([outer(casimir(), Element.one())])
    with pytest.raises(ValueError):
        twist_residuals(bad, 0)


@pytest.mark.parametrize("check", [twist_residual_series, twist_residuals])
def test_negative_residual_order_is_refused(check):
    with pytest.raises(ValueError, match="residual order must be >= 0, got -1$"):
        check(reference_candidate(2), -1)


# ---------------------------------------------------------------------------
# kernel and the side conditions


def test_kernel_examples():
    I = casimir()
    assert kernel_check(outer(I, Element.one()))
    assert kernel_check(cartan_killing())
    assert not kernel_check(outer(E, F))
    assert not kernel_check(coproduct(E))


def test_cartan_killing_is_coproduct_defect():
    I = casimir()
    assert cartan_killing() == (coproduct(I) - outer(I, Element.one())
                                - outer(Element.one(), I))


def test_normalization_check():
    assert normalization_check(reference_candidate(1)).passed
    spoiled = TwistCandidate.from_coefficients(
        [TensorElement.one() + outer(Element.one(), casimir())])
    report = normalization_check(spoiled)
    assert not report.passed
    # (eps (x) id) collapses 1 (x) I to I != 1; (id (x) eps) kills it
    assert report.first_failures == {"counit(leg1)": 0, "counit(leg2)": None}


def test_unitarity_defect_orders():
    cand = reference_candidate(2)
    defect = unitarity_defect(cand)
    assert defect.coeffs[0].is_zero()
    assert defect.coeffs[1].is_zero()          # sigma(r) + r = 0
    assert not defect.coeffs[2].is_zero()      # but not in general
    trivial = TwistCandidate.from_coefficients([TensorElement.one()])
    assert unitarity_defect(trivial).is_zero()


def test_cocycle_defect():
    trivial = TwistCandidate.from_coefficients([TensorElement.one()])
    assert cocycle_defect(trivial).is_zero()
    cand = reference_candidate(2)
    defect = cocycle_defect(cand)
    # first-order term: (r (x) 1 + (Delta(x)id)r) - (1 (x) r + (id(x)Delta)r),
    # which cancels identically; the obstruction enters at order 2
    r = classical_r()
    manual = (outer(r, Element.one()) + coproduct(r, 1)
              - outer(Element.one(), r) - coproduct(r, 2))
    assert defect.coeffs[1] == manual
    assert defect.coeffs[1].is_zero()
    assert not defect.coeffs[2].is_zero()


# ---------------------------------------------------------------------------
# the solver


def test_order1_minimal_choice_is_r(order1_solution):
    assert order1_solution.solved
    assert order1_solution.particular == classical_r()


def test_order1_homogeneous_space(order1_solution):
    hom = order1_solution.homogeneous
    assert hom, "expected kernel directions inside the ansatz"
    assert all(kernel_check(t) for t in hom)
    I = casimir()
    one = Element.one()
    assert tensors_span(hom, cartan_killing())
    for poly in (outer(I, Element.one()), outer(Element.one(), I),
                 outer(I * I, Element.one()),
                 outer(I, Element.one()) * outer(Element.one(), I)):
        assert tensors_span(hom, poly)


def test_order1_solver_verifier_agreement(order1_solution):
    r = order1_solution.particular
    for extra in ([], [0], [1]):
        coeff = r
        for i in extra:
            if i < len(order1_solution.homogeneous):
                coeff = coeff + order1_solution.homogeneous[i]
        cand = TwistCandidate.from_coefficients([TensorElement.one(), coeff])
        assert twist_residuals(cand, 1).passed


def test_order2_solution_differs_from_reference_by_kernel(order2_solution):
    assert order2_solution.solved
    diff = order2_solution.particular - second_order_term()
    assert kernel_check(diff)
    # the difference lies in the reported homogeneous space itself
    assert tensors_span(order2_solution.homogeneous, diff)


def test_order2_assembles_to_valid_candidate(order2_solution):
    cand = TwistCandidate.from_coefficients(
        [TensorElement.one(), classical_r(), order2_solution.particular])
    assert twist_residuals(cand, 2).passed


def test_order2_homogeneous_all_kernel(order2_solution):
    assert all(kernel_check(t) for t in order2_solution.homogeneous)
    assert all(is_weight_zero(t) for t in order2_solution.homogeneous)


def test_solver_solutions_are_weight_zero(order1_solution, order2_solution):
    assert is_weight_zero(order1_solution.particular)
    assert is_weight_zero(order2_solution.particular)


def test_random_kernel_polynomials_lie_in_homogeneous_span(order2_solution):
    # independent kernel construction: polynomials in I1, I2, Delta(I)
    # within the cutoff must lie in the solver's nullspace span
    I = casimir()
    i1, i2, di = (outer(I, Element.one()), outer(Element.one(), I),
                  coproduct(I))
    candidates = [i1, i2, di, i1 * i2, di * i1, di * di]
    for t in candidates:
        assert kernel_check(t)
        assert tensors_span(order2_solution.homogeneous, t)


def test_infeasible_at_cutoff_reported(one_candidate):
    # power cutoff L=1 leaves only the l=0 slot, which cannot source the
    # order-1 equations
    sol = solve_order(1, one_candidate, TwistAnsatz(1, cutoff_l=1, cutoff_d=2))
    assert sol.status == "infeasible-at-cutoff"
    assert not sol.solved


def test_escalation_recovers_from_bad_cutoff(one_candidate):
    bad = TwistAnsatz(1, cutoff_l=1, cutoff_d=0)
    sol = solve_order(1, one_candidate, bad, max_escalations=2)
    assert sol.solved
    assert sol.particular == classical_r()
    stuck = solve_order(1, one_candidate, bad, max_escalations=0)
    assert stuck.status == "infeasible-at-cutoff"


def test_solution_document_converts_each_kernel_element_once(monkeypatch):
    # the basis is built and converted as it is written, one element at a
    # time, each element once
    sol = solve_order(2, reference_candidate(1))
    convert = twist.tensor_to_json
    calls = []

    def counted(t):
        calls.append(t)
        return convert(t)
    monkeypatch.setattr(twist, "tensor_to_json", counted)
    built = count_instantiations(monkeypatch)
    data = sol.to_json()
    assert calls == [sol.particular] and built == []
    text = json_text(data)
    assert len(sol.homogeneous) > 0
    assert built == list(sol.homogeneous.vectors)
    assert calls[1:] == list(sol.homogeneous)
    assert json.loads(text)["homogeneous_basis"] == [
        convert(t) for t in sol.homogeneous]


def test_solution_json_schema(order1_solution):
    data = order1_solution.to_json()
    assert set(data) >= {"order", "cutoffL", "cutoffD", "particular",
                         "homogeneous_basis", "pivot_log"}
    assert data["order"] == 1
    assert data["cutoffL"] == 2
    assert data["cutoffD"] == 2


def test_lower_order_requirement(one_candidate):
    with pytest.raises(ValueError):
        solve_order(3, one_candidate.at_order(1))


# ---------------------------------------------------------------------------
# candidate assembly


def test_build_candidate_order2_matches_chain():
    cand, sols = build_candidate(2)
    assert [s.order for s in sols] == [1, 2]
    assert cand.coefficient(1) == classical_r()
    assert twist_residuals(cand, 2).passed


def test_build_candidate_rejects_a_negative_order(monkeypatch):
    statuses = spy_on_solver(monkeypatch)
    with pytest.raises(ValueError, match="order must be >= 0, got -3"):
        build_candidate(-3)
    assert statuses == []
    cand, sols = build_candidate(0)     # order 0 stays valid
    assert cand.order == 0 and sols == []


@pytest.mark.parametrize("order, k", [(1, 2), (0, 1), (1, 3)])
def test_symmetrize_order_above_the_candidate_raises(monkeypatch, order, k):
    # the residual past the candidate's order reads zero padding, so no
    # residual is built at all
    calls = []
    monkeypatch.setattr(twist, "quasitriangular_residual",
                        lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=f"cannot symmetrize order {k} of an "
                                         f"order-{order} candidate"):
        symmetrize_order(reference_candidate(order), k)
    assert calls == []


def test_symmetrize_keeps_twist_residuals():
    cand, _ = build_candidate(2)
    assert twist_residuals(cand, 2).passed
    from twistkit.rmatrix import quasitriangular_residual
    assert quasitriangular_residual(cand, 2).is_zero()


def kappa() -> TensorElement:
    # antisymmetric and central in each leg, so it commutes with every
    # Delta(g): a kernel element that flips sign under sigma
    return outer(casimir(), Element.one()) - outer(Element.one(), casimir())


def test_symmetrize_order_removes_kappa_at_order_1():
    cand = TwistCandidate.from_coefficients(
        [TensorElement.one(), classical_r() + kappa() * Fraction(5, 2)])
    fixed, delta = symmetrize_order(cand, 1)
    assert delta == kappa() * Fraction(-5, 2)
    assert fixed.coefficient(1) == classical_r()
    assert twist_residuals(fixed, 1).passed


def test_symmetrize_order_correction_is_kernel():
    # kappa added to the built F2 breaks R_q~ F = sigma(F) R at order 2
    # only; the correction is -kappa, a kernel element, and restores it
    built, _ = build_candidate(2)
    coeffs = list(built.series.coeffs)
    coeffs[2] = coeffs[2] + kappa()
    fixed, delta = symmetrize_order(TwistCandidate.from_coefficients(coeffs), 2)
    assert delta == -kappa()
    assert kernel_check(delta)
    assert fixed.series == built.series
    assert twist_residuals(fixed, 2).passed


def uncorrected_chain(sols) -> TwistCandidate:
    return TwistCandidate.from_coefficients(
        [TensorElement.one()] + [s.particular for s in sols])


def test_correction_is_zero_on_order3_build(order3_build):
    # each particular solution already satisfies the quasitriangular
    # relation, so the built candidate is the uncorrected chain
    cand, sols = order3_build
    raw = uncorrected_chain(sols)
    assert raw.series == cand.series
    for k in (1, 2, 3):
        assert symmetrize_order(raw.at_order(k), k)[1].is_zero()


@pytest.mark.parametrize("cutoff_l, cutoff_d", [(2, 2), (3, 4), (2, 6)])
def test_correction_is_zero_at_order2_cutoffs(cutoff_l, cutoff_d):
    cand, sols = build_candidate(2, cutoff_l=cutoff_l, cutoff_d=cutoff_d)
    assert all(s.solved for s in sols)
    raw = uncorrected_chain(sols)
    assert raw.series == cand.series
    for k in (1, 2):
        assert symmetrize_order(raw.at_order(k), k)[1].is_zero()


def test_candidate_json_round_trip():
    cand = reference_candidate(2)
    again = TwistCandidate.from_json(cand.to_json())
    assert again.series == cand.series


def test_candidate_padding_and_truncation():
    cand = reference_candidate(2)
    assert cand.at_order(4).order == 4
    assert cand.at_order(4).coefficient(3).is_zero()
    assert cand.at_order(1).series == reference_candidate(1).series


def test_reference_candidate_order_range():
    with pytest.raises(ValueError):
        reference_candidate(3)


def test_ansatz_validation():
    with pytest.raises(ValueError):
        TwistAnsatz(0)
    with pytest.raises(ValueError):
        TwistAnsatz(1, cutoff_l=0)
    ans = TwistAnsatz(1)
    assert ans.cutoff_l == 2 and ans.cutoff_d == 2
    inst = ans.instantiate(dict.fromkeys(range(len(ans)), 1), 1)
    assert is_weight_zero(inst)


def test_ansatz_cutoff_defaults_and_bounds():
    for k in (1, 2, 3):
        ans = TwistAnsatz(k)
        assert (ans.cutoff_l, ans.cutoff_d) == twist.default_cutoffs(k) == (k + 1, 2 * k)
    assert len(TwistAnsatz(1, cutoff_l=1, cutoff_d=0)) == 1   # D = 0 is valid
    for cutoffs, got in (((0, None), "L=0, D=2"), ((1, -1), "L=1, D=-1")):
        with pytest.raises(ValueError, match=f"L >= 1 and D >= 0, got {got}"):
            TwistAnsatz(1, *cutoffs)


# ---------------------------------------------------------------------------
# the order-k system


def payload(column) -> TensorElement:
    """The tensor element that the unknown with leg keys column
    multiplies, built from the two keys in pbw's Casimir coordinates."""
    leg1, leg2 = column
    return outer(from_casimir_basis({leg1: 1}), from_casimir_basis({leg2: 1}))


def test_casimir_bracket_is_commutator_with_E():
    # the closed form against the PBW bracket x*E - E*x, doubled; the leg
    # keys are those of pbw's Casimir coordinates
    legs = {leg for column in TwistAnsatz(4).columns for leg in column}
    for leg in legs:
        a, b, n = leg
        x = H ** a * casimir() ** b * (E ** n if n >= 0 else F ** -n)
        assert from_casimir_basis({leg: 1}) == x
        assert Element(casimir_to_pbw(leg)) == x
        assert to_casimir_basis(x) == {leg: 1}
        terms = twist._casimir_bracket(*leg)
        assert dict(terms) == {key: 2 * c for key, c
                               in to_casimir_basis(x * E - E * x).items()}
        assert all(type(c) is int and c for _, c in terms)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ansatz_payloads_are_integral(k):
    for column in TwistAnsatz(k).columns:
        assert all(c.denominator == 1 for c in payload(column).terms.values())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ansatz_commutes_with_coproduct_of_H(k):
    # why solve_order assembles no J0 rows: every payload has weight zero,
    # so it commutes with Delta(H)
    delta = coproduct(H)
    for column in TwistAnsatz(k).columns:
        p = payload(column)
        assert (p * delta - delta * p).is_zero()


@pytest.mark.parametrize("k, sample", [(1, None), (2, None), (3, 60)])
def test_assembled_columns_are_brackets_with_coproduct_of_E(rng, k, sample):
    # the reference is the TensorElement product, not the per-leg brackets,
    # taken to Casimir coordinates leg by leg and doubled
    ans = TwistAnsatz(k)
    columns = {}
    for key, row in twist._j_plus_rows(enumerate(ans.columns)).items():
        assert row
        for ci, c in row.items():
            assert type(c) is int and c
            columns.setdefault(ci, {})[key] = c
    indices = range(len(ans))
    if sample is not None:
        indices = rng.sample(indices, sample)
    delta = coproduct(E)
    for ci in indices:
        p = payload(ans.columns[ci])
        want = _rational(*twist._casimir_coords(
            *_integral((p * delta - delta * p).terms)))
        assert columns.get(ci, {}) == {key: 2 * c for key, c in want.items()}


def test_instantiate_is_the_sum_of_payloads(rng):
    ans = TwistAnsatz(2)
    values = [rng.choice((0, 0, 1, -2, Fraction(3, 4), Fraction(-5, 6)))
              for _ in ans.columns]
    want = TensorElement.zero()
    for column, v in zip(ans.columns, values):
        want = want + payload(column) * v
    got = ans.instantiate(*_integral(
        {i: v for i, v in enumerate(values) if v}))
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())
    assert ans.instantiate({}, 1).is_zero()


# the J+ rows over the unknowns that are not free columns of the kernel:
# 45 - 7 and 350 - 22 columns, each a pivot
@pytest.mark.parametrize("k, rows, cols, nnz, rank",
                         [(1, 54, 38, 76, 38), (2, 480, 328, 1118, 328)])
def test_system_handed_to_solver(monkeypatch, k, rows, cols, nnz, rank):
    seen = []

    def spy(a, b, ncols):
        result = solve_sparse(a, b, ncols)
        seen.append((a, ncols, result))
        return result

    monkeypatch.setattr(twist, "solve_sparse", spy)
    solve_order(k, reference_candidate(k - 1))
    ((a, ncols, result),) = seen
    assert (len(a), ncols) == (rows, cols)
    assert sum(len(row) for row in a) == nnz
    assert len(result.pivot_cols) == rank == cols
    assert result.free_cols == []
    assert all(a)
    assert all(type(c) is int for row in a for c in row.values())


# Written by a build whose elimination still stored Fraction rows, so they
# hold the integer-row elimination to the same bytes.  Captured with
#   PYTHONPATH=src python3 -m twistkit.cli solve-twist --order 3 --out-dir tests/data
GOLDEN_DIR = Path(__file__).parent / "data"


def test_order3_solutions_match_golden_files(order3_build):
    _, sols = order3_build
    assert [s.order for s in sols] == [1, 2, 3]
    for s in sols:
        text = json_text(s.to_json())
        golden = (GOLDEN_DIR / f"twist-order-{s.order}.json").read_bytes()
        assert text.encode() == golden


def test_order3_candidate_matches_golden_file(order3_build):
    # written by `solve-twist --order 3 --candidate-out` while the kernel
    # correction could still be switched off (it was on by default); the
    # same file as perfbench/fixture/candidate-order3.json
    cand, _ = order3_build
    text = json_text(cand.to_json())
    golden = (GOLDEN_DIR / "candidate-order3.json").read_bytes()
    assert text.encode() == golden


# Written by the solver that still copied the working row at every
# reduction step, so they hold the in-place elimination to the same bytes:
#   PYTHONPATH=src python3 -m twistkit.cli solve-twist --order 4 \
#       --candidate-out tests/data/candidate-order4.json
#   PYTHONPATH=src python3 -m twistkit.cli solve-twist --order 5 \
#       --out-dir OUT --candidate-out tests/data/candidate-order5.json
# The sha256 of each OUT/twist-order-k.json (3 MB at order 4, 12 MB at
# order 5, so only the digests are committed):
GOLDEN_SOLUTION_SHA256 = {
    1: "0705c3446c04513f894a868b2c9d225c6ab482ad82dd6c8c5cbace4f365763f8",
    2: "630fe4e89ad0a94d1c888a2a268544a75a0f9a4a19aec18e1b04cc8cf3818efb",
    3: "287bf33dfa29081da75d77f25531332e6249b1185a71b3e57af18bc91707c1fb",
    4: "cb02cb2ef8b00f908c303201791e95620efc57b003b764bba7e372d706963d7d",
    5: "ee450d5fe4be9d1dbfa4312a530ef0aec29392886bebce5bf3278b0c52ec529d",
}


@pytest.mark.parametrize("order", [4, 5, 6])
def test_golden_candidate_passes_verify(capsys, order):
    path = GOLDEN_DIR / f"candidate-order{order}.json"
    code = main(["verify", str(path), "--order", str(order), "--checks", "all",
                 "--expect-paper-behavior"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rmatrix[quasitriangular]: pass" in out


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_committed_candidates_first_fail_unitarity_and_cocycle_at_order_2(
        order):
    # the paper's two negative results, as the README states them for
    # every committed candidate
    cand = TwistCandidate.from_json(json.loads(
        (GOLDEN_DIR / f"candidate-order{order}.json").read_text()))
    assert unitarity_defect(cand).first_nonzero() == 2
    assert cocycle_defect(cand).first_nonzero() == 2


def golden_order3() -> TwistCandidate:
    return TwistCandidate.from_json(
        json.loads((GOLDEN_DIR / "candidate-order3.json").read_text()))


@pytest.fixture(scope="module")
def order4_from_golden_order3():
    low = golden_order3()
    return low, solve_order(4, low)


def test_order4_resolves_from_golden_order3(order4_from_golden_order3):
    # solve then symmetrize, as build_candidate chains them, from the
    # committed order-3 candidate
    low, sol = order4_from_golden_order3
    data = json_text(sol.to_json()).encode()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SOLUTION_SHA256[4]
    cand, _ = symmetrize_order(TwistCandidate.from_coefficients(
        list(low.series.coeffs) + [sol.particular]), 4)
    golden = (GOLDEN_DIR / "candidate-order4.json").read_bytes()
    assert json_text(cand.to_json()).encode() == golden


@pytest.mark.skipif(os.environ.get("TWISTKIT_SLOW_TESTS") != "1",
                    reason="re-solves orders 4 and 5 (about 5 s); "
                           "set TWISTKIT_SLOW_TESTS=1")
def test_orders_4_and_5_resolve_to_golden_bytes(capsys, tmp_path):
    cand4 = tmp_path / "candidate-order4.json"
    assert main(["solve-twist", "--order", "4",
                 "--candidate-out", str(cand4)]) == 0
    assert cand4.read_bytes() == (GOLDEN_DIR / cand4.name).read_bytes()
    cand5 = tmp_path / "candidate-order5.json"
    assert main(["solve-twist", "--order", "5", "--out-dir", str(tmp_path),
                 "--candidate-out", str(cand5)]) == 0
    capsys.readouterr()
    assert cand5.read_bytes() == (GOLDEN_DIR / cand5.name).read_bytes()
    for k, digest in GOLDEN_SOLUTION_SHA256.items():
        data = (tmp_path / f"twist-order-{k}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


# candidate-order6.json is solve_order(6) at the default cutoffs from
# candidate-order5.json, then symmetrize_order (its correction is zero),
# written with cli._json_dumps; the order-6 solution file it gives
# (sol.to_json() through cli._json_dumps, 39,792,504 bytes) has this sha256
GOLDEN_ORDER6_SOLUTION_SHA256 = (
    "38b959227b744d145cbd35765f0631013722bdf2c66c892b59dcc4ffd5d9879a")


@pytest.mark.skipif(os.environ.get("TWISTKIT_SLOW_TESTS") != "1",
                    reason="re-solves order 6 (about 5 s); "
                           "set TWISTKIT_SLOW_TESTS=1")
def test_order_6_resolves_to_golden_bytes():
    low = TwistCandidate.from_json(
        json.loads((GOLDEN_DIR / "candidate-order5.json").read_text()))
    sol = solve_order(6, low)
    digest = hashlib.sha256()

    class Sink:
        def write(self, text):
            digest.update(text.encode())
    _json_dumps(sol.to_json(), Sink())
    assert digest.hexdigest() == GOLDEN_ORDER6_SOLUTION_SHA256
    cand, correction = symmetrize_order(TwistCandidate.from_coefficients(
        list(low.series.coeffs) + [sol.particular]), 6)
    assert correction.is_zero()
    golden = (GOLDEN_DIR / "candidate-order6.json").read_bytes()
    assert json_text(cand.to_json()).encode() == golden


def spy_on_solver(monkeypatch):
    statuses = []

    def spy(a, b, ncols):
        result = solve_sparse(a, b, ncols)
        statuses.append(result.status)
        return result

    monkeypatch.setattr(twist, "solve_sparse", spy)
    return statuses


@pytest.mark.parametrize("max_escalations", [0, 2],
                         ids=["solve_order", "escalating"])
def test_invalid_lower_orders_raise_before_any_solve(monkeypatch,
                                                     max_escalations):
    # F1 = r + H (x) 1 breaks the order-1 J+ equation, so the proof that
    # the J+ rows suffice does not apply at order 2: the check raises
    # before any system is assembled, and escalation does not retry
    statuses = spy_on_solver(monkeypatch)
    calls = []
    real_solve_order = twist.solve_order

    def counting_solve_order(*args):
        calls.append(args[0])
        return real_solve_order(*args)
    monkeypatch.setattr(twist, "solve_order", counting_solve_order)
    lower = TwistCandidate.from_coefficients(
        [TensorElement.one(), classical_r() + outer(H, Element.one())])
    with pytest.raises(ValueError, match=r"twist\[J\+\] at order 1"):
        twist.solve_order(2, lower, TwistAnsatz(2), max_escalations)
    assert statuses == []
    assert calls == [2]  # one attempt, no escalation


def solve_from_default_ansatz(k, lower, *rest):
    """solve_order on the ansatz of order k with default cutoffs, built
    at the call, as build_candidate builds it."""
    return solve_order(k, lower, TwistAnsatz(k), *rest)


@pytest.mark.parametrize("solve, args, message", [
    (solve_order, (0, TwistAnsatz(1, 2, 2)), "order k must be >= 1, got 0"),
    (solve_order, (-1,), "order k must be >= 1, got -1"),
    (solve_order, (2, TwistAnsatz(5, 3, 4)),
     "ansatz is for order 5, not order 2"),
    (solve_order, (2, None, -1), "max_escalations must be >= 0, got -1"),
    (solve_from_default_ansatz, (0,), "ansatz order must be >= 1, got 0"),
    (solve_from_default_ansatz, (2, -1),
     "max_escalations must be >= 0, got -1"),
], ids=["k=0", "k<0", "ansatz order", "escalations", "escalation k=0",
        "escalation escalations"])
def test_bad_arguments_raise_before_any_residual(monkeypatch, solve, args,
                                                 message):
    statuses = spy_on_solver(monkeypatch)
    calls = []
    real_series = twist.twist_residual_series

    def counting_series(*a):
        calls.append(a)
        return real_series(*a)
    monkeypatch.setattr(twist, "twist_residual_series", counting_series)
    lower = TwistCandidate.from_coefficients([TensorElement.one(), classical_r()])
    k, *rest = args
    with pytest.raises(ValueError, match=message):
        solve(k, lower, *rest)
    assert statuses == [] and calls == []


def test_inconsistent_J_plus_rows_need_no_fallback(monkeypatch, one_candidate):
    statuses = spy_on_solver(monkeypatch)
    sol = solve_order(1, one_candidate, TwistAnsatz(1, cutoff_l=1, cutoff_d=2))
    assert statuses == ["inconsistent"]
    assert sol.status == "infeasible-at-cutoff"


def test_failed_certificate_raises_without_a_second_solve(monkeypatch,
                                                          one_candidate):
    statuses = spy_on_solver(monkeypatch)
    real_rows = twist._invariant_rows
    # one invariant too few: the system solved for the particular keeps a
    # free column, so its rank falls short of n - kappa
    monkeypatch.setattr(twist, "_invariant_rows", lambda l, d: real_rows(l, d)[:-1])
    uncached_kernel(monkeypatch)
    with pytest.raises(RuntimeError, match="certificate"):
        solve_order(1, one_candidate)
    assert statuses == ["solved"]


def uncached_kernel(monkeypatch):
    """Make twist._kernel build the kernel at every call, from the
    functions it reads at that time, so that a cached kernel hides no
    patch and no patched kernel stays in the cache."""
    monkeypatch.setattr(twist, "_kernel", twist._kernel.__wrapped__)


# ---------------------------------------------------------------------------
# the certificate

GENERATORS = {"J0": H, "J+": E, "J-": F}

small_monomials = st.tuples(*[st.integers(0, 2)] * 3)
small_tensors = st.dictionaries(
    st.tuples(small_monomials, small_monomials),
    st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=4)


@settings(max_examples=60, deadline=None)
@given(terms=small_tensors, scale=st.integers(1, 5))
def test_leg_wise_commutator_is_the_product_commutator(terms, scale):
    f = TensorElement(terms)
    xs, den = _integral(f.terms)
    for g in GENERATORS.values():
        (mono,) = g.terms
        d = coproduct(g)
        acc: dict = {}
        candidate._delta_bracket_into(acc, xs, mono, scale)
        assert TensorElement._raw(_rational(acc, den)) == (f * d - d * f) * scale


@pytest.mark.parametrize("bumped", [None, *GENERATORS])
def test_certificate_checks_each_generator(bumped):
    # no weight-zero element commutes with two of Delta(H), Delta(E) and
    # Delta(F) but not with the third, so each generator's check is tested
    # through its seed: a seed of -2 [x, Delta(g)] at scale 2 cancels for
    # every g, and one unit more in the seed of one generator is found
    f = outer(E, H) * Fraction(1, 2) + outer(F, F)
    xs, den = _integral(f.terms)
    unit = (Element.UNIT, Element.UNIT)

    def seed(g):
        d = coproduct(GENERATORS[g])
        minus = (d * f - f * d) * 2 * den
        acc = {key: int(c) for key, c in minus.terms.items()}
        assert acc
        if g == bumped:
            acc[unit] = acc.get(unit, 0) + 1
        return acc, 2
    assert candidate._brackets_vanish(xs, seed) == (bumped is None)


@pytest.mark.parametrize("n", range(1, 6))
def test_order_zero_images_are_the_classical_generators(n):
    # rho_k(low + h^k P) = rho_k(low) + [P, Delta(g)] rests on these
    images = generator_images(n)
    for name, g in GENERATORS.items():
        assert images[name].coeffs[0] == g
        assert delta_q_image(name, n).coeffs[0] == coproduct(g)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("perturbed", [False, True])
def test_particular_enters_the_residual_as_one_commutator(order3_build, k,
                                                         perturbed):
    cand, sols = order3_build
    low = cand.at_order(k - 1).at_order(k)
    p = sols[k - 1].particular
    if perturbed:  # breaks the equation of every generator
        p = (p + outer(E, H * F) * Fraction(2, 3)
             + outer(E - H, Element.one()))
    coeffs = list(low.series.coeffs)
    coeffs[k] = p
    full = twist_residual_series(TwistCandidate.from_coefficients(coeffs), k)
    base = twist_residual_series(low, k)
    for name, g in GENERATORS.items():
        d = coproduct(g)
        assert full[name].coeffs[k] == base[name].coeffs[k] + (p * d - d * p)
        assert full[name].coeffs[k].is_zero() != perturbed


def corrupt_cartan_power(monkeypatch, corruption):
    """Add corruption to P in every invariant the kernel is built from."""
    real_power = twist._cartan_power

    def corrupted_power(c):
        terms = dict(real_power(c))
        if c == 1:
            for key, v in _rational(*twist._casimir_coords(
                    *_integral(corruption.terms))).items():
                terms[key] = terms.get(key, 0) + int(v)
        return tuple(terms.items())
    monkeypatch.setattr(twist, "_cartan_power", corrupted_power)
    uncached_kernel(monkeypatch)


# E (x) F has weight zero and breaks the J+ and J- equations; Delta(E)
# commutes with Delta(E), so the J+ rows cannot see it, and breaks the J0
# and J- equations.  The homogeneous half reads the invariants
# I1^a I2^b P^c, not the elements: added to P, E (x) F lies inside the
# ansatz but outside the kernel, and Delta(E) outside the ansatz
@pytest.mark.parametrize("corruption", [outer(E, F), coproduct(E)],
                         ids=["E(x)F", "Delta(E)"])
@pytest.mark.parametrize("part", ["particular", "homogeneous"])
def test_corrupted_solution_fails_the_certificate(monkeypatch, one_candidate,
                                                  part, corruption):
    if part == "particular":
        real_solve = twist._solve

        def corrupted(*args):
            sol = real_solve(*args)
            return sol._replace(particular=sol.particular + corruption)
        monkeypatch.setattr(twist, "_solve", corrupted)
    else:
        corrupt_cartan_power(monkeypatch, corruption)
    with pytest.raises(RuntimeError, match="certificate"):
        solve_order(1, one_candidate)


def test_invariant_outside_the_kernel_fails_at_an_infeasible_point(
        monkeypatch):
    # an inconsistent reduced system proves the full one inconsistent only
    # if the dropped columns' vectors lie in the kernel, so A V = 0 is
    # checked before the solve, whatever its verdict
    lower = golden_order3().at_order(2)
    assert not solve_order(3, lower, TwistAnsatz(3, 2, 2)).solved
    statuses = spy_on_solver(monkeypatch)
    corrupt_cartan_power(monkeypatch, outer(E, F))
    with pytest.raises(RuntimeError, match="certificate"):
        solve_order(3, lower, TwistAnsatz(3, 2, 2))
    assert statuses == []


@pytest.mark.parametrize("defect", ["corrupt", "drop", "extra"])
def test_wrong_nullspace_fails_the_certificate(monkeypatch, defect):
    # the kernel is read off the invariant rows V as they are: a unit more
    # at a column that is not free leaves the kernel (A V != 0), a copy of
    # a row makes V rank-deficient, both before any solve, and one row too
    # few leaves the solved system a free column
    real_rows = twist._invariant_rows
    ansatz = TwistAnsatz(2)
    kept = ansatz.columns[next(
        c for c in range(len(ansatz))
        if c not in twist._kernel(*twist.default_cutoffs(2)))]

    def wrong(l, d):
        rows = [dict(row) for row in real_rows(l, d)]
        if defect == "corrupt":
            rows[-1][kept] = rows[-1].get(kept, 0) + 1
        elif defect == "drop":
            rows.pop()
        else:
            rows.append(rows[0])
        return tuple(rows)
    monkeypatch.setattr(twist, "_invariant_rows", wrong)
    uncached_kernel(monkeypatch)
    statuses = spy_on_solver(monkeypatch)
    with pytest.raises(RuntimeError, match="certificate"):
        solve_order(2, reference_candidate(1))
    assert statuses == (["solved"] if defect == "drop" else [])


def kernel_by_invariants(k, cutoff_l, cutoff_d):
    """(ansatz, [(a, b, c, the invariant's row)]) in the certificate's
    order, each row {column index: int} over the ansatz."""
    ans = TwistAnsatz(k, cutoff_l, cutoff_d)
    column = {pair: i for i, pair in enumerate(ans.columns)}
    rows = [{column[pair]: v for pair, v in row.items()}
            for row in twist._invariant_rows(cutoff_l, cutoff_d)]
    exps = [(a, b, c) for c in range(min(cutoff_l - 1, cutoff_d // 2) + 1)
            for a in range(cutoff_d - 2 * c + 1)
            for b in range(cutoff_d - 2 * c - a + 1)]
    assert len(rows) == len(exps) == kernel_dimension(cutoff_l, cutoff_d)
    return ans, list(zip(exps, rows))


# the feasible scan-o3 points and the order-3 default
@pytest.mark.parametrize("k, cutoff_l, cutoff_d", [
    (1, 2, 1), (1, 2, 2), (2, 2, 4), (2, 3, 3), (2, 3, 4), (3, 4, 6)])
def test_each_invariant_passes_the_kernel_check(k, cutoff_l, cutoff_d):
    # the certificate's premise, checked by PBW commutators
    ans, rows = kernel_by_invariants(k, cutoff_l, cutoff_d)
    for _, row in rows:
        assert kernel_check(ans.instantiate(row, 1))


@pytest.mark.parametrize("k, cutoff_l, cutoff_d", [(2, 2, 4), (2, 3, 3)])
def test_invariant_rows_are_the_products(k, cutoff_l, cutoff_d):
    # each row is a multiple of I1^a I2^b P^c, multiplied as TensorElements
    one, I, P = Element.one(), casimir(), cartan_killing()
    ans, rows = kernel_by_invariants(k, cutoff_l, cutoff_d)
    for (a, b, c), row in rows:
        got = ans.instantiate(row, 1)
        want = outer(I ** a, one) * outer(one, I ** b) * P ** c
        key = next(iter(got.terms))
        assert got * (want.terms[key] / got.terms[key]) == want


@pytest.mark.parametrize("c", range(8))
def test_cartan_powers_have_the_terms_the_proofs_use(c):
    # the one term with first-leg key n = c (the rank of V), and a + b <= c
    # on each leg, with H^c (x) H^c at C(2c, c) / 2^c times that term (the
    # completeness sketch)
    terms = dict(twist._cartan_power(c))
    top = ((0, 0, c), (0, 0, -c))
    assert [key for key in terms if key[0][2] == c] == [top]
    assert all(a + b <= c for key in terms for a, b, _ in key)
    assert (Fraction(terms[(c, 0, 0), (c, 0, 0)], terms[top])
            == Fraction(comb(2 * c, c), 2 ** c))


@pytest.mark.parametrize("k, cutoff_l, cutoff_d", [(1, 3, 2), (2, 4, 4)])
def test_kernel_at_cutoffs_with_more_powers_than_degree(k, cutoff_l, cutoff_d):
    # L - 1 > D / 2: the powers c stop at D / 2, not at L - 1
    assert cutoff_l - 1 > cutoff_d // 2
    sol = solve_order(k, golden_order3().at_order(k - 1),
                      TwistAnsatz(k, cutoff_l, cutoff_d))
    assert sol.solved
    assert len(sol.homogeneous) == kernel_dimension(cutoff_l, cutoff_d)
    assert all(kernel_check(t) for t in sol.homogeneous)


def count_instantiations(monkeypatch) -> list:
    """The (ints, den) of every TwistAnsatz.instantiate call from now on."""
    calls = []
    real = TwistAnsatz.instantiate

    def spy(self, ints, den):
        calls.append((ints, den))
        return real(self, ints, den)
    monkeypatch.setattr(TwistAnsatz, "instantiate", spy)
    return calls


def test_build_candidate_builds_no_kernel_element(monkeypatch, capsys):
    calls = count_instantiations(monkeypatch)
    _, sols = build_candidate(3)
    assert [len(s.homogeneous) for s in sols] == [7, 22, 50]
    assert len(calls) == 3             # the three particulars
    assert main(["solve-twist", "--order", "3"]) == 0
    assert "kernel dim=50" in capsys.readouterr().out
    assert len(calls) == 6
    # the basis keeps no element: each read builds the elements it reads
    basis = sols[1].homogeneous
    first = basis[0]
    assert calls[6:] == [basis.vectors[0]]
    assert basis[0] == first
    assert calls[6:] == [basis.vectors[0]] * 2
    assert all(kernel_check(t) for t in basis)
    assert calls[8:] == list(basis.vectors)
    assert len(calls) == 8 + 22


# ---------------------------------------------------------------------------
# the kernel dimension


def kernel_dimension(cutoff_l: int, cutoff_d: int) -> int:
    """#{I1^a I2^b P^c : c <= L-1, a + b + 2c <= D}, P = cartan_killing():
    the closed-form kernel count of ROADMAP.md's open item on the kernel.
    These tests check it at their points; it is not proved."""
    return sum(comb(cutoff_d - 2 * c + 2, 2) for c in range(cutoff_l)
               if 2 * c <= cutoff_d)


# the feasible grid points of the benchmark's scan-o3 workload
@pytest.mark.parametrize("k, cutoff_l, cutoff_d",
                         [(1, 2, 1), (1, 2, 2), (2, 2, 4), (2, 3, 3), (2, 3, 4)])
def test_kernel_dimension_at_scan_points(monkeypatch, k, cutoff_l, cutoff_d):
    results = []

    def spy(a, b, ncols):
        results.append(solve_sparse(a, b, ncols))
        return results[-1]
    monkeypatch.setattr(twist, "solve_sparse", spy)
    sol = solve_order(k, golden_order3().at_order(k - 1),
                      TwistAnsatz(k, cutoff_l, cutoff_d))
    # the system solved for the particular leaves out one column per
    # kernel vector, and has full column rank
    (result,) = results
    assert len(sol.homogeneous) == kernel_dimension(cutoff_l, cutoff_d)
    assert result.ncols == sol.rank == sol.unknown_count - len(sol.homogeneous)


# every cutoff pair (L, D) of the benchmark's scan-o3 grid, (3, 2) and
# (4, 4) with L - 1 > D/2 among them, and the default cutoffs of orders 1-4
@pytest.mark.parametrize("cutoff_l, cutoff_d", sorted(
    {(l, d) for l in (2, 3, 4) for d in (2, 3, 4)}
    | {(3, 5), (2, 6), (2, 1)}
    | {twist.default_cutoffs(k) for k in (1, 2, 3, 4)}))
def test_kernel_is_the_nullspace_of_the_full_system(cutoff_l, cutoff_d):
    # the reference is elimination on every J+ row over every unknown, with
    # a zero right-hand side: its free columns and nullspace vectors
    columns = twist._ansatz_columns(cutoff_l, cutoff_d)
    rows = list(twist._j_plus_rows(enumerate(columns)).values())
    lin = solve_sparse(rows, [0] * len(rows), len(columns))
    kernel = twist._kernel(cutoff_l, cutoff_d)
    assert list(kernel) == lin.free_cols
    assert [{c: Fraction(v, den) for c, v in ints.items()}
            for ints, den in kernel.values()] == [
        {c: v for c, v in enumerate(vec) if v} for vec in lin.nullspace]
    for f, (ints, den) in kernel.items():
        # 1 at its free column, and den the least common denominator
        assert ints[f] == den
        assert _integral(_rational(ints, den)) == (ints, den)
    assert len(kernel) == kernel_dimension(cutoff_l, cutoff_d)


def test_kernel_dimension_at_default_cutoffs(order3_build,
                                             order4_from_golden_order3):
    _, sols = order3_build
    sols = sols + [order4_from_golden_order3[1]]
    assert [len(s.homogeneous) for s in sols] == [
        kernel_dimension(*twist.default_cutoffs(k)) for k in (1, 2, 3, 4)]


# ---------------------------------------------------------------------------
# the residual series and the right-hand side in integers

coprime_fractions = st.builds(Fraction, st.integers(-9, 9),
                              st.sampled_from((1, 2, 3, 5, 7, 11)))


@st.composite
def candidates(draw):
    """A candidate of order 0..5: an invertible scalar F0 and small random
    higher coefficients with coprime denominators."""
    coeffs = [TensorElement.one() * draw(coprime_fractions.filter(bool))]
    for _ in range(draw(st.integers(0, 5))):
        coeffs.append(TensorElement(draw(st.dictionaries(
            st.tuples(small_monomials, small_monomials), coprime_fractions,
            max_size=4))))
    return TwistCandidate.from_coefficients(coeffs)


@settings(max_examples=40, deadline=None)
@given(cand=candidates(), order=st.integers(0, 5))
def test_residual_series_is_the_two_product_difference(cand, order):
    Fs = cand.at_order(order).series
    got = twist_residual_series(cand, order)
    images = generator_images(order)
    assert list(got) == list(images)
    for g, image in images.items():
        want = Fs * image.map(coproduct) - delta_q_image(g, order) * Fs
        assert got[g] == want
        assert all(c.legs == 2 and all(type(v) is Fraction and v
                                       for v in c.terms.values())
                   for c in got[g].coeffs)


@pytest.mark.parametrize("which", ["reference", "golden-order3"])
def test_residuals_match_product_then_subtract(which):
    cand = reference_candidate(2) if which == "reference" else golden_order3()
    s, order, one = cand.series, cand.order, Element.one()
    assert quasitriangular_residual(cand, order) == (
        quantum_R_image(order) * s - s.map(flip) * classical_R(order))
    assert cocycle_defect(cand) == (
        s.map(lambda c: outer(c, one)) * s.map(coproduct)
        - s.map(lambda c: outer(one, c)) * s.map(lambda c: coproduct(c, 2)))


def casimir_reference(t: TensorElement) -> dict:
    """t in Casimir coordinates, leg by leg, one Fraction product at a
    time."""
    def coords(mono):
        return to_casimir_basis(Element({mono: 1})).items()
    acc: dict = {}
    for (m1, m2), c in t.terms.items():
        for k1, c1 in coords(m1):
            for k2, c2 in coords(m2):
                acc[k1, k2] = acc.get((k1, k2), 0) + c * c1 * c2
    return {key: v for key, v in acc.items() if v}


def test_integer_casimir_coords_match_fraction_reference(rng):
    monos = [(e, f, d) for e in range(5) for f in range(5) for d in range(3)]
    dens = (1, 2, 3, 5, 7)
    total = TensorElement.zero()
    for m in monos:
        t = TensorElement({(m, rng.choice(monos)): random_fraction(rng, dens=dens),
                           (rng.choice(monos), m): random_fraction(rng, dens=dens)})
        assert (_rational(*twist._casimir_coords(*_integral(t.terms)))
                == casimir_reference(t))
        total = total + t
    assert (_rational(*twist._casimir_coords(*_integral(total.terms)))
            == casimir_reference(total))
    assert twist._casimir_coords(*_integral(TensorElement.zero().terms)) == ({}, 1)


# the grid of the benchmark's scan-o3 workload
SCAN_GRID = ([(3, L, D) for L in (2, 3, 4) for D in (2, 3, 4)]
             + [(3, 3, 5), (3, 2, 6), (1, 2, 1), (1, 2, 2),
                (2, 2, 4), (2, 3, 3), (2, 3, 4)])


def test_residual_operands_are_cached_by_order_alone():
    candidate._residual_operands.cache_clear()
    golden = golden_order3()
    for k, cutoff_l, cutoff_d in SCAN_GRID:
        solve_order(k, golden.at_order(k - 1), TwistAnsatz(k, cutoff_l, cutoff_d))
    # other candidates at the same orders add no entry
    for k in (1, 2, 3):
        twist_residual_series(reference_candidate(2), k)
    # the lower-order checks read orders 0..2 and the right-hand sides 1..3
    info = candidate._residual_operands.cache_info()
    assert (info.currsize, info.misses) == (4, 4)


# ---------------------------------------------------------------------------
# the J+ rows in first-write order, the escalation, kernel_check's input


@pytest.mark.parametrize("k, cutoff_l, cutoff_d", SCAN_GRID + [(3, 4, 6)])
def test_first_write_row_order_gives_the_sorted_solution(monkeypatch, k,
                                                          cutoff_l, cutoff_d):
    lower = golden_order3().at_order(k - 1)
    first_write = solve_order(k, lower, TwistAnsatz(k, cutoff_l, cutoff_d))
    orders = []
    real_order = twist._row_order

    def sorted_order(row_of, b):
        keys = sorted(row_of.keys() | b.keys())
        orders.append((real_order(row_of, b), keys))
        return keys
    monkeypatch.setattr(twist, "_row_order", sorted_order)
    assert solve_order(k, lower, TwistAnsatz(k, cutoff_l, cutoff_d)) == first_write
    ((unsorted, keys),) = orders
    assert sorted(unsorted) == keys and unsorted != keys


def spy_on_order_k_sums(monkeypatch, k):
    """The generators whose residual coefficient at order k is built, in
    call order; the lower-order check builds only orders below k."""
    built = []
    real = twist._residual_coefficient

    def spy(fs, ring_into, g, n):
        if n == k:
            built.append(g)
        return real(fs, ring_into, g, n)
    monkeypatch.setattr(twist, "_residual_coefficient", spy)
    return built


def test_escalation_builds_the_residual_series_once(monkeypatch):
    calls = []
    real_series = twist.twist_residual_series

    def counting_series(*args):
        calls.append(args[1])
        return real_series(*args)
    monkeypatch.setattr(twist, "twist_residual_series", counting_series)
    built = spy_on_order_k_sums(monkeypatch, 3)
    statuses = spy_on_solver(monkeypatch)
    lower = golden_order3().at_order(2)
    sol = solve_order(3, lower, TwistAnsatz(3, 2, 2), max_escalations=2)
    assert statuses == ["inconsistent", "inconsistent", "solved"]
    assert calls == [2]  # the lower-order check, at order k - 1
    # one J+ right-hand side for the three attempts, J0 and J- for the
    # solved one
    assert built == ["J+", "J0", "J-"]
    assert (sol.cutoff_l, sol.cutoff_d) == (4, 6)
    assert sol == solve_order(3, lower, TwistAnsatz(3, 4, 6))


def test_infeasible_attempt_builds_only_j_plus_at_order_k(monkeypatch):
    built = spy_on_order_k_sums(monkeypatch, 3)
    statuses = spy_on_solver(monkeypatch)
    sol = solve_order(3, golden_order3().at_order(2), TwistAnsatz(3, 2, 2))
    assert statuses == ["inconsistent"] and not sol.solved
    assert built == ["J+"]


def test_solved_attempt_builds_j_plus_and_j_minus_at_order_k_once(monkeypatch):
    built = spy_on_order_k_sums(monkeypatch, 3)
    sol = solve_order(3, golden_order3().at_order(2), TwistAnsatz(3, 4, 6))
    assert sol.solved
    # the certificate reads J0 and J- in generator order, J+ precomputed
    assert built == ["J+", "J0", "J-"]


def test_lazily_built_j_minus_is_still_certified(monkeypatch):
    # the J- residual at order k is built only for a solved attempt, and
    # the certificate still reads it: a non-zero one fails the solve
    real = twist._residual_coefficient

    def patched(fs, ring_into, g, n):
        ints, den = real(fs, ring_into, g, n)
        if g == "J-" and n == 3:
            key = (F_MONO, H_MONO)
            ints = {**ints, key: ints.get(key, 0) + 1}
        return ints, den
    monkeypatch.setattr(twist, "_residual_coefficient", patched)
    statuses = spy_on_solver(monkeypatch)
    with pytest.raises(RuntimeError, match="order-3 solution fails its exact "
                                           "certificate"):
        solve_order(3, golden_order3().at_order(2), TwistAnsatz(3, 4, 6))
    assert statuses == ["solved"]


def test_weight_nonzero_lower_term_fails_j0_before_any_solve(monkeypatch):
    # E (x) H has weight 1, so [F1, Delta(H)] != 0
    statuses = spy_on_solver(monkeypatch)
    lower = TwistCandidate.from_coefficients(
        [TensorElement.one(), classical_r() + outer(E, H)])
    with pytest.raises(ValueError,
                       match=r"fails twist\[J0\] at order 1$"):
        solve_order(2, lower)
    assert statuses == []


@pytest.mark.parametrize("f, legs", [
    (TensorElement({(E_MONO, F_MONO, H_MONO): 1}), 3),
    (TensorElement._raw({}, 3), 3),
    (E + H, 1)], ids=["3-leg", "3-leg zero", "Element"])
def test_kernel_check_rejects_other_leg_counts(f, legs):
    with pytest.raises(ValueError, match=f"2-leg tensor element, got {legs} legs$"):
        kernel_check(f)


@settings(max_examples=40, deadline=None)
@given(cand=candidates(), order=st.integers(1, 5),
       key=st.tuples(small_monomials, small_monomials).filter(weight),
       c=coprime_fractions.filter(bool))
def test_j0_residual_in_closed_form_is_the_cauchy_sum(cand, order, key, c):
    # F_order gains a term of non-zero weight (which may cancel one of the
    # candidate's), so [F_order, Delta(H)] is seldom 0
    coeffs = list(cand.at_order(order).series.coeffs)
    coeffs[order] = coeffs[order] + TensorElement({key: c})
    cand = TwistCandidate.from_coefficients(coeffs)
    fs = _ints(coeffs)
    cs = _ints(m_J0(order).map(coproduct).coeffs)
    ds = _ints(delta_q_image("J0", order).coeffs)
    want = _cauchy(((fs, cs, 1), (ds, fs, -1)),
                   _ring_into(coeffs[0]), TensorElement._raw)
    got = twist_residual_series(cand, order)["J0"]
    assert got.coeffs == want
    # the closed form: [m, H] = -wt(m) m for each leg's PBW monomial m
    assert got.coeffs == tuple(
        TensorElement({k: -weight(k) * v for k, v in f.terms.items()})
        for f in coeffs)


def test_residual_operands_hold_every_generator():
    # J0's operands H and Delta(H) vanish above order 0, so its Cauchy sum
    # at order n is the one pair [F_n, Delta(H)]
    operands = candidate._residual_operands(3)
    assert list(operands) == ["J0", "J+", "J-"]
    cs, ds = operands["J0"]
    assert cs[1:] == ds[1:] == (None,) * 3


@pytest.mark.parametrize("d", range(13))
def test_ansatz_monomials_are_the_sorted_product(d):
    want = sorted((m for m in itertools.product(range(d + 1), repeat=4)
                   if sum(m) <= d), key=lambda m: (sum(m), m))
    assert twist._monomials(d) == want


def test_labels_match_the_monomial_formula():
    names = ("H1", "H2", "I1", "I2")
    monos = set()
    for column in TwistAnsatz(5).columns:
        (a1, b1, n), (a2, b2, _) = column
        mono = (a1, a2, b1, b2)
        monos.add(mono)
        ms = "*".join(name if e == 1 else f"{name}^{e}"
                      for name, e in zip(names, mono) if e)
        side = "a" if n >= 0 else "b"
        assert twist._column_label(column) == f"{side}{abs(n)}[{ms or '1'}]"
    assert len(monos) == comb(10 + 4, 4)


# ---------------------------------------------------------------------------
# the set-up of the order-k solve: leg-key columns, the order-0 pair as a
# commutator, the integer right-hand side


def test_ansatz_columns_are_the_legs_of_the_unknowns_in_order():
    # the reference builds the unknowns (l, side, mono) as the class
    # docstring orders them, and their legs as _ansatz_columns documents
    for cutoff_l in range(1, 7):
        for cutoff_d in range(11):
            ans = TwistAnsatz(1, cutoff_l, cutoff_d)
            want = [(l, side, m)
                    for l in range(cutoff_l - 1, -1, -1)
                    for side in (("a",) if l == 0 else ("a", "b"))
                    for m in twist._monomials(cutoff_d)]
            legs = []
            for l, side, (a1, a2, b1, b2) in want:
                n = l if side == "a" else -l
                legs.append(((a1, b1, n), (a2, b2, -n)))
            assert ans.columns == tuple(legs)
            assert len(ans) == len(want)
            assert len(ans) == twist._unknown_count(cutoff_l, cutoff_d)
            # the labels the pivot log reads, against the formula of
            # test_labels_match_the_monomial_formula
            assert ([twist._column_label(c) for c in ans.columns]
                    == [f"{side}{l}[{twist._mono_label(mono)}]"
                        for l, side, mono in want])


nonintegral_fractions = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from((2, 3, 5, 7))).filter(
        lambda q: q.denominator > 1)
weight_zero_keys = st.tuples(small_monomials, small_monomials).filter(
    lambda key: not weight(key))


@st.composite
def weight_zero_candidates(draw):
    """A candidate of order 1..5: an invertible scalar F0 and, at every
    n >= 1, a weight-zero F_n that is not a scalar, with non-integral
    coefficients."""
    coeffs = [TensorElement.one() * draw(coprime_fractions.filter(bool))]
    unit = (Element.UNIT, Element.UNIT)
    for _ in range(draw(st.integers(1, 5))):
        coeffs.append(TensorElement(draw(st.dictionaries(
            weight_zero_keys, nonintegral_fractions, min_size=1,
            max_size=4).filter(lambda t: set(t) != {unit}))))
    return TwistCandidate.from_coefficients(coeffs)


@settings(max_examples=40, deadline=None)
@given(cand=weight_zero_candidates())
def test_residual_series_takes_the_order_zero_pair_as_a_commutator(cand):
    order = cand.order
    Fs = cand.series
    got = twist_residual_series(cand, order)
    for g in ("J+", "J-"):
        C = IMAGES[g](order).map(coproduct)
        D = delta_q_image(g, order)
        assert got[g] == Fs * C - D * Fs


@pytest.mark.parametrize("k, cutoff_l, cutoff_d",
                         [(2, 3, 4), (3, 4, 6), (3, 2, 2), (4, 5, 8)])
def test_integer_rows_give_the_fraction_solution(monkeypatch, k, cutoff_l,
                                                 cutoff_d):
    # the Fraction form is the system before its rows were scaled: the
    # unscaled J+ rows and the right-hand side -2c/den
    seen = []

    def spy(a, b, ncols):
        before = copy.deepcopy((a, b))
        result = solve_sparse(a, b, ncols)
        seen.append((before, a, b, result))
        return result
    monkeypatch.setattr(twist, "solve_sparse", spy)
    lower = golden_order3().at_order(k - 1)
    ans = TwistAnsatz(k, cutoff_l, cutoff_d)
    solve_order(k, lower, ans)
    ((before, rows, rhs, got),) = seen
    assert (rows, rhs) == before
    assert all(type(v) is int for v in rhs)
    assert all(type(c) is int for row in rows for c in row.values())

    const = twist_residual_series(lower.at_order(k), k)["J+"].coeffs[k]
    kernel = twist._kernel(cutoff_l, cutoff_d)
    kept = [c for c in range(len(ans)) if c not in kernel]
    row_of = twist._j_plus_rows(enumerate(ans.columns[c] for c in kept))
    ints, den = twist._casimir_coords(*_integral(const.terms))
    b = _rational({key: -2 * c for key, c in ints.items()}, den)
    keys = twist._row_order(row_of, b)
    frac_rows = [row_of.get(key, {}) for key in keys]
    frac_rhs = [b.get(key, Fraction(0)) for key in keys]
    assert len(frac_rows) == len(rows)
    assert any(r != s for r, s in zip(frac_rows, rows))   # some are scaled
    assert solve_sparse(frac_rows, frac_rhs, len(kept)) == got
