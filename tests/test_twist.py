import hashlib
import json
import os
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistkit.twist as twist
from twistkit.cli import main
from twistkit.deform import delta_q_image, generator_images
from twistkit.hseries import HSeries
from twistkit.lincomb import _integral, _rational
from twistkit.linsolve import solve_sparse
from twistkit.pbw import E, F, H, Element, casimir, to_casimir_basis
from twistkit.rmatrix import (classical_R, quantum_R_image,
                              quasitriangular_residual)
from twistkit.tensor import (TensorElement, cartan_killing, classical_r,
                             coproduct, flip, is_weight_zero, outer)
from twistkit.twist import (TwistAnsatz, TwistCandidate, build_candidate,
                            cocycle_defect, kernel_check, normalization_check,
                            reference_candidate, second_order_term,
                            solve_order, solve_with_escalation,
                            symmetrize_order, twist_residual_series,
                            twist_residuals, unitarity_defect)

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
    sol = solve_with_escalation(1, one_candidate, cutoff_l=1, cutoff_d=0)
    assert sol.solved
    assert sol.particular == classical_r()
    stuck = solve_with_escalation(1, one_candidate, cutoff_l=1, cutoff_d=0,
                                  max_escalations=0)
    assert stuck.status == "infeasible-at-cutoff"


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
    inst = ans.instantiate([Fraction(1)] * len(ans))
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


def casimir_coords(x: Element) -> dict:
    """x over the basis {H^a I^b E^n} u {H^a I^b F^n}, keyed like the
    solver's legs: (a, b, n), with n < 0 for F^-n."""
    sign = {"pure": 0, "E": 1, "F": -1}
    return {(t.a, t.b, sign[t.side] * t.c): c for t, c in to_casimir_basis(x)}


def test_casimir_bracket_is_commutator_with_E():
    # the closed form against the PBW bracket x*E - E*x, doubled
    legs = {leg for u in TwistAnsatz(4).unknowns for leg in u.legs()}
    for leg in legs:
        x = twist._leg_element(*leg)
        assert casimir_coords(x) == {leg: 1}
        assert Element(dict(twist._leg_ints(*leg))) == x
        terms = twist._casimir_bracket(*leg)
        assert dict(terms) == {key: 2 * c for key, c
                               in casimir_coords(x * E - E * x).items()}
        assert all(type(c) is int and c for _, c in terms)


def test_non_integral_leg_raises(monkeypatch):
    # __wrapped__ bypasses the cache, which keeps the real legs
    monkeypatch.setattr(twist, "_leg_element", lambda *leg: H * Fraction(1, 2))
    with pytest.raises(ValueError, match="leg coefficient 1/2 is not an integer"):
        twist._leg_ints.__wrapped__(1, 0, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ansatz_payloads_are_integral(k):
    ans = TwistAnsatz(k)
    for u in ans.unknowns:
        assert all(c.denominator == 1 for c in ans.payload(u).terms.values())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ansatz_commutes_with_coproduct_of_H(k):
    # why solve_order assembles no J0 rows: every payload has weight zero,
    # so it commutes with Delta(H)
    ans = TwistAnsatz(k)
    delta = coproduct(H)
    for u in ans.unknowns:
        p = ans.payload(u)
        assert (p * delta - delta * p).is_zero()


@pytest.mark.parametrize("k, sample", [(1, None), (2, None), (3, 60)])
def test_assembled_columns_are_brackets_with_coproduct_of_E(rng, k, sample):
    # the reference is the TensorElement product, not the per-leg brackets,
    # taken to Casimir coordinates leg by leg and doubled
    ans = TwistAnsatz(k)
    columns = {}
    for key, row in twist._j_plus_rows(ans).items():
        assert row
        for ci, c in row.items():
            assert type(c) is int and c
            columns.setdefault(ci, {})[key] = c
    indices = range(len(ans))
    if sample is not None:
        indices = rng.sample(indices, sample)
    delta = coproduct(E)
    for ci in indices:
        p = ans.payload(ans.unknowns[ci])
        want = _rational(*twist._casimir_coords(p * delta - delta * p))
        assert columns.get(ci, {}) == {key: 2 * c for key, c in want.items()}


def test_instantiate_is_the_sum_of_payloads(rng):
    ans = TwistAnsatz(2)
    values = [rng.choice((0, 0, 1, -2, Fraction(3, 4), Fraction(-5, 6)))
              for _ in ans.unknowns]
    want = TensorElement.zero()
    for u, v in zip(ans.unknowns, values):
        want = want + ans.payload(u) * v
    got = ans.instantiate(values)
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())
    assert ans.instantiate([0] * len(ans)).is_zero()


@pytest.mark.parametrize("k, rows, cols, nnz, rank",
                         [(1, 54, 45, 78, 38), (2, 480, 350, 1134, 328)])
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
    assert len(result.pivot_cols) == rank
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
        text = json.dumps(s.to_json(), indent=2, sort_keys=True) + "\n"
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


@pytest.mark.parametrize("order", [4, 5])
def test_golden_candidate_passes_verify(capsys, order):
    path = GOLDEN_DIR / f"candidate-order{order}.json"
    code = main(["verify", str(path), "--order", str(order), "--checks", "all",
                 "--expect-paper-behavior"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rmatrix[quasitriangular]: pass" in out


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


def spy_on_solver(monkeypatch):
    statuses = []

    def spy(a, b, ncols):
        result = solve_sparse(a, b, ncols)
        statuses.append(result.status)
        return result

    monkeypatch.setattr(twist, "solve_sparse", spy)
    return statuses


@pytest.mark.parametrize("solve", [solve_order, solve_with_escalation],
                         ids=["solve_order", "solve_with_escalation"])
def test_invalid_lower_orders_raise_before_any_solve(monkeypatch, solve):
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
        solve(2, lower)
    assert statuses == []
    if solve is solve_with_escalation:
        assert calls == [2]  # one attempt, no escalation


def test_inconsistent_J_plus_rows_need_no_fallback(monkeypatch, one_candidate):
    statuses = spy_on_solver(monkeypatch)
    sol = solve_order(1, one_candidate, TwistAnsatz(1, cutoff_l=1, cutoff_d=2))
    assert statuses == ["inconsistent"]
    assert sol.status == "infeasible-at-cutoff"


def test_failed_certificate_raises_without_a_second_solve(monkeypatch,
                                                          one_candidate):
    statuses = spy_on_solver(monkeypatch)
    monkeypatch.setattr(twist, "kernel_check", lambda f: False)
    with pytest.raises(RuntimeError, match="certificate"):
        solve_order(1, one_candidate)
    assert statuses == ["solved"]


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
        twist._delta_bracket_into(acc, xs, mono, scale)
        assert TensorElement._raw(_rational(acc, den)) == (f * d - d * f) * scale


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


# E (x) F has weight zero and breaks the J+ and J- equations; Delta(E)
# commutes with Delta(E), so the J+ rows cannot see it, and breaks the J0
# and J- equations
@pytest.mark.parametrize("corruption", [outer(E, F), coproduct(E)],
                         ids=["E(x)F", "Delta(E)"])
@pytest.mark.parametrize("part", ["particular", "homogeneous"])
def test_corrupted_solution_fails_the_certificate(monkeypatch, one_candidate,
                                                  part, corruption):
    real_solve = twist._solve

    def corrupted(*args):
        sol = real_solve(*args)
        if part == "particular":
            sol = sol._replace(particular=sol.particular + corruption)
        else:
            sol.homogeneous[-1] = sol.homogeneous[-1] + corruption
        return sol
    monkeypatch.setattr(twist, "_solve", corrupted)
    with pytest.raises(RuntimeError, match="certificate"):
        solve_order(1, one_candidate)


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
    # every nullspace vector instantiates to a non-zero element
    assert len(sol.homogeneous) == len(results[0].nullspace)
    assert len(sol.homogeneous) == kernel_dimension(cutoff_l, cutoff_d)


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
    sign = {"pure": 0, "E": 1, "F": -1}

    def coords(mono):
        return [((x.a, x.b, sign[x.side] * x.c), c)
                for x, c in to_casimir_basis(Element({mono: 1}))]
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
        assert _rational(*twist._casimir_coords(t)) == casimir_reference(t)
        total = total + t
    assert _rational(*twist._casimir_coords(total)) == casimir_reference(total)
    assert twist._casimir_coords(TensorElement.zero()) == ({}, 1)


# the grid of the benchmark's scan-o3 workload
SCAN_GRID = ([(3, L, D) for L in (2, 3, 4) for D in (2, 3, 4)]
             + [(3, 3, 5), (3, 2, 6), (1, 2, 1), (1, 2, 2),
                (2, 2, 4), (2, 3, 3), (2, 3, 4)])


def test_residual_operands_are_cached_by_order_alone():
    twist._residual_operands.cache_clear()
    golden = golden_order3()
    for k, cutoff_l, cutoff_d in SCAN_GRID:
        solve_order(k, golden.at_order(k - 1), TwistAnsatz(k, cutoff_l, cutoff_d))
    # other candidates at the same orders add no entry
    for k in (1, 2, 3):
        twist_residual_series(reference_candidate(2), k)
    info = twist._residual_operands.cache_info()
    assert (info.currsize, info.misses) == (3, 3)
