"""Verification and order-by-order solving of the coproduct twist.

A candidate F = F0 + h F1 + h^2 F2 + ... conjugates the classical
coproduct into the image of the q-deformed one; instead of dividing by F,
the residuals are kept in multiplied-through form

    F * Delta(m(g)) - Delta_q~(g) * F        for g in {J0, J+, J-},

which must vanish order by order.  At each order k the residual equation
is linear in F_k: the homogeneous part is the commutator with the three
classical coproducts, the inhomogeneity comes from the lower orders.  The
solver expands that equation over the PBW tensor basis against the
weight-zero ansatz

    F_k = sum_l  a_l(H1,H2,I1,I2) E1^l F2^l + b_l(H1,H2,I1,I2) F1^l E2^l

with polynomial coefficients of bounded degree.  F_k enters only through
commutators with the primitive Delta(g) = g (x) 1 + 1 (x) g, so the system
matrix is integral and only the right-hand side is rational; it is built
straight into integer rows and solved by fraction-free elimination.

Only the J+ rows, [F_k, Delta(E)], are assembled and solved: once the
lower orders are valid, their solutions are exactly those of the whole
system.  Write rho(g) = F Delta(m(g)) - Delta_q~(g) F for the residual.
Since m and Delta_q~ are algebra maps,

    rho(ab) = rho(a) Delta(m(b)) + Delta_q~(a) rho(b).

The J0 residual is [F, Delta(H)], which vanishes for the weight-zero
ansatz, so the J0 rows are empty.  Say rho vanishes below order k and its
h^k coefficient rho_k vanishes on J0 and J+.  Applying rho to
[J+, J-] = [2 J0]_q gives [Delta(E), rho_k(J-)] = 0, and applying it to
[J0, J-] = -J- shows that rho_k(J-) has negative weight.  The adjoint
action of Delta(sl2) on U (x) U is locally finite, so rho_k(J-) is a
highest-weight vector of negative weight in a finite-dimensional module,
hence 0.  Likewise a weight-zero element that commutes with Delta(H) and
Delta(E) spans a trivial module, so it also commutes with Delta(F): the
J+ kernel is the full one, and an inconsistent J+ system proves the
full system inconsistent.

The proof needs valid lower orders.  The residual series whose h^k
coefficient is the right-hand side also holds orders 0..k-1 of all three
residuals, which depend only on F_0..F_{k-1}, so solve_order checks them
first and raises ValueError if one is non-zero.  A solution is still
certified exactly before it is returned: the order-k residuals of all
three generators must vanish on the particular solution, and every
homogeneous element must commute with Delta(H), Delta(E) and Delta(F).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .deform import delta_q_image, generator_images
from .hseries import HSeries
from .linsolve import solve_sparse
from .lincomb import _integral, _rational
from .pbw import E, E_MONO, F, H, Element, casimir, mono_mul
from .report import VerificationReport
from .rmatrix import quasitriangular_residual
from .tensor import (TensorElement, cartan_killing, classical_r,
                     coproduct, counit_leg, flip, outer, tensor_from_json,
                     tensor_to_json)


# ---------------------------------------------------------------------------
# candidates


@dataclass(frozen=True)
class TwistCandidate:
    """A truncated twist series F0 + h F1 + ... + h^N F_N."""

    series: HSeries

    def __post_init__(self):
        for c in self.series.coeffs:
            if not isinstance(c, TensorElement) or c.legs != 2:
                raise ValueError("twist coefficients must be 2-leg tensor elements")

    @classmethod
    def from_coefficients(cls, coeffs) -> "TwistCandidate":
        return cls(HSeries(tuple(coeffs)))

    @property
    def order(self) -> int:
        return self.series.order

    def coefficient(self, k: int) -> TensorElement:
        return self.series.coeffs[k]

    def at_order(self, order: int) -> "TwistCandidate":
        """Deliberately pad with zeros or truncate to the given order."""
        if order == self.order:
            return self
        if order > self.order:
            return TwistCandidate(self.series.pad_to(order))
        return TwistCandidate(self.series.truncate(order))

    def leading_invertible(self) -> bool:
        s = self.series.coeffs[0].as_unit_scalar()
        return s is not None and s != 0

    def to_json(self) -> dict:
        return {"order": self.order,
                "coeffs": [tensor_to_json(c) for c in self.series.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "TwistCandidate":
        coeffs = [tensor_from_json(c) for c in data["coeffs"]]
        if type(data["order"]) is not int or len(coeffs) != data["order"] + 1:
            raise ValueError("candidate order does not match coefficient count")
        cand = cls.from_coefficients(coeffs)
        if not cand.leading_invertible():
            raise ValueError("leading coefficient is not an invertible scalar")
        return cand


def second_order_term() -> TensorElement:
    """The explicit second-order particular solution built from the
    Cartan-Killing element P."""
    I = casimir()
    one = Element.one()
    one2 = TensorElement.one()
    P = cartan_killing()
    half = Fraction(1, 2)
    t = (outer(I, H * H) + outer(H * H, I)) * half
    t = t + (outer(E, H * F) - outer(H * E, F)
             + outer(H * F, E) - outer(F, H * E)) * Fraction(1, 3)
    t = t + outer(H, H) * (one2 - P * 3) * Fraction(1, 6)
    t = t - P * Fraction(11, 24)
    t = t + ((one2 + P) * (one2 + P) - one2 - outer(I, I) * 2) * half
    return t


def reference_candidate(order: int = 2) -> TwistCandidate:
    """The canonical particular twist: F0 = 1, F1 = r (the classical
    r-matrix), F2 the explicit second-order term.  Defined up to order 2."""
    if not 0 <= order <= 2:
        raise ValueError("the reference candidate is defined for orders 0..2")
    coeffs = [TensorElement.one(), classical_r(), second_order_term()]
    return TwistCandidate.from_coefficients(coeffs[: order + 1])


# ---------------------------------------------------------------------------
# residual verification


def twist_residual_series(cand: TwistCandidate, order: int) -> dict:
    """The three residual series F*Delta(m(g)) - Delta_q~(g)*F, keyed by
    generator name."""
    if not cand.leading_invertible():
        raise ValueError("twist candidate has a non-invertible leading term")
    Fs = cand.at_order(order).series
    images = generator_images(order)
    out = {}
    for g, image in images.items():
        lhs = Fs * image.map(coproduct)
        rhs = delta_q_image(g, order) * Fs
        out[g] = lhs - rhs
    return out


def twist_residuals(cand: TwistCandidate, order: int) -> VerificationReport:
    """Pass iff every residual coefficient vanishes up to the given order."""
    return VerificationReport.of({f"twist[{g}]": series for g, series
                                  in twist_residual_series(cand, order).items()})


def kernel_check(f: TensorElement) -> bool:
    """True iff f commutes with Delta(H), Delta(E) and Delta(F)."""
    for d in (coproduct(H), coproduct(E), coproduct(F)):
        if not (f * d - d * f).is_zero():
            return False
    return True


def normalization_check(cand: TwistCandidate) -> VerificationReport:
    """(eps (x) id)(F) = (id (x) eps)(F) = 1, order by order."""
    s = cand.series
    one = HSeries.constant(Element.one(), s.order)
    return VerificationReport.of(
        {f"counit(leg{leg})": s.map(lambda c: counit_leg(c, leg)) - one
         for leg in (1, 2)})


def unitarity_defect(cand: TwistCandidate) -> HSeries:
    """sigma(F) F - 1 at the universal level."""
    s = cand.series
    one = HSeries.constant(TensorElement.one(), s.order)
    return s.map(flip) * s - one


def cocycle_defect(cand: TwistCandidate) -> HSeries:
    """(F (x) 1)(Delta (x) id)(F) - (1 (x) F)(id (x) Delta)(F) as a series
    in the triple tensor power."""
    s = cand.series
    one = Element.one()
    left = s.map(lambda c: outer(c, one)) * s.map(coproduct)
    right = s.map(lambda c: outer(one, c)) * s.map(lambda c: coproduct(c, 2))
    return left - right


# ---------------------------------------------------------------------------
# the ansatz


@dataclass(frozen=True)
class AnsatzUnknown:
    """One rational unknown: the coefficient of H1^a1 H2^a2 I1^b1 I2^b2 in
    the polynomial attached to E1^l F2^l (side 'a') or F1^l E2^l ('b')."""

    l: int
    side: str
    mono: tuple  # (a1, a2, b1, b2)

    def label(self) -> str:
        names = ("H1", "H2", "I1", "I2")
        ms = "*".join(n if e == 1 else f"{n}^{e}"
                      for n, e in zip(names, self.mono) if e)
        return f"{self.side}{self.l}[{ms or '1'}]"

    def legs(self) -> tuple:
        """The keys (h_exp, i_exp, gen, l) of the two legs of the payload
        H1^a1 I1^b1 G1^l (x) H2^a2 I2^b2 G2^l."""
        a1, a2, b1, b2 = self.mono
        g1, g2 = ("E", "F") if self.side == "a" else ("F", "E")
        return (a1, b1, g1, self.l), (a2, b2, g2, self.l)


def default_cutoffs(order: int) -> tuple:
    """The ansatz cutoffs (L, D) = (k+1, 2k) used at order k when none
    are given."""
    return order + 1, 2 * order


class TwistAnsatz:
    """The weight-zero template at one order: powers l < L, polynomial
    coefficients in H1, H2, I1, I2 of total degree <= D.

    Unknowns are ordered with higher powers l first (within a power: side
    'a' before 'b', then ascending degree, then lexicographic monomial);
    zeroing the free variables of the eliminated system under this order
    is the solver's "minimal choice"."""

    def __init__(self, order: int, cutoff_l: int | None = None,
                 cutoff_d: int | None = None):
        if order < 1:
            raise ValueError("ansatz order must be >= 1")
        self.order = order
        default_l, default_d = default_cutoffs(order)
        self.cutoff_l = cutoff_l if cutoff_l is not None else default_l
        self.cutoff_d = cutoff_d if cutoff_d is not None else default_d
        if self.cutoff_l < 1 or self.cutoff_d < 0:
            raise ValueError(f"cutoffs must satisfy L >= 1 and D >= 0, got "
                             f"L={self.cutoff_l}, D={self.cutoff_d}")
        monos = [m for m in itertools.product(range(self.cutoff_d + 1), repeat=4)
                 if sum(m) <= self.cutoff_d]
        monos.sort(key=lambda m: (sum(m), m))
        unknowns = []
        for l in range(self.cutoff_l - 1, -1, -1):
            # at l = 0 both sides multiply 1 (x) 1; keep a single slot
            for side in ("a",) if l == 0 else ("a", "b"):
                for m in monos:
                    unknowns.append(AnsatzUnknown(l, side, m))
        self.unknowns = tuple(unknowns)

    def __len__(self):
        return len(self.unknowns)

    def payload(self, u: AnsatzUnknown) -> TensorElement:
        """The tensor element multiplied by the unknown u."""
        leg1, leg2 = u.legs()
        return outer(_leg_element(*leg1), _leg_element(*leg2))

    def instantiate(self, values) -> TensorElement:
        """Assemble sum_u values[u_index] * payload(u), in integers: the
        values are scaled once by the lcm of their denominators."""
        ints, den = _integral({i: values[i] for i in range(len(self))
                               if values[i]})
        acc: dict = {}
        for i, v in ints.items():
            leg1, leg2 = self.unknowns[i].legs()
            ys = _leg_ints(*leg2)
            for m1, c1 in _leg_ints(*leg1):
                c1 *= v
                for m2, c2 in ys:
                    key = (m1, m2)
                    acc[key] = acc.get(key, 0) + c1 * c2
        return TensorElement._raw(_rational(acc, den))


@cache
def _leg_element(h_exp: int, i_exp: int, gen: str, l: int) -> Element:
    """H^h I^i G^l in PBW normal form, cached."""
    return (Element.monomial(0, 0, h_exp) * casimir() ** i_exp
            * (E if gen == "E" else F) ** l)


@cache
def _leg_ints(h_exp: int, i_exp: int, gen: str, l: int) -> tuple:
    """The leg H^h I^i G^l as ((mono, int), ...), cached.  Products of H,
    I, E and F have integer coefficients in the PBW basis."""
    terms = _leg_element(h_exp, i_exp, gen, l).terms
    for c in terms.values():
        if c.denominator != 1:
            raise ValueError(f"leg coefficient {c} is not an integer")
    return tuple((mono, c.numerator) for mono, c in terms.items())


@cache
def _leg_bracket(h_exp: int, i_exp: int, gen: str, l: int, g) -> tuple:
    """[x, g] for the leg x = H^h I^i G^l and a generator monomial g, as
    ((mono, int), ...) without zeros, cached."""
    acc: dict = {}
    for m, c in _leg_ints(h_exp, i_exp, gen, l):
        for mono, d in mono_mul(m, g):
            acc[mono] = acc.get(mono, 0) + c * d
        for mono, d in mono_mul(g, m):
            acc[mono] = acc.get(mono, 0) - c * d
    return tuple((mono, c) for mono, c in acc.items() if c)


# ---------------------------------------------------------------------------
# the order-k solver


def _j_plus_rows(ansatz: TwistAnsatz) -> dict:
    """The J+ system matrix as {row mono: {column: int}}, column u holding
    [payload(u), Delta(E)].  Delta(E) is primitive, so for payload(u) =
    x (x) y that is [x, E] (x) y + x (x) [y, E].  Each leg is homogeneous
    in weight, and the first legs of the two outer products differ in
    weight by one, so no key is written twice and every entry is a
    non-zero int."""
    row_of: dict = defaultdict(dict)
    for ci, u in enumerate(ansatz.unknowns):
        leg1, leg2 = u.legs()
        for xs, ys in ((_leg_bracket(*leg1, E_MONO), _leg_ints(*leg2)),
                       (_leg_ints(*leg1), _leg_bracket(*leg2, E_MONO))):
            for m1, c1 in xs:
                for m2, c2 in ys:
                    row_of[(m1, m2)][ci] = c1 * c2
    return row_of


@dataclass
class SolutionSet:
    """Outcome of one order-k solve: a particular solution (free unknowns
    zeroed under the deterministic pivot order) and a basis of the
    homogeneous solution space inside the ansatz, both certified against
    all three generators."""

    order: int
    cutoff_l: int
    cutoff_d: int
    status: str       # "solved" | "infeasible-at-cutoff" (J+ rows inconsistent)
    particular: TensorElement | None = None
    homogeneous: list = field(default_factory=list)
    pivot_log: list = field(default_factory=list)
    unknown_count: int = 0
    rank: int = 0

    @property
    def solved(self) -> bool:
        return self.status == "solved"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "cutoffL": self.cutoff_l,
            "cutoffD": self.cutoff_d,
            "status": self.status,
            "particular": tensor_to_json(self.particular) if self.particular else None,
            "homogeneous_basis": [tensor_to_json(t) for t in self.homogeneous],
            "pivot_log": self.pivot_log,
            "unknowns": self.unknown_count,
            "rank": self.rank,
        }


def _solve(k: int, ansatz: TwistAnsatz, const: TensorElement) -> SolutionSet:
    """Assemble and solve the order-k J+ equations [F_k, Delta(E)] = -const."""
    row_of = _j_plus_rows(ansatz)
    b = {mono: -c for mono, c in const.terms.items()}

    # a rhs term outside every column gives an empty, inconsistent row
    keys = sorted(row_of.keys() | b.keys())
    rows = [row_of.get(key, {}) for key in keys]
    rhs = [b.get(key, Fraction(0)) for key in keys]

    lin = solve_sparse(rows, rhs, len(ansatz))
    sol = SolutionSet(order=k, cutoff_l=ansatz.cutoff_l, cutoff_d=ansatz.cutoff_d,
                      status="solved" if lin.status == "solved" else "infeasible-at-cutoff",
                      unknown_count=len(ansatz), rank=len(lin.pivot_cols),
                      pivot_log=[ansatz.unknowns[c].label() for c in lin.pivot_cols])
    if not sol.solved:
        return sol
    sol.particular = ansatz.instantiate(lin.particular)
    sol.homogeneous = [ansatz.instantiate(vec) for vec in lin.nullspace]
    sol.homogeneous = [t for t in sol.homogeneous if not t.is_zero()]
    return sol


def _certified(k: int, low: TwistCandidate, sol: SolutionSet) -> bool:
    """True iff low + h^k particular has no order-k residual for any
    generator and every homogeneous element is in the classical kernel:
    then every solution sol describes solves all the order-k equations."""
    coeffs = list(low.series.coeffs)
    coeffs[k] = sol.particular
    cand = TwistCandidate.from_coefficients(coeffs)
    return (all(s.coeffs[k].is_zero()
                for s in twist_residual_series(cand, k).values())
            and all(kernel_check(t) for t in sol.homogeneous))


def solve_order(k: int, lower: TwistCandidate,
                ansatz: TwistAnsatz | None = None) -> SolutionSet:
    """Solve the order-k residual equations for F_k given the lower-order
    coefficients.

    The lower orders are checked first: ValueError if any residual of
    theirs is non-zero.  Then only the J+ equations are solved, which
    suffices by the proof in the module docstring.  A solution is returned
    only once it is certified against all three generators; RuntimeError
    if it is not; there is no fallback solve."""
    if ansatz is None:
        ansatz = TwistAnsatz(k)
    if lower.order < k - 1:
        raise ValueError(f"lower candidate must reach order {k - 1}")
    low = lower.at_order(k - 1).at_order(k)  # truncate then pad F_k = 0

    # orders below k hold the lower orders' own residuals; order k of the
    # zero-extended candidate is the inhomogeneous part
    residuals = twist_residual_series(low, k)
    for g, s in residuals.items():
        bad = s.first_nonzero()
        if bad is not None and bad < k:
            raise ValueError(f"the lower candidate fails twist[{g}] at order {bad}")

    sol = _solve(k, ansatz, residuals["J+"].coeffs[k])
    if sol.solved and not _certified(k, low, sol):
        raise RuntimeError(f"the order-{k} solution fails its exact certificate")
    return sol


def solve_with_escalation(k: int, lower: TwistCandidate,
                          cutoff_l: int | None = None,
                          cutoff_d: int | None = None,
                          max_escalations: int = 2):
    """Solve order k, enlarging the cutoffs by (L+1, D+2) on infeasibility,
    at most `max_escalations` times.  Returns the last SolutionSet."""
    ansatz = TwistAnsatz(k, cutoff_l, cutoff_d)
    L, D = ansatz.cutoff_l, ansatz.cutoff_d
    sol = solve_order(k, lower, ansatz)
    attempts = 0
    while not sol.solved and attempts < max_escalations:
        attempts += 1
        L, D = L + 1, D + 2
        sol = solve_order(k, lower, TwistAnsatz(k, L, D))
    return sol


def symmetrize_order(cand: TwistCandidate, k: int) -> tuple:
    """Adjust F_k by a kernel element so that the quasitriangular relation
    holds at order k, exploiting that the correction -rho/2 (rho the
    order-k quasitriangular residual) commutes with the classical
    coproducts whenever the lower orders already satisfy the relation.
    Returns (candidate, correction)."""
    rho = quasitriangular_residual(cand, k).coeffs[k]
    if rho.is_zero():
        return cand, TensorElement.zero()
    if not (rho + flip(rho)).is_zero():
        raise ValueError(
            f"order-{k} quasitriangular residual has a symmetric part; "
            "no kernel correction can remove it")
    delta = rho * Fraction(-1, 2)
    if not kernel_check(delta):
        raise ValueError(f"order-{k} correction is not a kernel element")
    coeffs = list(cand.series.coeffs)
    coeffs[k] = coeffs[k] + delta
    return TwistCandidate.from_coefficients(coeffs), delta


def build_candidate(order: int, cutoff_l: int | None = None,
                    cutoff_d: int | None = None, max_escalations: int = 2):
    """Chain solve orders 1..order into a full candidate.

    Each new coefficient is shifted by the kernel correction of
    `symmetrize_order` that also enforces the quasitriangular relation at
    that order.  Returns (candidate, [SolutionSet per order])."""
    cand = TwistCandidate.from_coefficients([TensorElement.one()])
    sols = []
    for k in range(1, order + 1):
        sol = solve_with_escalation(k, cand, cutoff_l, cutoff_d, max_escalations)
        sols.append(sol)
        if not sol.solved:
            return cand, sols
        cand = TwistCandidate.from_coefficients(
            list(cand.series.coeffs) + [sol.particular])
        cand, _ = symmetrize_order(cand, k)
    return cand, sols
