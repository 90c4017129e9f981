"""Verification and order-by-order solving of the coproduct twist.

A candidate F = F0 + h F1 + h^2 F2 + ... conjugates the classical
coproduct into the image of the q-deformed one; instead of dividing by F,
the residuals are kept in multiplied-through form

    F * Delta(m(g)) - Delta_q~(g) * F        for g in {J0, J+, J-},

which must vanish order by order.  At each order k the residual equation
is linear in F_k: the homogeneous part is the commutator with the three
classical coproducts, the inhomogeneity comes from the lower orders.  The
solver writes that equation in Casimir coordinates (below) against the
weight-zero ansatz

    F_k = sum_l  a_l(H1,H2,I1,I2) E1^l F2^l + b_l(H1,H2,I1,I2) F1^l E2^l

with polynomial coefficients of bounded degree.  F_k enters only through
commutators with the primitive Delta(g) = g (x) 1 + 1 (x) g, whose
brackets with a leg have half-integral coefficients in those
coordinates, so twice the system matrix is integral and only the
right-hand side is rational; it is built straight into integer rows and
solved by fraction-free elimination.

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

The certificate works in PBW coordinates and reads nothing of the
Casimir assembly below.  The h^k coefficient of F Delta(m(g)) is
sum_{i+j=k} F_i Delta(m(g))_j, and that of Delta_q~(g) F likewise, so
F_k meets only the order-0 coefficients m(g)_0 = g and
Delta_q~(g)_0 = Delta(g), with g = H, E, F for J0, J+, J-.  Hence for
the lower orders padded with F_k = 0 (low) and F_k = P,

    rho_k(low + h^k P)(g) = rho_k(low)(g) + [P, Delta(g)],

and rho_k(low) is the h^k coefficient of the residual series already
computed for the lower-order check and the right-hand side.  That series
is one signed Cauchy sum per generator, sum_i F_i Delta(m(g))_(n-i) -
Delta_q~(g)_(n-i) F_i, summed in integers (hseries._cauchy) against the
two operands, which depend on the order alone and are built once per
order.  Both parts of the certificate are then one commutator with a
primitive Delta(g), taken leg by leg:
[x (x) y, Delta(g)] = [x, g] (x) y + x (x) [y, g].  It is summed in
integers, the element scaled once by the lcm of its denominators, so
the check is exact: it passes iff every solution reported satisfies the
order-k equations of all three generators.

The equations are written in Casimir coordinates.  The Casimir
I = 2EF + H(H-1) is central and U(sl2) is a free Q[H, I]-module on
{E^n} u {F^n}, so {H^a I^b E^n} u {H^a I^b F^n} is a basis of U(sl2),
and each leg H^a I^b G^l of an ansatz payload is a single basis element
(in the PBW basis every I^b would expand into many terms).  The change
from PBW to Casimir coordinates is invertible on each leg, hence on
U (x) U, so the rows it gives span the same row space as the PBW rows of
[A|b]: the solution set is the same, and so is the back-reduced echelon
form, which is unique under the fixed column order.  Status, pivot
columns, particular solution and nullspace are those of the PBW system,
and an inconsistent system stays inconsistent.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cache

from .deform import delta_q_image, generator_images
from .hseries import HSeries, _cauchy, _ints, mul_sub
from .linsolve import solve_sparse
from .lincomb import _iadd, _integral, _outer_into, _rational, _sum_products
from .pbw import (E, E_MONO, F, F_MONO, H, H_MONO, Element, _hpoly_shift,
                  casimir, mono_mul, to_casimir_basis)
from .report import VerificationReport
from .rmatrix import quasitriangular_residual
from .tensor import (TensorElement, cartan_killing, classical_r,
                     coproduct, counit_leg, flip, outer, tensor_from_json,
                     tensor_to_json)


# ---------------------------------------------------------------------------
# candidates


class TwistCandidate(namedtuple("TwistCandidate", "series")):
    """A truncated twist series F0 + h F1 + ... + h^N F_N."""

    __slots__ = ()

    def __new__(cls, series):
        for c in series.coeffs:
            if not isinstance(c, TensorElement) or c.legs != 2:
                raise ValueError("twist coefficients must be 2-leg tensor elements")
        return tuple.__new__(cls, (series,))

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
    fs = _ints(cand.at_order(order).series.coeffs)
    return {g: HSeries(_cauchy(((fs, cs, 1), (ds, fs, -1)),
                               TensorElement._mul_into, TensorElement._raw), order)
            for g, (cs, ds) in _residual_operands(order).items()}


@cache
def _residual_operands(order: int) -> dict:
    """Delta(m(g)) and Delta_q~(g) for each generator g, their coefficients
    in the integer form of hseries._ints; they depend on the order alone
    and are cached by it."""
    return {g: (_ints(image.map(coproduct).coeffs),
                _ints(delta_q_image(g, order).coeffs))
            for g, image in generator_images(order).items()}


def twist_residuals(cand: TwistCandidate, order: int) -> VerificationReport:
    """Pass iff every residual coefficient vanishes up to the given order."""
    return VerificationReport.of({f"twist[{g}]": series for g, series
                                  in twist_residual_series(cand, order).items()})


# the PBW monomial g of each generator, with m(g) = g and Delta_q~(g) =
# Delta(g) at order 0
_GENERATOR_MONOS = {"J0": H_MONO, "J+": E_MONO, "J-": F_MONO}


def _delta_bracket_into(acc: dict, xs: dict, g, scale: int = 1):
    """acc += scale * [x, Delta(g)] in integers, for the 2-leg term dict xs
    of x with int values and the PBW monomial g.  Delta(g) = g (x) 1 +
    1 (x) g is primitive, so each term c m1 (x) m2 contributes
    c ([m1, g] (x) m2 + m1 (x) [m2, g])."""
    for (m1, m2), c in xs.items():
        c *= scale
        for m, d in mono_mul(m1, g):
            key = (m, m2)
            acc[key] = acc.get(key, 0) + c * d
        for m, d in mono_mul(g, m1):
            key = (m, m2)
            acc[key] = acc.get(key, 0) - c * d
        for m, d in mono_mul(m2, g):
            key = (m1, m)
            acc[key] = acc.get(key, 0) + c * d
        for m, d in mono_mul(g, m2):
            key = (m1, m)
            acc[key] = acc.get(key, 0) - c * d


def kernel_check(f: TensorElement) -> bool:
    """True iff f commutes with Delta(H), Delta(E) and Delta(F)."""
    xs, _ = _integral(f.terms)
    for g in _GENERATOR_MONOS.values():
        acc: dict = {}
        _delta_bracket_into(acc, xs, g)
        if any(acc.values()):
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
    return mul_sub(s.map(lambda c: outer(c, one)), s.map(coproduct),
                   s.map(lambda c: outer(one, c)),
                   s.map(lambda c: coproduct(c, 2)))


# ---------------------------------------------------------------------------
# the ansatz


class AnsatzUnknown(namedtuple("AnsatzUnknown", "l side mono")):
    """One rational unknown: the coefficient of H1^a1 H2^a2 I1^b1 I2^b2,
    mono = (a1, a2, b1, b2), in the polynomial attached to E1^l F2^l
    (side 'a') or F1^l E2^l ('b')."""

    __slots__ = ()

    def label(self) -> str:
        names = ("H1", "H2", "I1", "I2")
        ms = "*".join(n if e == 1 else f"{n}^{e}"
                      for n, e in zip(names, self.mono) if e)
        return f"{self.side}{self.l}[{ms or '1'}]"

    def legs(self) -> tuple:
        """The Casimir coordinates (a, b, n) of the two legs of the payload
        H1^a1 I1^b1 G1^l (x) H2^a2 I2^b2 G2^l: n = l for G = E and n = -l
        for G = F (see _leg_element)."""
        a1, a2, b1, b2 = self.mono
        n = self.l if self.side == "a" else -self.l
        return (a1, b1, n), (a2, b2, -n)


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
            _outer_into(acc, _leg_ints(*leg1), _leg_ints(*leg2), v)
        return TensorElement._raw(_rational(acc, den))


@cache
def _leg_element(a: int, b: int, n: int) -> Element:
    """The leg H^a I^b E^n (n >= 0) or H^a I^b F^-n (n < 0) in PBW normal
    form, cached."""
    return (Element.monomial(0, 0, a) * casimir() ** b
            * (E ** n if n >= 0 else F ** -n))


@cache
def _leg_ints(a: int, b: int, n: int) -> dict:
    """The leg H^a I^b G^|n| as {mono: int}, cached: the dict must not be
    modified.  Products of H, I, E and F have integer coefficients in the
    PBW basis."""
    terms = _leg_element(a, b, n).terms
    for c in terms.values():
        if c.denominator != 1:
            raise ValueError(f"leg coefficient {c} is not an integer")
    return {mono: c.numerator for mono, c in terms.items()}


@cache
def _casimir_bracket(a: int, b: int, n: int) -> tuple:
    """2 [x, E] for the leg x = H^a I^b G^|n| in Casimir coordinates, as
    (((a', b', n'), int), ...) without zeros, cached.

    E p(H) = p(H-1) E, so [H^a I^b E^n, E] = (H^a - (H-1)^a) I^b E^(n+1).
    For x = H^a I^b F^l, F^l E = (I - (H+l-1)(H+l))/2 F^(l-1) and
    [E, F^l] = F^(l-1) (lH - l(l-1)/2) = (lH + l(l-1)/2) F^(l-1) (pbw._fm_e),
    so [x, E] = [(H^a - (H-1)^a)(I - (H+l-1)(H+l))/2
                 - (H-1)^a (lH + l(l-1)/2)] I^b F^(l-1)."""
    shifted = _hpoly_shift({a: 1}, -1)                   # (H-1)^a
    diff = {k: -c for k, c in shifted.items() if k < a}  # H^a - (H-1)^a
    acc: dict = {}
    if n >= 0:
        for k, c in diff.items():
            acc[(k, b, n + 1)] = 2 * c
    else:
        l = -n
        quad = {2: 1, 1: 2 * l - 1, 0: l * (l - 1)}  # (H+l-1)(H+l)
        lin = {1: 2 * l, 0: l * (l - 1)}            # 2 (lH + l(l-1)/2)
        for k, c in diff.items():
            _iadd(acc, (k, b + 1, n + 1), c)
            for j, q in quad.items():
                _iadd(acc, (k + j, b, n + 1), -c * q)
        for k, c in shifted.items():
            for j, q in lin.items():
                _iadd(acc, (k + j, b, n + 1), -c * q)
    return tuple((key, c) for key, c in acc.items() if c)


@cache
def _mono_coords(mono) -> tuple:
    """The PBW monomial in Casimir coordinates as ({(a, b, n): int}, den),
    its coefficients the ints over den, cached: the dict must not be
    modified."""
    sign = {"pure": 0, "E": 1, "F": -1}
    return _integral({(t.a, t.b, sign[t.side] * t.c): c
                      for t, c in to_casimir_basis(Element({mono: 1}))})


def _casimir_coords(t: TensorElement) -> tuple:
    """The 2-leg tensor t in Casimir coordinates, converted leg by leg, as
    (ints, den): {((a1, b1, n1), (a2, b2, n2)): int}, zeros kept, over den."""
    xs, dx = _integral(t.terms)
    ints, den = _sum_products([(_mono_coords(m1), _mono_coords(m2), c)
                               for (m1, m2), c in xs.items()], _outer_into)
    return ints, den * dx


# ---------------------------------------------------------------------------
# the order-k solver


def _j_plus_rows(ansatz: TwistAnsatz) -> dict:
    """Twice the J+ system matrix in Casimir coordinates, as {row key:
    {column: int}}, column u holding 2 [payload(u), Delta(E)].  Delta(E)
    is primitive, so for payload(u) = x (x) y that is [x, E] (x) y +
    x (x) [y, E], and x, y are single basis elements.  [x, E] raises the
    weight n of x by one, so the two outer products differ in the first
    leg's n, no key is written twice and every entry is a non-zero int."""
    row_of: dict = defaultdict(dict)
    for ci, u in enumerate(ansatz.unknowns):
        x, y = u.legs()
        for k1, c in _casimir_bracket(*x):
            row_of[(k1, y)][ci] = c
        for k2, c in _casimir_bracket(*y):
            row_of[(x, k2)][ci] = c
    return row_of


class SolutionSet(namedtuple("SolutionSet", "order cutoff_l cutoff_d status "
                             "particular homogeneous pivot_log unknown_count rank")):
    """Outcome of one order-k solve: a particular solution (free unknowns
    zeroed under the deterministic pivot order) and a basis of the
    homogeneous solution space inside the ansatz, both certified against
    all three generators.  status is "solved" or "infeasible-at-cutoff"
    (the J+ rows are inconsistent, and particular is None)."""

    __slots__ = ()

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
    """Assemble and solve the order-k J+ equations [F_k, Delta(E)] = -const,
    both sides doubled and in Casimir coordinates."""
    row_of = _j_plus_rows(ansatz)
    ints, den = _casimir_coords(const)
    b = _rational({key: -2 * c for key, c in ints.items()}, den)

    # a rhs term outside every column gives an empty, inconsistent row
    keys = sorted(row_of.keys() | b.keys())
    rows = [row_of.get(key, {}) for key in keys]
    rhs = [b.get(key, 0) for key in keys]

    lin = solve_sparse(rows, rhs, len(ansatz))
    solved = lin.status == "solved"
    # an inconsistent system has no pivot columns and no nullspace
    return SolutionSet(
        k, ansatz.cutoff_l, ansatz.cutoff_d,
        "solved" if solved else "infeasible-at-cutoff",
        particular=ansatz.instantiate(lin.particular) if solved else None,
        homogeneous=[ansatz.instantiate(vec) for vec in lin.nullspace],
        pivot_log=[ansatz.unknowns[c].label() for c in lin.pivot_cols],
        unknown_count=len(ansatz), rank=len(lin.pivot_cols))


def _certified(k: int, residuals: dict, sol: SolutionSet) -> bool:
    """True iff low + h^k particular has no order-k residual for any
    generator and every homogeneous element is in the classical kernel:
    then every solution sol describes solves all the order-k equations.
    residuals are the residual series of the lower orders padded with
    F_k = 0; adding h^k P adds [P, Delta(g)] at order k (module
    docstring)."""
    ps, dp = _integral(sol.particular.terms)
    for g, series in residuals.items():
        rs, dr = _integral(series.coeffs[k].terms)
        acc = {key: dp * c for key, c in rs.items()}
        _delta_bracket_into(acc, ps, _GENERATOR_MONOS[g], dr)
        if any(acc.values()):
            return False
    return all(kernel_check(t) for t in sol.homogeneous)


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
    if sol.solved and not _certified(k, residuals, sol):
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
