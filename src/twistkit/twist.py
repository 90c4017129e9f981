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
right-hand side is rational.  It is built straight into integer rows:
a row whose right-hand side -2c/den is not integral is scaled once by
the denominator of that fraction in lowest terms, so every equation
reaches the solver in integers and is solved by fraction-free
elimination.

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

The proof needs valid lower orders.  Orders 0..k-1 of all three
residuals depend only on F_0..F_{k-1}, so solve_order checks the
residual series of the lower candidate through order k-1 first and
raises ValueError if a coefficient is non-zero.  A solution is still
certified exactly before it is returned: the order-k residuals of all
three generators must vanish on the particular solution, and the
homogeneous solutions must span exactly the known kernel elements below.

The particular's half works in PBW coordinates and reads nothing of the
Casimir assembly below.  The h^k coefficient of F Delta(m(g)) is
sum_{i+j=k} F_i Delta(m(g))_j, and that of Delta_q~(g) F likewise, so
F_k meets only the order-0 coefficients m(g)_0 = g and
Delta_q~(g)_0 = Delta(g), with g = H, E, F for J0, J+, J-.  Hence for
the lower orders padded with F_k = 0 (low) and F_k = X,

    rho_k(low + h^k X)(g) = rho_k(low)(g) + [X, Delta(g)],

and rho_k(low) is built coefficient by coefficient, each only when it
is read.  For J0 the series is written in closed form: m(J0) = H and
Delta_q~(J0) = Delta(H) at every order, so rho_n(J0) = [F_n, Delta(H)] =
-sum wt(key) c key over the terms c key of F_n, where wt is the weight
e - f summed over both legs; rho_k(low)(J0) = [0, Delta(H)] = 0.  For J+
and J- each coefficient is one signed Cauchy sum,
sum_i F_i Delta(m(g))_(n-i) - Delta_q~(g)_(n-i) F_i, summed in integers
(lincomb._sum_products, _residual_coefficient) against the two operands,
which depend on the order alone and are built once per order; the
operands hold only J+ and J-.  Both order-0 operands are Delta(g), so
the pair i = n is the commutator [F_n, Delta(g)]: it is added in the
same integer sum as the bracket below, not as two tensor products
(_residual_pairs).  solve_order builds rho_k(low)(J+) once, as integers
that go straight to Casimir coordinates for the right-hand side of
every attempt, and rho_k(low)(J-) only for a solved attempt, when the
certificate reads it.
The check is then one commutator with a primitive Delta(g), taken leg
by leg: [x (x) y, Delta(g)] = [x, g] (x) y + x (x) [y, g].  Each bracket
[m, g] of a PBW monomial m is read from a cache (pbw.mono_commutator)
with its cancelling terms already gone, and the sum is taken in
integers, so the check is exact.

The homogeneous half is an identity test, with no commutator.  I is
central, so I1 = I (x) 1 and I2 = 1 (x) I commute with every Delta(g);
Delta is an algebra map, so Delta(I) does too, and so does
P = Delta(I) - I1 - I2 (tensor.cartan_killing()).  So every
I1^a I2^b P^c is in the kernel.  For cutoffs (L, D) the
kappa = sum_{c <= min(L-1, D/2)} C(D-2c+2, 2) of them with
a + b + 2c <= D are integer rows V over the unknowns: P^c's Casimir
coordinates are cached per c, and I1^a I2^b only shifts each leg's b.
V has rank kappa.  The only product of c factors of P whose first leg
has weight c is (2 E (x) F)^c, so the one term of I1^a I2^b P^c with
first-leg key n = c is 2^c I^a E^c (x) I^b F^c, and no invariant of
smaller c has a term with n = c: V is triangular on those columns.  The
solver's nullspace N is the identity on its free columns, and the test
is len(N) = kappa and V = V_free N, summed in integers, with V_free the
columns of V at the free columns.  Then every row of V lies in the row
space of N, which has at most kappa dimensions, so the two are equal
and every reported homogeneous element commutes with Delta(H), Delta(E)
and Delta(F).  An invariant term outside the ansatz fails the test.

Completeness, a sketch (the count kappa is what the test checks).  By
Weyl's first fundamental theorem for SO(3) on two vectors (H. Weyl, The
Classical Groups, 1939), the invariants of sl2 in the symmetric algebra
of sl2 + sl2 are the polynomials in the three inner products, the
symbols of I1, I2 and P; filtering U (x) U by degree, the I1^a I2^b P^c
form a basis of the elements commuting with Delta(sl2).  A kernel
element inside the ansatz uses none with c >= L: among its invariants
of largest c the terms 2^c I^a E^c (x) I^b F^c above cannot cancel.  Nor
with a + b + 2c > D: every term of P^c has degree a + b <= c on each
leg, and H^c (x) H^c has the coefficient C(2c, c), so among its
invariants of largest a + b + 2c, the one of largest c keeps the term
H^c I^a (x) H^c I^b.  So N is the whole kernel inside the cutoffs.

The equations are written in Casimir coordinates.  The Casimir
I = 2EF + H(H-1) is central and U(sl2) is a free Q[H, I]-module on
{E^n} u {F^n}, so {H^a I^b E^n} u {H^a I^b F^n} is a basis of U(sl2),
and each leg H^a I^b G^l of an ansatz payload is a single basis element
(in the PBW basis every I^b would expand into many terms).  The
coordinates are pbw's: the key (a, b, n) names H^a I^b E^n, or
H^a I^b F^-n for n < 0, and keys the legs, the rows and the right-hand
side alike.  The ansatz holds each unknown only as the pair of leg keys
of its payload (TwistAnsatz.columns), which is what the assembly, the
kernel certificate, instantiate and the pivot labels read.  The change
from PBW to Casimir coordinates is invertible on each leg, hence on
U (x) U, so the rows it gives span the same row space as the PBW rows of
[A|b]: the solution set is the same, and so is the back-reduced echelon
form, which is unique under the fixed column order.  Status, pivot
columns, particular solution and nullspace are those of the PBW system,
and an inconsistent system stays inconsistent.  For the same reason the
rows are not sorted: they go to the solver in the order the assembly
first writes their keys, followed by the keys that only the right-hand
side has (each an empty, inconsistent row).  The row order moves only
which rows the elimination visits first, not its result.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cache
from itertools import compress, count, repeat
from math import comb, gcd, lcm
from operator import is_not

from .deform import IMAGES, delta_q_image
from .hseries import HSeries, _ints, _ring_into, mul_sub
from .linsolve import solve_sparse
from .lincomb import (_add_scaled, _iadd, _integral, _outer_into, _rational,
                      _sum_products)
from .pbw import (E, E_MONO, F, F_MONO, H, H_MONO, Element, _hpoly_shift,
                  _json_field, _json_list, _only_fields, casimir,
                  casimir_to_pbw, mono_commutator, mono_to_casimir)
from .report import VerificationReport
from .rmatrix import quasitriangular_residual
from .tensor import (TensorElement, _keyed, cartan_killing, classical_r,
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
        """Inverse of to_json; ValueError for a malformed candidate, or
        one with a field other than order and coeffs."""
        if isinstance(data, dict):
            # against the fields present: a stray field is named first
            _only_fields(data, data.keys() & {"order", "coeffs"}, "a candidate")
        coeffs = [tensor_from_json(c) for c in
                  _json_list(_json_field(data, "coeffs", "a candidate"),
                             "the candidate's coeffs")]
        order = _json_field(data, "order", "a candidate")
        if type(order) is not int or len(coeffs) != order + 1:
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
    generator name; ValueError for a negative order."""
    if order < 0:
        raise ValueError(f"the residual order must be >= 0, got {order}")
    if not cand.leading_invertible():
        raise ValueError("twist candidate has a non-invertible leading term")
    coeffs = cand.at_order(order).series.coeffs
    fs = _ints(coeffs)
    ring_into = _ring_into(cand.series.coeffs[0])
    series = {"J0": HSeries(tuple(map(_j0_residual, coeffs)), order)}
    for g in ("J+", "J-"):
        series[g] = HSeries(tuple(
            TensorElement._raw(_rational(*_residual_coefficient(
                fs, ring_into, g, n)))
            for n in range(order + 1)), order)
    return series


def _residual_coefficient(fs, ring_into, g: str, n: int) -> tuple:
    """(ints, den): the h^n coefficient of the residual of g = J+ or J-,
    zeros kept, for the coefficients fs of F through order N >= n in the
    form of hseries._ints and F's ring kernel ring_into
    (hseries._ring_into).  One integer sum over _residual_pairs against
    the order-N operands."""
    cs, ds = _residual_operands(len(fs) - 1)[g]
    return _sum_products(_residual_pairs(fs, cs, ds, n),
                         _bracket_or_product(ring_into, _GENERATOR_MONOS[g]))


# the operand that stands for Delta(g) in the order-0 pair of _residual_pairs
_DELTA = (None, 1)


def _residual_pairs(fs, cs, ds, n: int) -> list:
    """The signed pairs of the h^n coefficient of F*C - D*F for operands in
    the form of hseries._ints: F_i C_(n-i) and -D_(n-i) F_i for i < n, and
    F_n against _DELTA, which stands for the order-0 pair F_n C_0 - D_0 F_n
    = [F_n, Delta(g)].  A scalar F_n commutes with Delta(g) and gives no
    pair."""
    pairs = [(x, y, 1) for x, y in zip(fs[:n], cs[n:0:-1]) if x and y]
    f = fs[n]
    if f is not None and not isinstance(f[0], int):
        pairs.append((f, _DELTA, 1))
    pairs += [(x, y, -1) for x, y in zip(ds[1:n + 1], reversed(fs[:n]))
              if x and y]
    return pairs


def _bracket_or_product(ring_into, g):
    """The kernel of a lincomb._sum_products over _residual_pairs: the
    bracket with the primitive Delta(g) for the pair against _DELTA, the
    ring's product (hseries._ring_into) for every other pair."""
    def into(acc, x, y, scale):
        if y is None:
            _delta_bracket_into(acc, x, g, scale)
        else:
            ring_into(acc, x, y, scale)
    return into


def _j0_residual(f: TensorElement) -> TensorElement:
    """[f, Delta(H)] for the 2-leg f, in closed form: [m, H] = -wt(m) m
    for a PBW monomial m = E^e F^f H^d of weight wt(m) = e - f, so each
    term c m1 (x) m2 of f gives -(wt(m1) + wt(m2)) c m1 (x) m2."""
    return TensorElement._raw({(m1, m2): -w * c
                               for (m1, m2), c in f.terms.items()
                               if (w := m1[0] - m1[1] + m2[0] - m2[1])})


@cache
def _residual_operands(order: int) -> dict:
    """Delta(m(g)) and Delta_q~(g) for g = J+ and J-, their coefficients in
    the integer form of hseries._ints; they depend on the order alone and
    are cached by it.  Both order-0 coefficients are Delta(g), which
    _residual_pairs reads as a bracket and not from here.  The J0 residual
    needs none (_j0_residual)."""
    return {g: (_ints(IMAGES[g](order).map(coproduct).coeffs),
                _ints(delta_q_image(g, order).coeffs))
            for g in ("J+", "J-")}


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
    c ([m1, g] (x) m2 + m1 (x) [m2, g]), each bracket a cached
    pbw.mono_commutator."""
    for (m1, m2), c in xs.items():
        c *= scale
        for m, d in mono_commutator(m1, g):
            key = (m, m2)
            acc[key] = acc.get(key, 0) + c * d
        for m, d in mono_commutator(m2, g):
            key = (m1, m)
            acc[key] = acc.get(key, 0) + c * d


def _brackets_vanish(xs: dict, seed) -> bool:
    """True iff acc + scale * [x, Delta(g)] = 0 for each generator g = H,
    E, F, where xs is the 2-leg term dict of x with int values and
    (acc, scale) = seed(name of g): an int dict keyed like xs, which is
    consumed, and an int."""
    for name, g in _GENERATOR_MONOS.items():
        acc, scale = seed(name)
        _delta_bracket_into(acc, xs, g, scale)
        if any(acc.values()):
            return False
    return True


def kernel_check(f: TensorElement) -> bool:
    """True iff the 2-leg tensor element f commutes with Delta(H),
    Delta(E) and Delta(F); ValueError for any other leg count."""
    legs = _keyed(f)[1]
    if legs != 2:
        raise ValueError(f"kernel_check needs a 2-leg tensor element, "
                         f"got {legs} legs")
    return _brackets_vanish(_integral(f.terms)[0], lambda _: ({}, 1))


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


@cache
def _mono_label(mono) -> str:
    """The text of H1^a1 H2^a2 I1^b1 I2^b2 for mono = (a1, a2, b1, b2),
    cached: "1" for the unit, else factors like "H1*I2^2"."""
    ms = "*".join(n if e == 1 else f"{n}^{e}"
                  for n, e in zip(("H1", "H2", "I1", "I2"), mono) if e)
    return ms or "1"


def _column_label(column) -> str:
    """The label of the unknown whose leg keys are column, as
    "a2[H1*I2^2]": side, power l, then its monomial in H1, H2, I1, I2."""
    (a1, b1, n), (a2, b2, _) = column
    return f"{'a' if n >= 0 else 'b'}{abs(n)}[{_mono_label((a1, a2, b1, b2))}]"


def _monomials(d: int) -> list:
    """The exponent tuples (a1, a2, b1, b2) of total degree <= d, by
    degree, then lexicographically."""
    return [(a, b, c, n - a - b - c) for n in range(d + 1)
            for a in range(n + 1) for b in range(n - a + 1)
            for c in range(n - a - b + 1)]


def _nonzeros(values) -> dict:
    """{index: value} for the non-zero entries of a dense sequence.  An
    entry that is the very zero object met first is skipped without a
    comparison, and every other one is tested by value: solve_sparse
    fills each vector with one shared zero, so a long, sparse vector is
    scanned without a Python-level call per entry."""
    zero = next((v for v in values if not v), None)
    return {i: values[i] for i in
            compress(count(), map(is_not, values, repeat(zero))) if values[i]}


def default_cutoffs(order: int) -> tuple:
    """The ansatz cutoffs (L, D) = (k+1, 2k) used at order k when none
    are given."""
    return order + 1, 2 * order


def _ansatz_columns(cutoff_l: int, cutoff_d: int) -> tuple:
    """The unknowns of the ansatz with cutoffs (L, D), in the order of
    TwistAnsatz.  The unknown of H1^a1 H2^a2 I1^b1 I2^b2 attached to
    E1^l F2^l (side 'a') multiplies the payload
    H^a1 I^b1 E^l (x) H^a2 I^b2 F^l, and on side 'b' (F1^l E2^l) the
    same with E and F swapped.  It is written as the Casimir keys of the
    payload's two legs (those of pbw.to_casimir_basis),
    ((a1, b1, n), (a2, b2, -n)), with n = l on side 'a' and n = -l on
    side 'b'."""
    monos = _monomials(cutoff_d)
    columns = []
    for l in range(cutoff_l - 1, -1, -1):
        # at l = 0 both sides multiply 1 (x) 1, so keep a single slot
        for n in (l,) if l == 0 else (l, -l):
            columns += [((a1, b1, n), (a2, b2, -n)) for a1, a2, b1, b2 in monos]
    return tuple(columns)


def _unknown_count(cutoff_l: int, cutoff_d: int) -> int:
    """len(_ansatz_columns(L, D)) = (2L-1) C(D+4, 4), without building
    them: 2L-1 slots (l, side), each with the C(D+4, 4) monomials of
    degree <= D in four variables."""
    return (2 * cutoff_l - 1) * comb(cutoff_d + 4, 4)


class TwistAnsatz:
    """The weight-zero template at one order: powers l < L, polynomial
    coefficients in H1, H2, I1, I2 of total degree <= D.

    `columns` holds the unknowns as the Casimir leg-key pairs of
    _ansatz_columns, ordered with higher powers l first (within a power:
    side 'a' before 'b', then ascending degree, then lexicographic
    monomial); zeroing the free variables of the eliminated system under
    this order is the solver's "minimal choice".  The pivot log labels
    each column with _column_label."""

    def __init__(self, order: int, cutoff_l: int | None = None,
                 cutoff_d: int | None = None):
        if order < 1:
            raise ValueError(f"ansatz order must be >= 1, got {order}")
        self.order = order
        default_l, default_d = default_cutoffs(order)
        self.cutoff_l = cutoff_l if cutoff_l is not None else default_l
        self.cutoff_d = cutoff_d if cutoff_d is not None else default_d
        if self.cutoff_l < 1 or self.cutoff_d < 0:
            raise ValueError(f"cutoffs must satisfy L >= 1 and D >= 0, got "
                             f"L={self.cutoff_l}, D={self.cutoff_d}")
        self.columns = _ansatz_columns(self.cutoff_l, self.cutoff_d)

    def __len__(self):
        return len(self.columns)

    def instantiate(self, values: dict) -> TensorElement:
        """Assemble the sum of values[i] times the payload of columns[i]
        for the sparse {index: value} dict, in integers: the values are
        scaled once by the lcm of their denominators."""
        ints, den = _integral(values)
        acc: dict = {}
        for i, v in ints.items():
            leg1, leg2 = self.columns[i]
            _outer_into(acc, casimir_to_pbw(leg1), casimir_to_pbw(leg2), v)
        return TensorElement._raw(_rational(acc, den))


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


def _casimir_coords(xs: dict, dx: int) -> tuple:
    """The 2-leg tensor xs/dx, xs a term dict with int values, in Casimir
    coordinates, converted leg by leg with pbw.mono_to_casimir, as (ints,
    den): {((a1, b1, n1), (a2, b2, n2)): int}, zeros kept, over den."""
    ints, den = _sum_products([(mono_to_casimir(m1), mono_to_casimir(m2), c)
                               for (m1, m2), c in xs.items() if c],
                              _outer_into)
    return ints, den * dx


# ---------------------------------------------------------------------------
# the order-k solver


def _j_plus_rows(ansatz: TwistAnsatz) -> dict:
    """Twice the J+ system matrix in Casimir coordinates, as {row key:
    {column: int}}, column i holding 2 [x (x) y, Delta(E)] for the
    payload x (x) y of columns[i].  Delta(E) is primitive, so that is
    [x, E] (x) y + x (x) [y, E], and x, y are single basis elements.
    [x, E] raises the weight n of x by one, so the two outer products
    differ in the first leg's n, no key is written twice and every entry
    is a non-zero int."""
    row_of: dict = defaultdict(dict)
    for ci, (x, y) in enumerate(ansatz.columns):
        for k1, c in _casimir_bracket(*x):
            row_of[(k1, y)][ci] = c
        for k2, c in _casimir_bracket(*y):
            row_of[(x, k2)][ci] = c
    return row_of


class _KernelBasis:
    """The homogeneous solutions of one solve: the solver's nullspace
    vectors as sparse {unknown index: Fraction} dicts over the ansatz, one
    per free column, built into TensorElements once, on first read.  len()
    builds nothing.  Equal by value to any sequence of the same
    elements."""

    __slots__ = ("ansatz", "free_cols", "vectors", "_elements")

    def __init__(self, ansatz: TwistAnsatz, free_cols, vectors):
        self.ansatz, self.free_cols, self.vectors = ansatz, free_cols, vectors
        self._elements = None

    def _built(self) -> list:
        if self._elements is None:
            self._elements = [self.ansatz.instantiate(v) for v in self.vectors]
        return self._elements

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, i):
        return self._built()[i]

    def __eq__(self, other):
        if not isinstance(other, (_KernelBasis, list, tuple)):
            return NotImplemented
        return self._built() == list(other)

    def __repr__(self):
        return repr(self._built())


class SolutionSet(namedtuple("SolutionSet", "order cutoff_l cutoff_d status "
                             "particular homogeneous pivot_log unknown_count rank")):
    """Outcome of one order-k solve: a particular solution (free unknowns
    zeroed under the deterministic pivot order) and a basis of the
    homogeneous solution space inside the ansatz, both certified against
    all three generators; the basis is a sequence of TensorElements built
    on first read.  status is "solved" or "infeasible-at-cutoff" (the J+
    rows are inconsistent, and particular is None)."""

    __slots__ = ()

    @property
    def solved(self) -> bool:
        return self.status == "solved"

    def to_json(self) -> dict:
        """The solution document.  homogeneous_basis is an iterator, read
        once, so that a writer such as cli._json_dumps holds one kernel
        element's JSON at a time, not the whole basis."""
        return {
            "order": self.order,
            "cutoffL": self.cutoff_l,
            "cutoffD": self.cutoff_d,
            "status": self.status,
            "particular": tensor_to_json(self.particular) if self.particular else None,
            "homogeneous_basis": map(tensor_to_json, self.homogeneous),
            "pivot_log": self.pivot_log,
            "unknowns": self.unknown_count,
            "rank": self.rank,
        }


def _row_order(row_of: dict, b: dict) -> list:
    """The row keys in the order the assembly first writes them, then the
    keys of right-hand-side terms outside every column, each of which gives
    an empty, inconsistent row.  The back-reduced echelon form is unique,
    so the order moves neither the solution nor the status."""
    return [*row_of, *(key for key in b if key not in row_of)]


def _solve(k: int, ansatz: TwistAnsatz, const: tuple) -> SolutionSet:
    """Assemble and solve the order-k J+ equations [F_k, Delta(E)] = -const,
    both sides doubled, const given in Casimir coordinates as (ints, den).
    The system goes to the solver in integers: the right-hand side
    -2c/den of a row is -2c/g with g = gcd(2c, den), and the row is scaled
    by den/g, so that solve_sparse takes every row as it is."""
    row_of = _j_plus_rows(ansatz)
    ints, den = const
    b = {}
    for key, c in ints.items():
        if c:
            g = gcd(2 * c, den)
            b[key] = -2 * c // g
            row = row_of.get(key)
            if row and g != den:
                d = den // g
                for col in row:
                    row[col] *= d

    keys = _row_order(row_of, b)
    rows = list(map(row_of.get, keys, repeat({})))
    rhs = list(map(b.get, keys, repeat(0)))

    lin = solve_sparse(rows, rhs, len(ansatz))
    solved = lin.status == "solved"
    # an inconsistent system has no pivot columns and no nullspace
    return SolutionSet(
        k, ansatz.cutoff_l, ansatz.cutoff_d,
        "solved" if solved else "infeasible-at-cutoff",
        particular=(ansatz.instantiate(_nonzeros(lin.particular))
                    if solved else None),
        homogeneous=_KernelBasis(ansatz, lin.free_cols,
                                 [_nonzeros(vec) for vec in lin.nullspace]),
        pivot_log=[_column_label(ansatz.columns[c]) for c in lin.pivot_cols],
        unknown_count=len(ansatz), rank=len(lin.pivot_cols))


def _particular_certified(fs, ring_into, plus: tuple,
                          x: TensorElement) -> bool:
    """True iff low + h^k x has no order-k residual for any generator.
    low is the lower orders padded with F_k = 0, its coefficients fs in
    the form of hseries._ints and its ring kernel ring_into, and plus is
    its order-k J+ residual as (ints, den); adding h^k x adds
    [x, Delta(g)] at order k (module docstring).  low's order-k J0
    residual is [F_k, Delta(H)] = 0, and its J- residual is built only
    if the J0 and J+ checks pass."""
    xs, dx = _integral(x.terms)
    k = len(fs) - 1
    built = {"J0": ({}, 1), "J+": plus}

    def seed(g):
        rs, dr = built.get(g) or _residual_coefficient(fs, ring_into, g, k)
        return {key: dx * c for key, c in rs.items()}, dr
    return _brackets_vanish(xs, seed)


@cache
def _cartan_power(c: int) -> tuple:
    """P^c in Casimir coordinates, P = cartan_killing(), as ((key, int),
    ...) without zeros, cached.  The common denominator is dropped: scaling
    an invariant does not change the kernel test."""
    ints, _ = _casimir_coords(*_integral((cartan_killing() ** c).terms))
    return tuple((key, v) for key, v in ints.items() if v)


@cache
def _invariant_rows(cutoff_l: int, cutoff_d: int):
    """The invariants I1^a I2^b P^c with c <= L-1 and a + b + 2c <= D as
    integer rows {column: int} over the unknowns of the ansatz with these
    cutoffs, or None if a term lies outside it; cached, the rows must not
    be modified.  I is central, so I1^a I2^b only shifts each leg's b."""
    column = dict(zip(_ansatz_columns(cutoff_l, cutoff_d), count()))
    rows = []
    for c in range(min(cutoff_l - 1, cutoff_d // 2) + 1):
        terms = _cartan_power(c)
        for a in range(cutoff_d - 2 * c + 1):
            for b in range(cutoff_d - 2 * c - a + 1):
                row = {}
                for ((a1, b1, n1), (a2, b2, n2)), v in terms:
                    col = column.get(((a1, b1 + a, n1), (a2, b2 + b, n2)))
                    if col is None:
                        return None
                    row[col] = v
                rows.append(row)
    return tuple(rows)


def _kernel_certified(kernel: _KernelBasis) -> bool:
    """True iff the nullspace vectors N span exactly the invariants inside
    the ansatz: there are as many as invariant rows v, and
    v = sum_f v[f] N_f over the free columns f, in integers (module
    docstring).  Nothing is eliminated."""
    rows = _invariant_rows(kernel.ansatz.cutoff_l, kernel.ansatz.cutoff_d)
    if rows is None or len(rows) != len(kernel):
        return False
    basis = dict(zip(kernel.free_cols, map(_integral, kernel.vectors)))
    for row in rows:
        parts = [(basis[col], v) for col, v in row.items() if col in basis]
        den = lcm(*(d for (_, d), _ in parts))
        acc: dict = {}
        for (ints, d), v in parts:
            _add_scaled(acc, ints, v * (den // d))
        if ({col: x for col, x in acc.items() if x}
                != {col: den * v for col, v in row.items()}):
            return False
    return True


def solve_order(k: int, lower: TwistCandidate,
                ansatz: TwistAnsatz | None = None,
                max_escalations: int = 0) -> SolutionSet:
    """Solve the order-k residual equations for F_k given the lower-order
    coefficients.

    The lower orders are checked first: ValueError if any residual of
    theirs is non-zero.  Then only the J+ equations are solved, which
    suffices by the proof in the module docstring.  A solution is returned
    only once it is certified against all three generators; RuntimeError
    if it is not; there is no fallback solve.  An infeasible ansatz is
    enlarged by (L+1, D+2) and solved again, at most `max_escalations`
    times.  The lower orders' residual series (through order k-1) is built
    and checked once, and so is the order-k J+ residual, the right-hand
    side shared by all attempts; the order-k J- residual is built only
    for the certificate of a solved attempt.  Returns the last
    SolutionSet.  ValueError, before any residual is built, for k < 1, an
    ansatz of another order than k or a negative max_escalations."""
    if k < 1:
        raise ValueError(f"the order k must be >= 1, got {k}")
    if ansatz is None:
        ansatz = TwistAnsatz(k)
    elif ansatz.order != k:
        raise ValueError(f"the ansatz is for order {ansatz.order}, not "
                         f"order {k}")
    if max_escalations < 0:
        raise ValueError(f"max_escalations must be >= 0, got "
                         f"{max_escalations}")
    if lower.order < k - 1:
        raise ValueError(f"lower candidate must reach order {k - 1}")
    low = lower.at_order(k - 1)
    for g, s in twist_residual_series(low, k - 1).items():
        bad = s.first_nonzero()
        if bad is not None:
            raise ValueError(f"the lower candidate fails twist[{g}] at order {bad}")

    # the order-k J+ residual of low padded with F_k = 0 is the right-hand
    # side of every attempt; J- is built only to certify a solved one
    fs = _ints(low.at_order(k).series.coeffs)
    ring_into = _ring_into(low.coefficient(0))
    plus = _residual_coefficient(fs, ring_into, "J+", k)
    const = _casimir_coords(*plus)
    sol = _solve(k, ansatz, const)
    for _ in range(max_escalations):
        if sol.solved:
            break
        ansatz = TwistAnsatz(k, ansatz.cutoff_l + 1, ansatz.cutoff_d + 2)
        sol = _solve(k, ansatz, const)
    if sol.solved and not (
            _particular_certified(fs, ring_into, plus, sol.particular)
            and _kernel_certified(sol.homogeneous)):
        raise RuntimeError(f"the order-{k} solution fails its exact certificate")
    return sol


def solve_with_escalation(k: int, lower: TwistCandidate,
                          cutoff_l: int | None = None,
                          cutoff_d: int | None = None,
                          max_escalations: int = 2):
    """Solve order k from the ansatz with the given cutoffs, enlarging them
    by (L+1, D+2) on infeasibility, at most `max_escalations` times (see
    solve_order).  Returns the last SolutionSet."""
    return solve_order(k, lower, TwistAnsatz(k, cutoff_l, cutoff_d),
                       max_escalations)


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
