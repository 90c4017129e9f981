"""Order-by-order solving of the coproduct twist.

The residuals of a twist F = F0 + h F1 + h^2 F2 + ...

    rho(g) = F * Delta(m(g)) - Delta_q~(g) * F        for g in {J0, J+, J-}

must vanish order by order (candidate.twist_residual_series; candidate
also holds the candidate type and its other checks, and loads no solver
code).  At each order k the residual equation is linear in F_k: the
homogeneous part is the commutator with the three classical coproducts,
the inhomogeneity comes from the lower orders.  The
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
system.  Since m and Delta_q~ are algebra maps,

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
homogeneous solutions, which are not eliminated but taken from the known
kernel elements below, must be the whole kernel inside the ansatz.

The particular's half works in PBW coordinates and reads nothing of the
Casimir assembly below.  The h^k coefficient of F Delta(m(g)) is
sum_{i+j=k} F_i Delta(m(g))_j, and that of Delta_q~(g) F likewise, so
F_k meets only the order-0 coefficients m(g)_0 = g and
Delta_q~(g)_0 = Delta(g), with g = H, E, F for J0, J+, J-.  Hence for
the lower orders padded with F_k = 0 (low) and F_k = X,

    rho_k(low + h^k X)(g) = rho_k(low)(g) + [X, Delta(g)],

and rho_k(low) is built coefficient by coefficient, each only when it
is read (candidate._residual_coefficient, one integer sum per
coefficient).  solve_order builds rho_k(low)(J+) once, as integers
that go straight to Casimir coordinates for the right-hand side of every
attempt, and rho_k(low)(J0) and rho_k(low)(J-) only for a solved
attempt, when the certificate reads them; rho_k(low)(J0) =
[0, Delta(H)] is a sum without a pair, 0.  The check is then one
commutator with a primitive Delta(g), taken leg by leg in integers
(candidate._brackets_vanish), so it is exact.

The homogeneous half is read off the invariants.  I is central, so
I1 = I (x) 1 and I2 = 1 (x) I commute with every Delta(g); Delta is an
algebra map, so Delta(I) does too, and so does
P = Delta(I) - I1 - I2 (tensor.cartan_killing()).  So every
I1^a I2^b P^c is in the kernel.  For cutoffs (L, D) the
kappa = sum_{c <= min(L-1, D/2)} C(D-2c+2, 2) of them with
a + b + 2c <= D are integer rows V keyed by the leg-key pairs of the
unknowns: P^c's Casimir coordinates are cached per c, and I1^a I2^b only
shifts each leg's b.  An invariant term outside the ansatz fails the
certificate.  _kernel(L, D), once per cutoff pair, indexes the columns
once, checks A V = 0 for the J+ matrix A in integers, one bracket with
Delta(E) per entry of V, and reduces V to echelon form with each pivot
at its row's last column.  It finds kappa pivots: the only product of c
factors of P whose first leg has weight c is (2 E (x) F)^c, so the one
term of I1^a I2^b P^c with first-leg key n = c is 2^c I^a E^c (x)
I^b F^c, no invariant of smaller c has a term with n = c, and V is
triangular on those columns.  Back-reduced, the
row with pivot f is primitive and positive at f; over that entry it is
N_f, 1 at f and 0 at every other pivot, and f is its last non-zero
column.  Each N_f stays in that form, integers over a denominator, until
instantiate builds its element.

The pivots f are the free columns of A, and the N_f its nullspace
vectors, as elimination on the whole system would give them.  Under the
fixed column order, the free columns of A are the last non-zero columns
of its kernel vectors, and its nullspace basis is the one back-reduced
basis of the kernel with those columns, each vector 1 at its own.  Both
follow once span V is the kernel, and the solve proves that.  _solve
leaves out the columns f: if x solves A x = b, so does
x - sum_f x[f] N_f, which is 0 on every f.  So the system over the other
n - kappa columns is consistent exactly when A x = b is, and an
infeasible verdict needs only A V = 0.  A solved system must have no free
column: then rank A >= n - kappa, the kernel has at most kappa
dimensions and contains span V, so the two are equal, and every reported
homogeneous element commutes with Delta(H), Delta(E) and Delta(F).  Its
unique solution, 0 at every f, is the particular that elimination of the
whole system gives, with the same pivots and rank.

Completeness, a sketch (what the solve checks is that no column is
free).  By Weyl's first fundamental theorem for SO(3) on two vectors
(H. Weyl, The Classical Groups, 1939), the invariants of sl2 in the
symmetric algebra of sl2 + sl2 are the polynomials in the three inner
products, the symbols of I1, I2 and P; filtering U (x) U by degree, the
I1^a I2^b P^c form a basis of the elements commuting with Delta(sl2).  A
kernel element inside the ansatz uses none with c >= L: among its
invariants of largest c the terms 2^c I^a E^c (x) I^b F^c above cannot
cancel.  Nor with a + b + 2c > D: every term of P^c has degree a + b <= c
on each leg, and H^c (x) H^c has the coefficient C(2c, c), so among its
invariants of largest a + b + 2c, the one of largest c keeps the term
H^c I^a (x) H^c I^b.  So V spans the whole kernel inside the cutoffs.

The equations are written in Casimir coordinates.  The Casimir
I = 2EF + H(H-1) is central and U(sl2) is a free Q[H, I]-module on
{E^n} u {F^n}, so {H^a I^b E^n} u {H^a I^b F^n} is a basis of U(sl2),
and each leg H^a I^b G^l of an ansatz payload is a single basis element
(in the PBW basis every I^b would expand into many terms).  The
coordinates are pbw's: the key (a, b, n) names H^a I^b E^n, or
H^a I^b F^-n for n < 0, and keys the legs, the rows and the right-hand
side alike.  The ansatz holds each unknown only as the pair of leg keys
of its payload (TwistAnsatz.columns), which is what the assembly, the
kernel, instantiate and the pivot labels read.  The change
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
from itertools import count, repeat
from math import comb, gcd

from .candidate import (TwistCandidate, _brackets_vanish,
                        _residual_coefficient, kernel_check,
                        twist_residual_series)
from .hseries import _ints, _ring_into
from .linsolve import _echelon, solve_sparse
from .lincomb import _iadd, _integral, _outer_into, _rational, _sum_products
from .pbw import _hpoly_shift, casimir_to_pbw, mono_to_casimir
from .rmatrix import quasitriangular_residual
from .tensor import TensorElement, cartan_killing, flip, tensor_to_json


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

    def instantiate(self, ints: dict, den: int) -> TensorElement:
        """Assemble the sum of ints[i]/den times the payload of columns[i]
        for the sparse {index: int} dict, in integers, dividing by den
        once at the end."""
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


def _j_plus_rows(columns) -> dict:
    """Twice the J+ system matrix in Casimir coordinates over the unknowns
    given as (label, leg-key pair) pairs, as {row key: {label: int}}, the
    column of a label holding 2 [x (x) y, Delta(E)] for the payload
    x (x) y of its pair (TwistAnsatz.columns).  Delta(E) is primitive, so
    that is [x, E] (x) y + x (x) [y, E], and x, y are single basis elements.
    [x, E] raises the weight n of x by one, so the two outer products
    differ in the first leg's n, no key is written twice and every entry
    is a non-zero int."""
    row_of: dict = defaultdict(dict)
    for ci, (x, y) in columns:
        for k1, c in _casimir_bracket(*x):
            row_of[(k1, y)][ci] = c
        for k2, c in _casimir_bracket(*y):
            row_of[(x, k2)][ci] = c
    return row_of


class _KernelBasis:
    """The homogeneous solutions of one solve: the nullspace vectors of
    _kernel, each as (ints, den) over the ansatz, one per free column.  A
    sequence of TensorElements that builds an element each time one is
    read and keeps none: len() builds nothing, basis[i] builds one element
    and iterating builds them one at a time.  Equal by value to any
    sequence of the same elements."""

    __slots__ = ("ansatz", "vectors")

    def __init__(self, ansatz: TwistAnsatz, vectors):
        self.ansatz, self.vectors = ansatz, tuple(vectors)

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, i):
        return self.ansatz.instantiate(*self.vectors[i])

    def __iter__(self):
        return (self.ansatz.instantiate(*v) for v in self.vectors)

    def __eq__(self, other):
        if not isinstance(other, (_KernelBasis, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self):
        return repr(list(self))


class SolutionSet(namedtuple("SolutionSet", "order cutoff_l cutoff_d status "
                             "particular homogeneous pivot_log unknown_count rank")):
    """Outcome of one order-k solve: a particular solution (free unknowns
    zeroed under the deterministic pivot order) and a basis of the
    homogeneous solution space inside the ansatz, both certified against
    all three generators; the basis is a sequence of TensorElements, each
    built whenever it is read (_KernelBasis).  status is "solved" or
    "infeasible-at-cutoff" (the J+ rows are inconsistent, and particular
    is None)."""

    __slots__ = ()

    @property
    def solved(self) -> bool:
        return self.status == "solved"

    def to_json(self) -> dict:
        """The solution document.  homogeneous_basis is an iterator, read
        once, so that a writer such as cli._json_dumps builds and holds one
        kernel element and its JSON at a time, not the whole basis; each
        document written builds each element once."""
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


# the RuntimeError of an order-k solution that fails its certificate
_UNCERTIFIED = "the order-{} solution fails its exact certificate"


def _solve(k: int, ansatz: TwistAnsatz, const: tuple) -> SolutionSet:
    """Assemble and solve the order-k J+ equations [F_k, Delta(E)] = -const,
    both sides doubled, const given in Casimir coordinates as (ints, den),
    over the unknowns that are not free columns of _kernel; those are
    zero in the particular.  The system goes to the solver in integers:
    the right-hand side -2c/den of a row is -2c/g with g = gcd(2c, den),
    and the row is scaled by den/g, so that solve_sparse takes every row
    as it is.  RuntimeError if the kernel fails its certificate, or if a
    solved system has a free column (module docstring)."""
    kernel = _kernel(ansatz.cutoff_l, ansatz.cutoff_d)
    if kernel is None:
        raise RuntimeError(_UNCERTIFIED.format(k))
    kept = [c for c in range(len(ansatz)) if c not in kernel]
    row_of = _j_plus_rows(enumerate(ansatz.columns[c] for c in kept))
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

    lin = solve_sparse(rows, rhs, len(kept))
    if lin.free_cols:
        raise RuntimeError(_UNCERTIFIED.format(k))
    solved = lin.status == "solved"
    values = {c: v for c, v in zip(kept, lin.particular or ()) if v}
    # an inconsistent system has no pivot columns and no nullspace
    return SolutionSet(
        k, ansatz.cutoff_l, ansatz.cutoff_d,
        "solved" if solved else "infeasible-at-cutoff",
        particular=ansatz.instantiate(*_integral(values)) if solved else None,
        homogeneous=_KernelBasis(ansatz, kernel.values() if solved else ()),
        pivot_log=[_column_label(ansatz.columns[kept[i]])
                   for i in lin.pivot_cols],
        unknown_count=len(ansatz), rank=len(lin.pivot_cols))


def _particular_certified(fs, ring_into, plus: tuple,
                          x: TensorElement) -> bool:
    """True iff low + h^k x has no order-k residual for any generator.
    low is the lower orders padded with F_k = 0, its coefficients fs in
    the form of hseries._ints and its ring kernel ring_into, and plus is
    its order-k J+ residual as (ints, den); adding h^k x adds
    [x, Delta(g)] at order k (module docstring).  low's order-k J0 and J-
    residuals are built by _residual_coefficient when their check is
    reached; J0's has no pair and is ({}, 1)."""
    xs, dx = _integral(x.terms)
    k = len(fs) - 1

    def seed(g):
        rs, dr = (plus if g == "J+"
                  else _residual_coefficient(fs, ring_into, g, k))
        return {key: dx * c for key, c in rs.items()}, dr
    return _brackets_vanish(xs, seed)


@cache
def _cartan_power(c: int) -> tuple:
    """P^c in Casimir coordinates, P = cartan_killing(), as ((key, int),
    ...) without zeros, cached.  The common denominator is dropped: scaling
    an invariant does not change the kernel test."""
    ints, _ = _casimir_coords(*_integral((cartan_killing() ** c).terms))
    return tuple((key, v) for key, v in ints.items() if v)


def _invariant_rows(cutoff_l: int, cutoff_d: int) -> tuple:
    """The invariants I1^a I2^b P^c with c <= L-1 and a + b + 2c <= D as
    integer rows {leg-key pair: int}, keyed like TwistAnsatz.columns.  I
    is central, so I1^a I2^b only shifts each leg's b."""
    rows = []
    for c in range(min(cutoff_l - 1, cutoff_d // 2) + 1):
        terms = _cartan_power(c)
        for a in range(cutoff_d - 2 * c + 1):
            for b in range(cutoff_d - 2 * c - a + 1):
                rows.append({((a1, b1 + a, n1), (a2, b2 + b, n2)): v
                             for ((a1, b1, n1), (a2, b2, n2)), v in terms})
    return tuple(rows)


@cache
def _kernel(cutoff_l: int, cutoff_d: int):
    """The kernel of the J+ system with cutoffs (L, D), from the
    invariants V: {free column f: the nullspace vector N_f as (ints, den),
    ints {column: int} over den}, by ascending f, or None if V fails its
    half of the certificate; cached, the vectors must not be modified.
    Every key of V must be a column of the ansatz, each row of V must give
    0 in integers against the J+ brackets of its keys (A V = 0), and V
    must have rank kappa.  Reduced to echelon form with each pivot at its
    row's last column (linsolve's elimination on negated columns), the
    pivots are the free columns, and each row, with its columns
    un-negated, over its pivot entry is N_f (module docstring).  The row
    is primitive and its pivot entry positive, so den is the lcm of the
    denominators of N_f in lowest terms."""
    column = dict(zip(_ansatz_columns(cutoff_l, cutoff_d), count()))
    negated = []
    for row in _invariant_rows(cutoff_l, cutoff_d):
        if not row.keys() <= column.keys():
            return None
        # A v: the J+ rows over the keys of v, weighted by its entries
        if any(sum(c * row[pair] for pair, c in entries.items())
               for entries in _j_plus_rows((pair, pair) for pair in row)
               .values()):
            return None
        negated.append({-column[pair]: v for pair, v in row.items()})
    pivots, _, _ = _echelon(negated, [0] * len(negated))
    if len(pivots) != len(negated):
        return None
    return {-lead: ({-col: v for col, v in row.items()}, row[lead])
            for lead, row in sorted(pivots.items(), reverse=True)}


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
    side shared by all attempts; the order-k J0 and J- residuals are
    built only for the certificate of a solved attempt.  Returns the last
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
    # side of every attempt; J0 and J- are built only to certify a solved
    # one
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
    if sol.solved and not _particular_certified(fs, ring_into, plus,
                                                sol.particular):
        raise RuntimeError(_UNCERTIFIED.format(k))
    return sol


def symmetrize_order(cand: TwistCandidate, k: int) -> tuple:
    """Adjust F_k by a kernel element so that the quasitriangular relation
    holds at order k, exploiting that the correction -rho/2 (rho the
    order-k quasitriangular residual) commutes with the classical
    coproducts whenever the lower orders already satisfy the relation.
    Returns (candidate, correction).  ValueError, before any residual is
    built, if k is above the candidate's order."""
    if k > cand.order:
        raise ValueError(f"cannot symmetrize order {k} of an order-"
                         f"{cand.order} candidate")
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
    that order.  Each order is solved from the ansatz with the given
    cutoffs, enlarged at most `max_escalations` times (solve_order).
    Returns (candidate, [SolutionSet per order]).  ValueError for a
    negative order."""
    if order < 0:
        raise ValueError(f"the order must be >= 0, got {order}")
    cand = TwistCandidate.from_coefficients([TensorElement.one()])
    sols = []
    for k in range(1, order + 1):
        sol = solve_order(k, cand, TwistAnsatz(k, cutoff_l, cutoff_d),
                          max_escalations)
        sols.append(sol)
        if not sol.solved:
            return cand, sols
        cand = TwistCandidate.from_coefficients(
            list(cand.series.coeffs) + [sol.particular])
        cand, _ = symmetrize_order(cand, k)
    return cand, sols
