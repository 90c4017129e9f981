"""Finite-dimensional spin representations over exact rationals.

The spin-j module (dimension 2j+1, j half-integral, stored as the integer
two_j) uses the rational normalization

    rho(H) e_m = m e_m,   rho(E) e_m = (j-m) e_{m+1},
    rho(F) e_m = (j+m)/2 e_{m-1},

with basis ordered e_j, e_{j-1}, ..., e_{-j}.  No entry ever involves a
square root, at the cost of a non-unitary basis; every check in this
package is an algebraic identity, so the basis choice is immaterial, but
matrix output differs from square-root-normalized conventions by a
diagonal similarity.

Each generator maps a basis vector to a multiple of one basis vector, so
a monomial does too, and rho(E^e F^f H^d) has a single non-zero diagonal:
column i (weight m = j - i) goes to row i + f - e with the value

    m^d * prod_{t<f} (2j-i-t)/2 * prod_{t<e} (i+f-t),

which is zero unless i + f <= 2j and e <= i + f.  `_mono_entries` is this
formula; every matrix here, rho(H), rho(E) and rho(F) included, sums it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, reduce
from math import perm, prod

from .candidate import TwistCandidate, unitarity_defect
from .hseries import HSeries
from .pbw import Element
from .report import VerificationReport
from .tensor import TensorElement


def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _identity(n):
    m = _zeros(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return tuple(tuple(r) for r in m)


def _freeze(m):
    return tuple(tuple(r) for r in m)


def _mat_mul(a, b):
    n = len(a)
    p = len(b[0])
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        row = out[i]
        for k in range(len(b)):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(p):
                    if bk[j]:
                        row[j] += c * bk[j]
    return _freeze(out)


def _mat_add(a, b, scale=Fraction(1)):
    return _freeze([[a[i][j] + scale * b[i][j] for j in range(len(a[0]))]
                    for i in range(len(a))])


@cache
def _mono_entries(two_j: int, mono) -> tuple:
    """The non-zero entries (row, col, value) of rho(E^e F^f H^d), one per
    column i whose image stays inside the module, in the order of i."""
    e, f, d = mono
    return tuple((i + f - e, i, v)
                 for i in range(max(0, e - f), two_j - f + 1)
                 if (v := Fraction(two_j - 2 * i, 2) ** d
                     * Fraction(perm(two_j - i, f) * perm(i + f, e), 2 ** f)))


def _matrix(two_j: int, terms) -> tuple:
    """The sum of c * rho(mono) over the (mono, c) pairs of terms."""
    out = _zeros(two_j + 1)
    for mono, c in terms:
        for i, j, v in _mono_entries(two_j, mono):
            out[i][j] += c * v
    return _freeze(out)


class SpinRep(namedtuple("SpinRep", "two_j dim h e f")):
    """The spin-(two_j/2) irreducible representation with rational entries:
    h, e and f are the matrices of H, E and F."""

    __slots__ = ()

    def casimir_scalar(self) -> Fraction:
        j = Fraction(self.two_j, 2)
        return j * (j + 1)


@cache
def spin_rep(two_j: int) -> SpinRep:
    if two_j < 0:
        raise ValueError("two_j must be nonnegative")
    h, e, f = (_matrix(two_j, [(mono, 1)])
               for mono in ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    return SpinRep(two_j, two_j + 1, h, e, f)


def element_matrix(x: Element, rep: SpinRep):
    return _matrix(rep.two_j, x.terms.items())


def _order_at_least_0(order: int) -> int:
    """order, or ValueError naming it if it is negative."""
    if order < 0:
        raise ValueError(f"matrix order must be >= 0, got {order}")
    return order


class RepMatrix:
    """A square matrix whose entries are truncated scalar series, stored
    as one exact rational matrix per h-order."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, coeffs):
        """ValueError for no coefficient, an order below 0."""
        self.dim = dim
        self.order = _order_at_least_0(len(coeffs) - 1)
        self.coeffs = tuple(coeffs)

    @classmethod
    def identity(cls, dim: int, order: int) -> "RepMatrix":
        """ValueError for a negative order."""
        _order_at_least_0(order)
        zero = _freeze(_zeros(dim))
        return cls(dim, (_identity(dim),) + (zero,) * order)

    def entry(self, i: int, j: int) -> HSeries:
        return HSeries(tuple(m[i][j] for m in self.coeffs), self.order)

    def _check(self, other):
        if self.order != other.order or self.dim != other.dim:
            raise ValueError("RepMatrix mismatch")

    def __mul__(self, other):
        if not isinstance(other, RepMatrix):
            return NotImplemented
        self._check(other)
        return RepMatrix(self.dim, tuple(
            reduce(_mat_add, (_mat_mul(self.coeffs[k], other.coeffs[n - k])
                              for k in range(n + 1)))
            for n in range(self.order + 1)))

    def _plus(self, other, scale):
        if not isinstance(other, RepMatrix):
            return NotImplemented
        self._check(other)
        return RepMatrix(self.dim, tuple(_mat_add(a, b, scale)
                                         for a, b in zip(self.coeffs, other.coeffs)))

    def __add__(self, other):
        return self._plus(other, Fraction(1))

    def __sub__(self, other):
        return self._plus(other, Fraction(-1))

    def __eq__(self, other):
        if not isinstance(other, RepMatrix):
            return NotImplemented
        return (self.dim == other.dim and self.order == other.order
                and self.coeffs == other.coeffs)

    def first_nonzero(self):
        """The order of the first non-zero matrix, or None if all vanish."""
        return next((k for k, m in enumerate(self.coeffs)
                     if any(any(row) for row in m)), None)

    def is_zero(self) -> bool:
        return self.first_nonzero() is None

    def is_identity(self) -> bool:
        return self == RepMatrix.identity(self.dim, self.order)

    def to_json(self) -> dict:
        """The matrix as row-major cells, each the list of its series
        coefficients.  "matrix" is an iterator that builds one row at a
        time and can be read once, so that a streamed write
        (cli._json_dumps) never holds the whole matrix of dicts."""
        return {
            "dim": self.dim,
            "order": self.order,
            "matrix": ([[{"num": m[i][j].numerator, "den": m[i][j].denominator}
                         for m in self.coeffs]
                        for j in range(self.dim)]
                       for i in range(self.dim)),
        }

    def _cell(self, i: int, j: int) -> str:
        # most cells of a tensor rep matrix are zero series, printed "0"
        return str(self.entry(i, j)) if any(m[i][j] for m in self.coeffs) else "0"

    def render_text(self, fh) -> None:
        """Write one line per row to fh, each cell padded to the widest of
        its column.  The widths are found in a first pass, so that only one
        row of cell text is held at a time."""
        n = range(self.dim)
        widths = [max(len(self._cell(i, j)) for i in n) for j in n]
        for i in n:
            fh.write("[ " + " | ".join(self._cell(i, j).ljust(widths[j]) for j in n)
                     + " ]\n")


def _as_tensor_series(x, order=None) -> HSeries:
    if isinstance(x, HSeries):
        return x
    if isinstance(x, TensorElement):
        return HSeries.constant(x, order if order is not None else 0)
    raise ValueError("expected a tensor element or a series of them")


def evaluate(x, *reps: SpinRep) -> RepMatrix:
    """Legwise algebra-morphism evaluation of a tensor element or series
    into the Kronecker product of one representation per leg: the entry of
    a term at row r1*dim2 + r2 (mixed radix for more legs) is the product
    of its legs' entries, added straight into the result."""
    s = _as_tensor_series(x)
    dim = prod(rep.dim for rep in reps)
    out = []
    for c in s.coeffs:
        if c.legs != len(reps):
            raise ValueError(f"{c.legs}-leg element needs {c.legs} "
                             f"representations, got {len(reps)}")
        acc = _zeros(dim)
        for key, coef in c.terms.items():
            entries = [(0, 0, coef)]
            for rep, mono in zip(reps, key):
                n = rep.dim
                entries = [(r * n + r2, k * n + k2, v * w) for r, k, v in entries
                           for r2, k2, w in _mono_entries(rep.two_j, mono)]
            for r, k, v in entries:
                acc[r][k] += v
        out.append(_freeze(acc))
    return RepMatrix(dim, out)


def semi_universal(cand: TwistCandidate, order: int | None = None):
    """Apply spin-1/2 to the first leg only: a 2x2 array of Element
    series (the second leg stays universal), at the candidate's order or
    padded or truncated to `order`."""
    series = cand.at_order(cand.order if order is None else order).series
    out = [[[Element.zero() for _ in range(series.order + 1)] for _ in range(2)]
           for _ in range(2)]
    for k, c in enumerate(series.coeffs):
        for (m1, m2), coef in sorted(c.terms.items()):
            rest = Element({m2: 1})
            for i, j, v in _mono_entries(1, m1):
                out[i][j][k] = out[i][j][k] + rest * (coef * v)
    return [[HSeries(tuple(out[i][j]), series.order) for j in range(2)]
            for i in range(2)]


def rep_unitarity_check(cand, order: int) -> VerificationReport:
    """sigma(F) F = 1 evaluated in spin-1/2 (x) spin-1/2."""
    half = spin_rep(1)
    return VerificationReport.of({"unitarity in 1/2 (x) 1/2": evaluate(
        unitarity_defect(cand.at_order(order)), half, half)})
