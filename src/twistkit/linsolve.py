"""Sparse exact linear solving over the rationals.

Each equation, its entries and right-hand side ints or Fractions, is
scaled once to integers by the lcm of its denominators, and rows stay
dicts of ints from then on.  Rows are reduced incrementally against the
pivot rows found so far, combining two rows with multipliers divided by
their gcd.  They are visited fewest non-zero entries first, ties broken
by the caller's row index: sparse rows make sparse pivots, so later rows
fill in less while they are reduced (the row order of structured
Gaussian elimination; Markowitz 1957, LaMacchia & Odlyzko 1990).  Every
stored pivot row is primitive (content 1, leading entry positive), which
fixes it by the line it spans alone, so the elimination is fraction-free
and bit-for-bit reproducible.  Fractions reappear only when the solution
is read off.  Pivot columns are the leading (smallest-index) columns of
the echelon rows; the particular solution sets every free column to
zero.  The back-reduced echelon form of the row space is unique under
the fixed column order, so the visiting order moves the time but not
the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .lincomb import _integral

RHS = -1  # augmented-column key inside a row dict


def _integer_row(row: dict, b) -> dict:
    """The equation row . x = b as an integer row: every nonzero entry
    times the lcm of the denominators."""
    return _integral({k: v for k, v in (*row.items(), (RHS, b)) if v})[0]


def _primitive(row: dict) -> dict:
    """Divide an integer pivot row by its content, making its leading
    (smallest-column) entry positive."""
    g = gcd(*row.values())
    if row[min(k for k in row if k != RHS)] < 0:
        g = -g
    return {k: v // g for k, v in row.items()}


def _eliminate(row: dict, pivot_row: dict, col) -> dict:
    """row * a - pivot_row * b with a = pivot[col] and b = row[col] both
    divided by their gcd; col and zeros are dropped."""
    a = pivot_row[col]
    b = row[col]
    g = gcd(a, b)
    a //= g
    b //= g
    out = {k: v * a for k, v in row.items() if k != col}
    for k, v in pivot_row.items():
        if k == col:
            continue
        w = out.get(k, 0) - v * b
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


@dataclass
class LinearSolution:
    status: str                      # "solved" or "inconsistent"
    ncols: int
    pivot_cols: list = field(default_factory=list)
    free_cols: list = field(default_factory=list)
    particular: list | None = None   # Fractions, len ncols
    nullspace: list = field(default_factory=list)
    # (pivot column, caller's row index) in the order the pivots were found
    pivot_log: list = field(default_factory=list)


def solve_sparse(rows, rhs, ncols: int) -> LinearSolution:
    """Solve A x = b for sparse rows (dicts col->int or Fraction), visited
    fewest non-zero entries first, then by row index; returns a particular
    solution with free columns zeroed plus a nullspace basis (one vector
    per free column)."""
    pivots: dict = {}
    pivot_order: list = []
    inconsistent = False
    visit = sorted(range(len(rows)),
                   key=lambda i: (sum(map(bool, rows[i].values())), i))
    for idx in visit:
        work = _integer_row(rows[idx], rhs[idx])
        while True:
            cols = [k for k in work if k != RHS]
            if not cols:
                if work.get(RHS):
                    inconsistent = True
                break
            lead = min(cols)
            if lead in pivots:
                work = _eliminate(work, pivots[lead], lead)
            else:
                work = _primitive(work)
                pivots[lead] = work
                pivot_order.append((lead, idx))
                break
        if inconsistent:
            break

    sol = LinearSolution(status="inconsistent" if inconsistent else "solved",
                         ncols=ncols, pivot_log=pivot_order)
    if inconsistent:
        return sol

    pivot_cols = sorted(pivots)
    free_cols = [c for c in range(ncols) if c not in pivots]
    sol.pivot_cols = pivot_cols
    sol.free_cols = free_cols

    # back-reduce to simplify extraction: clear later pivot columns
    for c in reversed(pivot_cols):
        row = pivots[c]
        for later in pivot_cols:
            if later > c and later in row:
                row = _eliminate(row, pivots[later], later)
        pivots[c] = _primitive(row)

    # after back-reduction only the pivot column, free columns and RHS remain
    sol.particular = [Fraction(0)] * ncols
    for c in pivot_cols:
        row = pivots[c]
        sol.particular[c] = Fraction(row.get(RHS, 0), row[c])

    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c in pivot_cols:
            row = pivots[c]
            if f in row:
                vec[c] = Fraction(-row[f], row[c])
        sol.nullspace.append(vec)
    return sol
