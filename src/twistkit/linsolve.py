"""Sparse exact linear solving over the rationals.

Each equation, its entries and right-hand side ints or Fractions, is
scaled once to integers by the lcm of its denominators, and rows stay
dicts of ints from then on.  Rows are reduced incrementally against the
pivot rows found so far, combining two rows with multipliers divided by
their gcd.  They are visited fewest non-zero entries first, ties broken
by the caller's row index: sparse rows make sparse pivots, so later rows
fill in less while they are reduced (the row order of structured
Gaussian elimination; Markowitz 1957, LaMacchia & Odlyzko 1990).  Each
reduction step updates the working row in place and walks only the
pivot row's entries; the working row is multiplied through only when
its multiplier is not 1, which is rare.  The working row's leading
column comes from a heap of its candidate columns, so no step scans the
row.  Every stored pivot row is primitive (content 1, leading entry
positive), which fixes it by the line it spans alone, so the elimination
is fraction-free and bit-for-bit reproducible.  Fractions reappear only
when the solution is read off.  Pivot columns are the leading
(smallest-index) columns of the echelon rows; the particular solution
sets every free column to zero.  The back-reduced echelon form of the
row space is unique under the fixed column order, so the visiting order
moves the time but not the answer.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .lincomb import _integral

RHS = -1  # augmented-column key inside a row dict


def _integer_row(row: dict, b) -> dict:
    """The equation row . x = b as an integer row: every nonzero entry
    times the lcm of the denominators."""
    if all(type(v) is int for v in row.values()):
        # the lcm is b's denominator alone
        den = b.denominator
        out = {k: v * den for k, v in row.items() if v}
        if b:
            out[RHS] = b.numerator
        return out
    return _integral({k: v for k, v in (*row.items(), (RHS, b)) if v})[0]


def _primitive(row: dict) -> dict:
    """Divide an integer pivot row by its content, making its leading
    (smallest-column) entry positive."""
    g = gcd(*row.values())
    if row[min(k for k in row if k != RHS)] < 0:
        g = -g
    return {k: v // g for k, v in row.items()}


def _reduce(work: dict, pivot_row: dict, col) -> list:
    """work = work * a - pivot_row * b in place, with a = pivot_row[col]
    and b = work[col] both divided by their gcd; col and zeros are
    dropped.  Returns the keys the step inserted into work."""
    b = work.pop(col)
    a = pivot_row[col]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for k in work:
            work[k] *= a
    new = []
    for k, v in pivot_row.items():
        if k == col:
            continue
        w = work.get(k)
        if w is None:
            work[k] = -v * b
            new.append(k)
        else:
            w -= v * b
            if w:
                work[k] = w
            else:
                del work[k]
    return new


# status is "solved" or "inconsistent"; particular is a list of ncols
# Fractions, or None; pivot_log holds (pivot column, caller's row index) in
# the order the pivots were found
LinearSolution = namedtuple("LinearSolution", "status ncols pivot_cols "
                            "free_cols particular nullspace pivot_log")


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
        # every column of work is in the heap; popped keys no longer in
        # work are stale, and a step only inserts keys above the lead
        heap = [k for k in work if k != RHS]
        heapify(heap)
        while True:
            while heap and heap[0] not in work:
                heappop(heap)
            if not heap:
                if work.get(RHS):
                    inconsistent = True
                break
            lead = heappop(heap)
            if lead in pivots:
                for k in _reduce(work, pivots[lead], lead):
                    if k != RHS:
                        heappush(heap, k)
            else:
                work = _primitive(work)
                pivots[lead] = work
                pivot_order.append((lead, idx))
                break
        if inconsistent:
            break

    if inconsistent:
        return LinearSolution("inconsistent", ncols, [], [], None, [], pivot_order)

    pivot_cols = sorted(pivots)
    free_cols = [c for c in range(ncols) if c not in pivots]

    # back-reduce to simplify extraction: clear later pivot columns.  The
    # later rows are already back-reduced, so a step brings in no pivot
    # column and the order of the steps moves only the scale
    for c in reversed(pivot_cols):
        row = pivots[c]
        for later in sorted(k for k in row if k > c and k in pivots):
            _reduce(row, pivots[later], later)
        pivots[c] = _primitive(row)

    # after back-reduction only the pivot column, free columns and RHS remain
    particular = [Fraction(0)] * ncols
    nullspace = {}
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        nullspace[f] = vec
    for c in pivot_cols:
        row = pivots[c]
        p = row[c]
        for k, v in row.items():
            if k == RHS:
                particular[c] = Fraction(v, p)
            elif k != c:
                nullspace[k][c] = Fraction(-v, p)
    return LinearSolution("solved", ncols, pivot_cols, free_cols, particular,
                          list(nullspace.values()), pivot_order)
