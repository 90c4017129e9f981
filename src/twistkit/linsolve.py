"""Sparse exact linear solving over the rationals.

Each equation, its entries and right-hand side ints or Fractions, is
scaled once to integers by the lcm of its denominators into a new row,
and rows stay dicts of ints from then on; an equation that is already in
integers (the twist solver scales its rows before the call) is only
copied.  Rows are reduced incrementally against the
pivot rows found so far, combining two rows with multipliers divided by
their gcd.  They are visited fewest non-zero entries first, ties broken
by the caller's row index (for the twist solver, the order in which
its assembly first writes each row): sparse rows make sparse pivots, so
later rows fill in less while they are reduced (the row order of
structured Gaussian elimination; Markowitz 1957, LaMacchia & Odlyzko
1990).  The order is one stable sort of the rows' non-zero counts.

The work is paid per reduction step, not per row.  A row whose leading
column has no pivot yet (about two rows in three of the twist solver's
order-3 systems) is stored as a pivot at once.  Each reduction step
updates the working row in place and walks only the pivot row's
entries; the working row is multiplied through only when its multiplier
is not 1, which is rare.  A row that needs a step keeps its columns in
a heap from then on, so no step scans the row for its next lead.  Every
stored pivot row is primitive (content 1, leading entry positive), which
fixes it by the line it spans alone, so the elimination is fraction-free
and bit-for-bit reproducible; the content step is told the lead and
keeps a row that is already primitive as it is.  Fractions reappear
only when the solution is read off.  Pivot columns are the leading
(smallest-index) columns of the echelon rows; the particular solution
sets every free column to zero.  The back-reduced echelon form of the
row space is unique under the fixed column order, so the visiting order
moves the time but not the answer.

The elimination itself, the forward pass and then the back-reduction
that clears every later pivot column from each pivot row, is _echelon,
which has two callers.  solve_sparse reads the solution off its pivot
rows.  twist._kernel runs it on the invariant rows with every column c
keyed as -c, so that the leading column is a row's last one and each
pivot lands there.

An equation with no non-zero entry and a non-zero right-hand side is
answered before any of this: it would be visited first and prove the
system inconsistent before any pivot is found, so the solver returns
that verdict, with an empty pivot log, without counting, sorting or
scaling a row.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, inf
from operator import countOf

from .lincomb import _integral

# the augmented-column key inside a row dict: it sorts after every column,
# so min(row) is the row's leading column, or RHS when no column is left
RHS = inf

_INT = {int}


def _integer_row(row: dict, b) -> dict:
    """The equation row . x = b as a new integer row: every nonzero entry
    times the lcm of the denominators."""
    if _INT.issuperset(map(type, row.values())) and type(b) is int:
        # nothing to scale
        out = (row.copy() if 0 not in row.values()
               else {k: v for k, v in row.items() if v})
        if b:
            out[RHS] = b
        return out
    return _integral({k: v for k, v in (*row.items(), (RHS, b)) if v})[0]


def _primitive(row: dict, lead) -> dict:
    """The integer pivot row with leading column lead divided by its
    content, its leading entry made positive; row itself when it already
    is."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g == 1:
        return row
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


def _echelon(rows, rhs) -> tuple:
    """The back-reduced echelon form of the equations rows[i] . x = rhs[i]:
    (pivots, pivot_order, consistent), pivots {lead: primitive integer
    row} and pivot_order the (lead, row index) pairs in the order the
    forward pass found them.  That pass stops at the first row that
    reduces to 0 = b != 0, with consistent False and no back-reduction."""
    pivots: dict = {}
    pivot_order: list = []
    # an empty equation 0 = b != 0: the verdict the elimination would reach
    # on its first row (module docstring)
    if any(b and not any(row.values()) for row, b in zip(rows, rhs)):
        return pivots, pivot_order, False
    counts = [len(row) - countOf(row.values(), 0) for row in rows]
    for idx in sorted(range(len(rows)), key=counts.__getitem__):
        work = _integer_row(rows[idx], rhs[idx])
        lead = min(work, default=RHS)
        if lead in pivots:
            # every column of work is in the heap; popped keys no longer in
            # work are stale, and a step only inserts keys above the lead
            _reduce(work, pivots[lead], lead)
            heap = [k for k in work if k != RHS]
            heapify(heap)
            while True:
                while heap and heap[0] not in work:
                    heappop(heap)
                if not heap:
                    lead = RHS
                    break
                lead = heappop(heap)
                if lead not in pivots:
                    break
                for k in _reduce(work, pivots[lead], lead):
                    if k != RHS:
                        heappush(heap, k)
        if lead != RHS:
            pivots[lead] = _primitive(work, lead)
            pivot_order.append((lead, idx))
        elif work:
            return pivots, pivot_order, False

    # back-reduce: clear every later pivot column from each pivot row.  The
    # later rows are already back-reduced, so a step brings in no pivot
    # column and the order of the steps moves only the scale
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for later in sorted(k for k in row if k > c and k in pivots):
            _reduce(row, pivots[later], later)
        pivots[c] = _primitive(row, c)
    return pivots, pivot_order, True


def solve_sparse(rows, rhs, ncols: int) -> LinearSolution:
    """Solve A x = b for sparse rows (dicts col->int or Fraction), visited
    fewest non-zero entries first, then by row index; returns a particular
    solution with free columns zeroed plus a nullspace basis (one vector
    per free column).  ValueError if rhs and rows differ in length."""
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand "
                         f"sides")
    pivots, pivot_order, consistent = _echelon(rows, rhs)
    if not consistent:
        return LinearSolution("inconsistent", ncols, [], [], None, [], pivot_order)

    pivot_cols = sorted(pivots)
    free_cols = [c for c in range(ncols) if c not in pivots]

    # after back-reduction only the pivot column, free columns and RHS remain
    particular = [Fraction(0)] * ncols
    nullspace = {f: [Fraction(0)] * ncols for f in free_cols}
    for f, vec in nullspace.items():
        vec[f] = Fraction(1)
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
