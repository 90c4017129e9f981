import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import twistkit.linsolve as linsolve
import twistkit.twist as twist
from conftest import random_fraction
from twistkit.linsolve import (RHS, LinearSolution, _integer_row, _primitive,
                               solve_sparse)
from twistkit.twist import (TwistAnsatz, TwistCandidate, reference_candidate,
                            solve_order)


def gauss_jordan(rows, rhs, ncols):
    """Dense Fraction Gauss-Jordan elimination: (status, pivot columns,
    reduced rows [coeffs..., rhs]) with every pivot entry 1."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [v - mat[i][c] * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] for row in mat[r:]):
        return "inconsistent", pivots, mat[:r]
    return "solved", pivots, mat[:r]


def random_system(rng):
    """A sparse system of at most 8 rows and 6 columns; some of its rows
    are combinations of earlier ones, with a consistent or a perturbed
    right-hand side."""
    ncols = rng.randint(1, 6)
    rows, rhs = [], []
    for _ in range(rng.randint(1, 8)):
        if rows and rng.random() < 0.4:
            picks = [(rng.randrange(len(rows)), random_fraction(rng))
                     for _ in range(rng.randint(1, 2))]
            row = {}
            b = Fraction(0)
            for i, s in picks:
                for c, v in rows[i].items():
                    row[c] = row.get(c, 0) + s * v
                b += s * rhs[i]
            if rng.random() < 0.3:
                b += rng.randint(1, 3)
        else:
            row = {c: random_fraction(rng) for c in range(ncols)
                   if rng.random() < 0.5}
            b = random_fraction(rng) if rng.random() < 0.7 else Fraction(0)
        rows.append({c: v for c, v in row.items() if v})
        rhs.append(b)
    return rows, rhs, ncols


def dot(row, vec):
    return sum((v * vec[c] for c, v in row.items()), Fraction(0))


def systems(rng, count=300):
    return [random_system(rng) for _ in range(count)]


def test_status_and_pivots_match_gauss_jordan(rng):
    statuses = set()
    for rows, rhs, ncols in systems(rng):
        status, pivots, _ = gauss_jordan(rows, rhs, ncols)
        sol = solve_sparse(rows, rhs, ncols)
        assert sol.status == status
        statuses.add(status)
        if status == "solved":
            assert sol.pivot_cols == pivots
            assert sol.free_cols == [c for c in range(ncols) if c not in pivots]
            assert len(sol.pivot_log) == len(pivots)
    assert statuses == {"solved", "inconsistent"}


def test_particular_solves_every_row(rng):
    for rows, rhs, ncols in systems(rng):
        sol = solve_sparse(rows, rhs, ncols)
        if sol.status != "solved":
            continue
        assert len(sol.particular) == ncols
        assert all(type(v) is Fraction for v in sol.particular)
        assert all(dot(row, sol.particular) == b for row, b in zip(rows, rhs))
        assert all(sol.particular[f] == 0 for f in sol.free_cols)


def test_particular_is_the_reduced_echelon_solution(rng):
    for rows, rhs, ncols in systems(rng):
        status, pivots, reduced = gauss_jordan(rows, rhs, ncols)
        if status != "solved":
            continue
        want = [Fraction(0)] * ncols
        for c, row in zip(pivots, reduced):
            want[c] = row[-1]
        assert solve_sparse(rows, rhs, ncols).particular == want


def test_nullspace_vectors_solve_the_homogeneous_rows(rng):
    for rows, rhs, ncols in systems(rng):
        sol = solve_sparse(rows, rhs, ncols)
        if sol.status != "solved":
            continue
        assert len(sol.nullspace) == len(sol.free_cols)
        for f, vec in zip(sol.free_cols, sol.nullspace):
            assert len(vec) == ncols
            assert all(type(v) is Fraction for v in vec)
            assert vec[f] == 1
            assert all(vec[g] == 0 for g in sol.free_cols if g != f)
            assert all(dot(row, vec) == 0 for row in rows)


def _answer(sol):
    return sol.status, sol.pivot_cols, sol.particular, sol.nullspace


def test_shuffled_rows_give_the_same_answer(rng):
    for rows, rhs, ncols in systems(rng):
        order = list(range(len(rows)))
        rng.shuffle(order)
        shuffled = solve_sparse([rows[i] for i in order], [rhs[i] for i in order],
                                ncols)
        assert _answer(shuffled) == _answer(solve_sparse(rows, rhs, ncols))


def test_scaled_row_gives_the_same_answer(rng):
    for rows, rhs, ncols in systems(rng):
        i = rng.randrange(len(rows))
        s = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
        scaled_rows = list(rows)
        scaled_rhs = list(rhs)
        scaled_rows[i] = {c: v * s for c, v in rows[i].items()}
        scaled_rhs[i] = rhs[i] * s
        assert (_answer(solve_sparse(scaled_rows, scaled_rhs, ncols))
                == _answer(solve_sparse(rows, rhs, ncols)))


def test_rows_are_visited_fewest_nonzeros_first():
    rows = [{0: 1, 1: 2, 2: 3}, {2: 5}, {1: 1, 2: 1}, {0: 4}]
    sol = solve_sparse(rows, [4, 0, 2, 0], 3)
    # (pivot column, caller's row index): rows 1 and 3 tie on one entry
    # and go by index, row 2 follows, row 0 reduces to nothing
    assert sol.pivot_log == [(2, 1), (0, 3), (1, 2)]
    assert sol.particular == [0, 2, 0]


@pytest.mark.parametrize("rows, rhs, status", [
    ([{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}],
     [Fraction(1), Fraction(3)], "inconsistent"),
    ([{}], [Fraction(1)], "inconsistent"),
    ([{}], [Fraction(0)], "solved"),
    ([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(3), 1: Fraction(2)}],
     [Fraction(1), Fraction(6)], "solved"),
])
def test_small_systems(rows, rhs, status):
    sol = solve_sparse(rows, rhs, 2)
    assert sol.status == status
    if status == "solved":
        assert all(dot(row, sol.particular) == b for row, b in zip(rows, rhs))


def _eliminate(row: dict, pivot_row: dict, col) -> dict:
    """row * a - pivot_row * b with a = pivot[col] and b = row[col] both
    divided by their gcd, as a new dict; col and zeros are dropped."""
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


def reference_solve(rows, rhs, ncols: int) -> LinearSolution:
    """The solver before in-place reduction: every step copies the working
    row and rescans it for its lead, back-reduction tests every later
    pivot column, and the nullspace tests every (free, pivot) pair."""
    pivots: dict = {}
    pivot_order: list = []
    inconsistent = False
    visit = sorted(range(len(rows)),
                   key=lambda i: (sum(map(bool, rows[i].values())), i))
    for idx in visit:
        row = {k: v for k, v in (*rows[idx].items(), (RHS, rhs[idx])) if v}
        work = linsolve._integral(row)[0]
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

    if inconsistent:
        return LinearSolution("inconsistent", ncols, [], [], None, [], pivot_order)

    pivot_cols = sorted(pivots)
    free_cols = [c for c in range(ncols) if c not in pivots]

    for c in reversed(pivot_cols):
        row = pivots[c]
        for later in pivot_cols:
            if later > c and later in row:
                row = _eliminate(row, pivots[later], later)
        pivots[c] = _primitive(row)

    particular = [Fraction(0)] * ncols
    for c in pivot_cols:
        row = pivots[c]
        particular[c] = Fraction(row.get(RHS, 0), row[c])

    nullspace = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c in pivot_cols:
            row = pivots[c]
            if f in row:
                vec[c] = Fraction(-row[f], row[c])
        nullspace.append(vec)
    return LinearSolution("solved", ncols, pivot_cols, free_cols, particular,
                          nullspace, pivot_order)


def _same_solution(got: LinearSolution, want: LinearSolution):
    assert got == want
    for vec in (got.particular or [], *got.nullspace):
        assert all(type(v) is Fraction for v in vec)


ENTRY_KINDS = ("int", "fraction", "int-fraction")


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "int-fraction":
        return Fraction(rng.randint(-9, 9))
    return random_fraction(rng)


def larger_system(rng, kind, rhs_kind):
    """20-60 rows over 10-40 columns of `kind` entries (zeros kept as
    explicit entries), about a third of them combinations of earlier rows
    so that reduction fills in and cancels; the right-hand side is
    consistent unless a combination row is perturbed."""
    ncols = rng.randint(10, 40)
    rows, rhs = [], []
    for _ in range(rng.randint(20, 60)):
        if len(rows) >= 2 and rng.random() < 0.35:
            row, b = {}, 0
            for _ in range(rng.randint(2, 4)):
                i = rng.randrange(len(rows))
                s = rng.randint(-3, 3)
                for c, v in rows[i].items():
                    row[c] = row.get(c, 0) + s * v
                b += s * rhs[i]
            if rng.random() < 0.1:
                b += 1
            if kind == "int-fraction":
                row = {c: Fraction(v) for c, v in row.items()}
        else:
            row = {c: _entry(rng, kind) for c in rng.sample(range(ncols),
                                                         rng.randint(1, 6))}
            b = _entry(rng, "int" if rhs_kind == "int" else "fraction")
        if rhs_kind == "fraction":
            b = Fraction(b)
        rows.append(row)
        rhs.append(b)
    return rows, rhs, ncols


@pytest.mark.parametrize("kind, rhs_kind", [
    ("int", "fraction"), ("int", "int"), ("fraction", "fraction"),
    ("int-fraction", "int"), ("int-fraction", "fraction"),
])
def test_matches_reference_solver_on_larger_systems(rng, kind, rhs_kind):
    statuses = set()
    for _ in range(40):
        rows, rhs, ncols = larger_system(rng, kind, rhs_kind)
        assert any(v == 0 for row in rows for v in row.values())
        sol = solve_sparse(rows, rhs, ncols)
        _same_solution(sol, reference_solve(rows, rhs, ncols))
        statuses.add(sol.status)
    assert statuses == {"solved", "inconsistent"}


def test_larger_systems_reduce_with_a_multiplier_above_one(rng, monkeypatch):
    multipliers = []
    reduce = linsolve._reduce

    def spy(work, pivot_row, col):
        multipliers.append(pivot_row[col] // gcd(pivot_row[col], work[col]))
        return reduce(work, pivot_row, col)

    monkeypatch.setattr(linsolve, "_reduce", spy)
    for _ in range(10):
        rows, rhs, ncols = larger_system(rng, "int", "fraction")
        _same_solution(solve_sparse(rows, rhs, ncols),
                       reference_solve(rows, rhs, ncols))
    assert 1 in multipliers
    assert max(multipliers) > 1


def test_inconsistent_system_keeps_pivots_up_to_the_contradiction():
    rows = [{0: 2, 1: 1}, {0: 3, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: 1},
            {1: 3, 2: -2}]
    rhs = [1, 0, 0, 0, Fraction(1, 2)]
    sol = solve_sparse(rows, rhs, 3)
    _same_solution(sol, reference_solve(rows, rhs, 3))
    assert sol.status == "inconsistent"
    assert sol.pivot_log == [(0, 0), (1, 1), (2, 2)]


@pytest.mark.parametrize("row, b, want", [
    ({0: 2, 1: 0, 3: -4}, Fraction(3, 4), {0: 8, 3: -16, RHS: 3}),
    ({0: 2, 1: -1}, 5, {0: 2, 1: -1, RHS: 5}),
    ({0: 2}, Fraction(0), {0: 2}),
    ({0: Fraction(1, 2), 2: 3}, 1, {0: 1, 2: 6, RHS: 2}),
    ({0: True, 1: 2}, Fraction(1, 3), {0: 3, 1: 6, RHS: 1}),
    ({}, Fraction(-2, 3), {RHS: -2}),
])
def test_integer_row(row, b, want):
    got = _integer_row(row, b)
    assert got == want
    assert all(type(v) is int for v in got.values())


def _captured_systems(monkeypatch, run):
    """The (rows, rhs, ncols) of every solve_sparse call made by run()."""
    seen = []

    def spy(rows, rhs, ncols):
        seen.append((rows, rhs, ncols))
        return solve_sparse(rows, rhs, ncols)

    monkeypatch.setattr(twist, "solve_sparse", spy)
    run()
    return seen


def test_matches_reference_solver_on_the_j_plus_systems(monkeypatch):
    fixture = Path(__file__).parent / "data" / "candidate-order3.json"
    order2 = TwistCandidate.from_json(json.loads(fixture.read_text())).at_order(2)

    def run():
        solve_order(1, reference_candidate(0), TwistAnsatz(1))
        solve_order(2, reference_candidate(1), TwistAnsatz(2))
        for L, D in ((2, 2), (3, 5)):
            solve_order(3, order2, TwistAnsatz(3, L, D))

    seen = _captured_systems(monkeypatch, run)
    statuses = []
    for rows, rhs, ncols in seen:
        sol = solve_sparse(rows, rhs, ncols)
        _same_solution(sol, reference_solve(rows, rhs, ncols))
        statuses.append(sol.status)
    assert statuses == ["solved", "solved", "inconsistent", "inconsistent"]
