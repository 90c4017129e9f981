from fractions import Fraction

import pytest

from conftest import random_fraction
from twistkit.linsolve import solve_sparse


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
