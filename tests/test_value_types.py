"""The package's record types: immutable values with equality by fields,
hashing where every field is hashable, and validation on construction."""

from fractions import Fraction

import pytest

from twistkit.deform import PhiSeries, phi
from twistkit.hseries import HSeries
from twistkit.linsolve import solve_sparse
from twistkit.pbw import CasimirTerm, Element
from twistkit.report import VerificationReport
from twistkit.reps import spin_rep
from twistkit.tensor import TensorElement
from twistkit.twist import (AnsatzUnknown, TwistAnsatz, TwistCandidate,
                            reference_candidate, solve_order)


def _values():
    """Two equal instances, built separately, of each record type."""
    def solution():
        return solve_order(1, reference_candidate(0))

    return {
        "CasimirTerm": (CasimirTerm("E", 1, 2, 3), CasimirTerm("E", 1, 2, 3)),
        "AnsatzUnknown": (AnsatzUnknown(2, "a", (1, 0, 0, 1)),
                          AnsatzUnknown(2, "a", (1, 0, 0, 1))),
        "SpinRep": (spin_rep(2), spin_rep.__wrapped__(2)),
        "PhiSeries": (phi("+", 4), PhiSeries("+", phi("+", 4).series)),
        "TwistCandidate": (reference_candidate(2), reference_candidate(2)),
        "VerificationReport": (VerificationReport({"a": None, "b": 2}),
                               VerificationReport({"a": None, "b": 2})),
        "LinearSolution": (solve_sparse([{0: 1, 1: 1}], [Fraction(2)], 2),
                           solve_sparse([{0: 1, 1: 1}], [Fraction(2)], 2)),
        "SolutionSet": (solution(), solution()),
    }


HASHABLE = ("CasimirTerm", "AnsatzUnknown", "SpinRep")


@pytest.mark.parametrize("name", list(_values()))
def test_equal_values_are_equal_and_immutable(name):
    x, y = _values()[name]
    assert type(x).__name__ == name
    assert x is not y and x == y
    if name in HASHABLE:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
    field = x._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    with pytest.raises(AttributeError):
        x.extra = 1


def test_unequal_values_differ():
    assert CasimirTerm("E", 1, 2, 3) != CasimirTerm("F", 1, 2, 3)
    assert AnsatzUnknown(2, "a", (1, 0, 0, 1)) != AnsatzUnknown(2, "b", (1, 0, 0, 1))
    assert spin_rep(1) != spin_rep(2)
    assert phi("+", 4) != phi("-", 4)
    assert reference_candidate(1) != reference_candidate(2)


@pytest.mark.parametrize("args", [("X", 0, 0, 0), ("pure", 0, 0, 1),
                                  ("E", 1, 1, 0), ("F", 0, 0, -1)])
def test_casimir_term_rejects_bad_fields(args):
    with pytest.raises(ValueError):
        CasimirTerm(*args)


def test_casimir_term_keeps_its_fields():
    t = CasimirTerm(side="F", a=1, b=2, c=3)
    assert (t.side, t.a, t.b, t.c) == ("F", 1, 2, 3)
    assert repr(t) == "CasimirTerm(side='F', a=1, b=2, c=3)"


@pytest.mark.parametrize("coeffs", [
    [Element.one()],                                    # one leg
    [TensorElement({((0, 0, 0),) * 3: Fraction(1)})],   # three legs
    [TensorElement.one(), Fraction(1)],                 # a scalar
])
def test_twist_candidate_rejects_other_coefficients(coeffs):
    with pytest.raises(ValueError, match="2-leg"):
        TwistCandidate(HSeries(tuple(coeffs)))


def test_solution_set_is_built_from_its_final_values():
    sol = solve_order(1, reference_candidate(0))
    assert sol.solved and sol.particular is not None
    assert sol.rank == len(sol.pivot_log)
    assert len(sol.homogeneous) == sol.unknown_count - sol.rank
    infeasible = solve_order(2, reference_candidate(1), TwistAnsatz(2, 2, 2))
    assert not infeasible.solved
    assert (infeasible.particular, infeasible.homogeneous, infeasible.pivot_log,
            infeasible.rank) == (None, [], [], 0)
