"""The tracer's own arithmetic and its binding coverage, on fake modules."""

import types

import pytest

from spans import Tracer, layer_metrics, merge, missed_bindings, rebind


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_from_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_span()
        clock.now += 0.5

    def top():
        clock.now += 3.0
        middle_span()
        leaf_span()

    leaf_span = tracer.wrap("leaf", leaf)
    middle_span = tracer.wrap("middle", middle)
    tracer.wrap("top", top)()

    assert tracer.self_s == pytest.approx({"top": 3.0, "middle": 1.5, "leaf": 4.0})
    assert tracer.calls == {"top": 1, "middle": 1, "leaf": 2}
    assert clock.now == sum(tracer.self_s.values())


def test_wrapper_bookkeeping_is_not_charged_to_the_caller():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def after(args, result):        # e.g. recording a problem size
        clock.now += 5.0

    leaf_span = tracer.wrap("leaf", leaf, after)

    def top():
        clock.now += 1.0
        leaf_span()

    tracer.wrap("top", top)()
    assert tracer.self_s == pytest.approx({"top": 1.0, "leaf": 2.0})


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.stack == []
    assert tracer.self_s["boom"] == 1.0


def _modules():
    def solve():
        return "solved"

    class Matrix:
        def __mul__(self, other):
            return "product"

    defining = types.ModuleType("pkg.linsolve")
    defining.solve = solve
    defining.Matrix = Matrix
    Matrix.__module__ = "pkg.linsolve"
    user = types.ModuleType("pkg.twist")
    user.solve = solve            # from .linsolve import solve
    user.solve_alias = solve      # from .linsolve import solve as solve_alias
    return defining, user, solve, Matrix


def test_missed_binding_detected():
    defining, user, solve, Matrix = _modules()
    # wrapping only the module that defines the function misses user's names
    defining.solve = Tracer().wrap("solve", solve)
    assert missed_bindings([defining, user], [solve]) == [
        "pkg.twist.solve", "pkg.twist.solve_alias"]
    mul = Matrix.__mul__
    assert missed_bindings([defining, user], [mul]) == ["pkg.linsolve.Matrix.__mul__"]


def test_rebind_reaches_every_binding():
    defining, user, solve, Matrix = _modules()
    mul = Matrix.__mul__
    tracer = Tracer()
    rebind([defining, user], defining, "solve", tracer.wrap("solve", solve))
    rebind([defining, user], Matrix, "__mul__", tracer.wrap("mul", mul))
    assert missed_bindings([defining, user], [solve, mul]) == []
    assert user.solve_alias() == "solved" and Matrix() * 2 == "product"
    assert tracer.calls == {"solve": 1, "mul": 1}


def test_layer_metrics_read_zero_for_layers_never_called():
    metrics = layer_metrics(merge([]))
    assert metrics["linsolve.solve_sparse.calls"] == 0
    assert metrics["linsolve.solve_sparse.pivot_yield"] == 0.0
    assert all(v == 0 for v in metrics.values())


def test_merge_adds_processes_and_keeps_every_solve():
    one = {"self_s": {"a": 1.0}, "calls": {"a": 2}, "distinct": 3,
           "solves": [{"rows": 10, "cols": 4, "nnz": 20, "rank": 4,
                       "kernel_dim": 0, "status": "solved", "coeff_bits_max": 5}]}
    two = {"self_s": {"a": 0.5}, "calls": {"a": 1}, "distinct": 4,
           "solves": [{"rows": 30, "cols": 6, "nnz": 50, "rank": 2,
                       "kernel_dim": 0, "status": "inconsistent", "coeff_bits_max": 0}]}
    total = merge([one, two])
    assert total["self_s"]["a"] == 1.5 and total["calls"]["a"] == 3
    metrics = layer_metrics(total)
    assert metrics["pbw.mono_mul.distinct"] == 7
    assert metrics["linsolve.solve_sparse.rows"] == 40
    assert metrics["linsolve.solve_sparse.inconsistent"] == 1
    assert metrics["linsolve.solve_sparse.pivot_yield"] == 6 / 40
    assert metrics["linsolve.solve_sparse.coeff_bits_max"] == 5
