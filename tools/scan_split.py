"""Split the time of warm `scan-o3` passes by stage of the order-k solve.

    python3 tools/scan_split.py TREE [--passes N]

Imports twistkit from TREE/src and runs the `scan-o3` pass of the
benchmark in this one process, pinned to the last CPU it may use:
`solve_order(k, lower, TwistAnsatz(k, L, D))` over every grid point of
TREE/perfbench/run.py's SCAN_GRID (read from the file, which is not
imported or changed), on the committed order-3 fixture.  One untimed
pass fills the caches, then N passes are timed.  Each stage is timed by
a wrapper around the function that does it, less the time of the
stages timed inside it:

    ansatz      TwistAnsatz(k, L, D)
    residual    twist_residual_series (the lower-order check), with the
                integer sums made inside candidate.twist_residual_series:
                it calls candidate's own _residual_coefficient, which the
                wrapper of twist's binding does not see
    order-k     _residual_coefficient outside twist_residual_series: the
                order-k J+ sum of each solve_order call and the J- sum of
                each certified particular
    J+rows      _j_plus_rows
    rhs         _casimir_coords (the Casimir right-hand side)
    solve       solve_sparse
    instantiate TwistAnsatz.instantiate (the homogeneous elements are
                built when the digest reads them)
    particular  _particular_certified (the particular's half of the
                certificate)
    kernel      _kernel (the homogeneous half, cached per cutoffs, so a
                warm pass reads only its cache)
    rest        the pass's wall time minus the stages above, with the
                solution digests, which the benchmark's pass also takes

and the tool prints the minimum and the median over the passes of each
stage's milliseconds per pass.  A stage whose function TREE does not
have reads 0: a tree older than _residual_coefficient times its order-k
sums inside residual.  Last comes one sha256 over the solution
digests of every grid point (perfbench/child.py's solution_digest, sorted
by point), with how many points match perfbench/golden.json.  Exits 1 if a
pass gives a different digest from the first.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib.util
import json
import os
import statistics
import sys
import time

STAGES = ("ansatz", "residual", "order-k", "J+rows", "rhs", "solve",
          "instantiate", "particular", "kernel")
# stage -> the names of the twistkit.twist attribute it wraps, newest first:
# an older tree may have an older name or none (ansatz is timed in place);
# twist imports twist_residual_series and _residual_coefficient from
# twistkit.candidate, so only the calls the solver makes are wrapped
WRAPPED = {"residual": ("twist_residual_series",),
           "order-k": ("_residual_coefficient",), "J+rows": ("_j_plus_rows",),
           "rhs": ("_casimir_coords",), "solve": ("solve_sparse",),
           "particular": ("_particular_certified",),
           "kernel": ("_kernel",)}


def scan_grid(run_py: str) -> list:
    """The value of SCAN_GRID in perfbench/run.py, evaluated on its own."""
    with open(run_py) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SCAN_GRID"
                        for t in node.targets)):
            return eval(compile(ast.Expression(node.value), run_py, "eval"), {})
    raise SystemExit(f"no SCAN_GRID in {run_py}")


def _timed(fn, spent: dict, stage: str, running: list):
    """fn, its time charged to stage less the time of the timed calls made
    inside it.  running holds [stage, seconds spent in nested timed
    calls] for each timed call in progress; a call inside the residual
    stage is left to it."""
    def wrapper(*args, **kwargs):
        if running and running[-1][0] == "residual":
            return fn(*args, **kwargs)
        frame = [stage, 0.0]
        running.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            running.pop()
            spent[stage] += dt - frame[1]
            if running:
                running[-1][1] += dt
    return wrapper


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scan_split.py")
    parser.add_argument("tree")
    parser.add_argument("--passes", type=int, default=30)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    tree = os.path.abspath(args.tree)
    bench = os.path.join(tree, "perfbench")
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    sys.path[:0] = [os.path.join(tree, "src"), bench]
    from twistkit import twist
    from twistkit.twist import TwistAnsatz, TwistCandidate, solve_order

    spec = importlib.util.spec_from_file_location(
        "perfbench_child", os.path.join(bench, "child.py"))
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    with open(os.path.join(bench, "golden.json")) as fh:
        golden = json.load(fh)["scan"]
    with open(os.path.join(bench, "fixture", "candidate-order3.json")) as fh:
        cand = TwistCandidate.from_json(json.load(fh))
    grid = [tuple(p) for p in scan_grid(os.path.join(bench, "run.py"))]
    lower = {k: cand.at_order(k - 1) for k in {p[0] for p in grid}}

    spent = dict.fromkeys(STAGES, 0.0)
    running: list = []
    for stage, names in WRAPPED.items():
        for name in names:
            if hasattr(twist, name):
                setattr(twist, name, _timed(getattr(twist, name), spent,
                                            stage, running))
                break
    TwistAnsatz.instantiate = _timed(TwistAnsatz.instantiate, spent,
                                     "instantiate", running)

    def one_pass() -> tuple:
        for stage in spent:
            spent[stage] = 0.0
        digests = {}
        t_pass = time.perf_counter()
        for k, L, D in grid:
            t0 = time.perf_counter()
            ansatz = TwistAnsatz(k, L, D)
            spent["ansatz"] += time.perf_counter() - t0
            sol = solve_order(k, lower[k], ansatz)
            digests[f"{k},{L},{D}"] = child.solution_digest(sol)
        wall = time.perf_counter() - t_pass
        return dict(spent, rest=wall - sum(spent.values()), total=wall), digests

    _, first = one_pass()                 # fills the caches, not counted
    splits = []
    for _ in range(args.passes):
        split, digests = one_pass()
        if digests != first:
            print("error: a pass gave different solutions from the first",
                  file=sys.stderr)
            return 1
        splits.append(split)

    print(f"{tree}: {args.passes} warm passes of {len(grid)} points on CPU {cpu}")
    print(f"{'stage':<12} {'min ms':>8} {'median ms':>10}")
    for stage in (*STAGES, "rest", "total"):
        ms = [s[stage] * 1e3 for s in splits]
        print(f"{stage:<12} {min(ms):8.2f} {statistics.median(ms):10.2f}")
    digest = hashlib.sha256("".join(first[p] for p in sorted(first))
                            .encode()).hexdigest()
    matched = sum(golden.get(p) == d for p, d in first.items())
    print(f"digest {digest} ({matched}/{len(first)} points match golden.json)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
