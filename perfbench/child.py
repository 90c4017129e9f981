"""One benchmark job in a fresh process.

    child.py cli  [--trace OUT | --calib OUT] -- ARGS...   run `twistkit ARGS...`
    child.py scan [--trace OUT | --calib OUT] [--setup-only] --fixture FILE
                  --grid JSON (--seconds S | --passes N)

`cli` runs the command-line entry point.  `scan` loads the order-3 fixture
candidate and calls `solve_order(k, lower, TwistAnsatz(k, L, D))` over the
grid, pass after pass, and prints one JSON object with, for each pass, its
wall time and the wall time and a result digest of each grid point.

With --trace the span aggregates (spans.Tracer.raw) are written to OUT when
the job ends.  With --calib a calibration sampler (calib.py) runs during
the job and its loop times are written to OUT: a list for `cli`, and for
`scan` one object per pass mapping each grid point to the loop times
around it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import calib


def _start_trace(path):
    if path is None:
        return None
    import spans

    tracer = spans.Tracer()
    missed = spans.install(tracer)
    if missed:
        sys.exit(f"perfbench: tracing missed bindings: {', '.join(missed)}")
    return tracer


def solution_digest(sol) -> str:
    """sha256 of everything a SolutionSet holds.  Built from the exact terms
    rather than from to_json(), so that checking a result does not show up
    in the traced output-formatting layer."""
    import hashlib

    def terms(t):
        return sorted(t.terms.items()) if t is not None else None

    parts = (sol.order, sol.cutoff_l, sol.cutoff_d, sol.status,
             sol.unknown_count, sol.rank, sol.pivot_log, terms(sol.particular),
             [terms(t) for t in sol.homogeneous])
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _another_pass(args, passes, t_start) -> bool:
    if args.passes:
        return len(passes) < args.passes
    # stop before a pass that would overrun, after at least two passes
    # (the first one fills the caches)
    return (len(passes) < 2 or time.perf_counter() - t_start
            + passes[-1]["wall_s"] <= args.seconds)


def run_scan(args, sampler):
    """(result, loop times per pass and point, or None without sampler)"""
    from twistkit import TwistAnsatz, TwistCandidate, solve_order

    with open(args.fixture) as fh:
        cand = TwistCandidate.from_json(json.load(fh))
    lower = {k: cand.at_order(k - 1) for k in (1, 2, 3)}
    if args.setup_only:
        return {"passes": []}, None
    grid = [tuple(point) for point in json.loads(args.grid)]
    passes = []
    intervals = {}                    # (pass, point) -> (start, end)
    t_start = time.perf_counter()
    while _another_pass(args, passes, t_start):
        t_pass = time.perf_counter()
        walls, digests = {}, {}
        for k, L, D in grid:
            t0 = time.perf_counter()
            sol = solve_order(k, lower[k], TwistAnsatz(k, L, D))
            t1 = time.perf_counter()
            walls[f"{k},{L},{D}"] = t1 - t0
            intervals[len(passes), f"{k},{L},{D}"] = (t0, t1)
            digests[f"{k},{L},{D}"] = solution_digest(sol)
        passes.append({"wall_s": time.perf_counter() - t_pass,
                       "walls": walls, "digests": digests})
    if sampler is None:
        return {"passes": passes}, None
    time.sleep(2 * calib.INTERVAL_S)          # the sample after the last point
    loops = [{} for _ in passes]
    for (i, point), (t0, t1) in intervals.items():
        loops[i][point] = sampler.around(t0, t1)
    return {"passes": passes}, loops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("cli", "scan"))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", metavar="OUT")
    mode.add_argument("--calib", metavar="OUT")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fixture")
    parser.add_argument("--grid")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--passes", type=int)
    argv = sys.argv[1:] if argv is None else argv
    cli_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_args = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    tracer = _start_trace(args.trace)
    sampler = None
    if args.calib:
        sampler = calib.Sampler()
        sampler.start()
    if args.mode == "cli":
        from twistkit.cli import main as cli_main

        code = cli_main(cli_args)
        loops = sampler.loops() if sampler else None
    else:
        result, loops = run_scan(args, sampler)
        print(json.dumps(result))
        code = 0
    if sampler is not None:
        sampler.stop()
        with open(args.calib, "w") as fh:
            json.dump(loops, fh)
    if tracer is not None:
        with open(args.trace, "w") as fh:
            json.dump(tracer.raw(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
