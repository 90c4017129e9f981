"""twistkit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a twistkit source tree (the package is imported from
src/).  Every job is one process at a time, driven by one client in a
closed loop: the next job starts when the previous one has exited.

Workloads (the seed only permutes job order):
  solve-o2  `twistkit solve-twist --order 2` in a fresh process, again and
            again; exact elimination (linsolve) does about 75% of it.
  check     verify / show-rmatrix / eval-rep / expand-phi jobs against the
            committed order-3 candidate, each in a fresh process, with cold
            caches; linsolve is never called.
  scan-o3   one process calling solve_order over a grid of ansatz cutoffs,
            pass after pass; mostly infeasible order-3 systems, so system
            assembly and inconsistency proofs dominate.

With --trace 0 the run times jobs for --seconds and prints the end-to-end
metrics.  Each job (grid point for scan-o3) runs several times and counts
with its fastest run: host speed on a shared VM switches between a fast
and a slow level every few seconds, and the fastest of several runs spread
over the window reads the fast level even when the share of slow time
drifts.  With --trace 1 it runs one unit of the workload untraced and
one traced (spans.py) and prints the per-layer metrics.  Every output is
compared with perfbench/golden.json.  The last stdout line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calib
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
FIXTURE = "perfbench/fixture/candidate-order3.json"   # relative to ROOT
OUT_DIR = ".perfbench_work/out"                       # relative to ROOT
CHILD = os.path.join(HERE, "child.py")
DEADLINE_S = 170       # every run must end within 180 s

SOLVE_JOBS = [
    ["solve-twist", "--order", "2", "--format", "json", "--out-dir", OUT_DIR],
]
SOLVE_ORDER = 2

CHECK_JOBS = [
    # exit 0 at order 3; exit 1 above, where the order-3 candidate fails
    ["verify", FIXTURE, "--order", "3", "--checks", "all", "--expect-paper-behavior"],
    ["verify", FIXTURE, "--order", "4", "--checks", "all", "--expect-paper-behavior"],
    ["verify", FIXTURE, "--order", "5", "--checks", "all", "--expect-paper-behavior",
     "--format", "json"],
    ["verify", FIXTURE, "--order", "6", "--checks", "all", "--expect-paper-behavior"],
    ["show-rmatrix", "--order", "6"],
    ["show-rmatrix", "--order", "7", "--format", "json"],
    ["show-rmatrix", "--order", "8"],
    ["eval-rep", FIXTURE, "--two-j1", "1", "--two-j2", "1", "--order", "3"],
    ["eval-rep", FIXTURE, "--two-j1", "2", "--two-j2", "3", "--order", "3",
     "--format", "json"],
    ["eval-rep", FIXTURE, "--two-j1", "4", "--two-j2", "4", "--order", "3"],
    ["eval-rep", FIXTURE, "--two-j1", "8", "--two-j2", "8", "--order", "3"],
    ["expand-phi", "--sign", "plus", "--order", "8"],
    ["expand-phi", "--sign", "minus", "--order", "10", "--format", "json"],
    ["expand-phi", "--sign", "plus", "--order", "12"],
]

# (order, L, D): the order-3 points are all infeasible; the order-1/2
# points are small feasible cutoffs
SCAN_GRID = ([(3, L, D) for L in (2, 3, 4) for D in (2, 3, 4)]
             + [(3, 3, 5), (3, 2, 6), (1, 2, 1), (1, 2, 2),
                (2, 2, 4), (2, 3, 3), (2, 3, 4)])

SCAN_TRACED_PASSES = 2
SCAN_SETUP_PROBES = 6  # set-up starts before the scan process, and again after
SETUP_GAP_S = 2.0      # CLI workloads: time a set-up start at most this often



def declared_units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of
    run: end-to-end untraced, per-layer traced."""
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def job_key(argv) -> str:
    return " ".join(argv)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digest(exit_code, stdout_path, out_dir=None) -> dict:
    """Exit code and sha256 of stdout and of each file in out_dir."""
    files = {}
    if out_dir is not None and os.path.isdir(out_dir):
        files = {name: sha256_file(os.path.join(out_dir, name))
                 for name in sorted(os.listdir(out_dir))}
    return {"exit": exit_code, "stdout": sha256_file(stdout_path), "files": files}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Spawns one child at a time and measures it with os.wait4."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, argv, stdout_path):
        """(wall seconds, exit code, peak RSS in MB) of one child."""
        err_path = stdout_path + ".err"
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.1),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def setup_wall(self, argv) -> float:
        """Wall time of a child that only sets up and exits, rescaled by
        calibration loops run just before and just after it."""
        before = calib.bracket()
        wall, code, _ = self.spawn(argv, os.path.join(WORK, "setup.out"))
        if code != 0:
            raise RuntimeError(f"set-up command failed: {argv}")
        return wall * calib.scale(before + calib.bracket())


class Tally:
    """Jobs attempted and failed, walls per job, peak RSS, traces."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls = {}        # job -> wall times
        self.scaled = {}       # job -> wall times rescaled (calib.py)
        self.setups = []       # rescaled
        self.rss = []
        self.traces = []
        self.output_bytes = 0
        self.notes = []

    def count(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"mismatch: {what}")


JOB_STDOUT = os.path.join(WORK, "job.out")
TRACE_OUT = os.path.join(WORK, "trace.json")
CALIB_OUT = os.path.join(WORK, "calib.json")


def load_trace(tally):
    """Take the span aggregates a traced child wrote; a child that wrote
    none counts as a failed job."""
    try:
        with open(TRACE_OUT) as fh:
            tally.traces.append(json.load(fh))
    except (OSError, ValueError):
        tally.count(False, "traced job wrote no trace")
    else:
        os.remove(TRACE_OUT)


def run_cli_job(runner, tally, argv, golden, trace=False, scaled=False):
    """One `twistkit` process, its stdout in JOB_STDOUT.  Traced, or with
    `scaled`, timed by the calibration sampler in the child and
    calibration loops just before and after it, or neither."""
    stdout_path = JOB_STDOUT
    out_dir = os.path.join(ROOT, OUT_DIR)
    shutil.rmtree(out_dir, ignore_errors=True)
    if trace:
        cmd = [sys.executable, CHILD, "cli", "--trace", TRACE_OUT, "--"] + argv
    elif scaled:
        cmd = [sys.executable, CHILD, "cli", "--calib", CALIB_OUT, "--"] + argv
        before = calib.bracket()
    else:
        cmd = [sys.executable, "-m", "twistkit.cli"] + argv
    wall, code, rss = runner.spawn(cmd, stdout_path)
    key = job_key(argv)
    got = output_digest(code, stdout_path, out_dir if OUT_DIR in argv else None)
    if scaled:
        after = calib.bracket()
        try:
            with open(CALIB_OUT) as fh:
                loops = json.load(fh)
            os.remove(CALIB_OUT)
        except (OSError, ValueError):
            got = "the job wrote no calibration loop times"
        else:
            tally.scaled.setdefault(key, []).append(
                wall * calib.scale(before + loops + after))
    tally.count(got == golden["jobs"].get(key), key)
    tally.walls.setdefault(key, []).append(wall)
    tally.rss.append(rss)
    if trace:
        tally.output_bytes += os.path.getsize(stdout_path) + sum(
            os.path.getsize(os.path.join(out_dir, n)) for n in got["files"])
        load_trace(tally)


def run_scan_worker(runner, tally, grid, golden, *, seconds=None, passes=None,
                    trace=False, scaled=False):
    """One scan process; returns, for each of its passes, the wall time of
    each grid point, rescaled by the calibration loops around it when
    `scaled`."""
    stdout_path = os.path.join(WORK, "scan.out")
    cmd = [sys.executable, CHILD, "scan", "--fixture", FIXTURE,
           "--grid", json.dumps(grid)]
    cmd += ["--passes", str(passes)] if passes else ["--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", TRACE_OUT]
    elif scaled:
        cmd += ["--calib", CALIB_OUT]
    _, code, rss = runner.spawn(cmd, stdout_path)
    tally.rss.append(rss)
    if code != 0:
        tally.count(False, f"scan worker exit {code}")
        return []
    with open(stdout_path) as fh:
        result = json.load(fh)
    for p in result["passes"]:
        for point, digest in p["digests"].items():
            tally.count(digest == golden["scan"].get(point), f"scan {point}")
    if trace:
        load_trace(tally)
    walls = [p["walls"] for p in result["passes"]]
    if not scaled:
        return walls
    with open(CALIB_OUT) as fh:
        loops = json.load(fh)
    os.remove(CALIB_OUT)
    return [{point: wall * calib.scale(lp[point]) for point, wall in p.items()}
            for p, lp in zip(walls, loops)]


def certify_solve_output(stdout_path) -> bool:
    """Exact re-check of the solve-o2 candidate: twist residuals and the
    quasitriangular relation vanish through SOLVE_ORDER."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from twistkit import TwistCandidate, quasitriangular_residual, twist_residuals

    try:
        with open(stdout_path) as fh:
            cand = TwistCandidate.from_json(json.load(fh)["candidate"])
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return (cand.order == SOLVE_ORDER
            and twist_residuals(cand, SOLVE_ORDER).passed
            and quasitriangular_residual(cand, SOLVE_ORDER).is_zero())


def run_cli_workload(runner, tally, jobs, golden, seconds, trace):
    """End-to-end: one batch of jobs, then the same jobs again, round-robin,
    until the next job would overrun `seconds` (its last wall time is the
    estimate).  After a job that ends SETUP_GAP_S or more after the last
    set-up start, one set-up start (spawn Python and import twistkit.cli)
    is timed, so set-up is sampled across the whole window.
    Traced: one batch untraced, one traced."""
    if trace:
        for traced in (False, True):
            for argv in jobs:
                run_cli_job(runner, tally, argv, golden, trace=traced)
        return
    setup = [sys.executable, "-c", "import twistkit.cli"]
    runner.setup_wall(setup)            # fills the bytecode cache
    stop = time.monotonic() + seconds
    last_setup = -SETUP_GAP_S
    for i, argv in enumerate(itertools.cycle(jobs)):
        now = time.monotonic()
        if i >= len(jobs) and (now + tally.walls[job_key(argv)][-1] > stop
                               or now >= runner.deadline):
            return
        run_cli_job(runner, tally, argv, golden, scaled=True)
        if time.monotonic() - last_setup >= SETUP_GAP_S:
            last_setup = time.monotonic()
            tally.setups.append(runner.setup_wall(setup))


def measure_scan(args, rng, runner, tally, golden, record) -> dict:
    grid = [list(p) for p in SCAN_GRID]
    rng.shuffle(grid)
    if args.trace:
        untraced = run_scan_worker(runner, tally, grid, golden,
                                   passes=SCAN_TRACED_PASSES)
        traced = run_scan_worker(runner, tally, grid, golden,
                                 passes=SCAN_TRACED_PASSES, trace=True)
        return {"trace.overhead_s": sum(sum(p.values()) for p in traced)
                - sum(sum(p.values()) for p in untraced),
                "cli.output_bytes": 0}
    setup = [sys.executable, CHILD, "scan", "--setup-only", "--fixture", FIXTURE]
    runner.setup_wall(setup)            # fills the bytecode cache
    tally.setups += [runner.setup_wall(setup) for _ in range(SCAN_SETUP_PROBES)]
    passes = run_scan_worker(runner, tally, grid, golden, seconds=args.seconds,
                             scaled=True)[1:]   # pass 1 fills caches
    tally.setups += [runner.setup_wall(setup) for _ in range(SCAN_SETUP_PROBES)]
    record["point_walls_scaled"] = passes
    return {"wall_s": sum(statistics.median(p[point] for p in passes)
                          for point in passes[0]) if passes else float("nan")}


def measure_cli(args, rng, runner, tally, golden, record) -> dict:
    jobs = [list(j) for j in (SOLVE_JOBS if args.workload == "solve-o2"
                              else CHECK_JOBS)]
    rng.shuffle(jobs)
    metrics = {}
    run_cli_workload(runner, tally, jobs, golden, args.seconds, args.trace)
    if args.trace:
        metrics["trace.overhead_s"] = sum(traced - untraced for untraced, traced
                                          in tally.walls.values())
        metrics["cli.output_bytes"] = tally.output_bytes
    else:
        metrics["wall_s"] = sum(statistics.median(w) for w in tally.scaled.values())
        record["job_walls"] = tally.walls
        record["job_walls_scaled"] = tally.scaled
    if args.workload == "solve-o2":
        record["certified"] = certify_solve_output(JOB_STDOUT)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("solve-o2", "check", "scan-o3"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "twistkit", "cli.py")):
        print(f"perfbench: no twistkit sources under {SRC}", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    if sha256_file(os.path.join(ROOT, FIXTURE)) != golden["fixture_sha256"]:
        print("perfbench: fixture candidate does not match golden.json",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    # one CPU for the harness and every job, so that the calibration loops
    # the harness runs between jobs see the CPU the jobs ran on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(cpus), "loadavg": os.getloadavg(),
        "commit": git_commit(), "src_sha256": tree_digest(SRC),
    }
    runner = Runner(started + DEADLINE_S)
    tally = Tally()
    measure = measure_scan if args.workload == "scan-o3" else measure_cli
    metrics = measure(args, random.Random(args.seed), runner, tally, golden, record)
    if args.trace:
        raw = spans.merge(tally.traces)
        metrics.update(spans.layer_metrics(raw))
        record["solves"] = raw["solves"]
    else:
        metrics["setup_s"] = statistics.median(tally.setups)
        record["setup_walls"] = tally.setups
        metrics["peak_rss_mb"] = max(tally.rss) if tally.rss else float("nan")
        metrics["ok_frac"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
    record["notes"] = tally.notes[:20]
    record["elapsed_s"] = time.monotonic() - started
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": (tally.failed == 0 and tally.attempted > 0
                    and record.get("certified", True)),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared_units(args.trace).items()},
    }))
    return 0


def git_commit():
    """HEAD of the checkout, or None when the checkout is not the top of a
    git work tree (or git is missing).  A worktree or submodule, whose
    .git is a file, counts; a plain copy inside another repository does
    not."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    top, head = lines
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else None


def tree_digest(path) -> str:
    """sha256 over the relative paths and contents of the .py files under
    path: identifies the code measured when there is no git commit."""
    h = hashlib.sha256()
    for dirpath, _, filenames in sorted(os.walk(path)):
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, path).encode())
                h.update(sha256_file(full).encode())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
