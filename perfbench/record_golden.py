"""Record perfbench/golden.json: the exit code and output digests of every
benchmark job, run once at the current commit.

    python3 perfbench/record_golden.py

Only run this at a commit whose outputs are known to be right; the
benchmark counts every later difference as a failed job.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    runner = run.Runner(deadline=time.monotonic() + 3600)
    golden = {"fixture_sha256": run.sha256_file(os.path.join(run.ROOT, run.FIXTURE)),
              "jobs": {}}
    out_dir = os.path.join(run.ROOT, run.OUT_DIR)
    for argv in run.SOLVE_JOBS + run.CHECK_JOBS:
        shutil.rmtree(out_dir, ignore_errors=True)
        _, code, _ = runner.spawn([sys.executable, "-m", "twistkit.cli"] + argv,
                                  run.JOB_STDOUT)
        golden["jobs"][run.job_key(argv)] = run.output_digest(
            code, run.JOB_STDOUT, out_dir if run.OUT_DIR in argv else None)
        print(code, run.job_key(argv), flush=True)
    scan_out = os.path.join(run.WORK, "scan.out")
    _, code, _ = runner.spawn(
        [sys.executable, run.CHILD, "scan", "--fixture", run.FIXTURE,
         "--grid", json.dumps(run.SCAN_GRID), "--passes", "1"], scan_out)
    if code != 0:
        sys.exit(f"scan failed with exit code {code}")
    with open(scan_out) as fh:
        golden["scan"] = json.load(fh)["passes"][0]["digests"]
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
