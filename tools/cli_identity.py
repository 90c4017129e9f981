"""Check that two source trees give byte-identical CLI results.

    python3 tools/cli_identity.py OLD_TREE NEW_TREE

Runs each job of JOBS with `python3 -m twistkit.cli` against OLD_TREE/src
and NEW_TREE/src, each run in a fresh empty directory that holds only
the input candidates (copied from OLD_TREE/tests/data, so both trees read
the same bytes).  Compares stdout, stderr, the exit code and every file
the run leaves in its directory.  Prints one line per difference, then a
summary line, and exits 1 if there is any difference, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

INPUTS = {"cand3.json": "candidate-order3.json",
          "cand5.json": "candidate-order5.json",
          "cand6.json": "candidate-order6.json"}

# (name, arguments of twistkit)
JOBS = [
    ("solve-o1-json", ["solve-twist", "--order", "1", "--format", "json",
                       "--out-dir", "out", "--candidate-out", "out/cand.json"]),
    ("solve-o2-text", ["solve-twist", "--order", "2", "--out-dir", "out",
                       "--candidate-out", "cand.json", "--output", "o.txt"]),
    ("solve-o2-json", ["solve-twist", "--order", "2", "--format", "json",
                       "--output", "o.json"]),
    ("solve-o3-text", ["solve-twist", "--order", "3", "--out-dir", "out",
                       "--candidate-out", "cand.json"]),
    ("solve-o3-json", ["solve-twist", "--order", "3", "--format", "json",
                       "--out-dir", "out", "--candidate-out", "cand.json",
                       "--output", "o.json"]),
    ("solve-escalating", ["solve-twist", "--order", "3", "--cutoff-l", "2",
                          "--cutoff-d", "2", "--format", "json",
                          "--out-dir", "out"]),
    ("solve-o4-json", ["solve-twist", "--order", "4", "--format", "json",
                       "--out-dir", "out"]),
    # text output prints the kernel dimension without building the basis
    ("solve-o4-text", ["solve-twist", "--order", "4"]),
    # the largest documents solve-twist writes: each solution file, the
    # candidate and all of them again on --output
    ("solve-o5-json", ["solve-twist", "--order", "5", "--format", "json",
                       "--out-dir", "out", "--candidate-out", "cand.json",
                       "--output", "o.json"]),
    ("solve-infeasible", ["solve-twist", "--order", "3", "--cutoff-l", "1",
                          "--max-escalations", "0", "--out-dir", "out",
                          "--candidate-out", "cand.json"]),
    # cutoffs fixed across orders 1..3, and a cutoff infeasible at order 3
    # with no escalation (exit 3)
    ("solve-fixed-cutoffs", ["solve-twist", "--order", "3", "--cutoff-l", "4",
                             "--cutoff-d", "6", "--format", "json",
                             "--out-dir", "out"]),
    ("solve-fixed-infeasible", ["solve-twist", "--order", "3", "--cutoff-l",
                                "3", "--cutoff-d", "4", "--max-escalations",
                                "0", "--format", "json"]),
    ("verify-o3-text", ["verify", "cand3.json", "--order", "3",
                        "--checks", "all"]),
    ("verify-o3-json", ["verify", "cand3.json", "--order", "3",
                        "--checks", "all", "--format", "json"]),
    ("verify-o6-text", ["verify", "cand3.json", "--order", "6",
                        "--checks", "all", "--expect-paper-behavior"]),
    ("verify-o6-json", ["verify", "cand3.json", "--order", "6",
                        "--checks", "all", "--format", "json"]),
    ("verify-cand5-o6", ["verify", "cand5.json", "--order", "6",
                         "--checks", "all", "--output", "v.txt"]),
    ("verify-cand6-o6-text", ["verify", "cand6.json", "--order", "6",
                              "--checks", "all", "--expect-paper-behavior"]),
    ("verify-cand6-o6-json", ["verify", "cand6.json", "--order", "6",
                              "--checks", "all", "--expect-paper-behavior",
                              "--format", "json"]),
    ("verify-rmatrix-cocycle", ["verify", "cand3.json", "--order", "4",
                                "--checks", "rmatrix", "cocycle"]),
    ("verify-missing-file", ["verify", "missing.json"]),
    ("eval-rep-0x0", ["eval-rep", "cand3.json", "--two-j1", "0",
                      "--two-j2", "0"]),
    ("eval-rep-1x1-text", ["eval-rep", "cand3.json", "--two-j1", "1",
                           "--two-j2", "1"]),
    ("eval-rep-1x1-json", ["eval-rep", "cand3.json", "--two-j1", "1",
                           "--two-j2", "1", "--format", "json"]),
    ("eval-rep-cand6-1x1", ["eval-rep", "cand6.json", "--two-j1", "1",
                            "--two-j2", "1", "--order", "6"]),
    ("eval-rep-2x3-text", ["eval-rep", "cand3.json", "--two-j1", "2",
                           "--two-j2", "3", "--order", "3"]),
    ("eval-rep-2x3-json", ["eval-rep", "cand3.json", "--two-j1", "2",
                           "--two-j2", "3", "--order", "3", "--format", "json"]),
    ("eval-rep-4x4", ["eval-rep", "cand3.json", "--two-j1", "4",
                      "--two-j2", "4", "--order", "3"]),
    ("eval-rep-8x8", ["eval-rep", "cand3.json", "--two-j1", "8",
                      "--two-j2", "8", "--order", "3"]),
    ("eval-rep-8x8-output", ["eval-rep", "cand3.json", "--two-j1", "8",
                             "--two-j2", "8", "--order", "3",
                             "--output", "r.txt"]),
    ("eval-rep-16x16-text", ["eval-rep", "cand3.json", "--two-j1", "16",
                             "--two-j2", "16", "--order", "3"]),
    ("eval-rep-16x16-json", ["eval-rep", "cand3.json", "--two-j1", "16",
                             "--two-j2", "16", "--order", "3",
                             "--format", "json"]),
    ("show-rmatrix-o0", ["show-rmatrix", "--order", "0"]),
    ("show-rmatrix-o5-json", ["show-rmatrix", "--order", "5",
                              "--format", "json"]),
    ("show-rmatrix-o7-json", ["show-rmatrix", "--order", "7", "--which",
                              "both", "--format", "json"]),
    ("show-rmatrix-o8", ["show-rmatrix", "--order", "8"]),
    ("show-rmatrix-o11", ["show-rmatrix", "--order", "11", "--which",
                          "quantum"]),
    ("expand-phi-plus", ["expand-phi", "--sign", "plus", "--order", "10"]),
    ("expand-phi-minus-output", ["expand-phi", "--sign", "minus", "--order",
                                 "12", "--format", "json",
                                 "--output", "phi.json"]),
    ("expand-phi-plus-o24-text", ["expand-phi", "--sign", "plus",
                                  "--order", "24"]),
    ("expand-phi-plus-o24-json", ["expand-phi", "--sign", "plus",
                                  "--order", "24", "--format", "json"]),
    ("expand-phi-minus-o24-text", ["expand-phi", "--sign", "minus",
                                   "--order", "24"]),
    ("expand-phi-minus-o24-json", ["expand-phi", "--sign", "minus",
                                   "--order", "24", "--format", "json"]),
    ("order-above-bound", ["expand-phi", "--sign", "plus", "--order", "51"]),
    ("unwritable-output", ["show-rmatrix", "--order", "2",
                           "--output", "nodir/r.txt"]),
]


def _environment(tree: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TWISTKIT_")}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_job(tree: str, data_dir: str, argv: list) -> dict:
    """{what: bytes or int}: stdout, stderr, exit code and each written
    file by its path inside the run's directory."""
    with tempfile.TemporaryDirectory(prefix="cli_identity.") as cwd:
        for name, source in INPUTS.items():
            shutil.copyfile(os.path.join(data_dir, source),
                            os.path.join(cwd, name))
        proc = subprocess.run([sys.executable, "-m", "twistkit.cli", *argv],
                              cwd=cwd, env=_environment(tree),
                              capture_output=True, timeout=900)
        out = {"stdout": proc.stdout, "stderr": proc.stderr,
               "exit code": proc.returncode}
        for root, _, files in os.walk(cwd):
            for name in files:
                path = os.path.join(root, name)
                rel = os.path.relpath(path, cwd)
                if rel not in INPUTS:
                    with open(path, "rb") as fh:
                        out[f"file {rel}"] = fh.read()
        return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/cli_identity.py OLD_TREE NEW_TREE",
              file=sys.stderr)
        return 2
    old, new = args
    data_dir = os.path.join(old, "tests", "data")
    differences = 0
    for name, job in JOBS:
        a, b = run_job(old, data_dir, job), run_job(new, data_dir, job)
        for what in sorted(a.keys() | b.keys()):
            if what not in a or what not in b:
                side = "old" if what in a else "new"
                print(f"{name}: {what} written by the {side} tree only")
                differences += 1
            elif a[what] != b[what]:
                print(f"{name}: {what} differs")
                differences += 1
    print(f"{len(JOBS)} jobs, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
