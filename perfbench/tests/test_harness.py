"""The benchmark's own checks, run against real twistkit processes."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans


@pytest.fixture
def golden():
    with open(run.GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "JOB_STDOUT", str(tmp_path / "job.out"))
    monkeypatch.setattr(run, "TRACE_OUT", str(tmp_path / "trace.json"))
    return run.Runner(deadline=time.monotonic() + 300)


CHEAP_JOB = ["expand-phi", "--sign", "plus", "--order", "8"]


def test_matching_output_counts_as_success(runner, golden):
    assert CHEAP_JOB in run.CHECK_JOBS
    tally = run.Tally()
    run.run_cli_job(runner, tally, CHEAP_JOB, golden)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_corrupted_output_counts_as_failure(runner, golden, monkeypatch):
    real_spawn = run.Runner.spawn

    def spawn_then_corrupt(self, argv, stdout_path):
        measured = real_spawn(self, argv, stdout_path)
        with open(stdout_path, "r+b") as fh:
            first = fh.read(1)
            fh.seek(0)
            fh.write(bytes([first[0] ^ 1]))
        return measured

    monkeypatch.setattr(run.Runner, "spawn", spawn_then_corrupt)
    tally = run.Tally()
    run.run_cli_job(runner, tally, CHEAP_JOB, golden)
    assert (tally.attempted, tally.failed) == (1, 1)


def traced(runner, jobs, golden):
    tally = run.Tally()
    for argv in jobs:
        run.run_cli_job(runner, tally, argv, golden, trace=True)
    assert tally.failed == 0
    return spans.merge(tally.traces)


def test_traced_check_sees_quantum_R_image(runner, golden):
    raw = traced(runner, run.CHECK_JOBS, golden)
    assert raw["calls"]["rmatrix.quantum_R_image"] > 0
    assert raw["calls"].get("linsolve.solve_sparse", 0) == 0


def test_traced_solve_o2_sees_two_solve_sparse_calls(runner, golden):
    raw = traced(runner, run.SOLVE_JOBS, golden)
    assert raw["calls"]["linsolve.solve_sparse"] == 2
    assert raw["solves"][-1] == {"rows": 1924, "cols": 350, "nnz": 15472,
                                 "rank": 328, "kernel_dim": 22,
                                 "status": "solved", "coeff_bits_max": 3}
    biggest = max(raw["self_s"], key=raw["self_s"].get)
    assert biggest == "linsolve.solve_sparse"
    assert run.certify_solve_output(run.JOB_STDOUT)


def test_fixture_lower_orders_match_build_candidate():
    sys.path.insert(0, run.SRC)
    from twistkit import TwistCandidate, build_candidate

    with open(os.path.join(run.ROOT, run.FIXTURE)) as fh:
        cand = TwistCandidate.from_json(json.load(fh))
    assert cand.at_order(2) == build_candidate(2)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not os.path.exists(tmp_path / ".perfbench_work")


def test_every_declared_per_layer_metric_is_produced():
    produced = set(spans.layer_metrics(spans.merge([])))
    produced |= {"cli.output_bytes", "trace.overhead_s"}   # set by run.py
    assert set(run.declared_units(trace=True)) == produced


def test_commit_is_recorded_only_at_the_top_of_a_work_tree(tmp_path, monkeypatch):
    # a subdirectory of the tree, or a directory outside any repository
    for root in (run.HERE, str(tmp_path)):
        monkeypatch.setattr(run, "ROOT", root)
        assert run.git_commit() is None
