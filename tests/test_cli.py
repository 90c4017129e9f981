import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistkit.candidate as candidate
from twistkit import cli
from twistkit.candidate import TwistCandidate, reference_candidate
from twistkit.cli import main
from twistkit.pbw import UNIT_MONO, E, Element, casimir
from twistkit.report import VerificationReport
from twistkit.tensor import (TensorElement, classical_r, outer, tensor_to_json,
                             tensor_from_json)

from conftest import committed_candidates, json_text


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference_candidate(2).to_json()))
    return str(path)


@pytest.fixture
def trivial_file(tmp_path):
    path = tmp_path / "trivial.json"
    cand = TwistCandidate.from_coefficients([TensorElement.one()]).at_order(1)
    path.write_text(json.dumps(cand.to_json()))
    return str(path)


DATA = Path(__file__).resolve().parent / "data"


def write_candidate(path, cand) -> str:
    path.write_text(json.dumps(cand.to_json()))
    return str(path)


def run_cli(capsys, *argv) -> tuple:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand_phi_plus(capsys):
    code, out = run_cli(capsys, "expand-phi", "--sign", "plus", "--order", "2")
    assert code == 0
    assert "1 + h^2*(2*I + 2*H^2 - 2*H - 1)/12" in out


def test_expand_phi_minus(capsys):
    code, out = run_cli(capsys, "expand-phi", "--sign", "minus", "--order", "2")
    assert code == 0
    assert "1 + h^2*(2*I + 2*H^2 + 2*H - 1)/12" in out


def test_expand_phi_order_zero(capsys):
    code, out = run_cli(capsys, "expand-phi", "--sign", "plus", "--order", "0")
    assert code == 0
    assert out.strip() == "1"


def test_expand_phi_json(capsys):
    code, out = run_cli(capsys, "expand-phi", "--sign", "plus", "--order", "2",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["sign"] == "plus"
    assert len(data["coefficients"]) == 3
    assert data["coefficients"][1] == []   # odd order vanishes


@pytest.mark.parametrize("order", [1, 2])
def test_solve_twist_writes_each_document(capsys, tmp_path, order):
    out_dir = tmp_path / "solutions"
    cand_file = tmp_path / "candidate.json"
    code, out = run_cli(capsys, "solve-twist", "--order", str(order),
                        "--out-dir", str(out_dir),
                        "--candidate-out", str(cand_file),
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [s["order"] for s in data["solutions"]] == list(range(1, order + 1))
    sol = data["solutions"][0]
    assert sol["order"] == 1 and sol["status"] == "solved"
    assert tensor_from_json(sol["particular"]) == classical_r()
    assert set(sol) >= {"order", "cutoffL", "cutoffD", "particular",
                        "homogeneous_basis", "pivot_log"}
    for doc in data["solutions"]:
        per_order = out_dir / f"twist-order-{doc['order']}.json"
        assert json.loads(per_order.read_text()) == doc
    cand = TwistCandidate.from_json(json.loads(cand_file.read_text()))
    assert cand.coefficient(1) == classical_r()
    assert cand.to_json() == data["candidate"]
    # a text run writes the same files
    text_dir = tmp_path / "text"
    code, _ = run_cli(capsys, "solve-twist", "--order", str(order),
                      "--out-dir", str(text_dir))
    assert code == 0
    for k in range(1, order + 1):
        name = f"twist-order-{k}.json"
        assert (text_dir / name).read_bytes() == (out_dir / name).read_bytes()


def test_solve_twist_deterministic(capsys, tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _ = run_cli(capsys, "solve-twist", "--order", "1",
                          "--format", "json", "--output", str(path))
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_solve_twist_infeasible_exit_code(capsys):
    code, out = run_cli(capsys, "solve-twist", "--order", "1",
                        "--cutoff-l", "1", "--cutoff-d", "0",
                        "--max-escalations", "0")
    assert code == 3
    assert "infeasible-at-cutoff" in out


def test_solve_twist_escalation_recovers(capsys):
    code, out = run_cli(capsys, "solve-twist", "--order", "1",
                        "--cutoff-l", "1", "--cutoff-d", "0")
    assert code == 0


def test_verify_reference_with_expected_failures(capsys, reference_file):
    code, out = run_cli(capsys, "verify", reference_file, "--order", "2",
                        "--checks", "all", "--expect-paper-behavior")
    assert code == 0
    assert "twist twist[J0]: pass" in out
    assert "rmatrix[quasitriangular]: pass" in out
    assert "normalization counit(leg1): pass" in out
    assert "unitarity(universal): fails-as-paper-states" in out
    assert "cocycle: fails-as-paper-states" in out


def test_verify_reference_without_flag_falsifies(capsys, reference_file):
    code, out = run_cli(capsys, "verify", reference_file, "--order", "2",
                        "--checks", "all")
    assert code == 1


def test_verify_subset_of_checks(capsys, reference_file):
    code, out = run_cli(capsys, "verify", reference_file, "--order", "2",
                        "--checks", "twist", "rmatrix", "normalization")
    assert code == 0


def test_verify_runs_each_named_check_once(capsys, reference_file):
    verify = ("verify", reference_file, "--order", "2", "--format", "json",
              "--checks")
    _, once = run_cli(capsys, *verify, "rmatrix", "cocycle")
    code, twice = run_cli(capsys, *verify, "rmatrix", "cocycle", "rmatrix",
                          "cocycle")
    assert code == 1
    assert twice == once
    assert json.loads(once)["report"] == ["rmatrix[quasitriangular]: pass",
                                          "cocycle: fail (first nonzero at order 2)"]


def test_verify_all_among_named_checks_is_all(capsys, reference_file):
    verify = ("verify", reference_file, "--order", "2", "--checks")
    _, everything = run_cli(capsys, *verify, "all")
    assert run_cli(capsys, *verify, "cocycle", "all", "twist") == (1, everything)


def test_verify_trivial_candidate_falsified(capsys, trivial_file):
    code, out = run_cli(capsys, "verify", trivial_file, "--order", "1",
                        "--checks", "twist")
    assert code == 1
    assert "fail" in out


def test_verify_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["verify", str(bad), "--order", "1"])
    assert code == 2


def test_eval_rep_reference_half_half(capsys, reference_file):
    code, out = run_cli(capsys, "eval-rep", reference_file,
                        "--two-j1", "1", "--two-j2", "1", "--order", "2",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4
    assert data["unitarity"] == ["unitarity in 1/2 (x) 1/2: pass"]


def test_eval_rep_identity(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(
        TwistCandidate.from_coefficients([TensorElement.one()]).to_json()))
    code, out = run_cli(capsys, "eval-rep", str(path),
                        "--two-j1", "1", "--two-j2", "2", "--order", "0",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 6
    for i in range(6):
        for j in range(6):
            want = 1 if i == j else 0
            assert data["matrix"][i][j][0] == {"num": want, "den": 1}


def test_eval_rep_high_exponent(capsys, tmp_path):
    # F1 = E^1200 (x) 1: one matrix product per unit of exponent, no recursion
    cand = TwistCandidate.from_coefficients(
        [TensorElement.one(), TensorElement({((1200, 0, 0), UNIT_MONO): 1})])
    path = tmp_path / "high.json"
    path.write_text(json.dumps(cand.to_json()))
    code = main(["eval-rep", str(path), "--two-j1", "1", "--two-j2", "1",
                 "--order", "1"])
    assert code == 0


def test_verify_cocycle_high_exponent(tmp_path):
    # Delta(E^1200) (x) 1 - 1 (x) E^1200 (x) 1 != 0: a failed check, not a crash
    cand = TwistCandidate.from_coefficients(
        [TensorElement.one(), TensorElement({((1200, 0, 0), UNIT_MONO): 1})])
    path = tmp_path / "high.json"
    path.write_text(json.dumps(cand.to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "twistkit.cli", "verify", str(path),
         "--order", "1", "--checks", "cocycle"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "cocycle: fail (first nonzero at order 1)" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_eval_rep_matches_library(capsys, reference_file):
    from twistkit.reps import evaluate, spin_rep
    code, out = run_cli(capsys, "eval-rep", reference_file,
                        "--two-j1", "1", "--two-j2", "2", "--order", "2",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    cand = reference_candidate(2)
    expected = evaluate(cand.series, spin_rep(1), spin_rep(2)).to_json()
    assert data["matrix"] == list(expected["matrix"])


def test_eval_rep_bad_rep(capsys, reference_file):
    code = main(["eval-rep", reference_file, "--two-j1", "-2",
                 "--two-j2", "1", "--order", "1"])
    assert code == 2


def test_show_rmatrix_json_and_golden(capsys):
    from twistkit.rmatrix import classical_R, quantum_R_image
    code, out = run_cli(capsys, "show-rmatrix", "--order", "2",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["classical"] == [tensor_to_json(c) for c in classical_R(2).coeffs]
    assert data["quantum"] == [tensor_to_json(c) for c in quantum_R_image(2).coeffs]


def test_show_rmatrix_deterministic(capsys):
    _, out1 = run_cli(capsys, "show-rmatrix", "--order", "1")
    _, out2 = run_cli(capsys, "show-rmatrix", "--order", "1")
    assert out1 == out2


def test_order_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TWISTKIT_ORDER", "0")
    code, out = run_cli(capsys, "expand-phi", "--sign", "plus")
    assert code == 0
    assert out.strip() == "1"


def test_order_env_not_an_integer_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("TWISTKIT_ORDER", "abc")
    code = main(["expand-phi", "--sign", "plus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: TWISTKIT_ORDER")
    assert captured.err.count("\n") == 1


def test_explicit_order_ignores_order_env(capsys, monkeypatch):
    monkeypatch.setenv("TWISTKIT_ORDER", "abc")
    code, out = run_cli(capsys, "expand-phi", "--sign", "plus", "--order", "0")
    assert code == 0
    assert out.strip() == "1"


def test_solve_twist_order2_chains_into_verify(capsys, tmp_path):
    cand_file = tmp_path / "cand2.json"
    code, _ = run_cli(capsys, "solve-twist", "--order", "2",
                      "--candidate-out", str(cand_file))
    assert code == 0
    code, out = run_cli(capsys, "verify", str(cand_file), "--order", "2",
                        "--checks", "twist", "rmatrix", "normalization")
    assert code == 0
    from twistkit.candidate import kernel_check, second_order_term
    cand = TwistCandidate.from_json(json.loads(cand_file.read_text()))
    assert kernel_check(cand.coefficient(2) - second_order_term())


def test_verify_order3_solution_via_cli(capsys, tmp_path, order3_build):
    # the derived order-3 solution passes the verify command end to end
    cand, sols = order3_build
    assert all(s.solved for s in sols)
    path = tmp_path / "cand3.json"
    path.write_text(json.dumps(cand.to_json()))
    code, out = run_cli(capsys, "verify", str(path), "--order", "3",
                        "--checks", "twist", "rmatrix")
    assert code == 0
    assert "rmatrix[quasitriangular]: pass" in out


def test_negative_order_rejected(capsys):
    code = main(["expand-phi", "--sign", "plus", "--order", "-1"])
    assert code == 2


def test_bad_cutoff_rejected(capsys):
    code = main(["solve-twist", "--order", "1", "--cutoff-l", "0"])
    assert code == 2


def test_bad_cutoff_message(capsys):
    assert main(["solve-twist", "--order", "2", "--cutoff-d", "-1"]) == 2
    assert capsys.readouterr().err == (
        "error: cutoffs must satisfy L >= 1 and D >= 0, got L=2, D=-1\n")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "twistkit.cli", "expand-phi", "--sign", "plus",
         "--order", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "2*I + 2*H^2 - 2*H - 1" in proc.stdout


# a missing directory, a regular file where a directory should be, or a
# directory ("" names tmp_path itself) where a file should be
UNWRITABLE_OUTPUTS = [
    (["expand-phi", "--sign", "plus"], "--output", "missing-dir/out"),
    (["expand-phi", "--sign", "plus"], "--output", "a-file/out"),
    (["verify", "CANDIDATE", "--order", "2"], "--output", "missing-dir/out"),
    (["verify", "CANDIDATE", "--order", "2"], "--output", ""),
    (["solve-twist", "--order", "1"], "--out-dir", "a-file"),
    (["solve-twist", "--order", "1"], "--out-dir", "a-file/out"),
    (["solve-twist", "--order", "1"], "--candidate-out", "missing-dir/out"),
    (["solve-twist", "--order", "1"], "--candidate-out", ""),
    (["show-rmatrix", "--order", "2"], "--output", "missing-dir/out"),
    (["show-rmatrix", "--order", "2", "--format", "json"], "--output", "a-file/out"),
    (["eval-rep", "CANDIDATE", "--two-j1", "1", "--two-j2", "1"], "--output",
     "missing-dir/out"),
    (["eval-rep", "CANDIDATE", "--two-j1", "2", "--two-j2", "1"], "--output", ""),
]


@pytest.mark.parametrize("command, option, target", UNWRITABLE_OUTPUTS)
def test_unwritable_output_is_bad_input(tmp_path, reference_file, command,
                                        option, target):
    (tmp_path / "a-file").write_text("")
    command = [reference_file if a == "CANDIDATE" else a for a in command]
    proc = subprocess.run(
        [sys.executable, "-m", "twistkit.cli", *command,
         option, str(tmp_path / target)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write output:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# the first work each command does, where it is defined: each command
# imports these names when it runs, so it calls the patched ones
WORK_FUNCTIONS = ("deform.phi", "twist.build_candidate", "cli._load_candidate",
                  "rmatrix.classical_R", "rmatrix.quantum_R_image")


@pytest.mark.parametrize("command, option, target", UNWRITABLE_OUTPUTS)
def test_unwritable_output_is_reported_before_solving(
        capsys, monkeypatch, tmp_path, reference_file, command, option, target):
    # before solving, and before any other command's work
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the output paths")

    for name in WORK_FUNCTIONS:
        monkeypatch.setattr(f"twistkit.{name}", no_work)
    (tmp_path / "a-file").write_text("")
    command = [reference_file if a == "CANDIDATE" else a for a in command]
    code = main([*command, option, str(tmp_path / target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write output:")
    assert err.count("\n") == 1


def test_output_directories_made_for_the_candidate(capsys, tmp_path):
    # a --candidate-out or --output inside a missing --out-dir is fine:
    # the directory is made before either is written
    out_dir = tmp_path / "a" / "b"
    code = main(["solve-twist", "--order", "1", "--out-dir", str(out_dir),
                 "--candidate-out", str(out_dir / "cand.json"),
                 "--output", str(tmp_path / "a" / "out.txt")])
    assert code == 0
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "a", "b", "cand.json", "out.txt", "twist-order-1.json"]


def test_bad_cutoff_makes_no_output_directory(capsys, tmp_path):
    code = main(["solve-twist", "--order", "1", "--cutoff-l", "0",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_raw_flag_is_rejected(capsys):
    # the kernel correction is always applied; --raw is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["solve-twist", "--order", "1", "--raw"])
    assert exc.value.code == 2


@pytest.mark.parametrize("defect", ["zero denominator", "negative exponent",
                                    "zero leading term", "deep nesting"])
@pytest.mark.parametrize("command", [["verify"], ["eval-rep", "--two-j1", "1",
                                                  "--two-j2", "1"]])
def test_malformed_candidate_is_bad_input(capsys, tmp_path, command, defect):
    data = reference_candidate(2).to_json()
    term = data["coeffs"][1][0]
    if defect == "zero denominator":
        term["den"] = 0
    elif defect == "zero leading term":
        data["coeffs"][0] = []
    else:
        term["leg1"]["f"] = -1
    path = tmp_path / "bad.json"
    if defect == "deep nesting":  # deeper than the recursion limit
        path.write_text("[" * 200_000 + "]" * 200_000)
    else:
        path.write_text(json.dumps(data))
    code = main([command[0], str(path), "--order", "2"] + command[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot load candidate:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _forbid_work(monkeypatch):
    """Make every entry into the commands' work fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started above a bound")
    for name in WORK_FUNCTIONS + ("reps.spin_rep", "reps.evaluate"):
        monkeypatch.setattr(f"twistkit.{name}", forbidden)


@pytest.mark.parametrize("command", sorted(cli.MAX_ORDER))
def test_order_above_bound_rejected_before_work(capsys, monkeypatch, command,
                                                reference_file):
    _forbid_work(monkeypatch)
    largest = cli.MAX_ORDER[command][0]
    argv = {"expand-phi": ["--sign", "plus"],
            "verify": [reference_file],
            "eval-rep": [reference_file, "--two-j1", "1", "--two-j2", "1"]}
    args = [command] + argv.get(command, [])
    for extra, env in ((["--order", str(largest + 1)], None),
                       ([], str(largest + 1))):
        if env is not None:
            monkeypatch.setenv("TWISTKIT_ORDER", env)
        assert main(args + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --order of {command} must be in "
                                f"0..{largest}, got {largest + 1}\n")


@pytest.mark.parametrize("flag", ["--two-j1", "--two-j2"])
def test_two_j_above_bound_rejected_before_work(capsys, monkeypatch, flag,
                                                reference_file):
    _forbid_work(monkeypatch)
    spins = {"--two-j1": "1", "--two-j2": "1", flag: str(cli.MAX_TWO_J + 1)}
    argv = ["eval-rep", reference_file, "--order", "1"]
    for name, value in spins.items():
        argv += [name, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {flag} must be in 0..{cli.MAX_TWO_J}, "
                            f"got {cli.MAX_TWO_J + 1}\n")


def test_eval_rep_json_above_entry_bound_rejected_before_work(
        capsys, monkeypatch, tmp_path, reference_file):
    # 32 x 32 at order 3 is the bound (4,743,684 entries); order 4 is over it
    _forbid_work(monkeypatch)
    out = tmp_path / "matrix.json"
    assert main(["eval-rep", reference_file, "--two-j1", "32", "--two-j2", "32",
                 "--order", "4", "--format", "json", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: eval-rep --format json at two_j 32 x 32, "
                            "order 4 has 5929605 entries, more than 4743684\n")
    assert not out.exists()


def test_eval_rep_json_below_entry_bound_runs(capsys):
    # the 2 x 3 JSON job of the benchmark's check workload
    fixture = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"
    code, out = run_cli(capsys, "eval-rep", str(fixture / "candidate-order3.json"),
                        "--two-j1", "2", "--two-j2", "3", "--order", "3",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 12


def test_help_states_each_bound(capsys):
    for command, (largest, took) in cli.MAX_ORDER.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"0..{largest}; order {largest} takes about {took}" in text
        if command == "eval-rep":
            assert f"0..{cli.MAX_TWO_J};" in text
            assert f"at most {cli.MAX_JSON_ENTRIES} ({cli.MAX_JSON_AT})" in text


def test_help_states_solve_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["solve-twist", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"at most {cli.MAX_UNKNOWNS} unknowns (2L-1)*C(D+4, 4)" in text
    assert f"0..{cli.MAX_ESCALATIONS} (default {cli.MAX_ESCALATIONS})" in text


# the first cutoffs above the bound at order 5 (L = 7 gives 13013 unknowns,
# D = 11 gives 15015), an ansatz of 32M unknowns, and one escalation too
# many or too few
@pytest.mark.parametrize("extra, message", [
    (["--order", "5", "--cutoff-l", "7"],
     "the order-5 ansatz at L=7, D=10 has 13013 unknowns, more than 11011"),
    (["--order", "5", "--cutoff-d", "11"],
     "the order-5 ansatz at L=6, D=11 has 15015 unknowns, more than 11011"),
    (["--order", "3", "--cutoff-d", "100"],
     "the order-3 ansatz at L=4, D=100 has 32186882 unknowns, more than 11011"),
    (["--order", "1", "--max-escalations", "3"],
     "--max-escalations must be in 0..2, got 3"),
    (["--order", "1", "--max-escalations", "-1"],
     "--max-escalations must be in 0..2, got -1"),
])
def test_solve_bounds_rejected_before_work(capsys, monkeypatch, extra, message):
    _forbid_work(monkeypatch)
    assert main(["solve-twist"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_solve_bounds_accept_defaults_and_tested_cutoffs(capsys, monkeypatch):
    calls = []

    def fake_build(order, **cutoffs):
        calls.append(order)
        return TwistCandidate.from_coefficients([TensorElement.one()]), []
    monkeypatch.setattr("twistkit.twist.build_candidate", fake_build)
    argvs = [["--order", str(n)] for n in range(6)]
    argvs += [["--order", "5", "--max-escalations", "0"],
              ["--order", "2", "--cutoff-l", "3", "--cutoff-d", "4"],
              ["--order", "2", "--cutoff-l", "2", "--cutoff-d", "6"],
              ["--order", "1", "--cutoff-l", "1", "--cutoff-d", "0"]]
    for argv in argvs:
        main(["solve-twist"] + argv)
    assert capsys.readouterr().err == ""
    assert len(calls) == len(argvs)


@pytest.mark.parametrize("field", ["e", "num", "den", "order"])
@pytest.mark.parametrize("command", [["verify", "--checks", "normalization"],
                                     ["eval-rep", "--two-j1", "1",
                                      "--two-j2", "1"]])
def test_boolean_in_candidate_is_bad_input(capsys, tmp_path, command, field):
    # JSON true is a Python bool, which isinstance(x, int) would accept;
    # as an order it would match two coefficients (true + 1 == 2)
    data = reference_candidate(2).to_json()
    term = data["coeffs"][1][0]
    if field == "order":
        data["coeffs"] = data["coeffs"][:2]
    {"e": term["leg1"], "order": data}.get(field, term)[field] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    code = main([command[0], str(path), "--order", "2"] + command[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load candidate:")
    assert captured.err.count("\n") == 1


UNIT_TERM = {"leg1": {"e": 0, "f": 0, "d": 0},
             "leg2": {"e": 0, "f": 0, "d": 0}, "num": 1, "den": 1}


@pytest.mark.parametrize("data, message", [
    # read as F0 = 1 if the second term replaced the first
    ({"order": 0, "coeffs": [[UNIT_TERM, UNIT_TERM]]},
     "term 1 ⊗ 1 is listed twice"),
    ({"order": 0, "coeffs": [[{k: v for k, v in UNIT_TERM.items()
                               if k != "den"}]]},
     "a tensor term has no 'den' field"),
    ({"order": 0, "coeffs": [[dict(UNIT_TERM, leg2={"e": 0, "f": 0})]]},
     "a tensor leg has no 'd' field"),
    ({"order": 0, "coeffs": [[dict(UNIT_TERM, leg1=[0, 0, 0])]]},
     "a tensor leg must be a JSON object, got list"),
    ({"order": 0, "coeffs": [[7]]},
     "a tensor term must be a JSON object, got int"),
    ({"order": 0, "coeffs": [5]}, "a tensor element must be a list, got int"),
    ({"order": 0, "coeffs": 5}, "the candidate's coeffs must be a list, got int"),
    ({"order": 0}, "a candidate has no 'coeffs' field"),
    ({"coeffs": [[UNIT_TERM]]}, "a candidate has no 'order' field"),
    ([[UNIT_TERM]], "a candidate must be a JSON object, got list"),
    # read as F0 = 1 if legs after a gap were ignored
    ({"order": 0,
      "coeffs": [[dict(UNIT_TERM, leg4={"e": 5, "f": 0, "d": 0})]]},
     "a tensor term has an unexpected 'leg4' field"),
    ({"order": 0, "coeffs": [[dict(UNIT_TERM, weight=0)]]},
     "a tensor term has an unexpected 'weight' field"),
    ({"order": 0, "coeffs": [[dict(UNIT_TERM,
                                   leg2={"e": 0, "f": 0, "d": 0, "h": 1})]]},
     "a tensor leg has an unexpected 'h' field"),
    # read as F0 = 1 if top-level fields were dropped, and only a
    # solve-twist document (solutions and candidate) is unwrapped
    ({"order": 0, "coeffs": [[UNIT_TERM]], "coefs": [[UNIT_TERM]]},
     "a candidate has an unexpected 'coefs' field"),
    ({"candidate": {"order": 0, "coeffs": [[UNIT_TERM]]}, "order": 7},
     "a candidate has an unexpected 'candidate' field"),
    ({"order": 0, "coeffs": [[UNIT_TERM]], "candidate": 3},
     "a candidate has an unexpected 'candidate' field"),
    ({"solutions": [], "candidate": {"order": 0, "coeffs": [[UNIT_TERM]]},
      "order": 0}, "a candidate has an unexpected 'solutions' field"),
], ids=["repeated-term", "no-den", "no-exponent", "leg-not-object",
        "term-not-object", "coefficient-not-list", "coeffs-not-list",
        "no-coeffs", "no-order", "candidate-not-object", "leg-gap",
        "extra-term-field", "extra-leg-field", "misspelt-field",
        "wrapper-extra-field", "stray-candidate-field",
        "solve-document-extra-field"])
def test_candidate_file_is_read_exactly_or_refused(capsys, tmp_path, data,
                                                   message):
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(data))
    code = main(["verify", str(path), "--order", "0",
                 "--checks", "normalization"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot load candidate: {message}\n"


def test_solve_twist_document_is_read_as_its_candidate(capsys, tmp_path):
    doc = tmp_path / "solve.json"
    assert main(["solve-twist", "--order", "1", "--format", "json",
                 "--output", str(doc)]) == 0
    assert set(json.loads(doc.read_text())) == {"solutions", "candidate"}
    code = main(["verify", str(doc), "--order", "1", "--checks", "twist"])
    assert code == 0
    assert "twist[J+]: pass" in capsys.readouterr().out


# digests of the output of
#   twistkit eval-rep perfbench/fixture/candidate-order3.json \
#       --two-j1 8 --two-j2 8 --order 3 [--format json]
# as printed by the dense-matrix evaluation this output must keep
@pytest.mark.parametrize("fmt, digest", [
    ("text", "88bf409963a35bb6b0c82bd648899c13208b4b4c95602e544ac312937f8bf861"),
    ("json", "d3f311d167e7668996c8f9a9ccca6523f74fc1d0ba6980aed33ff06854484fbe"),
])
def test_eval_rep_output_pinned(capsys, fmt, digest):
    fixture = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"
    code = main(["eval-rep", str(fixture / "candidate-order3.json"),
                 "--two-j1", "8", "--two-j2", "8", "--order", "3",
                 "--format", fmt])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# every check sees the candidate truncated or zero-padded to --order

def test_verify_truncates_below_the_first_failure(capsys):
    # sigma(F) F - 1 and the cocycle defect of the order-3 candidate first
    # fail at order 2; through order 1 both vanish
    code, out = run_cli(capsys, "verify", str(DATA / "candidate-order3.json"),
                        "--order", "1", "--checks", "unitarity", "cocycle")
    assert code == 0
    assert out == "unitarity(universal): pass\ncocycle: pass\n"


@pytest.mark.parametrize("flag, code, status", [
    ([], 1, "fail"), (["--expect-paper-behavior"], 0, "fails-as-paper-states")])
def test_verify_pads_above_the_candidate(capsys, tmp_path, flag, code, status):
    # F = 1 + h r is unitary and a cocycle through order 1, but its
    # zero-padded order-2 coefficient is neither
    path = write_candidate(tmp_path / "ref1.json", reference_candidate(1))
    got, out = run_cli(capsys, "verify", path, "--order", "2",
                       "--checks", "unitarity", "cocycle", *flag)
    assert got == code
    assert out == (f"unitarity(universal): {status} (first nonzero at order 2)\n"
                   f"cocycle: {status} (first nonzero at order 2)\n")


@pytest.mark.parametrize("order, code, status", [
    (1, 0, "pass"), (2, 1, "fail (first failure at order 2)"),
    (3, 1, "fail (first failure at order 2)")])
def test_verify_normalization_at_order(capsys, tmp_path, order, code, status):
    # (eps (x) id) sends the h^2 coefficient 1 (x) I to I: a failure at
    # order 2 that truncation below it drops
    cand = TwistCandidate.from_coefficients(
        [TensorElement.one(), TensorElement.zero(), outer(Element.one(), casimir())])
    path = write_candidate(tmp_path / "spoiled.json", cand)
    got, out = run_cli(capsys, "verify", path, "--order", str(order),
                       "--checks", "normalization")
    assert got == code
    assert out == (f"normalization counit(leg1): {status}\n"
                   "normalization counit(leg2): pass\n")


@pytest.mark.parametrize("name", sorted(cli.CHECKS))
def test_checks_agree_with_the_candidate_cut_to_order(name):
    # a check first run on the candidate cut to its own order gives what it
    # gives on the candidate truncated or padded to --order outright
    for cand in (reference_candidate(1), reference_candidate(2)):
        for order in range(4):
            direct = cli.CHECKS[name](cand.at_order(order), order)
            assert cli.CHECKS[name](cand, order) == direct


@pytest.mark.parametrize("cand", [reference_candidate(2),
                                  *committed_candidates()],
                         ids=["reference2", "order3", "order4", "order5",
                              "order6"])
def test_twist_probe_prints_the_full_residual_lines(capsys, tmp_path, cand):
    # the twist check probes at min(order, cand.order + 1) first
    path = write_candidate(tmp_path / "cand.json", cand)
    for order in range(cand.order + 4):
        full = candidate.twist_residuals(cand, order)
        code, out = run_cli(capsys, "verify", path, "--order", str(order),
                            "--checks", "twist")
        assert out.splitlines() == [f"twist {line}" for line in full.lines()]
        assert code == (0 if full.passed else 1)


def spy_on_twist_series(monkeypatch) -> list:
    """The orders at which the twist residual series is built."""
    orders = []
    real = candidate.twist_residual_series

    def spy(cand, order):
        orders.append(order)
        return real(cand, order)
    monkeypatch.setattr(candidate, "twist_residual_series", spy)
    return orders


def test_twist_check_stops_at_the_first_padded_order(capsys, monkeypatch):
    # the order-3 fixture fails J+ and J- first at order 4, so the order-6
    # check needs no series beyond it
    orders = spy_on_twist_series(monkeypatch)
    code, out = run_cli(capsys, "verify", str(DATA / "candidate-order3.json"),
                        "--order", "6", "--checks", "twist")
    assert orders == [4]
    assert code == 1
    assert out == ("twist twist[J0]: pass\n"
                   "twist twist[J+]: fail (first failure at order 4)\n"
                   "twist twist[J-]: fail (first failure at order 4)\n")


@pytest.mark.parametrize("probe", [
    {"twist[J0]": None, "twist[J+]": None, "twist[J-]": None},
    {"twist[J0]": 2, "twist[J+]": 3, "twist[J-]": None}],
    ids=["pass", "J- passes"])
def test_a_pass_of_j_plus_or_j_minus_at_the_probe_runs_the_full_order(
        capsys, monkeypatch, probe):
    # a J+ or J- line that passes at the probe may fail above it; J0's
    # coefficient n is [F_n, Delta(H)], zero above the candidate's order
    orders = spy_on_twist_series(monkeypatch)
    real = candidate.twist_residuals

    def forced(cand, order):
        if order == 4:
            return VerificationReport(probe)
        return real(cand, order)
    monkeypatch.setattr(candidate, "twist_residuals", forced)
    code, out = run_cli(capsys, "verify", str(DATA / "candidate-order3.json"),
                        "--order", "6", "--checks", "twist")
    assert orders == [6]
    assert "twist twist[J+]: fail (first failure at order 4)\n" in out


# sha256 and exit code of `twistkit verify tests/data/candidate-order{3,4}.json
# --checks all --order N --format FMT [--expect-paper-behavior]`, recorded
# before the checks were given one report shape
VERIFY_DIGESTS = {
    (3, 2, "text", False): (1, "ee3d34a20d37a932b032795ac418b714e7999acfd7089dd1f9bf88f7017d1964"),
    (3, 2, "text", True): (0, "29ee25dfcaa8a7567a7e2e603837ce105e08f606e856925f592926cfae6703be"),
    (3, 2, "json", False): (1, "ce2ab45ce2fb8a6e41193dc64b5e4bae2f9127a72886243cff89a4bf6dec72a0"),
    (3, 2, "json", True): (0, "d04f79de8854afc280dc089fbca07853d8f182922381a791993ad55571d1da0b"),
    (3, 4, "text", False): (1, "f54dcab09341552ca8071e812564206294b8180734548ec9bcf1191ce8eb5182"),
    (3, 4, "text", True): (1, "3fafc378edb06f9ab9081585768342a75691ac581d115ca7af4999b8e381044e"),
    (3, 4, "json", False): (1, "ed5db8bc75f89a509ffcff911a76f3957d1916e5ee305cd3cad0dce84044bdc9"),
    (3, 4, "json", True): (1, "b4d1f8a31ade6bfb2557930320d280a00b0ea00c544fe44a52eceacbbd17e392"),
    (3, 6, "text", False): (1, "e6cbda32183c4fcc06707ed3097366419a9f2010e40c8e970371c7f819912980"),
    (3, 6, "text", True): (1, "3f19662c2d0e3bb96f75611e248a163d1103e715f96e43d66d5e433a48392eff"),
    (3, 6, "json", False): (1, "8cdcb73c06ccd45a85c63568fb5344a7acf8444e4b1a9a26c0e46d980fa14665"),
    (3, 6, "json", True): (1, "b895e79ca21be681aa0b4f0df5213d6ce7f2a718c3b6d9c92e19fa3e81c6a3b0"),
    (4, 2, "text", False): (1, "ee3d34a20d37a932b032795ac418b714e7999acfd7089dd1f9bf88f7017d1964"),
    (4, 2, "text", True): (0, "29ee25dfcaa8a7567a7e2e603837ce105e08f606e856925f592926cfae6703be"),
    (4, 2, "json", False): (1, "ce2ab45ce2fb8a6e41193dc64b5e4bae2f9127a72886243cff89a4bf6dec72a0"),
    (4, 2, "json", True): (0, "d04f79de8854afc280dc089fbca07853d8f182922381a791993ad55571d1da0b"),
    (4, 4, "text", False): (1, "ee3d34a20d37a932b032795ac418b714e7999acfd7089dd1f9bf88f7017d1964"),
    (4, 4, "text", True): (0, "29ee25dfcaa8a7567a7e2e603837ce105e08f606e856925f592926cfae6703be"),
    (4, 4, "json", False): (1, "5d448bf5a9504d70cda86e81d283044e40a28723533358bf7fe27fa371f919cd"),
    (4, 4, "json", True): (0, "3e90272d4077410f1bf96b7121f4bde06e653518872fc6e6b938a921148f4f00"),
    (4, 6, "text", False): (1, "3614a540affffdbad947ed000fd81b8800ae156acfb7f41275a3c0ca7fad8a39"),
    (4, 6, "text", True): (1, "9ecb0af1c889e785a4b5b42245ea2603900f931e69e71496e9590096be1cc44a"),
    (4, 6, "json", False): (1, "efa1a4e87065b76c96acaf297bfefb67f501eae6712bbca9de63481cb72153b5"),
    (4, 6, "json", True): (1, "1ca76d0575fc80cb0c2e803ed90488d7e7cfa9b105e5d831ce85aa79e19abba7"),
}


@pytest.mark.parametrize("cand_order, order, fmt, paper", sorted(VERIFY_DIGESTS))
def test_verify_output_pinned(capsys, cand_order, order, fmt, paper):
    code = main(["verify", str(DATA / f"candidate-order{cand_order}.json"),
                 "--checks", "all", "--order", str(order), "--format", fmt]
                + ["--expect-paper-behavior"] * paper)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        VERIFY_DIGESTS[cand_order, order, fmt, paper]


# tests/data/candidate-j0-fails.json is reference_candidate(2) with E (x) 1
# added to F2, written by
#   PYTHONPATH=src python3 -c "import sys
#   from twistkit.candidate import TwistCandidate, reference_candidate
#   from twistkit.cli import _json_dumps
#   from twistkit.pbw import E, Element
#   from twistkit.tensor import outer
#   cs = list(reference_candidate(2).series.coeffs)
#   cs[2] = cs[2] + outer(E, Element.one())
#   _json_dumps(TwistCandidate.from_coefficients(cs).to_json(), sys.stdout)"
# E (x) 1 has weight 1, so [F2, Delta(H)] != 0 and J0 fails at order 2
J0_FAILS_LINES = [
    "twist twist[J0]: fail (first failure at order 2)",
    "twist twist[J+]: fail (first failure at order 3)",
    "twist twist[J-]: fail (first failure at order 2)",
    "rmatrix[quasitriangular]: fail (first failure at order 2)",
    "normalization counit(leg1): pass",
    "normalization counit(leg2): fail (first failure at order 2)",
    "unitarity(universal): fail (first nonzero at order 2)",
    "cocycle: fail (first nonzero at order 2)",
]


def test_j0_failing_candidate_file_is_the_reference_plus_e():
    coeffs = list(reference_candidate(2).series.coeffs)
    coeffs[2] = coeffs[2] + outer(E, Element.one())
    data = json.loads((DATA / "candidate-j0-fails.json").read_text())
    assert TwistCandidate.from_json(data) == \
        TwistCandidate.from_coefficients(coeffs)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_prints_a_failing_j0_line(capsys, fmt):
    code, out = run_cli(capsys, "verify", str(DATA / "candidate-j0-fails.json"),
                        "--order", "4", "--checks", "all", "--format", fmt)
    assert code == 1
    if fmt == "text":
        assert out == "".join(f"{line}\n" for line in J0_FAILS_LINES)
    else:
        assert json.loads(out) == {"falsified": True, "order": 4,
                                   "report": J0_FAILS_LINES}


# ---------------------------------------------------------------------------
# the streamed JSON writer

STRINGS = st.one_of(st.text(max_size=8),
                    st.sampled_from(['"', '\\"q\\"', "a\nb", "\t\\", "é", " ",
                                     "\U0001f600", ""]))
# (what the writer gets, what json.dumps gets): lists may reach the writer
# as tuples or as iterators, empty or not
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.integers(-10 ** 60, 10 ** 60), STRINGS)


def _json_containers(children):
    def seq(kind):
        return st.lists(children, max_size=4).map(
            lambda pairs: (kind(d for d, _ in pairs), [r for _, r in pairs]))
    return st.one_of(
        seq(list), seq(tuple), seq(lambda items: iter(list(items))),
        st.dictionaries(STRINGS, children, max_size=4).map(
            lambda kv: ({k: d for k, (d, _) in kv.items()},
                        {k: r for k, (_, r) in kv.items()})))


JSON_DOCS = st.recursive(JSON_LEAVES.map(lambda x: (x, x)), _json_containers,
                         max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    written, reference = doc
    assert json_text(written) == json.dumps(reference, indent=2,
                                            sort_keys=True) + "\n"


def test_json_writer_flushes_in_blocks():
    # a long lazy list reaches the stream in several writes, and each write
    # joins many pieces
    writes = []

    class Stream:
        def write(self, text):
            writes.append(text)

    doc = {"rows": ([{"num": i, "den": 1}] for i in range(5000))}
    cli._json_dumps(doc, Stream())
    same = "".join(writes) == json.dumps(
        {"rows": [[{"num": i, "den": 1}] for i in range(5000)]},
        indent=2, sort_keys=True) + "\n"
    assert same                 # a diff of the two texts would take minutes
    assert 2 <= len(writes) <= 5000 * 8 // cli._JSON_BLOCK + 2


@pytest.mark.parametrize("obj", [1.5, Fraction(1, 2), {1, 2}, b"x", {1: 2},
                                 [object()], {"a": {(1, 2): 3}}],
                         ids=["float", "Fraction", "set", "bytes", "int key",
                              "object in list", "tuple key"])
def test_json_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        json_text(obj)


HWM_SCRIPT = """
import sys
from twistkit.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS from /proc")
def test_eval_rep_json_peak_memory_near_text(tmp_path):
    # the high-water mark of the child itself (VmHWM): a child's ru_maxrss
    # starts from the forking parent's, here pytest's own
    fixture = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    peak = {}
    for fmt in ("text", "json"):
        proc = subprocess.run(
            [sys.executable, "-c", HWM_SCRIPT, "eval-rep",
             str(fixture / "candidate-order3.json"), "--two-j1", "8",
             "--two-j2", "8", "--order", "3", "--format", fmt,
             "--output", str(tmp_path / f"out.{fmt}")],
            env=env, capture_output=True, text=True, check=True)
        peak[fmt] = int(proc.stdout)
    assert peak["json"] <= 1.5 * peak["text"], peak
