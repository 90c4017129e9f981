"""What a CLI process imports.  Each command imports the modules it runs
when it runs, and the package imports its names on first use, so a
process compiles only the code its command needs.  Each case runs in a
fresh interpreter, because this process has imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = str(ROOT / "perfbench" / "fixture" / "candidate-order3.json")

SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
from twistkit.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded(*argv) -> list:
    """The modules that importing twistkit.cli and running `twistkit argv`
    load in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


PHI = {"deform", "hseries", "pbw", "tensor", "lincomb", "report"}
RMATRIX = PHI | {"rmatrix"}
VERIFY = RMATRIX | {"twist", "linsolve"}


@pytest.mark.parametrize("argv, modules", [
    ([], set()),
    (["expand-phi", "--sign", "plus", "--order", "4"], PHI),
    (["expand-phi", "--sign", "minus", "--format", "json"], PHI),
    (["show-rmatrix", "--order", "3"], RMATRIX),
    (["show-rmatrix", "--order", "3", "--format", "json"], RMATRIX),
    (["verify", FIXTURE, "--order", "3"], VERIFY),
    (["eval-rep", FIXTURE, "--two-j1", "1", "--two-j2", "1"], VERIFY | {"reps"}),
    (["solve-twist", "--order", "1"], VERIFY),
], ids=["import", "expand-phi", "expand-phi-json", "show-rmatrix",
        "show-rmatrix-json", "verify", "eval-rep", "solve-twist"])
def test_each_command_loads_only_its_modules(argv, modules):
    new = loaded(*argv)
    ours = {m for m in new if m.split(".")[0] == "twistkit"}
    assert ours == {"twistkit", "twistkit.cli"} | {f"twistkit.{m}" for m in modules}
    assert "dataclasses" not in new
    if argv and argv[0] in ("expand-phi", "show-rmatrix"):
        assert not {"twistkit.twist", "twistkit.reps", "twistkit.linsolve",
                    "twistkit.cpoly"} & ours


# the names the package exported before it imported them lazily
EXPORTS = sorted("""
AnsatzUnknown CasimirTerm E Element F H HSeries OrderMismatchError PhiSeries
Poly RepMatrix SolutionSet SpinRep TensorElement TensorElement3 TwistAnsatz
TwistCandidate VerificationReport build_candidate cartan_killing casimir
classical_R classical_r cocycle_defect commutator coproduct counit counit_leg
delta_q_image divide element_from_json element_matrix element_to_json
element_to_str evaluate flip from_casimir_basis generator_images
is_hi_polynomial is_weight_zero kernel_check m_J0 m_Jminus m_Jplus mul_sub
normalization_check outer phi q_analog q_analog_2h q_factorial
quantum_R_image quantum_commutator_check quasitriangular_residual
reference_candidate rep_unitarity_check second_order_term semi_universal
series_exp_h series_outer shift_h sinh_ratio solve_order solve_with_escalation
spin_rep symmetrize_order tensor_from_json tensor_to_json tensor_to_str
to_casimir_basis twist_residual_series twist_residuals unitarity_defect weight
""".split())

PACKAGE_SCRIPT = """
import json, sys, twistkit
from twistkit import HSeries, TwistCandidate
out = {"all": twistkit.__all__, "dir": dir(twistkit),
       "unresolved": [n for n in twistkit.__all__ if getattr(twistkit, n) is None]}
try:
    twistkit.nope
except AttributeError as exc:
    out["nope"] = str(exc)
out["HSeries"] = HSeries.__module__
print(json.dumps(out))
"""


def test_package_exports_every_name_lazily():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PACKAGE_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(EXPORTS) == 74
    assert sorted(out["all"]) == EXPORTS
    assert set(EXPORTS) <= set(out["dir"])
    assert out["unresolved"] == []
    assert out["nope"] == "module 'twistkit' has no attribute 'nope'"
    assert out["HSeries"] == "twistkit.hseries"
