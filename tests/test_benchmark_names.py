"""The benchmark in perfbench/ reaches into twistkit by name: its tracer
wraps the functions listed in `spans.LAYERS`, found with getattr in every
twistkit module, and its jobs import names from the package.  A deleted or
renamed name breaks the benchmark's traced mode; these tests show it in
the main suite instead of only in the slow perfbench/tests suite."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SCRIPT = """
import importlib, json, sys
import spans
missed = spans.install(spans.Tracer())
for module, name in json.loads(sys.argv[1]):
    getattr(importlib.import_module(module), name)
print(missed)
"""


def twistkit_imports() -> list:
    """(module, name) for every `from twistkit... import name` in the
    benchmark's harness and job process."""
    names = []
    for script in ("run.py", "child.py"):
        tree = ast.parse((PERFBENCH / script).read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "twistkit"):
                names.extend((node.module, a.name) for a in node.names)
    return names


def test_benchmark_finds_every_twistkit_name():
    names = twistkit_imports()
    assert ("twistkit", "TwistCandidate") in names
    assert ("twistkit.cli", "main") in names
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(names)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


TRACED_VERIFY = """
import contextlib, io, json, sys
import spans
from twistkit.cli import main
tracer = spans.Tracer()
spans.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    main(["verify", sys.argv[1], "--order", "2", "--checks", "twist", "rmatrix"])
print(json.dumps(tracer.calls))
"""


def test_traced_verify_sees_each_check():
    # cli.CHECKS must look its residual functions up when called: a function
    # object stored in the dict is out of reach of the tracer's rebinding
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(PERFBENCH)]))
    fixture = PERFBENCH / "fixture" / "candidate-order3.json"
    proc = subprocess.run([sys.executable, "-c", TRACED_VERIFY, str(fixture)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls["twist.twist_residual_series"] == 1
    assert calls["rmatrix.quasitriangular_residual"] == 1


TRACED_COMMAND = """
import contextlib, io, json, sys
import spans
from twistkit.cli import main
tracer = spans.Tracer()
spans.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(tracer.calls))
"""


@pytest.mark.parametrize("argv, layer", [
    (["show-rmatrix", "--order", "2"], "rmatrix.quantum_R_image"),
    (["expand-phi", "--sign", "plus", "--order", "2"], "deform.phi"),
])
def test_traced_command_sees_its_work(argv, layer):
    # each command imports its functions when it runs, from the modules the
    # tracer rebinds them in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-c", TRACED_COMMAND, *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[layer] == 1
