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
