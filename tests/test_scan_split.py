import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scan_split_prints_every_stage_and_the_golden_digest():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "scan_split.py"),
                           str(ROOT), "--passes", "1"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert ": 1 warm passes of 16 points on CPU " in lines[0]
    rows = {line.split()[0]: [float(v) for v in line.split()[1:]]
            for line in lines[2:-1]}
    assert list(rows) == ["ansatz", "residual", "order-k", "J+rows", "rhs",
                          "solve", "instantiate", "particular", "kernel",
                          "rest", "total"]
    # one pass: its minimum is its median, and the stages sum to the total
    assert all(low == median for low, median in rows.values())
    assert abs(sum(v[0] for name, v in rows.items() if name != "total")
               - rows["total"][0]) < 0.1
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["scan"]
    digest = hashlib.sha256("".join(golden[p] for p in sorted(golden))
                            .encode()).hexdigest()
    assert lines[-1] == f"digest {digest} (16/16 points match golden.json)"
