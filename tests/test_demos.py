import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_boundary_induction_demo_runs():
    # the demo drives charged_algebra, the Q-system search and the coupling
    # matrix through the public API, in a fresh interpreter
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_boundary_induction.py")],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    assert "Gamma(1, 1, 0) = 1.000000+0.000000j" in run.stdout
    assert run.stdout.count("Z identical to the original: True") == 3
    # the whole stdout, recorded from the morphism-calculus implementation of induction
    assert run.stdout == (ROOT / "tests" / "golden" / "03_boundary_induction.stdout").read_text()
