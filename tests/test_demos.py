import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name: str) -> subprocess.CompletedProcess:
    """Run ``demos/<name>`` through the public API, in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )


def test_catalog_validation_demo_runs():
    run = _run_demo("01_catalog_validation.py")
    assert run.returncode == 0, run.stderr
    residuals = re.findall(r"pentagon (\S+)  hexagon (\S+)  unitarity (\S+)", run.stdout)
    assert len(residuals) == 5
    assert all(float(r) < 1e-12 for row in residuals for r in row), residuals
    assert run.stdout.count("Verlinde formula reproduces the fusion ring: True") == 5


def test_boundary_induction_demo_runs():
    # the demo drives charged_algebra, the Q-system search and the coupling
    # matrix through the public API
    run = _run_demo("03_boundary_induction.py")
    assert run.returncode == 0, run.stderr
    assert "Gamma(1, 1, 0) = 1.000000+0.000000j" in run.stdout
    assert run.stdout.count("Z identical to the original: True") == 3
    # the whole stdout, recorded from the morphism-calculus implementation of induction
    assert run.stdout == (ROOT / "tests" / "golden" / "03_boundary_induction.stdout").read_text()


@pytest.mark.parametrize("name", ["02_qsystem_search", "04_invariants_and_nimreps", "05_annulus_partition"])
def test_demo_stdout_matches_golden(name):
    # the whole stdout, so that no demo breaks silently when a public name goes away
    run = _run_demo(f"{name}.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "golden" / f"{name}.stdout").read_text()
