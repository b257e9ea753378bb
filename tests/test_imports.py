import os
import subprocess
import sys
from pathlib import Path

import bcft


def test_bcft_and_its_cli_import_no_scipy():
    """bcft runs on numpy alone: importing scipy would triple every command's start-up.
    Tensor words and fusion trees belong to the tests' morphism calculus; the
    package counts trees in closed form, so neither `bcft.words` nor its names load."""
    src = str(Path(bcft.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = (
        "import sys, bcft, bcft.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "'bcft.words' in sys.modules, [n for n in ('Word', 'simple_word', 'sum_word') if hasattr(bcft, n)])"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[] False []"
