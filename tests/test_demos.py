"""Every demo script, and every Python example in the README, runs to
completion against the package sources, with nothing on stderr."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lotrain import _BLAS_VARS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)
# the interpreter's arguments for each script: a demo's path, or a README block
SCRIPTS = [[str(d)] for d in DEMOS] + [["-c", block] for block in README_BLOCKS]
IDS = [d.stem for d in DEMOS] + [f"README-{i}" for i in range(1, len(README_BLOCKS) + 1)]


def test_demos_found():
    assert len(DEMOS) == 5
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("demo", SCRIPTS, ids=IDS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)  # demo 05 writes its CSV to a temporary directory
    # unset, as in a fresh shell: a script that imports numpy before lotrain
    # then gets run_experiment's BLAS warning on stderr
    for var in _BLAS_VARS:
        env.pop(var, None)
    # a script does not read pyproject.toml's warning filter
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *demo], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert not any(tmp_path.iterdir())  # nothing left behind
