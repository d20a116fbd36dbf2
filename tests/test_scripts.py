"""Smoke runs of the experiment scripts at desk-scale arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


CASES = [
    ("run_fresnel_redundancy.py", ["--n-elements", "8"],
     ["redundancy_vs_standoff.csv"]),
]


@pytest.mark.parametrize("script,args,outputs", CASES, ids=[case[0] for case in CASES])
def test_script_runs(tmp_path, script, args, outputs):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(tmp_path), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
