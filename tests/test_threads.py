"""The BLAS settings the package exports before numpy loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aperture_dof

SRC = Path(__file__).resolve().parent.parent / "src"
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _reimport(monkeypatch, **env):
    # a plain dict in place of os.environ: the package's setdefaults land there
    monkeypatch.setattr(os, "environ", env)
    importlib.reload(aperture_dof)
    return env


def test_user_thread_timeout_survives_import(monkeypatch):
    env = _reimport(monkeypatch, APERTURE_DOF_THREADS="2", OPENBLAS_THREAD_TIMEOUT="7")
    assert env["OPENBLAS_THREAD_TIMEOUT"] == "7"
    assert env["OPENBLAS_NUM_THREADS"] == "2"


def test_thread_timeout_set_without_a_thread_count(monkeypatch):
    env = _reimport(monkeypatch)
    assert env["OPENBLAS_THREAD_TIMEOUT"] == "16"
    assert not any(var in env for var in POOL_VARS)


def _uses_openblas():
    return "openblas" in repr(np.show_config(mode="dicts")["Build Dependencies"]["blas"]).lower()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs for a BLAS worker")
@pytest.mark.skipif(not _uses_openblas(), reason="OPENBLAS_THREAD_TIMEOUT is OpenBLAS's own")
def test_idle_blas_worker_sleeps():
    # OpenBLAS's default timeout spins a worker ~0.1 s of CPU after each threaded call
    code = (
        "import time\n"
        "import aperture_dof\n"
        "import numpy as np\n"
        "a = np.ones((400, 400), complex)\n"
        "a @ a\n"
        "start = time.process_time()\n"
        "time.sleep(0.3)\n"
        "print(time.process_time() - start)\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_THREAD_TIMEOUT", *POOL_VARS)}
    env["APERTURE_DOF_THREADS"] = "2"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.03
