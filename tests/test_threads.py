"""The BLAS settings the package exports before numpy loads, and what a
command writes at 1 and 2 BLAS threads."""

import importlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import aperture_dof

from conftest import POOL_VARS, SRC, cli_usage, fresh_python

ROOT = SRC.parent
CONFIGS = ROOT / "configs"


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


needs_an_idle_openblas_worker = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 or not _uses_openblas(),
    reason="needs 2 CPUs for a BLAS worker, and OPENBLAS_THREAD_TIMEOUT is OpenBLAS's own")


@needs_an_idle_openblas_worker
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


@needs_an_idle_openblas_worker
@pytest.mark.parametrize("command, config", [("sbp-sweep", "tilt_sweep.cfg"),
                                             ("kspace", "nominal.cfg")])
def test_command_cpu_stays_within_its_wall_time(command, config, tmp_path):
    # CPU well above wall means an OpenBLAS worker spun idle: the package's
    # OPENBLAS_THREAD_TIMEOUT did not reach numpy. kspace loads numpy and
    # reads about 1.0x wall at the package's 16 and 1.5x at OpenBLAS's
    # default 28; sbp-sweep loads no numpy and reads about 1.0x either way
    code, cpu, wall, _, err = cli_usage(command, "--config", CONFIGS / config, "--out", tmp_path,
                                        threads=2)
    assert code == 0, err
    assert cpu <= 1.25 * wall


def test_acceptance_lines_do_not_move_with_the_thread_count():
    # each criterion prints its measured numbers: one that moves with the
    # BLAS thread count shows as a changed line
    lines = []
    for threads in (1, 2):
        proc = fresh_python("-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                            ROOT / "tests" / "test_acceptance.py", threads=threads)
        assert proc.returncode == 0, proc.stdout
        lines.append(re.findall(r"\[(?:PASS|FAIL)\] .*", proc.stdout))
    assert lines[0] == lines[1]
    assert [line[:6] for line in lines[0]] == ["[PASS]"] * 10


def _outputs_at_1_and_2_threads(command, config, tmp_path):
    """Runs `command` on `config` once at each thread count; returns the two
    output directories."""
    runs = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        proc = fresh_python("-m", "aperture_dof.cli", command, "--config", config, "--out", out,
                            threads=threads)
        assert proc.returncode == 0, proc.stderr
        runs.append(out)
    return runs


@pytest.mark.parametrize("config", [CONFIGS / "tilt_sweep_fine.cfg",
                                    ROOT / "perfbench" / "configs" / "t_sweep.cfg"],
                         ids=lambda p: p.name)
def test_sbp_sweep_does_not_move_with_the_thread_count(config, tmp_path):
    # a closed form in plain floats that never loads numpy, and theta_max's
    # search is one such call per tilt: nothing in it sees the BLAS threads
    one, two = (out / "sbp_sweep.csv" for out in _outputs_at_1_and_2_threads("sbp-sweep", config,
                                                                              tmp_path))
    assert one.read_bytes() == two.read_bytes()


def test_svd_spectra_move_with_the_thread_count_by_rounding_only(tmp_path):
    # the knee and the value count must match, and every value at or above
    # 1e-6 sigma_1 agree to 1e-10 sigma_1 (measured: 1.6e-14 sigma_1)
    runs = _outputs_at_1_and_2_threads("svd", CONFIGS / "nominal.cfg", tmp_path)
    dofs = [json.loads((out / "dof.json").read_text())["architectures"] for out in runs]
    assert list(dofs[0]) == ["mono", "multi"]
    for arch in dofs[0]:
        counts = [(dof[arch]["knee_index"], dof[arch]["n_singular_values"]) for dof in dofs]
        assert counts[0] == counts[1]
        one, two = (np.loadtxt(out / f"svd_{arch}.csv", delimiter=",", skiprows=1, usecols=1)
                    for out in runs)
        keep = one >= 1e-6 * one[0]
        assert np.max(np.abs(one - two)[keep]) <= 1e-10 * one[0]
