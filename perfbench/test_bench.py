"""Tests of the benchmark's own checks: they must catch wrong outputs and
count failed runs.  Run with: python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import configparser
import copy
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import bench
import checks


def _fresnel_run(tmp_path, config_name="nominal", seed=0):
    work = tmp_path / f"{config_name}-seed{seed}"
    work.mkdir()
    config = work / f"{config_name}.cfg"
    config.write_text(bench.make_config_text(config_name, seed))
    return bench.CliRun("fresnel", config_name, config, work / "out" / "fresnel")


def _runner(seed, reference):
    return bench.Runner(seed, reference, time.perf_counter() + bench.DEADLINE_MARGIN_S)


def _run(runs, seed, reference):
    return _runner(seed, reference).run_pass(runs, bench.child_env(bench.THREADS))


def test_stored_reference_matches_and_a_perturbed_one_fails(tmp_path):
    run = _fresnel_run(tmp_path)
    reference = checks.load_reference()
    assert _run([run], 0, reference).records[0].problems == []

    got = checks.digest(run.out_dir)
    assert checks.compare(got, reference[run.key]) == []
    for path, change in (
        (("fresnel.json", "effective_aperture_size"), lambda v: v + 1),
        (("fresnel.json", "sbp_closed_form_g1"), lambda v: v * (1.0 + 1e-4)),
    ):
        bad = copy.deepcopy(reference)
        leaf = bad[run.key][path[0]]
        leaf[path[1]] = change(leaf[path[1]])
        assert checks.compare(got, bad[run.key]), path
        record = _run([run], 0, bad).records[0]
        assert record.failed and path[1] in record.problems[0]

    table = "effective_aperture.csv"
    for column, key, change in (("multiplicity", "values", lambda v: [v[0] + 1, *v[1:]]),
                                ("position", "max", lambda v: v + 1e-4 * abs(v))):
        bad = copy.deepcopy(reference)
        entry = bad[run.key][table]["columns"][column]
        entry[key] = change(entry[key])
        assert checks.compare(got, bad[run.key]), column


def test_svd_rows_below_the_cutoff_are_not_compared(tmp_path):
    work = tmp_path / "svd"
    run = [r for r in bench.prepare("spectrum", 0, work) if r.key == "svd nominal"][0]
    assert not _run([run], 0, checks.load_reference()).records[0].failed
    reference = checks.load_reference()[run.key]
    path = run.out_dir / "svd_multi.csv"
    lines = path.read_text().splitlines()
    kept = reference["svd_multi.csv"]["kept_rows"]
    for row, expect_problem in ((kept + 5, False), (kept - 5, True)):
        edited = list(lines)
        index, sigma, norm = edited[row].split(",")
        edited[row] = f"{index},{float(sigma) * 1.5!r},{float(norm) * 1.5!r}"
        path.write_text("\n".join(edited) + "\n")
        assert bool(checks.compare(checks.digest(run.out_dir), reference)) == expect_problem


def test_long_tables_are_compared_in_row_order(tmp_path):
    rows = 3 * checks.FULL_ROWS
    x = np.linspace(-1.0, 2.0, rows)
    profile = np.exp(-((x - 0.3) / 0.4) ** 2)
    path = tmp_path / "psf_test.csv"

    def write(column):
        path.write_text("x,intensity\n" + "".join(
            f"{a:.17g},{b:.17g}\n" for a, b in zip(x, column)))
        return checks.digest(tmp_path)

    reference = write(profile)
    assert checks.compare(write(profile), reference) == []
    # same values, so sum / abs-sum / min / max alone cannot tell them apart
    for moved in (profile[::-1], np.roll(profile, rows // 3)):
        problems = checks.compare(write(moved), reference)
        assert problems and all("psf_test.csv:intensity" in p for p in problems)


def test_nonzero_exit_is_counted_not_dropped(tmp_path):
    good = _fresnel_run(tmp_path)
    # shifted_scene.cfg enables only svd and kspace: fresnel exits with code 2
    bad = _fresnel_run(tmp_path, "shifted_scene", seed=0)
    result = _run([bad, good], 0, checks.load_reference())
    assert [r.returncode for r in result.records] == [2, 0]
    assert result.records[0].failed and not result.records[1].failed
    assert result.wall_s == sum(r.wall_s for r in result.records)
    assert all(r.speed_scale > 0 for r in result.records)

    line = bench.summarize([result], {})
    assert line["attempted"] == 2 and line["failed"] == 1 and not line["correct"]


def test_speed_probe_samples_at_least_once():
    with bench.SpeedProbe(os.getpid()) as probe:
        pass
    assert len(probe.times) >= 1
    assert probe.scale == bench.REFERENCE_PROBE_S / probe.times[0]


def test_a_run_past_the_deadline_is_killed_and_counted(tmp_path):
    run = _fresnel_run(tmp_path)
    runner = bench.Runner(0, checks.load_reference(), time.perf_counter())
    record = runner.run_pass([run], bench.child_env(bench.THREADS)).records[0]
    assert record.returncode < 0 and record.failed
    assert "deadline" in record.problems[0]


def test_nonzero_seed_checks_invariants_only(tmp_path):
    run = _fresnel_run(tmp_path, seed=7)
    record = _run([run], 7, None).records[0]
    assert record.problems == []


def test_seeded_configs_keep_the_work_size():
    for name in ("tilt_sweep", "t_sweep", "nominal"):
        base = bench.make_config_text(name, 0)
        assert base == bench._source_config(name).read_text()
        a, b = bench.make_config_text(name, 5), bench.make_config_text(name, 5)
        assert a == b and a != bench.make_config_text(name, 6)
        p0, p5 = (configparser.ConfigParser(interpolation=None) for _ in range(2))
        p0.optionxform = p5.optionxform = str
        p0.read_string(base)
        p5.read_string(a)
        assert p5["run"]["seed"] == "5"
        for section in p0.sections():
            for key, value in p0[section].items():
                if (section, key) != ("sweep", "values"):
                    assert p5[section][key] == value
        if p0.has_section("sweep"):
            v0 = p0["sweep"]["values"].split(",")
            v5 = p5["sweep"]["values"].split(",")
            assert len(v0) == len(v5) and v0 != v5


def test_trace_sees_calls_through_every_namespace(tmp_path):
    work = tmp_path / "trace"
    runs = bench.prepare("imaging", 0, work)
    g1 = [r for r in runs if r.config_name == "resolution_g1"]
    result = _runner(0, checks.load_reference()).run_pass(
        g1, bench.child_env(bench.THREADS), trace_dir=work)
    assert not result.records[0].failed
    with np.load(result.span_files[0]) as spans:
        names = spans["names"].tolist()
        nid, parent = spans["name_id"], spans["parent"]
    name_of = [names[i] for i in nid]
    # recon imports build_operator, svd and adjoint_to_points by name
    for callee in ("operator.build_operator", "operator.svd", "operator.adjoint_to_points"):
        parents = {name_of[p] for i, p in enumerate(parent) if name_of[i] == callee}
        assert parents == {"recon.resolution_sweep"}, callee
    totals = bench.LayerTotals(result.span_files)
    assert totals.n("operator.build_operator") == 2  # mono and multi
    assert totals.n("cli.from_file") == 1
    assert 0.0 <= totals.self_time["recon.resolution_sweep"] < totals.t("recon.resolution_sweep")


_BLAS_THREADS_PROBE = """
import ctypes, sys
sys.path.insert(0, sys.argv[1])
import trace_child  # imports aperture_dof, and with it numpy
paths = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
for path in paths:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            print(getattr(lib, symbol)())
            sys.exit(0)
sys.exit(3)
"""


def test_traced_child_runs_blas_at_the_pinned_thread_count():
    """child_env removes OPENBLAS_NUM_THREADS; only aperture_dof's pinning,
    which must run before numpy loads, keeps BLAS at one thread."""
    env = bench.child_env(1)
    assert "OPENBLAS_NUM_THREADS" not in env
    probe = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE, str(bench.BENCH)],
                           env=env, capture_output=True, text=True, timeout=60)
    if probe.returncode == 3:
        pytest.skip("numpy is not linked against a known OpenBLAS build")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["1"]
