"""Closed-loop benchmark of the aperture-dof CLI, end to end and per layer.

Usage:
    python3 perfbench/bench.py --workload {spectrum,imaging,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  One client runs the workload's CLI
commands one subprocess at a time, each started after the previous one has
exited, with APERTURE_DOF_THREADS pinned.  A pass is one run of every
command of the workload; passes repeat until `--seconds` is used up.

--trace 0 reports the end-to-end metrics (medians over passes, times
rescaled to a fixed machine speed by SpeedProbe).  --trace 1
alternates plain and traced passes (see trace_child.py), adds one traced
`spectrum` pass at one thread, and reports the per-layer metrics.  Every
run's outputs are checked (checks.py).  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREADS = 2
SETUP_PROBES = 7
# The last pass starts before --seconds is up, so a run ends by about
# --seconds plus half a pass.  A subprocess still running at 2 * --seconds plus
# this margin is taken as hung: it is killed and its run counts as failed.
# The margin holds the longest pass, a traced imaging pass after the
# one-thread spectrum pass (about 55 s on a 2-vCPU box).  At the 40 s of
# BENCHMARK.json the deadline falls at 165 s, inside the 180 s a run may take.
DEADLINE_MARGIN_S = 85.0
# A shared box's vCPUs change speed by 20-50% in spells of seconds to
# minutes, each vCPU on its own, for all code alike (a fixed pure-Python loop
# and a small-array numpy loop moved together).  So while each child runs, a
# thread of the benchmark times a fixed probe every PROBE_PERIOD_S on the
# vCPU the child last ran on, and the child's times are rescaled by
# REFERENCE_PROBE_S / (median probe time): seconds at a fixed machine speed.
# The probe is the benchmark's own code, so a change to the program moves
# the rescaled times as it moves the raw ones.  REFERENCE_PROBE_S is about
# the probe's median on a 2-vCPU Xeon VM; it sets the scale, not the ratios.
PROBE_PERIOD_S = 0.02
REFERENCE_PROBE_S = 4e-4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Each workload loads a different layer (see README.md for the reasoning):
# spectrum -> operator build and SVD, mono and multi, up to a 1 GB operator;
# imaging -> adjoint_to_points on fine grids; sweep -> the scalar
# bandwidth / sbp_numeric / theta_max path, without operator or recon.
WORKLOADS = {
    "spectrum": (("svd", "nominal"), ("svd", "shifted_scene"), ("fresnel", "nominal"),
                 ("kspace", "nominal"), ("svd", "svd_multi_n400")),
    "imaging": (("resolution", "nominal"), ("resolution", "resolution_g1")),
    "sweep": (("sbp-sweep", "tilt_sweep"), ("sbp-sweep", "t_sweep")),
}

SETUP_PROBE = (
    "import sys\n"
    "from aperture_dof.cli import ExperimentConfig\n"
    "for path in sys.argv[1:]:\n"
    "    ExperimentConfig.from_file(path)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- inputs

def _source_config(name: str) -> Path:
    for folder in (ROOT / "configs", BENCH / "configs"):
        path = folder / f"{name}.cfg"
        if path.is_file():
            return path
    raise BenchError(f"config {name}.cfg not found in configs/ or perfbench/configs/")


_VALUE_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-z]*)\s*$")
_CM_PER_UNIT = {"m": 100.0, "cm": 1.0, "mm": 0.1}


def _jitter_sweep_value(param: str, text: str, rng: random.Random) -> str:
    """Shift one sweep value a little; the work it causes stays the same."""
    m = _VALUE_RE.match(text)
    if param == "theta" and m and m.group(2) in ("", "deg"):
        deg = float(m.group(1))
        if deg == 0.0:  # broadside rows use a closed form; keep that row's work
            return text
        deg = max(-90.0, min(90.0, deg + rng.uniform(-1.5, 1.5)))
        return f"{deg:.6f}deg"
    if param == "t" and m and m.group(2) in _CM_PER_UNIT:
        cm = float(m.group(1)) * _CM_PER_UNIT[m.group(2)]
        return f"{cm + rng.uniform(-1.0, 1.0):.6f}cm"
    raise BenchError(f"cannot jitter sweep value {text!r} of param {param!r}")


def make_config_text(name: str, seed: int) -> str:
    """Seed 0: the config verbatim.  Other seeds: [run] seed set and sweep
    values jittered, with N, n, row and target counts unchanged."""
    text = _source_config(name).read_text()
    if seed == 0:
        return text
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    if not parser.has_section("run"):
        parser.add_section("run")
    parser["run"]["seed"] = str(seed)
    if parser.has_section("sweep"):
        rng = random.Random(f"{seed}:{name}")
        param = parser["sweep"]["param"].strip()
        values = [v for v in parser["sweep"]["values"].split(",") if v.strip()]
        parser["sweep"]["values"] = ", ".join(
            _jitter_sweep_value(param, v, rng) for v in values)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


@dataclass(frozen=True)
class CliRun:
    command: str
    config_name: str
    config: Path
    out_dir: Path

    @property
    def key(self) -> str:
        return f"{self.command} {self.config_name}"

    def argv(self) -> list:
        return [self.command, "--config", str(self.config), "--out", str(self.out_dir)]


def prepare(workload: str, seed: int, work: Path) -> list:
    """Write the workload's configs for `seed` under work/; the program sees
    only these files."""
    work.mkdir(parents=True)
    runs = []
    for command, name in WORKLOADS[workload]:
        config = work / f"{name}.cfg"
        if not config.exists():
            config.write_text(make_config_text(name, seed))
        runs.append(CliRun(command, name, config,
                           work / "out" / f"{command}_{name}"))
    return runs


# ---------------------------------------------------------------- running

def child_env(threads: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in THREAD_VARS and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["APERTURE_DOF_THREADS"] = str(threads)
    return env


def _probe_unit(a: np.ndarray) -> float:
    """Fixed interpreter and small-array numpy work, about 0.4 ms."""
    s = 0.0
    for i in range(2000):
        s += math.sqrt(i)
    for i in range(20):
        s += float(np.sum(np.sqrt(a + i)))
    return s


def _last_cpu(pid: int) -> int | None:
    """The CPU process `pid` last ran on (field 39 of /proc/PID/stat)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class SpeedProbe:
    """Times _probe_unit every PROBE_PERIOD_S on its own thread, pinned each
    time to the CPU that process `pid` last ran on, until stopped.  It takes
    that CPU from the child for about 2% of the time; at least one sample
    is taken."""

    def __init__(self, pid: int):
        self.pid = pid
        self.times: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        a = np.arange(64.0)
        allowed = os.sched_getaffinity(0)
        while True:
            cpu = _last_cpu(self.pid)
            if cpu in allowed:
                os.sched_setaffinity(0, {cpu})  # pid 0: this thread only
            t0 = time.perf_counter()
            _probe_unit(a)
            self.times.append(time.perf_counter() - t0)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        """Factor that turns the times measured meanwhile into reference seconds."""
        return REFERENCE_PROBE_S / statistics.median(self.times)


def spawn(argv: list, env: dict, timeout: float, log_dir: Path) -> tuple:
    """Run one subprocess to completion; (exit code, wall s, cpu s, peak RSS
    MiB, speed scale).

    Wall time runs from spawn to reaping; CPU and peak RSS come from the
    rusage that os.wait4 returns for this child alone.  The speed scale is
    SpeedProbe.scale over the child's life."""
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            with SpeedProbe(proc.pid) as probe:
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, probe.scale)


@dataclass
class RunRecord:
    key: str
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    speed_scale: float
    bytes_written: int
    problems: list

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def check_run(run: CliRun, returncode: int, seed: int, reference: dict | None,
              log_dir: Path) -> list:
    if returncode != 0:
        tail = (log_dir / "stderr").read_text(errors="replace").strip().splitlines()
        return [f"exit code {returncode}: {tail[-1] if tail else '(no stderr)'}"]
    try:
        problems = checks.invariant_problems(run.command, run.config, run.out_dir)
        if seed == 0:
            if reference is None or run.key not in reference:
                return [f"no stored reference for {run.key}"]
            problems += checks.compare(checks.digest(run.out_dir), reference[run.key])
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems


@dataclass
class PassResult:
    records: list
    span_files: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.records)

    @property
    def wall_ref_s(self) -> float:
        return sum(r.wall_s * r.speed_scale for r in self.records)

    @property
    def cpu_ref_s(self) -> float:
        return sum(r.cpu_s * r.speed_scale for r in self.records)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.records)


class Runner:
    """Closed loop: one run at a time, each started when the last exits."""

    def __init__(self, seed: int, reference: dict | None, deadline: float):
        self.seed = seed
        self.reference = reference
        self.deadline = deadline  # time.perf_counter() value

    def run_pass(self, runs: list, env: dict, trace_dir: Path | None = None) -> PassResult:
        result = PassResult([])
        for i, run in enumerate(runs):
            if run.out_dir.exists():
                shutil.rmtree(run.out_dir)
            log_dir = run.out_dir.parent
            log_dir.mkdir(parents=True, exist_ok=True)
            if trace_dir is None:
                argv = [sys.executable, "-m", "aperture_dof.cli", *run.argv()]
            else:
                spans = trace_dir / f"{i}.npz"
                argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans),
                        *run.argv()]
                result.span_files.append(spans)
            rc, wall, cpu, rss, scale = spawn(argv, env,
                                              self.deadline - time.perf_counter(), log_dir)
            if rc < 0 and time.perf_counter() >= self.deadline:
                problems = [f"killed at the deadline after {wall:.1f} s"]
            else:
                problems = check_run(run, rc, self.seed, self.reference, log_dir)
            written = sum(p.stat().st_size for p in run.out_dir.glob("*")) \
                if run.out_dir.is_dir() else 0
            result.records.append(RunRecord(run.key, rc, wall, cpu, rss, scale, written,
                                             problems))
        return result

    def setup_time(self, configs: list, env: dict, log_dir: Path) -> tuple:
        """Fresh interpreter: import the CLI and parse the pass's configs.
        (wall s, reference s)."""
        rc, wall, _, _, scale = spawn([sys.executable, "-c", SETUP_PROBE, *map(str, configs)],
                               env, self.deadline - time.perf_counter(), log_dir)
        if rc != 0:
            err = (log_dir / "stderr").read_text(errors="replace").strip()
            raise BenchError(f"set-up probe failed with exit code {rc}: {err}")
        return wall, wall * scale


# ---------------------------------------------------------------- metrics

def _median(values) -> float:
    return float(statistics.median(values))


class LayerTotals:
    """Span sums over one traced pass, keyed by span name."""

    def __init__(self, span_files: list):
        self.time: dict = {}
        self.self_time: dict = {}
        self.calls: dict = {}
        self.matrix_bytes = 0.0
        for path in span_files:
            if not path.exists():  # the run was killed; it is counted as failed
                continue
            with np.load(path) as spans:
                names = spans["names"]
                nid, parent = spans["name_id"], spans["parent"]
                dur = spans["end"] - spans["start"]
                if spans["matrix_bytes"].size:
                    self.matrix_bytes = max(self.matrix_bytes,
                                            float(spans["matrix_bytes"].max()))
            has_parent = parent >= 0
            children = np.bincount(parent[has_parent], weights=dur[has_parent],
                                   minlength=dur.size)
            for i, name in enumerate(names.tolist()):
                mask = nid == i
                self.time[name] = self.time.get(name, 0.0) + float(dur[mask].sum())
                self.self_time[name] = self.self_time.get(name, 0.0) \
                    + float((dur[mask] - children[mask]).sum())
                self.calls[name] = self.calls.get(name, 0) + int(mask.sum())

    def t(self, name: str) -> float:
        return self.time.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def cmd_self(self) -> float:
        return sum(v for k, v in self.self_time.items() if k.startswith("cli.cmd_"))


def layer_metrics(totals: LayerTotals, traced: PassResult) -> dict:
    """Per-layer metrics of one traced pass: (value, unit) by name."""
    return {
        "operator.build_s": (totals.t("operator.build_operator"), "s"),
        "operator.build.calls": (totals.n("operator.build_operator"), "count"),
        "operator.matrix_mb": (totals.matrix_bytes / 2**20, "MiB-computed"),
        "operator.svd_s": (totals.t("operator.svd"), "s"),
        "operator.svd.calls": (totals.n("operator.svd"), "count"),
        "operator.adjoint_s": (totals.t("operator.adjoint_to_points"), "s"),
        "operator.adjoint.calls": (totals.n("operator.adjoint_to_points"), "count"),
        "operator.left_vectors_s": (totals.t("operator.left_vectors"), "s"),
        "recon.sweep_s": (totals.t("recon.resolution_sweep"), "s"),
        "recon.sweep.self_s": (totals.self_time.get("recon.resolution_sweep", 0.0), "s"),
        "recon.beamwidth.calls": (totals.n("recon.beamwidth_3db"), "count"),
        "fresnel.equivalence_s": (totals.t("fresnel.fresnel_equivalence_check"), "s"),
        "fresnel.equivalence.calls": (totals.n("fresnel.fresnel_equivalence_check"), "count"),
        "kspace.bandwidth.calls": (totals.n("kspace.bandwidth"), "count"),
        "kspace.bandwidth_s": (totals.t("kspace.bandwidth"), "s"),
        "sbp.numeric.calls": (totals.n("sbp.sbp_numeric"), "count"),
        "sbp.numeric_s": (totals.t("sbp.sbp_numeric"), "s"),
        "sbp.theta_max.calls": (totals.n("sbp.theta_max"), "count"),
        "sbp.theta_max_s": (totals.t("sbp.theta_max"), "s"),
        "cli.config_s": (totals.t("cli.from_file"), "s"),
        "cli.cmd_self_s": (totals.cmd_self(), "s"),
        "cli.bytes_written": (sum(r.bytes_written for r in traced.records), "bytes"),
        "svg.plot_s": (totals.t("_svg.plot_lines"), "s"),
    }


def summarize(passes: list, metrics: dict) -> dict:
    """The result line.  Every run attempted counts, failed ones included."""
    records = [r for p in passes for r in p.records]
    failed = sum(r.failed for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
    }


# ---------------------------------------------------------------- modes

def _another_pass(started: float, now: float, longest: float, seconds: float) -> bool:
    """Start another pass if it is expected to end by `seconds` plus half a
    pass: a run overshoots by at most about half a pass instead of leaving
    up to a whole pass of its time unused."""
    return now + 0.5 * longest < started + seconds


def measure_end_to_end(runner: Runner, runs: list, seconds: float, work: Path):
    started = time.perf_counter()
    env = child_env(THREADS)
    configs = sorted({r.config for r in runs})
    # one set-up probe before each pass spreads them over the run, so that
    # their median sees the same machine load as the passes
    setups, passes, longest = [], [], 0.0
    while True:
        t0 = time.perf_counter()
        setups.append(runner.setup_time(configs, env, work))
        passes.append(runner.run_pass(runs, env))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if not _another_pass(started, now, longest, seconds):
            break
    while len(setups) < SETUP_PROBES and time.perf_counter() < runner.deadline:
        setups.append(runner.setup_time(configs, env, work))
    # the result line carries the speed-rescaled times (see REFERENCE_PROBE_S);
    # the raw ones are printed beside them
    metrics = {
        "wall_ref_s": (_median(p.wall_ref_s for p in passes), "s"),
        "cpu_ref_s": (_median(p.cpu_ref_s for p in passes), "s"),
        "peak_rss_mb": (_median(p.peak_rss_mb for p in passes), "MiB"),
        "setup_s": (_median(ref for _, ref in setups), "s"),
    }
    raw = {
        "wall_s": (_median(p.wall_s for p in passes), "s"),
        "cpu_s": (_median(p.cpu_s for p in passes), "s"),
        "setup_raw_s": (_median(wall for wall, _ in setups), "s"),
    }
    samples = {name: len(passes) for name in (*metrics, *raw)}
    samples["setup_s"] = samples["setup_raw_s"] = len(setups)
    return passes, metrics, raw, samples


def measure_traced(runner: Runner, runs: list, t1_runs: list, seconds: float, work: Path):
    started = time.perf_counter()
    t1_dir = work / "spans_t1"
    t1_dir.mkdir()
    t1_pass = runner.run_pass(t1_runs, child_env(1), trace_dir=t1_dir)
    t1 = LayerTotals(t1_pass.span_files)
    env = child_env(THREADS)
    plain, traced, longest = [], [], 0.0
    while True:
        t0 = time.perf_counter()
        plain.append(runner.run_pass(runs, env))
        trace_dir = work / f"spans_{len(traced)}"
        trace_dir.mkdir()
        traced.append(runner.run_pass(runs, env, trace_dir=trace_dir))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if not _another_pass(started, now, longest, seconds):
            break
    per_pass = [layer_metrics(LayerTotals(p.span_files), p) for p in traced]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        value = _median(m[name][0] for m in per_pass)
        metrics[name] = (round(value) if unit in ("count", "bytes") else value, unit)
    metrics["trace.overhead_s"] = (
        _median(p.wall_ref_s for p in traced) - _median(p.wall_ref_s for p in plain), "s")
    metrics["operator.build.t1_s"] = (t1.t("operator.build_operator"), "s")
    metrics["operator.svd.t1_s"] = (t1.t("operator.svd"), "s")
    samples = {name: len(traced) for name in metrics}
    samples["operator.build.t1_s"] = samples["operator.svd.t1_s"] = 1
    return [t1_pass, *plain, *traced], metrics, {}, samples


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.perf_counter()
    try:
        if not (ROOT / "src" / "aperture_dof" / "cli.py").is_file():
            raise BenchError(f"no aperture_dof sources under {ROOT / 'src'}")
        reference = checks.load_reference() if args.seed == 0 else None
        scratch = ROOT / ".perfbench_work"
        scratch.mkdir(exist_ok=True)
        runner = Runner(args.seed, reference,
                        started + 2.0 * args.seconds + DEADLINE_MARGIN_S)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            work = Path(tmp)
            runs = prepare(args.workload, args.seed, work / args.workload)
            if args.trace:
                t1_runs = prepare("spectrum", args.seed, work / "t1")
                passes, metrics, raw, samples = measure_traced(
                    runner, runs, t1_runs, args.seconds, work)
            else:
                passes, metrics, raw, samples = measure_end_to_end(
                    runner, runs, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = summarize(passes, metrics)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={result['attempted']} elapsed={time.perf_counter() - started:.1f}s")
    for r in (r for p in passes for r in p.records if r.failed):
        print(f"FAILED {r.key}: " + "; ".join(r.problems[:5]))
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<13} n={samples[name]}")
    print("  pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print("  pass wall_ref_s: " + " ".join(f"{p.wall_ref_s:.3f}" for p in passes))
    print(f"  {'fail_ratio':<26} {result['failed'] / result['attempted']:>14.6g} "
          f"{'ratio':<13} n={result['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
