"""Regenerate reference/seed0.json from the CLI at the current commit.

Usage: python3 perfbench/make_reference.py

Runs every (command, config) pair of every workload once at seed 0 and
stores the digest of its outputs (see checks.digest).  Regenerate only when
a change is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import bench
import checks


def main() -> int:
    reference = {}
    scratch = bench.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in bench.WORKLOADS:
            for run in bench.prepare(workload, 0, Path(tmp) / workload):
                if run.key in reference:
                    continue
                log_dir = run.out_dir.parent
                log_dir.mkdir(parents=True, exist_ok=True)
                rc, *_ = bench.spawn(
                    [sys.executable, "-m", "aperture_dof.cli", *run.argv()],
                    bench.child_env(bench.THREADS), bench.DEADLINE_MARGIN_S, log_dir)
                problems = checks.invariant_problems(run.command, run.config, run.out_dir) \
                    if rc == 0 else [f"exit code {rc}"]
                if problems:
                    print(f"{run.key}: {problems}", file=sys.stderr)
                    return 1
                reference[run.key] = checks.digest(run.out_dir)
                print(f"{run.key}: {len(reference[run.key])} files")
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
