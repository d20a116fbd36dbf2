"""Output checks for benchmark runs: stored seed-0 references and invariants.

A run's outputs are reduced to a digest: every numeric JSON leaf and, per CSV
column, either every value (short tables) or, for long tables, sum / abs-sum
/ min / max plus two order-sensitive figures: the sum weighted by relative
row position and the values at nine evenly spaced rows.  At seed 0 the
digest must match `reference/seed0.json`; at every seed the physics
invariants in `invariant_problems` must hold.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "seed0.json"

# floats agree when |got - ref| <= RTOL * |ref| + ATOL_SCALE * scale, where
# scale is the largest magnitude in the reference column
RTOL = 1e-5
ATOL_SCALE = 1e-9
# tables up to this many rows are stored value by value
FULL_ROWS = 128
# longer tables also keep the values at this many evenly spaced rows
SAMPLE_ROWS = 9
# svd_*.csv rows below this sigma / sigma_1 are numerical floor (the Gram
# route is wrong below about 3e-8 and differs between thread counts), so
# they are neither stored nor compared
SVD_CUTOFF = 1e-6
# JSON leaves that measure rounding noise; checked by invariant only
NOISE_FIELDS = {"equivalence.fresnel_kernel_max_rel_discrepancy"}
FRESNEL_DISCREPANCY_MAX = 1e-6
HS_NORM_RTOL = 0.01


def _flatten(node, prefix=""):
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            out.update(_flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: node}


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _csv_digest(path: Path) -> dict:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if path.name.startswith("svd_"):
        norm = header.index("sigma_normalized")
        kept = [r for r in body if float(r[norm]) >= SVD_CUTOFF]
    else:
        kept = body
    columns = {}
    for j, name in enumerate(header):
        tokens = [r[j] for r in kept]
        if tokens and all(_is_int(t) for t in tokens):
            columns[name] = {"values": [int(t) for t in tokens]}
            continue
        col = np.array([float(t) for t in tokens])
        scale = float(np.nanmax(np.abs(col))) if col.size else 0.0
        if len(kept) <= FULL_ROWS:
            columns[name] = {"values": col.tolist(), "scale": scale}
        else:
            position = np.linspace(0.0, 1.0, col.size)
            sampled = np.linspace(0, col.size - 1, SAMPLE_ROWS).round().astype(int)
            columns[name] = {
                "sum": float(np.nansum(col)),
                "abs_sum": float(np.nansum(np.abs(col))),
                "position_sum": float(np.nansum(position * col)),
                "min": float(np.nanmin(col)),
                "max": float(np.nanmax(col)),
                "sampled": col[sampled].tolist(),
                "scale": scale,
            }
    return {"header": header, "rows": len(body), "kept_rows": len(kept),
            "columns": columns}


def digest(out_dir: Path) -> dict:
    """Digest of every JSON and CSV file a run wrote into out_dir."""
    files = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix == ".json":
            files[path.name] = _flatten(json.loads(path.read_text()))
        elif path.suffix == ".csv":
            files[path.name] = _csv_digest(path)
        elif path.suffix == ".svg":
            files[path.name] = {"svg": path.read_text().lstrip().startswith("<svg")}
    return files


def _close(got: float, ref: float, atol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= RTOL * abs(ref) + atol


def _compare_value(where: str, got, ref, atol: float, problems: list):
    """Floats within tolerance; integers, strings and flags exactly."""
    if isinstance(ref, float):
        ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
              and _close(float(got), ref, atol))
    else:
        ok = type(got) is type(ref) and got == ref
    if not ok:
        problems.append(f"{where}: {got!r} != reference {ref!r}")


def _compare_column(where: str, got: dict, ref: dict, problems: list):
    if set(got) != set(ref):
        problems.append(f"{where}: column kind {sorted(got)} != {sorted(ref)}")
        return
    atol = ATOL_SCALE * ref.get("scale", 0.0)
    if "values" in ref:
        if len(got["values"]) != len(ref["values"]):
            problems.append(
                f"{where}: {len(got['values'])} rows != reference {len(ref['values'])}")
            return
        for i, (g, r) in enumerate(zip(got["values"], ref["values"])):
            _compare_value(f"{where}[{i}]", g, r, atol, problems)
    else:
        # |position_sum| <= abs_sum, so both sums share one absolute tolerance
        for key in ("sum", "position_sum"):
            _compare_value(f"{where}.{key}", got[key], ref[key],
                           ATOL_SCALE * ref["abs_sum"], problems)
        for key in ("abs_sum", "min", "max"):
            _compare_value(f"{where}.{key}", got[key], ref[key], atol, problems)
        for i, (g, r) in enumerate(zip(got["sampled"], ref["sampled"])):
            _compare_value(f"{where}.sampled[{i}]", g, r, atol, problems)


def compare(got: dict, ref: dict) -> list:
    """Differences between two digests, as readable lines; empty when equal."""
    problems = []
    if sorted(got) != sorted(ref):
        problems.append(f"files {sorted(got)} != reference {sorted(ref)}")
    for name in sorted(set(got) & set(ref)):
        g, r = got[name], ref[name]
        if name.endswith(".csv"):
            for key in ("header", "rows", "kept_rows"):
                if g[key] != r[key]:
                    problems.append(f"{name} {key}: {g[key]!r} != reference {r[key]!r}")
            if g["header"] == r["header"]:
                for col in r["header"]:
                    _compare_column(f"{name}:{col}", g["columns"][col],
                                    r["columns"][col], problems)
        else:
            if sorted(g) != sorted(r):
                problems.append(f"{name} keys {sorted(g)} != reference {sorted(r)}")
            for key in sorted(set(g) & set(r) - NOISE_FIELDS):
                _compare_value(f"{name}:{key}", g[key], r[key], 0.0, problems)
    return problems


def _csv_table(path: Path) -> tuple[list, np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(t) for t in r] for r in rows[1:]])


def invariant_problems(command: str, config: Path, out_dir: Path) -> list:
    """Checks that hold for every seed: analytic norms, the Fresnel
    equivalence, and table sizes fixed by the config."""
    out_dir = Path(out_dir)
    problems = []
    if command == "svd":
        dof = json.loads((out_dir / "dof.json").read_text())
        geo = dof["geometry"]
        for arch, entry in dof["architectures"].items():
            expected = geo["L1"] * geo["L2"] * (geo["L1"] if arch == "multi" else 1.0)
            if abs(entry["hs_norm_sq"] - expected) > HS_NORM_RTOL * expected:
                problems.append(f"{arch} hs_norm_sq {entry['hs_norm_sq']} not within "
                                f"{HS_NORM_RTOL:.0%} of {expected}")
            _, table = _csv_table(out_dir / f"svd_{arch}.csv")
            if table.shape[0] != entry["n_singular_values"]:
                problems.append(f"svd_{arch}.csv has {table.shape[0]} rows, dof.json "
                                f"says {entry['n_singular_values']}")
            if np.any(np.diff(table[:, 1]) > 1e-12 * table[0, 1]):
                problems.append(f"svd_{arch}.csv singular values increase")
    elif command == "fresnel":
        report = json.loads((out_dir / "fresnel.json").read_text())
        disc = report["equivalence"]["fresnel_kernel_max_rel_discrepancy"]
        if not disc <= FRESNEL_DISCREPANCY_MAX:
            problems.append(f"Fresnel-kernel discrepancy {disc} > {FRESNEL_DISCREPANCY_MAX}")
    elif command == "kspace":
        _, table = _csv_table(out_dir / "bandwidth.csv")
        if table.shape[0] != 101 or not np.all(table[:, 3] > 0.0):
            problems.append("bandwidth.csv: expected 101 rows of positive bandwidth")
    elif command == "sbp-sweep":
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config)
        n_values = len([v for v in parser["sweep"]["values"].split(",") if v.strip()])
        header, table = _csv_table(out_dir / "sbp_sweep.csv")
        if table.shape[0] != n_values:
            problems.append(f"sbp_sweep.csv has {table.shape[0]} rows for {n_values} values")
        elif not np.all(np.isfinite(table[:, 1]) & (table[:, 1] > 0.0)):
            problems.append("sbp_sweep.csv: non-positive SBP")
        if "theta_max" in header:
            theta = table[:, header.index("theta_max")]
            if np.any(np.abs(theta) > 0.5 * math.pi + 1e-9):
                problems.append("sbp_sweep.csv: theta_max outside [-90, 90] deg")
    elif command == "resolution":
        header, table = _csv_table(out_dir / "resolution.csv")
        for j, name in enumerate(header):
            if name.startswith("flag_"):
                flags, widths = table[:, j], table[:, j - 1]
                if not np.all(np.isin(flags, (0.0, 1.0))):
                    problems.append(f"resolution.csv {name}: not 0/1")
                elif not np.all(widths[flags == 0] > 0.0):
                    problems.append(f"resolution.csv {header[j - 1]}: non-positive width")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
