#!/usr/bin/env python3
"""Spectrum study over the five reference geometry cases.

For each case builds the discretized operator in both architectures,
decomposes it, and tabulates SBP against the spectrum summaries; writes
geometry_cases.csv and a normalized-spectra SVG per case.
"""

import argparse
import math
from pathlib import Path

# aperture_dof before numpy: it sets the BLAS thread env vars numpy reads on load
from aperture_dof import (
    MONOSTATIC,
    MULTISTATIC,
    Aperture,
    ArrayLayout,
    SceneSegment,
    WaveContext,
    build_operator,
    compute_sbp,
    dof_knee,
    sigma_bar,
    sigma_bar_sq,
    svd,
)
from aperture_dof._svg import plot_lines

import numpy as np

LAM, L1, L2, D = 0.005, 0.15, 0.10, 0.20

CASES = [
    ("G1", SceneSegment(L2 / 2), D),
    ("G2_t15", SceneSegment(L2 / 2, 0.0, 0.15), D),
    ("G3_35deg", SceneSegment(L2 / 2, math.radians(35.0)), D),
    ("G4_t20_55deg", SceneSegment(L2 / 2, math.radians(55.0), 0.20), D),
    ("G1_D10", SceneSegment(L2 / 2), 0.10),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/geometry_cases")
    parser.add_argument("--n-elements", type=int, default=200)
    parser.add_argument("--n-scene", type=int, default=400)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    wave = WaveContext(LAM)
    rows = []
    print(f"{'case':<14}{'arch':<7}{'SBP':>8}{'knee':>6}{'sbar':>9}{'sbar_sq':>9}")
    for name, scene, standoff in CASES:
        aperture = Aperture.centered(L1, standoff)
        sbp = compute_sbp(scene, aperture, wave).value
        series = []
        for arch in (MONOSTATIC, MULTISTATIC):
            layout = ArrayLayout.uniform(aperture, args.n_elements, arch)
            op = build_operator(scene, layout, wave, args.n_scene)
            sp = svd(op, vectors=False)
            knee = dof_knee(sp)
            sb, sb2 = sigma_bar(sp), sigma_bar_sq(sp)
            tag = "mono" if arch == MONOSTATIC else "multi"
            print(f"{name:<14}{tag:<7}{sbp:>8.2f}{knee:>6}{sb:>9.2f}{sb2:>9.2f}")
            rows.append([name, tag, sbp, knee, sb, sb2])
            sig = sp.singular_values
            series.append({
                "x": np.arange(1, sig.size + 1), "y": sig / sig[0], "label": tag,
            })
        (out / f"spectra_{name}.svg").write_text(plot_lines(
            series, title=f"{name}: normalized singular values",
            xlabel="index", ylabel="sigma / sigma_1",
            vlines=[(sbp, f"SBP = {sbp:.1f}")], y_floor=1e-8,
        ))

    lines = ["case,arch,sbp,knee_index,sigma_bar,sigma_bar_sq"]
    lines += [",".join(str(v) if isinstance(v, (str, int)) else f"{v:.9g}" for v in r)
              for r in rows]
    (out / "geometry_cases.csv").write_text("\n".join(lines) + "\n")
    print(f"\nwrote {out}/geometry_cases.csv and per-case SVGs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
