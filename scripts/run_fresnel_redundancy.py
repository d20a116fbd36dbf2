#!/usr/bin/env python3
"""Paraxial-pair redundancy versus standoff.

Checks how well the multistatic operator factors through the effective
aperture of pair midpoints as the standoff grows, then prints the
redundancy structure of a small uniform array.
"""

import argparse
from collections import Counter
from pathlib import Path

from aperture_dof import (
    Aperture,
    ApertureFunction,
    ArrayLayout,
    MULTISTATIC,
    SceneSegment,
    WaveContext,
    effective_aperture,
    fresnel_dof,
    fresnel_equivalence_check,
)

LAM, L1, L2 = 0.005, 0.15, 0.10


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/fresnel_redundancy")
    parser.add_argument("--n-elements", type=int, default=24)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    wave = WaveContext(LAM)
    scene = SceneSegment(L2 / 2)
    standoffs = [0.1, 0.2, 0.4, 0.8, 1.6, 3.2]
    rows = []
    print(f"{'D [m]':>7}{'fresnel_dof':>13}{'exact mismatch':>16}{'fresnel mismatch':>18}")
    for standoff in standoffs:
        aperture = Aperture.centered(L1, standoff)
        layout = ArrayLayout.uniform(aperture, args.n_elements, MULTISTATIC)
        mismatch = fresnel_equivalence_check(layout, scene, wave).max_rel_discrepancy
        exact, par = mismatch["exact"], mismatch["fresnel"]
        n_dof = fresnel_dof(L1, L2, standoff, LAM)
        print(f"{standoff:>7.2f}{n_dof:>13.2f}{exact:>16.2e}{par:>18.2e}")
        rows.append(f"{standoff:.9g},{n_dof:.9g},{exact:.9g},{par:.9g}")

    (out / "redundancy_vs_standoff.csv").write_text(
        "standoff,fresnel_dof,exact_mismatch,fresnel_mismatch\n" + "\n".join(rows) + "\n"
    )

    # Redundancy pattern: a uniform N-element array yields 2N-1 midpoint
    # positions with triangular multiplicity.
    layout = ArrayLayout.uniform(Aperture.centered(L1, 1.0), 8, MULTISTATIC)
    eff = effective_aperture(
        ApertureFunction.from_positions(layout.tx_positions, LAM / 1000),
        ApertureFunction.from_positions(layout.rx_positions, LAM / 1000),
        merge_tol=LAM / 1000,
    )
    hist = Counter(eff.multiplicities.tolist())
    print(f"\n8-element uniform array: {eff.positions.size} effective positions,"
          f" total multiplicity {eff.total}")
    print("multiplicity histogram:", dict(sorted(hist.items())))
    print(f"wrote {out}/redundancy_vs_standoff.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
