"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Run with plain `pytest`; the [PASS]/[FAIL] lines bypass output capture so
they always appear.  Criteria cover the published closed-form values, the
discretized-spectrum regressions, the architecture-equivalence properties,
the Fresnel effective-aperture identities, and reconstruction exactness.
"""

import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from aperture_dof import (
    MONOSTATIC,
    MULTISTATIC,
    Aperture,
    ApertureFunction,
    ArrayLayout,
    SceneSegment,
    WaveContext,
    build_operator,
    dof_knee,
    effective_aperture,
    fresnel_dof,
    fresnel_equivalence_check,
    mono_spectrum,
    multi_spectrum,
    project_points_onto_line,
    reconstruct_mf,
    reconstruct_pinv,
    resolution_sweep,
    sbp_closed_form_g1,
    sbp_closed_form_g2,
    sbp_numeric,
    sigma_bar_sq,
    svd,
)
from aperture_dof.cli import ExperimentConfig

from bandwidth_integral import integral
from conftest import LAM, L1, L2, D, small_operator, random_gamma

N_ELEMENTS = 200
N_SCENE = 400

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# per geometry case: the shipped config that runs it as `aperture-dof svd`,
# its geometry, and the published sigma_bar_sq values (mono, multi)
CASES = {
    "G1": ("nominal.cfg", SceneSegment(L2 / 2), D, (22.88, 14.63)),
    "G2": ("g2_t15.cfg", SceneSegment(L2 / 2, 0.0, 0.15), D, (9.05, 7.69)),
    "G3": ("g3_35deg.cfg", SceneSegment(L2 / 2, math.radians(35.0)), D, (14.24, 11.14)),
    "G4": ("shifted_scene.cfg", SceneSegment(L2 / 2, math.radians(55.0), 0.20), D,
           (10.62, 8.0)),
    "G1-D10": ("g1_d10.cfg", SceneSegment(L2 / 2), 0.10, (23.6, 24.08)),
}


@pytest.fixture(scope="module")
def spectra():
    """Discretized singular values for every case and architecture.

    Values only, as `aperture-dof svd` computes them, so criterion 3 reads
    the numbers that the case configs write to dof.json.
    """
    wave = WaveContext(LAM)
    out = {}
    for name, (_, scene, standoff, targets) in CASES.items():
        aperture = Aperture.centered(L1, standoff)
        case = {"targets": targets, "scene": scene, "standoff": standoff}
        for arch, expected_norm in (
            (MONOSTATIC, L1 * L2),
            (MULTISTATIC, L1 * L1 * L2),
        ):
            layout = ArrayLayout.uniform(aperture, N_ELEMENTS, arch)
            op = build_operator(scene, layout, wave, N_SCENE)
            case[arch] = {"spectrum": svd(op, vectors=False), "expected_norm": expected_norm}
        out[name] = case
    return out


@pytest.fixture
def report(capfd):
    def _report(ok, line):
        with capfd.disabled():
            print(("[PASS] " if ok else "[FAIL] ") + line)
        assert ok, line
    return _report


def test_criterion_1_sbp_closed_forms(report):
    g1 = sbp_closed_form_g1(L1, L2, D, LAM)
    g1_d10 = sbp_closed_form_g1(L1, L2, 0.10, LAM)
    g2 = sbp_closed_form_g2((-L1 / 2, L1 / 2), (0.15 - L2 / 2, 0.15 + L2 / 2), D, LAM)
    ok = abs(g1 - 27.4) <= 0.1 and abs(g1_d10 - 45.6) <= 0.1 and abs(g2 - 16.0) <= 0.2
    report(ok, f"criterion 1: SBP closed forms g1={g1:.3f} (27.4+-0.1), "
               f"g1@D=10cm={g1_d10:.3f} (45.6+-0.1), g2@t=15cm={g2:.3f} (16.0+-0.2)")


def test_criterion_2_numeric_sbp(report):
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    # the integral of B by quadrature, independent of the package's closed form
    g3 = integral(SceneSegment(L2 / 2, math.radians(35.0)), ap, wave)
    g4 = integral(SceneSegment(L2 / 2, math.radians(55.0), 0.20), ap, wave)
    num_g1 = integral(SceneSegment(L2 / 2), ap, wave)
    num_g2 = integral(SceneSegment(L2 / 2, 0.0, 0.15), ap, wave)
    ref_g1 = sbp_closed_form_g1(L1, L2, D, LAM)
    ref_g2 = sbp_closed_form_g2((-L1 / 2, L1 / 2), (0.15 - L2 / 2, 0.15 + L2 / 2), D, LAM)
    gap_g1 = abs(num_g1 - ref_g1) / ref_g1
    gap_g2 = abs(num_g2 - ref_g2) / ref_g2
    ok = (abs(g3 - 23.0) <= 0.5 and abs(g4 - 14.6) <= 0.5
          and gap_g1 < 0.01 and gap_g2 < 0.01)
    report(ok, f"criterion 2: numeric SBP g3@35deg={g3:.3f} (23+-0.5), "
               f"g4={g4:.3f} (14.6+-0.5); numeric vs closed form "
               f"{100 * gap_g1:.4f}% / {100 * gap_g2:.4f}% (< 1%)")


def test_criterion_3_sigma_bar_sq_regressions(report, spectra):
    parts = []
    ok = True
    for name, case in spectra.items():
        for arch, target in zip((MONOSTATIC, MULTISTATIC), case["targets"]):
            got = sigma_bar_sq(case[arch]["spectrum"])
            rel = (got - target) / target
            ok = ok and abs(rel) <= 0.05
            parts.append(f"{name}/{arch[:4]} {got:.2f} vs {target} ({100 * rel:+.1f}%)")
    report(ok, "criterion 3: sigma_bar_sq within 5%: " + "; ".join(parts))


@pytest.mark.parametrize("name", list(CASES))
def test_case_config_matches_case(name):
    config, scene, standoff, _ = CASES[name]
    cfg = ExperimentConfig.from_file(CONFIGS / config)
    assert cfg.scene() == scene
    assert cfg.aperture() == Aperture.centered(L1, standoff)
    assert (cfg.wavelength, cfg.n_elements, cfg.n_scene) == (LAM, N_ELEMENTS, N_SCENE)
    assert cfg.architectures() == (MONOSTATIC, MULTISTATIC)


def test_criterion_4_fresnel_dof(report):
    exact_60 = fresnel_dof(L1, L2, 0.10, LAM) == 60.0
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        l1 = rng.uniform(0.02, 0.5)
        l2 = rng.uniform(0.02, 0.5)
        lam = rng.uniform(5e-4, 1e-2)
        d = 10.0 * (l1 + l2)
        fd = fresnel_dof(l1, l2, d, lam)
        worst = max(worst, abs(fd - sbp_closed_form_g1(l1, l2, d, lam)) / fd)
    ok = exact_60 and worst < 0.02
    report(ok, f"criterion 4: fresnel_dof@D=10cm = 60 exactly ({exact_60}); "
               f"asymptotic gap to closed form at D=10(L1+L2): worst "
               f"{100 * worst:.3f}% over 100 draws (< 2%)")


def test_criterion_5_sum_rule_and_norm(report, spectra):
    worst_sum = 0.0
    worst_norm = 0.0
    for case in spectra.values():
        for arch in (MONOSTATIC, MULTISTATIC):
            sp = case[arch]["spectrum"]
            total = float(np.sum(sp.singular_values**2))
            worst_sum = max(worst_sum, abs(total - sp.hs_norm_sq) / sp.hs_norm_sq)
            expected = case[arch]["expected_norm"]
            worst_norm = max(worst_norm, abs(sp.hs_norm_sq - expected) / expected)
    ok = worst_sum <= 1e-8 and worst_norm <= 0.01

    def shown(rel_err, scale=1.0):
        # below 1e-12 a relative error is rounding, and its digits change
        # with the BLAS thread count: print the floor, not the digits
        return f"{scale * rel_err:.2e}" if rel_err >= 1e-12 else f"< {scale * 1e-12:.0e}"

    report(ok, f"criterion 5: sum rule worst rel err {shown(worst_sum)} (<= 1e-8); "
               f"weighted norm vs L1*L2 / L1^2*L2 worst {shown(worst_norm, 100)}% (<= 1%)")


def test_criterion_6_projection_identity(report):
    # 100 random (geometry, line angle) draws; mono arc vs the 512^2-pair
    # multistatic sampling on the shared angle grid
    wave = WaveContext(LAM)
    rng = np.random.default_rng(7)
    n = 512
    worst = 0.0
    for _ in range(100):
        a1 = rng.uniform(-0.5, 0.0)
        ap = Aperture(a1, a1 + rng.uniform(0.01, 0.5), rng.uniform(0.05, 1.0))
        point = (rng.uniform(-0.5, 0.5), rng.uniform(-0.04, 0.5))
        angle = rng.uniform(-math.pi, math.pi)
        mono_pts = mono_spectrum(point, ap, wave, n)
        multi = multi_spectrum(point, ap, wave, n)
        lo_m, hi_m = project_points_onto_line(mono_pts, angle)
        lo_x, hi_x = project_points_onto_line(multi, angle)
        worst = max(worst, abs((hi_m - lo_m) - (hi_x - lo_x)))
    ok = worst <= 1e-9 * wave.k
    report(ok, f"criterion 6: projected mono/multi widths agree; worst gap "
               f"{worst:.2e} cycles/m over 100 cases (<= 1e-9*k = {1e-9 * wave.k:.2e})")


def test_criterion_7_dof_knee_equivalence(report, spectra):
    # -20 dB knee: past the plateau edge on both architectures, where the
    # knee location stabilizes (threshold choice is a stated design knob)
    wave = WaveContext(LAM)
    parts = []
    ok = True
    for name in ("G1", "G2", "G3", "G4"):
        case = spectra[name]
        ap = Aperture.centered(L1, case["standoff"])
        sbp = sbp_numeric(case["scene"], ap, wave).value
        k_mono = dof_knee(case[MONOSTATIC]["spectrum"], drop_db=-20.0)
        k_multi = dof_knee(case[MULTISTATIC]["spectrum"], drop_db=-20.0)
        gap = abs(k_mono - k_multi) / max(k_mono, k_multi)
        r_mono, r_multi = k_mono / sbp, k_multi / sbp
        ok = ok and gap <= 0.10 and 0.8 <= r_mono <= 1.3 and 0.8 <= r_multi <= 1.3
        parts.append(f"{name} {k_mono}/{k_multi} (gap {100 * gap:.1f}%, "
                     f"SBP ratios {r_mono:.2f}/{r_multi:.2f})")
    report(ok, "criterion 7: -20 dB knees mono/multi: " + "; ".join(parts))


def test_criterion_8_effective_aperture(report):
    rng = np.random.default_rng(50)
    lattice = 0.0025  # lambda/2 grid keeps midpoints far above the merge tol
    multiset_ok = True
    for _ in range(50):
        tx = np.unique(rng.integers(-30, 31, rng.integers(2, 13))) * lattice
        rx = np.unique(rng.integers(-30, 31, rng.integers(2, 13))) * lattice
        eff = effective_aperture(
            ApertureFunction.from_positions(tx), ApertureFunction.from_positions(rx)
        )
        expected = Counter(round(0.5 * (a + b), 9) for a in tx for b in rx)
        got = {round(p, 9): int(m) for p, m in zip(eff.positions, eff.multiplicities)}
        multiset_ok = multiset_ok and got == dict(expected)

    wave = WaveContext(LAM)
    scene = SceneSegment(L2 / 2)
    ap = Aperture.centered(L1, 1.0)
    worst = fresnel_equivalence_check(
        ArrayLayout.uniform(ap, N_ELEMENTS, MULTISTATIC), scene, wave, n_scene=N_SCENE,
    ).max_rel_discrepancy["exact"]
    for _ in range(5):
        tx = np.unique(rng.integers(-30, 31, rng.integers(4, 13))) * lattice
        rx = np.unique(rng.integers(-30, 31, rng.integers(4, 13))) * lattice
        layout = ArrayLayout(MULTISTATIC, tx, rx, ap, L1 / tx.size, L1 / rx.size)
        rep = fresnel_equivalence_check(layout, scene, wave, n_scene=200)
        worst = max(worst, rep.max_rel_discrepancy["exact"])
    ok = multiset_ok and worst < 0.01
    report(ok, f"criterion 8: effective aperture equals the pair-midpoint "
               f"multiset on 50 random arrays ({multiset_ok}); exact-kernel "
               f"sigma equivalence at D=1m worst {100 * worst:.3f}% (< 1%)")


def test_criterion_9_resolution(report):
    wave = WaveContext(LAM)
    standoff = 0.40
    ap = Aperture.centered(L1, standoff)
    scene = SceneSegment(L2 / 2)
    curves = {}
    for arch in (MONOSTATIC, MULTISTATIC):
        layout = ArrayLayout.uniform(ap, N_ELEMENTS, arch)
        curves[arch] = resolution_sweep(scene, wave, layout, n_scene=N_SCENE)

    multi = curves[MULTISTATIC]
    no_flags = not any(f.any() for c in curves.values() for f in c.flagged.values())
    mf_slower = bool(np.all(multi.widths["mf"] > multi.widths["pinv"]))
    ratios = np.concatenate(
        [c.widths["pinv"] / c.reciprocal_bandwidth for c in curves.values()]
    )
    tracking = bool(np.all((ratios >= 0.5) & (ratios <= 2.0)))
    ok = no_flags and mf_slower and tracking
    report(ok, f"criterion 9: D=40cm sweep; multi MF wider than PINV at all "
               f"{multi.positions.size} scatterers ({mf_slower}); PINV/ (1/B) in "
               f"[{ratios.min():.3f}, {ratios.max():.3f}] (within factor 2); "
               f"no clipped mainlobes ({no_flags})")


def test_criterion_10_reconstruction_exactness(report):
    rng = np.random.default_rng(99)
    op = small_operator(MONOSTATIC, n_elements=60, n_scene=24)
    gamma = random_gamma(rng, 24)
    round_trip = reconstruct_pinv(op, op.forward(gamma), rank=24).values
    err_pinv = np.linalg.norm(round_trip - gamma) / np.linalg.norm(gamma)

    err_mf = 0.0
    for arch, n in ((MONOSTATIC, 50), (MULTISTATIC, 10)):
        op = small_operator(arch, n_elements=n, n_scene=30)
        sp = svd(op)
        g = random_gamma(rng, 30)
        direct = reconstruct_mf(op, op.forward(g)).values
        g_w = math.sqrt(op.col_weight) * g
        v = sp.right_vectors
        oracle = (v @ (sp.singular_values**2 * (v.conj().T @ g_w)))
        oracle /= math.sqrt(op.col_weight)
        err_mf = max(err_mf, np.linalg.norm(direct - oracle) / np.linalg.norm(oracle))
    ok = err_pinv <= 1e-6 and err_mf <= 1e-8
    report(ok, f"criterion 10: full-rank PINV round trip {err_pinv:.2e} (<= 1e-6); "
               f"MF adjoint vs SVD route {err_mf:.2e} (<= 1e-8)")
