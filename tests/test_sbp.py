import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aperture_dof import (
    Aperture,
    SbpResult,
    SceneSegment,
    WaveContext,
    bandwidth,
    compute_sbp,
    sbp_closed_form_g1,
    sbp_closed_form_g2,
    sbp_numeric,
    theta_heu,
    theta_max,
)
from aperture_dof import sbp

LAM, L1, L2, D = 0.005, 0.15, 0.10, 0.20

# frozen regression values for the nominal geometries
SBP_G1 = 27.43446767516108
SBP_G1_D10 = 45.600372236303755
SBP_G2_T15 = 15.9960131224274
SBP_G3_35DEG = 22.961456425172546
SBP_G4 = 14.625019806673393
THETA_MAX_T15 = 0.5765055736119526


def test_g1_closed_form_values():
    assert sbp_closed_form_g1(L1, L2, D, LAM) == pytest.approx(SBP_G1, rel=1e-12)
    assert sbp_closed_form_g1(L1, L2, 0.10, LAM) == pytest.approx(SBP_G1_D10, rel=1e-12)


def test_g2_closed_form_value():
    value = sbp_closed_form_g2((-L1 / 2, L1 / 2), (0.15 - L2 / 2, 0.15 + L2 / 2), D, LAM)
    assert value == pytest.approx(SBP_G2_T15, rel=1e-12)


def test_g2_reduces_to_g1_when_centered():
    g2 = sbp_closed_form_g2((-L1 / 2, L1 / 2), (-L2 / 2, L2 / 2), D, LAM)
    assert g2 == pytest.approx(SBP_G1, rel=1e-12)


def test_numeric_values():
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    g3 = sbp_numeric(SceneSegment(L2 / 2, math.radians(35.0)), ap, wave)
    assert g3.value == pytest.approx(SBP_G3_35DEG, rel=1e-10)
    g4 = sbp_numeric(SceneSegment(L2 / 2, math.radians(55.0), 0.20), ap, wave)
    assert g4.value == pytest.approx(SBP_G4, rel=1e-10)


def test_numeric_agrees_with_closed_forms():
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    num_g1 = sbp_numeric(SceneSegment(L2 / 2), ap, wave).value
    assert num_g1 == pytest.approx(SBP_G1, rel=1e-4)
    num_g2 = sbp_numeric(SceneSegment(L2 / 2, 0.0, 0.15), ap, wave).value
    assert num_g2 == pytest.approx(SBP_G2_T15, rel=1e-4)


def test_compute_sbp_dispatch():
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    assert compute_sbp(SceneSegment(L2 / 2), ap, wave).method == "closed-form-G1"
    assert compute_sbp(SceneSegment(L2 / 2, 0.0, 0.1), ap, wave).method == "closed-form-G2"
    assert compute_sbp(SceneSegment(L2 / 2, 0.4), ap, wave).method == "numeric-integral"
    assert compute_sbp(SceneSegment(L2 / 2, 0.4, 0.1), ap, wave).method == "numeric-integral"


def test_result_validation():
    with pytest.raises(ValueError):
        SbpResult(value=1.0, method="magic")
    with pytest.raises(ValueError):
        SbpResult(value=-1.0, method="closed-form-G1")


@given(t=st.floats(-0.2, 0.2), theta=st.floats(-1.2, 1.2))
@settings(max_examples=20, deadline=None)
def test_mirror_symmetry(t, theta):
    # symmetric aperture: reflecting the scene (t, theta) -> (-t, -theta)
    # cannot change the SBP
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    a = sbp_numeric(SceneSegment(L2 / 2, theta, t), ap, wave, 64).value
    b = sbp_numeric(SceneSegment(L2 / 2, -theta, -t), ap, wave, 64).value
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_monotone_in_standoff():
    values = [sbp_closed_form_g1(L1, L2, d, LAM) for d in np.linspace(0.05, 1.0, 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_unbounded_scene_limit():
    # SBP saturates at 4*L1/lam as the scene grows
    assert sbp_closed_form_g1(L1, 1e6, D, LAM) <= 4.0 * L1 / LAM * 1.01
    assert sbp_closed_form_g1(L1, 1e3, D, LAM) == pytest.approx(4.0 * L1 / LAM, rel=1e-2)


def test_unbounded_aperture_limit():
    assert sbp_closed_form_g1(1e3, L2, D, LAM) == pytest.approx(4.0 * L2 / LAM, rel=1e-2)


def test_numeric_convergence():
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    scene = SceneSegment(L2 / 2, math.radians(35.0))
    v512 = sbp_numeric(scene, ap, wave, 512).value
    v1024 = sbp_numeric(scene, ap, wave, 1024).value
    assert abs(v1024 - v512) / v512 < 1e-3


def test_closed_form_input_validation():
    with pytest.raises(ValueError):
        sbp_closed_form_g1(L1, L2, 0.0, LAM)
    with pytest.raises(ValueError):
        sbp_closed_form_g1(-L1, L2, D, LAM)
    with pytest.raises(ValueError):
        sbp_closed_form_g2((0.1, 0.0), (0.0, 0.1), D, LAM)
    with pytest.raises(ValueError):
        sbp_numeric(SceneSegment(L2 / 2), Aperture.centered(L1, D), WaveContext(LAM), 8)


def test_orthogonal_planes_keep_nonzero_sbp():
    # scene along the range axis: differential path lengths across the
    # aperture still modulate the segment, so the SBP stays positive
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    centered = sbp_numeric(SceneSegment(L2 / 2, 0.5 * math.pi), ap, wave).value
    shifted = sbp_numeric(SceneSegment(L2 / 2, 0.5 * math.pi, 0.15), ap, wave).value
    assert centered > 1.0
    assert shifted > centered  # oblique view widens the projected band


def test_theta_heu_value():
    assert theta_heu(0.15, 0.20) == pytest.approx(math.asin(0.15 / 0.25), rel=1e-12)
    assert theta_heu(0.0, 0.20) == 0.0
    with pytest.raises(ValueError):
        theta_heu(0.1, 0.0)


def test_theta_max_centered_scene_is_broadside():
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    tm = theta_max(SceneSegment(L2 / 2), ap, wave, n_points=64)
    assert abs(tm) < 0.02


def test_theta_max_tracks_the_heuristic():
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    tm = theta_max(SceneSegment(L2 / 2, shift=0.15), ap, wave, n_points=128)
    assert tm == pytest.approx(THETA_MAX_T15, abs=1e-3)
    th = theta_heu(0.15, D)
    assert abs(tm - th) < 0.1
    # the optimum dominates both the heuristic and broadside
    sbp_at = lambda th_: sbp_numeric(SceneSegment(L2 / 2, th_, 0.15), ap, wave, 128).value
    assert sbp_at(tm) >= sbp_at(th) >= sbp_at(0.0)


@pytest.mark.parametrize("t,h", [(0.0, 0.05), (0.15, 0.05), (-0.1, 0.08), (0.2, 0.03)])
def test_theta_max_coarse_grid_matches_per_tilt_integrals(monkeypatch, t, h):
    # oracle: one public bandwidth call per tilt, integrated on its own
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)

    def oracle(theta):
        seg = SceneSegment(h, theta, t)
        u = np.linspace(-h, h, 512)
        return np.trapezoid(bandwidth(seg.points(u), seg, ap, wave), u)

    calls = []
    batched = sbp._sbp_of_tilts

    def recording(theta, *args):
        values = batched(theta, *args)
        calls.append((theta, values))
        return values

    monkeypatch.setattr(sbp, "_sbp_of_tilts", recording)
    theta_max(SceneSegment(h, shift=t), ap, wave)
    # the coarse grid's chunks, then one single-tilt call per golden-section step
    chunks = [(th, v) for th, v in calls if th.size > 1]
    assert [th.size for th, _ in chunks] == [16] * 11 + [5]
    grid = np.concatenate([th for th, _ in chunks])
    np.testing.assert_array_equal(grid, np.linspace(-0.5 * math.pi, 0.5 * math.pi, 181))
    got = np.concatenate([v for _, v in chunks])
    np.testing.assert_array_equal(got, [oracle(th) for th in grid])
    # a batch of any size gives the same values as sbp_numeric tilt by tilt
    some = grid[3:40]
    np.testing.assert_array_equal(
        batched(some, t, h, ap, wave, 512),
        [sbp_numeric(SceneSegment(h, th, t), ap, wave).value for th in some])


def test_theta_max_coarse_grid_memory_is_bounded():
    # the 181-tilt coarse grid in one call peaks near 8.5 MiB of temporaries
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    tracemalloc.start()
    try:
        theta_max(SceneSegment(0.05, shift=0.15), ap, wave, n_points=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_theta_max_skips_tilts_that_cross_the_aperture_plane():
    # a 45 cm scene at 20 cm standoff reaches the aperture plane for
    # |theta| >= asin(0.2 / 0.225), about 62.7 deg
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    for t in (0.0, 0.1, -0.2):
        tm = theta_max(SceneSegment(0.225, shift=t), ap, wave, n_points=64)
        assert 0.225 * abs(math.sin(tm)) < D
