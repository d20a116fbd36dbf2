import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aperture_dof import (
    Aperture,
    SbpResult,
    SceneSegment,
    WaveContext,
    compute_sbp,
    sbp_closed_form_g1,
    sbp_closed_form_g2,
    sbp_numeric,
    theta_heu,
    theta_max,
)
from aperture_dof import sbp

import bandwidth_integral

LAM, L1, L2, D = 0.005, 0.15, 0.10, 0.20

# frozen regression values for the nominal geometries; G3 and G4 are the
# integrals by a 2**20-interval trapezoid plus one Richardson step
SBP_G1 = 27.43446767516108
SBP_G1_D10 = 45.600372236303755
SBP_G2_T15 = 15.9960131224274
SBP_G3_35DEG = 22.9614570665531
SBP_G4 = 14.6250218694595
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
    assert num_g1 == pytest.approx(sbp_closed_form_g1(L1, L2, D, LAM), rel=1e-13)
    num_g2 = sbp_numeric(SceneSegment(L2 / 2, 0.0, 0.15), ap, wave).value
    closed_g2 = sbp_closed_form_g2((-L1 / 2, L1 / 2), (0.15 - L2 / 2, 0.15 + L2 / 2), D, LAM)
    assert num_g2 == pytest.approx(closed_g2, rel=1e-13)


def _within_rounding(value, reference):
    """The closed form against the quadrature oracle: 1e-12 of the SBP, or
    of 1 where the SBP is below 1 and both are differences of larger terms."""
    return abs(value - reference) <= 1e-12 * max(1.0, reference)


def test_numeric_splits_at_the_kink():
    # a 45 cm scene 15 cm off axis at -61 deg: its line crosses the aperture,
    # and B(u) has a slope jump at u = -0.17797 m
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    seg = SceneSegment(0.225, math.radians(-61.0), 0.15)
    cos, sin = math.cos(seg.theta), math.sin(seg.theta)
    s = [(seg.shift - a) * cos - D * sin for a in (ap.a1, ap.a2)]
    c = [(seg.shift - a) * sin + D * cos for a in (ap.a1, ap.a2)]
    kink = sbp._kink(s, c, seg.half_length)
    assert kink == pytest.approx(-0.17797, abs=1e-5)
    assert kink == pytest.approx(bandwidth_integral.kink(seg, ap), abs=1e-15)
    reference = bandwidth_integral.integral(seg, ap, wave)
    assert _within_rounding(sbp_numeric(seg, ap, wave).value, reference)
    # the same quadrature across the uncut slope jump misses by about 5e-6
    uncut = bandwidth_integral.integral(seg, ap, wave, split=False)
    assert abs(uncut / reference - 1.0) > 1e-6


def test_numeric_with_an_aperture_end_on_the_scene_line():
    # the line through (0, 0) at -60 deg passes exactly through the end a1:
    # that end's direction is stationary, and B(u) is smooth
    theta = math.radians(-60.0)
    a1 = D * math.cos(theta) / math.sin(theta)
    assert (0.0 - a1) * math.sin(theta) + D * math.cos(theta) == 0.0
    ap = Aperture(a1, a1 + L1, D)
    wave = WaveContext(LAM)
    seg = SceneSegment(L2 / 2, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = sbp_numeric(seg, ap, wave).value
    assert _within_rounding(value, bandwidth_integral.integral(seg, ap, wave))


@pytest.mark.parametrize("h", [0.05, 0.1, 0.225])
def test_numeric_on_theta_max_grids(h):
    # every tilt of theta_max's coarse grid, ends down to 1.3 mm from the
    # aperture plane included
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 181)
    grid = grid[h * np.abs(np.sin(grid)) < D]
    for t in (0.0, 0.05, 0.1, 0.15, 0.2, 0.21):
        for theta in grid:
            value = sbp._sbp_of_tilt(theta, t, h, ap, wave)
            reference = bandwidth_integral.integral(SceneSegment(h, theta, t), ap, wave)
            assert _within_rounding(value, reference), (t, theta)


def _geometries(count, seed=13):
    """(L1, L2, D, theta, t) in the ranges lambda = 5 mm, L1 3-40 cm, L2 3-30 cm,
    D 5-100 cm, |theta| <= 90 deg, |t| <= 30 cm, with the segment's near end
    at least 2% of D in front of the aperture plane. Every other geometry
    puts that end 2-10% of D from the plane, where a fixed quadrature of B
    loses digits: drawn uniformly, a few in a thousand would."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        L1, L2, D = rng.uniform(0.03, 0.40), rng.uniform(0.03, 0.30), rng.uniform(0.05, 1.0)
        theta, t = rng.uniform(-0.5 * math.pi, 0.5 * math.pi), rng.uniform(-0.3, 0.3)
        if len(out) % 2:
            gap = rng.uniform(0.02, 0.1)
            if L2 / 2 / (1.0 - gap) <= 0.05:
                continue
            D = rng.uniform(0.05, min(1.0, L2 / 2 / (1.0 - gap)))
            theta = math.copysign(math.asin((1.0 - gap) * D / (L2 / 2)), theta)
        if L2 / 2 * abs(math.sin(theta)) <= 0.98 * D:
            out.append((L1, L2, D, theta, t))
    return out


def test_numeric_matches_the_bandwidth_integral_on_random_geometries():
    wave = WaveContext(LAM)
    near = kinks = 0
    for L1_, L2_, D_, theta, t in _geometries(1000):
        ap = Aperture.centered(L1_, D_)
        seg = SceneSegment(L2_ / 2, theta, t)
        near += D_ - seg.half_length * abs(math.sin(theta)) < 0.1 * D_
        kinks += bandwidth_integral.kink(seg, ap) is not None
        value = sbp_numeric(seg, ap, wave).value
        reference = bandwidth_integral.integral(seg, ap, wave)
        assert _within_rounding(value, reference), (L1_, L2_, D_, theta, t, value, reference)
    # the sample reaches both places where B is hardest to integrate
    assert near >= 400 and kinks >= 40


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
    a = sbp_numeric(SceneSegment(L2 / 2, theta, t), ap, wave).value
    b = sbp_numeric(SceneSegment(L2 / 2, -theta, -t), ap, wave).value
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


def test_closed_form_input_validation():
    with pytest.raises(ValueError):
        sbp_closed_form_g1(L1, L2, 0.0, LAM)
    with pytest.raises(ValueError):
        sbp_closed_form_g1(-L1, L2, D, LAM)
    with pytest.raises(ValueError):
        sbp_closed_form_g2((0.1, 0.0), (0.0, 0.1), D, LAM)


def test_numeric_rejects_a_segment_that_reaches_the_aperture_plane():
    # the far end lies 0.05% behind the plane
    ap = Aperture.centered(L1, D)
    theta = math.radians(60.0)
    seg = SceneSegment(1.0005 * D / math.sin(theta), theta, 0.1)
    with pytest.raises(ValueError, match="aperture plane"):
        sbp_numeric(seg, ap, WaveContext(LAM))


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
    tm = theta_max(SceneSegment(L2 / 2), ap, wave)
    assert abs(tm) < 0.02


def test_theta_max_tracks_the_heuristic():
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    tm = theta_max(SceneSegment(L2 / 2, shift=0.15), ap, wave)
    assert tm == pytest.approx(THETA_MAX_T15, abs=1e-3)
    th = theta_heu(0.15, D)
    assert abs(tm - th) < 0.1
    # the optimum dominates both the heuristic and broadside
    sbp_at = lambda th_: sbp_numeric(SceneSegment(L2 / 2, th_, 0.15), ap, wave).value
    assert sbp_at(tm) >= sbp_at(th) >= sbp_at(0.0)


@pytest.mark.parametrize("t,h", [(0.0, 0.05), (0.15, 0.05), (-0.1, 0.08), (0.2, 0.03)])
def test_theta_max_coarse_grid_matches_per_tilt_integrals(monkeypatch, t, h):
    # oracle: the quadrature of the public bandwidth on each tilt
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    calls = []
    per_tilt = sbp._sbp_of_tilt

    def recording(theta, *args):
        value = per_tilt(theta, *args)
        calls.append((theta, value))
        return value

    monkeypatch.setattr(sbp, "_sbp_of_tilt", recording)
    theta_max(SceneSegment(h, shift=t), ap, wave)
    # one call per coarse-grid tilt, in the grid's order, then one per
    # golden-section step (through sbp_numeric)
    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 181)
    assert len(calls) > grid.size
    np.testing.assert_array_equal([th for th, _ in calls[:grid.size]], grid)
    for theta, value in calls[:grid.size]:
        reference = bandwidth_integral.integral(SceneSegment(h, theta, t), ap, wave)
        assert _within_rounding(value, reference), theta
        assert value == sbp_numeric(SceneSegment(h, theta, t), ap, wave).value, theta


def test_theta_max_coarse_grid_memory_is_bounded():
    # the coarse grid keeps one list of 181 tilts and one of their SBP
    # values, and each tilt's temporaries are a few floats, so the search
    # stays well under a megabyte
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    tracemalloc.start()
    try:
        theta_max(SceneSegment(0.05, shift=0.15), ap, wave)
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
        tm = theta_max(SceneSegment(0.225, shift=t), ap, wave)
        assert 0.225 * abs(math.sin(tm)) < D
