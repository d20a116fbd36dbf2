import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aperture_dof import (
    Aperture,
    SceneSegment,
    WaveContext,
    bandwidth,
    mono_spectrum,
    multi_spectrum,
    project_points_onto_line,
    scene_projection_angle,
    viewing_angles,
)
from aperture_dof.kspace import (
    _project_arc,
    effective_monostatic_point,
    sample_point,
)
from aperture_dof.geometry import TWO_PI, element_view_angle

# per-point bandwidth at the center of the nominal centered broadside scene,
# regression-frozen (cycles per meter)
B_G1_CENTER = 280.8987532707133

_angles = st.floats(-1.4, 1.4)


@given(theta_tx=_angles, theta_rx=_angles)
def test_sample_point_norm_and_bisector(theta_tx, theta_rx):
    wave = WaveContext(0.005)
    kx, kz = sample_point(theta_tx, theta_rx, wave)
    expected_norm = 2.0 * wave.k * math.cos(0.5 * abs(theta_tx - theta_rx))
    norm = math.hypot(kx, kz)
    assert norm == pytest.approx(expected_norm, rel=1e-12)
    if norm > 1e-9:
        # angle from the kz axis, the viewing-angle convention
        assert math.atan2(kx, kz) == pytest.approx(0.5 * (theta_tx + theta_rx), abs=1e-12)


@given(theta_tx=_angles, theta_rx=_angles)
def test_sample_point_reciprocity(theta_tx, theta_rx):
    # exchanging Tx and Rx roles leaves the sampled k-vector unchanged
    wave = WaveContext(0.005)
    a = sample_point(theta_tx, theta_rx, wave)
    b = sample_point(theta_rx, theta_tx, wave)
    assert a == b


def test_sample_point_rejects_grazing():
    wave = WaveContext(0.005)
    with pytest.raises(ValueError):
        sample_point(0.5 * math.pi, 0.0, wave)


def test_mono_spectrum_is_2k_arc(aperture, wave):
    pts = mono_spectrum((0.0, 0.0), aperture, wave, 33)
    assert pts.shape == (33, 2)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(norms, 2.0 * wave.k, rtol=1e-12)
    # span endpoints are the single-element views from the aperture edges
    alpha, beta = viewing_angles((0.0, 0.0), aperture)
    assert math.atan2(pts[0, 0], pts[0, 1]) == pytest.approx(alpha)
    assert math.atan2(pts[-1, 0], pts[-1, 1]) == pytest.approx(beta)


def test_multi_contains_mono_on_the_diagonal(aperture, wave):
    # inclusion: the mono arc is the diagonal slice of the multi set, exactly
    n = 64
    point = (0.03, 0.0)
    mono_pts = mono_spectrum(point, aperture, wave, n)
    multi = multi_spectrum(point, aperture, wave, n)
    diag = multi.reshape(n, n, 2)[np.arange(n), np.arange(n)]
    np.testing.assert_array_equal(diag, mono_pts)


def test_multi_rows_are_pairwise_sums(aperture, wave):
    # row i * n + j sums the one-way vectors of angles i and j, for every
    # pair, not just the diagonal; halving the doubled mono arc is exact, so
    # every sum matches bit for bit (Tx and Rx share one angle grid, so the
    # set is symmetric and cannot tell Tx-major from Rx-major)
    n = 7
    point = (0.03, 0.01)
    mono_pts = mono_spectrum(point, aperture, wave, n)
    multi = multi_spectrum(point, aperture, wave, n)
    assert multi.shape == (n * n, 2)
    pairs = mono_pts[:, None, :] / 2 + mono_pts[None, :, :] / 2
    np.testing.assert_array_equal(multi.reshape(n, n, 2), pairs)


def test_multi_samples_capped_by_outer_radius(aperture, wave):
    multi = multi_spectrum((0.02, 0.0), aperture, wave, 48)
    norms = np.hypot(multi[:, 0], multi[:, 1])
    assert norms.max() <= 2.0 * wave.k * (1.0 + 1e-12)


def test_arc_projection_matches_dense_sampling(aperture, wave):
    # analytic sinusoid extrema against a brute-force dense oracle
    alpha, beta = viewing_angles((0.04, 0.0), aperture)
    dense = mono_spectrum((0.04, 0.0), aperture, wave, 200001)
    for angle in np.linspace(-math.pi, math.pi, 17):
        lo_a, hi_a = _project_arc(2.0 * wave.k, alpha, beta, angle)
        lo_d, hi_d = project_points_onto_line(dense, angle)
        assert lo_a == pytest.approx(lo_d, abs=1e-6 * wave.k)
        assert hi_a == pytest.approx(hi_d, abs=1e-6 * wave.k)
        # exact extrema bound the samples, up to endpoint rounding
        eps = 1e-12 * wave.k
        assert lo_a <= lo_d + eps and hi_a >= hi_d - eps


@given(
    line_angle=st.floats(-3.0 * math.pi, 3.0 * math.pi),
    xp=st.floats(-0.3, 0.3),
    frac=st.floats(0.0, 1.0),
    j=st.integers(-1, 1),
    sign=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_arc_projection_wraps_around(line_angle, xp, frac, j, sign):
    # line angles in [-3pi, 3pi] put the stationary phases +-pi/2 + 2*pi*j
    # at j = -1, 0, 1; besides a free angle, each example builds one whose
    # stationary phase lands at `frac` of the span, which a free draw rarely hits
    wave = WaveContext(0.005)
    ap = Aperture.centered(0.15, 0.2)
    alpha, beta = viewing_angles((xp, 0.0), ap)
    phi = alpha + frac * (beta - alpha)
    dense = mono_spectrum((xp, 0.0), ap, wave, 200001)
    for angle in (line_angle, sign * 0.5 * math.pi + TWO_PI * j - phi):
        lo_a, hi_a = _project_arc(2.0 * wave.k, alpha, beta, angle)
        lo_d, hi_d = project_points_onto_line(dense, angle)
        assert lo_a == pytest.approx(lo_d, abs=1e-6 * wave.k)
        assert hi_a == pytest.approx(hi_d, abs=1e-6 * wave.k)
        eps = 1e-12 * wave.k
        assert lo_a <= lo_d + eps and hi_a >= hi_d - eps


@pytest.mark.parametrize(
    "scene",
    [
        SceneSegment(0.05),
        SceneSegment(0.05, 0.6),
        SceneSegment(0.05, 0.0, 0.12),
        SceneSegment(0.05, -0.4, 0.08),
        SceneSegment(0.05, 0.5 * math.pi, 0.03),
        SceneSegment(0.05, -0.5 * math.pi),
    ],
    ids=["broadside", "tilted", "shifted", "tilted-shifted", "range+pi/2", "range-pi/2"],
)
def test_bandwidth_of_a_point_set_equals_per_point_calls(aperture, wave, scene):
    u = np.linspace(-scene.half_length, scene.half_length, 37)
    angle = scene_projection_angle(scene)
    b = bandwidth(scene.points(u), angle, aperture, wave)
    assert b.shape == (u.size,)
    per_point = [bandwidth(scene.point(ui), angle, aperture, wave) for ui in u]
    assert all(isinstance(v, float) for v in per_point)
    np.testing.assert_array_equal(b, per_point)


def test_bandwidth_broadcasts_the_line_angle_against_the_points(aperture, wave):
    # a stack of scenes, one row of points and one angle per scene
    scenes = [SceneSegment(0.05, theta, 0.03) for theta in (-0.6, 0.0, 0.9)]
    u = np.linspace(-0.05, 0.05, 7)
    angles = np.array([[scene_projection_angle(s)] for s in scenes])
    b = bandwidth(np.stack([s.points(u) for s in scenes]), angles, aperture, wave)
    assert b.shape == (3, u.size)
    for row, s in zip(b, scenes):
        np.testing.assert_array_equal(
            row, bandwidth(s.points(u), scene_projection_angle(s), aperture, wave))


def test_bandwidth_rejects_a_point_set_with_one_point_behind_the_aperture(aperture, wave):
    scene = SceneSegment(0.05)
    pts = scene.points(np.linspace(-0.05, 0.05, 5))
    pts[3, 1] = -aperture.standoff - 0.01
    with pytest.raises(ValueError, match="behind the aperture plane"):
        bandwidth(pts, scene_projection_angle(scene), aperture, wave)


@given(
    a1=st.floats(-0.4, 0.0),
    length=st.floats(0.01, 0.4),
    d=st.floats(0.05, 1.0),
    xp=st.floats(-0.4, 0.4),
    zp=st.floats(-0.04, 0.4),
    line_angle=st.floats(-math.pi, math.pi),
)
@settings(max_examples=30, deadline=None)
def test_projected_widths_match_across_architectures(a1, length, d, xp, zp, line_angle):
    # both architectures cover the same projected band (sampled comparison
    # on a shared angle grid)
    wave = WaveContext(0.005)
    ap = Aperture(a1, a1 + length, d)
    n = 128
    mono_pts = mono_spectrum((xp, zp), ap, wave, n)
    multi = multi_spectrum((xp, zp), ap, wave, n)
    lo_m, hi_m = project_points_onto_line(mono_pts, line_angle)
    lo_x, hi_x = project_points_onto_line(multi, line_angle)
    assert abs((hi_m - lo_m) - (hi_x - lo_x)) <= 1e-9 * wave.k


def test_scene_projection_angle_sign():
    assert scene_projection_angle(SceneSegment(0.05, 0.6)) == -0.6
    assert scene_projection_angle(SceneSegment(0.05)) == 0.0


def test_bandwidth_center_value(aperture, wave, scene_g1):
    b = bandwidth((0.0, 0.0), scene_projection_angle(scene_g1), aperture, wave)
    assert b == pytest.approx(B_G1_CENTER, rel=1e-12)
    # broadside center: projected band is (2/lam)*[sin(alpha), sin(beta)]
    half = math.atan2(aperture.length / 2.0, aperture.standoff)
    assert b == pytest.approx((4.0 / wave.wavelength) * math.sin(half), rel=1e-12)


def test_bandwidth_positive_across_scene(aperture, wave):
    scene = SceneSegment(0.05, 0.5, 0.1)
    for u in np.linspace(-0.05, 0.05, 9):
        assert bandwidth(scene.point(u), scene_projection_angle(scene), aperture, wave) > 0.0


def test_projection_interval_ordering(aperture, wave):
    multi = multi_spectrum((0.01, 0.0), aperture, wave, 32)
    for angle in np.linspace(-math.pi, math.pi, 9):
        lo, hi = project_points_onto_line(multi, angle)
        assert lo <= hi


def test_empty_projection_rejected():
    with pytest.raises(ValueError):
        project_points_onto_line(np.zeros((0, 2)), 0.0)


@given(
    x_tx=st.floats(-0.07, 0.07),
    x_rx=st.floats(-0.07, 0.07),
    xp=st.floats(-0.2, 0.2),
    zp=st.floats(-0.05, 0.2),
)
@settings(max_examples=50)
def test_effective_monostatic_point_reproduces_pair_vector(x_tx, x_rx, xp, zp):
    # the pair's k-space sample equals that of one element at the bisector
    # angle run at the stretched wavelength
    wave = WaveContext(0.005)
    ap = Aperture.centered(0.15, 0.2)
    t_tx = element_view_angle(x_tx, (xp, zp), ap)
    t_rx = element_view_angle(x_rx, (xp, zp), ap)
    pair = sample_point(t_tx, t_rx, wave)

    x_eff, lam_eff = effective_monostatic_point(x_tx, x_rx, (xp, zp), ap, wave)
    assert lam_eff >= wave.wavelength
    t_eff = element_view_angle(x_eff, (xp, zp), ap)
    eff = sample_point(t_eff, t_eff, WaveContext(lam_eff))
    assert eff[0] == pytest.approx(pair[0], abs=1e-7 * wave.k)
    assert eff[1] == pytest.approx(pair[1], abs=1e-7 * wave.k)
