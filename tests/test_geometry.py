import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aperture_dof import (
    Aperture,
    SceneSegment,
    WaveContext,
    path_length,
    viewing_angles,
)
from aperture_dof.geometry import element_view_angle


def test_wave_context_wavenumber():
    assert WaveContext(0.005).k == pytest.approx(2.0 * math.pi / 0.005, rel=1e-15)


@pytest.mark.parametrize("lam", [0.0, -1e-3])
def test_wave_context_rejects_nonpositive_wavelength(lam):
    with pytest.raises(ValueError):
        WaveContext(lam)


def test_aperture_derived_quantities():
    ap = Aperture(-0.05, 0.10, 0.20)
    assert ap.length == pytest.approx(0.15)
    assert ap.center == pytest.approx(0.025)
    assert ap.z_plane == -0.20


def test_aperture_centered():
    ap = Aperture.centered(0.15, 0.2)
    assert (ap.a1, ap.a2) == (-0.075, 0.075)


@pytest.mark.parametrize("a1,a2,d", [(0.1, 0.1, 0.2), (0.2, 0.1, 0.2), (0.0, 0.1, 0.0)])
def test_aperture_rejects_bad_intervals(a1, a2, d):
    with pytest.raises(ValueError):
        Aperture(a1, a2, d)


def test_scene_point_formula():
    seg = SceneSegment(0.05, math.radians(30.0), 0.02)
    x, z = seg.point(0.04)
    assert x == pytest.approx(0.02 + 0.04 * math.cos(math.radians(30.0)))
    assert z == pytest.approx(-0.04 * math.sin(math.radians(30.0)))


def test_scene_points_matches_scalar():
    seg = SceneSegment(0.05, 0.3, -0.01)
    u = np.linspace(-0.05, 0.05, 7)
    pts = seg.points(u)
    assert pts.shape == (7, 2)
    for ui, row in zip(u, pts):
        assert row[0] == pytest.approx(seg.point(ui)[0])
        assert row[1] == pytest.approx(seg.point(ui)[1])


@pytest.mark.parametrize(
    "theta,shift,expected",
    [
        (0.0, 0.0, "G1"),
        (0.0, 0.15, "G2"),
        (0.6, 0.0, "G3"),
        (0.6, 0.15, "G4"),
    ],
)
def test_geometry_class(theta, shift, expected):
    assert SceneSegment(0.05, theta, shift).geometry_class == expected


def test_scene_validation():
    with pytest.raises(ValueError):
        SceneSegment(-0.01)
    with pytest.raises(ValueError):
        SceneSegment(0.05, theta=2.0)
    # right-angle tilt is the boundary case and stays legal
    SceneSegment(0.05, theta=0.5 * math.pi)


@given(
    theta=st.floats(0.05, 1.5),
    sign=st.sampled_from([-1.0, 1.0]),
    u=st.floats(-1.0, 1.0),
    t=st.floats(-1.0, 1.0),
)
def test_scene_points_lie_on_the_line(theta, sign, u, t):
    # the segment is the line x' = rho * z' + t with rho = -cot(theta)
    seg = SceneSegment(1.0, sign * theta, t)
    x, z = seg.point(u)
    rho = -1.0 / math.tan(sign * theta)
    assert x == pytest.approx(rho * z + t, abs=1e-9)


def test_path_length_value():
    ap = Aperture.centered(0.15, 0.2)
    assert path_length(0.075, (0.05, 0.0), ap) == pytest.approx(
        math.hypot(0.075 - 0.05, 0.2)
    )


def test_path_length_rejects_points_behind_aperture():
    ap = Aperture.centered(0.15, 0.2)
    with pytest.raises(ValueError):
        path_length(0.0, (0.0, -0.2), ap)
    with pytest.raises(ValueError):
        path_length(0.0, (0.0, -0.25), ap)


@given(
    x=st.floats(-0.075, 0.075),
    xp=st.floats(-0.3, 0.3),
    zp=st.floats(-0.15, 0.3),
    dx=st.floats(-5.0, 5.0),
)
@settings(max_examples=50)
def test_path_length_translation_invariant(x, xp, zp, dx):
    ap = Aperture.centered(0.15, 0.2)
    ap_shifted = Aperture(ap.a1 + dx, ap.a2 + dx, ap.standoff)
    r0 = path_length(x, (xp, zp), ap)
    r1 = path_length(x + dx, (xp + dx, zp), ap_shifted)
    assert r1 == pytest.approx(r0, rel=1e-12, abs=1e-12)


def test_viewing_angles_centered_point():
    ap = Aperture.centered(0.15, 0.2)
    alpha, beta = viewing_angles((0.0, 0.0), ap)
    expected = math.atan2(0.075, 0.2)
    assert beta == pytest.approx(expected)
    assert alpha == pytest.approx(-expected)


def test_viewing_angles_ordering(aperture):
    for xp in np.linspace(-0.3, 0.3, 11):
        alpha, beta = viewing_angles((xp, 0.0), aperture)
        assert alpha <= beta
        assert -0.5 * math.pi < alpha and beta < 0.5 * math.pi


@given(
    xp=st.floats(-0.4, 0.4),
    zp=st.floats(-0.1, 0.4),
    step=st.floats(1e-4, 0.2),
)
@settings(max_examples=50)
def test_viewing_angles_monotone_in_cross_range(xp, zp, step):
    ap = Aperture.centered(0.15, 0.2)
    a0, b0 = viewing_angles((xp, zp), ap)
    a1, b1 = viewing_angles((xp + step, zp), ap)
    assert a1 > a0
    assert b1 > b0


def test_element_view_angle_sign():
    ap = Aperture.centered(0.15, 0.2)
    assert element_view_angle(-0.05, (0.0, 0.0), ap) > 0.0
    assert element_view_angle(0.05, (0.0, 0.0), ap) < 0.0
    assert element_view_angle(0.0, (0.0, 0.0), ap) == 0.0


def test_viewing_angles_of_a_point_array_equal_per_point_results(aperture):
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-0.3, 0.3, 50), rng.uniform(-0.15, 0.4, 50)])
    alpha, beta = viewing_angles(pts, aperture)
    assert alpha.shape == beta.shape == (50,)
    per_point = np.array([viewing_angles(p, aperture) for p in pts])
    np.testing.assert_array_equal(alpha, per_point[:, 0])
    np.testing.assert_array_equal(beta, per_point[:, 1])


def test_point_array_with_one_point_behind_the_aperture_is_rejected(aperture):
    pts = np.array([[0.0, 0.0], [0.01, 0.05], [0.02, aperture.z_plane], [0.0, 0.1]])
    with pytest.raises(ValueError, match="on or behind the aperture plane"):
        viewing_angles(pts, aperture)
    with pytest.raises(ValueError, match="on or behind the aperture plane"):
        element_view_angle(0.0, pts, aperture)
