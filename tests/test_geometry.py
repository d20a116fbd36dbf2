import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aperture_dof import (
    MONOSTATIC,
    MULTISTATIC,
    Aperture,
    ApertureFunction,
    ArrayLayout,
    FresnelEquivalenceReport,
    ImageProfile,
    ResolutionCurve,
    SbpResult,
    SceneSegment,
    SvdSpectrum,
    WaveContext,
    build_operator,
    viewing_angles,
)
from aperture_dof.geometry import element_view_angle


def test_wave_context_wavenumber():
    assert WaveContext(0.005).k == pytest.approx(2.0 * math.pi / 0.005, rel=1e-15)


# 1e-310 is positive, but its wavenumber 2*pi/lambda overflows to inf
@pytest.mark.parametrize("lam", [0.0, -1e-3, 1e-310])
def test_wave_context_rejects_nonpositive_wavelength(lam):
    with pytest.raises(ValueError):
        WaveContext(lam)


def test_aperture_derived_quantities():
    ap = Aperture(-0.05, 0.10, 0.20)
    assert ap.length == pytest.approx(0.15)
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


@pytest.mark.parametrize("value, fields, text, bad", [
    (WaveContext(0.005), {"wavelength": 0.005}, "WaveContext(wavelength=0.005)",
     {"wavelength": -1.0}),
    (Aperture.centered(0.15, 0.2), {"a1": -0.075, "a2": 0.075, "standoff": 0.2},
     "Aperture(a1=-0.075, a2=0.075, standoff=0.2)", {"a1": 1.0}),
    (SceneSegment(0.05, 0.3), {"half_length": 0.05, "theta": 0.3, "shift": 0.0},
     "SceneSegment(half_length=0.05, theta=0.3, shift=0.0)", {"half_length": -1.0}),
    (SbpResult(27.5, "closed-form-G1"), {"value": 27.5, "method": "closed-form-G1"},
     "SbpResult(value=27.5, method='closed-form-G1')", {"value": -1.0}),
], ids=["wave", "aperture", "scene", "sbp-result"])
def test_value_types_are_immutable_hashable_and_print_as_before(value, fields, text, bad):
    # namedtuples, where they were frozen dataclasses: the same contract
    twin = type(value)(**fields)
    assert twin == value and hash(twin) == hash(value)
    assert repr(value) == text
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
    # _replace builds through the class, so its checks still run
    with pytest.raises(ValueError):
        value._replace(**bad)


def _operator():
    layout = ArrayLayout.uniform(Aperture.centered(0.15, 0.2), 4, MULTISTATIC)
    return build_operator(SceneSegment(0.05), layout, WaveContext(0.005), 8)


@pytest.mark.parametrize("build, bad", [
    (lambda: ArrayLayout.uniform(Aperture.centered(0.15, 0.2), 4, MULTISTATIC),
     {"tx_positions": [0.0, 0.1]}),  # outside the aperture
    (_operator, None),
    (lambda: SvdSpectrum(np.array([2.0, 1.0]), None, 5.0),
     {"singular_values": np.array([1.0, 2.0])}),  # increasing
    (lambda: ApertureFunction.from_positions([0.0, 0.01]),
     {"positions": [0.01, 0.0]}),  # not increasing
    (lambda: FresnelEquivalenceReport(ApertureFunction.from_positions([0.0, 0.01]),
                                      np.ones(2), {}, {}), None),
    (lambda: ImageProfile([0.0, 1.0], [1.0, 1.0], "mf"), {"method": "tsvd"}),
    (lambda: ResolutionCurve(np.zeros(2), {"mf": np.array([0.02, 0.03])}, np.ones(2), 1e-3,
                             {}, np.zeros(2)), {"grid_spacing": 0.1}),  # widths below it
], ids=["layout", "operator", "spectrum", "aperture-function", "fresnel-report",
        "image-profile", "resolution-curve"])
def test_array_values_are_immutable_and_checked_on_replace(build, bad):
    # no field can be set, and _replace goes through __new__, so a copy is
    # checked as a new value is
    value = build()
    for name in (*value._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
    if bad is not None:
        with pytest.raises(ValueError):
            value._replace(**bad)
    # hashing and equality reach the array fields, which have no hash and
    # no single truth value
    with pytest.raises(TypeError):
        hash(value)
    with pytest.raises(ValueError):
        value == build()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, field", [
    (lambda ap: ArrayLayout(MONOSTATIC, [0.0, NAN], [0.0, NAN], ap, 0.01, 0.01), "tx_positions"),
    (lambda ap: ArrayLayout(MULTISTATIC, [0.0, NAN], [0.0], ap, 0.01, 0.01), "tx_positions"),
    (lambda ap: ArrayLayout(MULTISTATIC, [0.0], [NAN, 0.0], ap, 0.01, 0.01), "rx_positions"),
    (lambda ap: ArrayLayout(MULTISTATIC, [0.0], [0.0], ap, NAN, 0.01), "tx_weight"),
    (lambda ap: ArrayLayout(MULTISTATIC, [0.0], [0.0], ap, 0.01, INF), "rx_weight"),
    (lambda ap: SceneSegment(NAN), "half_length"),
    (lambda ap: SceneSegment(INF), "half_length"),
    (lambda ap: SceneSegment(0.05, theta=NAN), "theta"),
    (lambda ap: SceneSegment(0.05, shift=NAN), "shift"),
    (lambda ap: SceneSegment(0.05, shift=-INF), "shift"),
], ids=["mono-tx", "multi-tx", "multi-rx", "tx-weight", "rx-weight", "half-length-nan",
        "half-length-inf", "theta", "shift-nan", "shift-inf"])
def test_non_finite_inputs_are_rejected_by_name(build, field):
    # every range check is false for NaN, and a NaN position turns the
    # spectrum into NaNs whose knee is its full length
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build(Aperture.centered(0.15, 0.2))


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


def test_viewing_angles_rejects_points_behind_aperture():
    ap = Aperture.centered(0.15, 0.2)
    with pytest.raises(ValueError):
        viewing_angles((0.0, -0.2), ap)
    with pytest.raises(ValueError):
        viewing_angles((0.0, -0.25), ap)


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
