import math

import numpy as np
import pytest
from scipy.optimize import brentq

from aperture_dof import (
    MONOSTATIC,
    MULTISTATIC,
    Aperture,
    ArrayLayout,
    ImageProfile,
    ResolutionCurve,
    SceneSegment,
    UnresolvableProfileError,
    WaveContext,
    beamwidth_3db,
    build_operator,
    psf,
    reconstruct_mf,
    reconstruct_pinv,
    resolution_sweep,
    svd,
)

from conftest import LAM, L1, L2, D, small_operator, random_gamma

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_pinv_full_rank_round_trip():
    # full column rank needs the scene sampled below the geometry's DoF
    # (~27 here); oversampled grids make the columns linearly dependent
    rng = np.random.default_rng(0)
    op = small_operator(MONOSTATIC, n_elements=60, n_scene=24)
    gamma = random_gamma(rng, 24)
    image = reconstruct_pinv(op, op.forward(gamma), rank=24)
    err = np.linalg.norm(image.values - gamma) / np.linalg.norm(gamma)
    assert err < 1e-6
    assert image.method == "pinv" and image.rank == 24


def test_pinv_truncated_is_the_right_vector_projection():
    rng = np.random.default_rng(1)
    op = small_operator(MONOSTATIC, n_elements=60, n_scene=40)
    sp = svd(op)
    gamma = random_gamma(rng, 40)
    r = 12
    image = reconstruct_pinv(op, op.forward(gamma), rank=r, spectrum=sp)
    v_r = sp.right_vectors[:, :r]
    gamma_w = np.sqrt(op.col_weights) * gamma
    projected = v_r @ (v_r.conj().T @ gamma_w) / np.sqrt(op.col_weights)
    np.testing.assert_allclose(image.values, projected, atol=1e-9 * np.abs(gamma).max())


def test_pinv_beats_best_scaled_adjoint():
    rng = np.random.default_rng(2)
    op = small_operator(MONOSTATIC, n_elements=60, n_scene=24)
    sp = svd(op)
    for _ in range(50):
        gamma = random_gamma(rng, 24)
        data = op.forward(gamma)
        g_pinv = reconstruct_pinv(op, data, rank=24, spectrum=sp).values
        g_mf = reconstruct_mf(op, data).values
        c = np.vdot(g_mf, gamma) / np.vdot(g_mf, g_mf)
        assert np.linalg.norm(gamma - g_pinv) <= np.linalg.norm(gamma - c * g_mf) + 1e-12


def test_mf_matches_svd_route():
    rng = np.random.default_rng(3)
    for arch, n in ((MONOSTATIC, 40), (MULTISTATIC, 9)):
        op = small_operator(arch, n_elements=n, n_scene=30)
        sp = svd(op)
        gamma = random_gamma(rng, 30)
        direct = reconstruct_mf(op, op.forward(gamma)).values
        # adjoint-normal route through the spectrum: V diag(sigma^2) V^H
        gamma_w = np.sqrt(op.col_weights) * gamma
        v = sp.right_vectors
        oracle_w = v @ (sp.singular_values**2 * (v.conj().T @ gamma_w))
        oracle = oracle_w / np.sqrt(op.col_weights)
        err = np.linalg.norm(direct - oracle) / np.linalg.norm(oracle)
        assert err < 1e-8


def test_mf_kernel_matrix_is_hermitian():
    op = small_operator(MONOSTATIC, n_elements=20, n_scene=16)
    kappa = np.empty((16, 16), dtype=complex)
    for j in range(16):
        kappa[:, j] = psf(j, op, "mf").values
    assert np.max(np.abs(kappa - kappa.conj().T)) < 1e-10 * np.abs(kappa).max()


def test_reconstruction_input_validation():
    op = small_operator(MONOSTATIC, n_elements=12, n_scene=10)
    data = op.forward(np.ones(10))
    with pytest.raises(ValueError):
        reconstruct_pinv(op, data, rank=0)
    with pytest.raises(ValueError):
        reconstruct_pinv(op, data, rank=11)
    with pytest.raises(ValueError):
        reconstruct_pinv(op, data[:-1], rank=5)
    with pytest.raises(ValueError):
        reconstruct_mf(op, data[:-1])
    with pytest.raises(ValueError):
        psf(99, op, "mf")
    with pytest.raises(ValueError):
        psf(0, op, "backprojection")
    with pytest.raises(ValueError):
        psf(0, op, "mf", oversample=0)


def test_psf_mf_equals_direct_reconstruction():
    op = small_operator(MONOSTATIC, n_elements=20, n_scene=24)
    profile = psf(10, op, "mf")
    gamma = np.zeros(24, dtype=complex)
    gamma[10] = 1.0 / op.col_weights[10]
    direct = reconstruct_mf(op, op.forward(gamma))
    np.testing.assert_allclose(profile.values, direct.values, rtol=1e-12)


def test_psf_peaks_at_the_target():
    op = small_operator(MONOSTATIC, n_elements=30, n_scene=60)
    sp = svd(op)
    for method in ("pinv", "mf"):
        profile = psf(25, op, method, spectrum=sp)
        assert int(np.argmax(np.abs(profile.values))) == 25


def test_psf_translation_covariance():
    op = small_operator(MONOSTATIC, n_elements=30, n_scene=60)
    sp = svd(op)
    peaks = []
    for idx in (20, 28, 40):
        profile = psf(idx, op, "pinv", spectrum=sp)
        peaks.append(int(np.argmax(np.abs(profile.values))))
    assert abs(peaks[0] - 20) <= 1
    assert abs((peaks[1] - peaks[0]) - 8) <= 1
    assert abs((peaks[2] - peaks[1]) - 12) <= 1


def test_psf_oversampled_grid_and_peak():
    op = small_operator(MONOSTATIC, n_elements=30, n_scene=48)
    sp = svd(op)
    for method in ("pinv", "mf"):
        coarse = psf(24, op, method, spectrum=sp)
        fine = psf(24, op, method, oversample=4, spectrum=sp)
        assert fine.coords.size == 48 * 4
        # the fine grid interpolates the same band-limited image
        peak_u_coarse = coarse.coords[np.argmax(np.abs(coarse.values))]
        peak_u_fine = fine.coords[np.argmax(np.abs(fine.values))]
        assert abs(peak_u_fine - peak_u_coarse) <= L2 / 48
        assert np.max(np.abs(fine.values)) >= 0.95 * np.max(np.abs(coarse.values))


@pytest.mark.parametrize("architecture,n_elements", [(MONOSTATIC, 30), (MULTISTATIC, 12)])
def test_oversampled_psf_contains_the_grid_psf(architecture, n_elements):
    # every third sample of the 3x grid sits on an operator grid point, where
    # the fine image must equal the grid image
    op = small_operator(architecture, n_elements=n_elements, n_scene=48)
    sp = svd(op)
    for method in ("pinv", "mf"):
        for idx in (3, 24, 40):
            coarse = psf(idx, op, method, spectrum=sp)
            fine = psf(idx, op, method, oversample=3, spectrum=sp)
            np.testing.assert_allclose(fine.coords[1::3], coarse.coords, rtol=0, atol=1e-15)
            peak = np.abs(coarse.values).max()
            np.testing.assert_allclose(
                fine.values[1::3], coarse.values, rtol=0, atol=1e-12 * peak)


def test_image_profile_validation():
    with pytest.raises(ValueError):
        ImageProfile(np.array([0.0, 0.0]), np.array([1.0, 1.0]), "mf")
    with pytest.raises(ValueError):
        ImageProfile(np.array([0.0, 1.0]), np.array([1.0]), "mf")
    with pytest.raises(ValueError):
        ImageProfile(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "tsvd")


def test_beamwidth_triangle_profile_is_exact():
    # piecewise-linear profile: interpolated crossings are exact
    w = 0.5
    x = np.linspace(-1.0, 1.0, 401)
    values = np.clip(1.0 - np.abs(x) / w, 0.0, None)
    width = beamwidth_3db(ImageProfile(x, values.astype(complex), "mf"))
    assert width == pytest.approx(2.0 * w * (1.0 - _SQRT_HALF), rel=1e-12)


def test_beamwidth_sinc_profile_matches_root_solve():
    s = 0.2
    x = np.linspace(-1.0, 1.0, 1001)
    values = np.sinc(x / s).astype(complex)
    width = beamwidth_3db(ImageProfile(x, values, "mf"))
    root = brentq(lambda t: np.sinc(t) - _SQRT_HALF, 0.3, 0.6, xtol=1e-12)
    assert width == pytest.approx(2.0 * s * root, rel=1e-4)


def test_beamwidth_unresolvable_cases():
    x = np.linspace(0.0, 1.0, 50)
    with pytest.raises(UnresolvableProfileError):
        beamwidth_3db(ImageProfile(x, x.astype(complex), "mf"))  # peak on edge
    flat = np.ones(50, dtype=complex)
    flat[25] = 1.01  # interior peak but no half-power drop anywhere
    with pytest.raises(UnresolvableProfileError):
        beamwidth_3db(ImageProfile(x, flat, "mf"))
    with pytest.raises(UnresolvableProfileError):
        beamwidth_3db(ImageProfile(x[:2], flat[:2], "mf"))


def _sweep(**kw):
    ap = Aperture.centered(L1, D)
    layout = ArrayLayout.uniform(ap, 40, MONOSTATIC)
    args = dict(n_scene=80, n_targets=5, oversample=2)
    args.update(kw)
    return resolution_sweep(
        SceneSegment(L2 / 2), ap, WaveContext(LAM), layout, **args
    )


def test_resolution_sweep_shapes_and_benchmark():
    curve = _sweep()
    assert curve.positions.size == 5
    for method in ("pinv", "mf"):
        assert curve.widths[method].shape == (5,)
        assert curve.flagged[method].dtype == bool
        ok = ~curve.flagged[method]
        assert np.all(curve.widths[method][ok] > 0.0)
        assert np.all(np.isnan(curve.widths[method][~ok]))
    assert np.all(curve.reciprocal_bandwidth > 0.0)
    assert curve.grid_spacing == pytest.approx(L2 / 160)


def test_resolution_sweep_keeps_profiles_on_request():
    curve = _sweep(methods=("mf",))
    assert set(curve.profiles) == {"mf"}
    assert curve.profiles["mf"].shape == (160, 5)
    assert curve.profile_coords.size == 160
    # stored profiles reproduce the reported widths
    j = 2
    prof = ImageProfile(curve.profile_coords, curve.profiles["mf"][:, j], "mf")
    assert beamwidth_3db(prof) == pytest.approx(curve.widths["mf"][j], rel=1e-12)


@pytest.mark.parametrize("architecture", [MONOSTATIC, MULTISTATIC])
def test_oversampled_psf_is_one_column_of_the_sweep(architecture):
    ap = Aperture.centered(L1, D)
    layout = ArrayLayout.uniform(ap, 12, architecture)
    scene, wave = SceneSegment(L2 / 2), WaveContext(LAM)
    curve = resolution_sweep(
        scene, ap, wave, layout, n_scene=40, n_targets=3, oversample=3,
    )
    op = build_operator(scene, layout, wave, 40)
    idx = np.searchsorted(op.scene_u, curve.positions)
    np.testing.assert_array_equal(op.scene_u[idx], curve.positions)
    for method in ("pinv", "mf"):
        for j, i in enumerate(idx):
            profile = psf(int(i), op, method, oversample=3)
            np.testing.assert_array_equal(profile.coords, curve.profile_coords)
            np.testing.assert_allclose(
                profile.values, curve.profiles[method][:, j], rtol=1e-12)


def test_resolution_sweep_rejects_mismatched_aperture():
    ap = Aperture.centered(L1, D)
    other = Aperture.centered(L1, 2 * D)
    layout = ArrayLayout.uniform(other, 10, MONOSTATIC)
    with pytest.raises(ValueError):
        resolution_sweep(SceneSegment(L2 / 2), ap, WaveContext(LAM), layout)
    with pytest.raises(ValueError):
        _sweep(methods=("pinv", "cs"))


def test_resolution_curve_validation():
    base = dict(
        positions=np.array([0.0]),
        reciprocal_bandwidth=np.array([1.0]),
        grid_spacing=0.01,
    )
    with pytest.raises(ValueError):
        ResolutionCurve(
            widths={"mf": np.array([-1.0])}, flagged={"mf": np.array([False])}, **base
        )
    with pytest.raises(ValueError):
        # a width below the sampling limit cannot be trusted
        ResolutionCurve(
            widths={"mf": np.array([0.001])}, flagged={"mf": np.array([False])}, **base
        )
    # flagged entries are exempt
    ResolutionCurve(
        widths={"mf": np.array([np.nan])}, flagged={"mf": np.array([True])}, **base
    )
