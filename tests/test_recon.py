import math
import tracemalloc

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
    reconstruct_mf,
    reconstruct_pinv,
    resolution_sweep,
    svd,
)
from aperture_dof import operator
from aperture_dof.operator import adjoint_to_points, dof_knee
from aperture_dof.recon import _images, _pinv_filter

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
    gamma_w = math.sqrt(op.col_weight) * gamma
    projected = v_r @ (v_r.conj().T @ gamma_w) / math.sqrt(op.col_weight)
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
        gamma_w = math.sqrt(op.col_weight) * gamma
        v = sp.right_vectors
        oracle_w = v @ (sp.singular_values**2 * (v.conj().T @ gamma_w))
        oracle = oracle_w / math.sqrt(op.col_weight)
        err = np.linalg.norm(direct - oracle) / np.linalg.norm(oracle)
        assert err < 1e-8


def test_mf_kernel_matrix_is_hermitian():
    op = small_operator(MONOSTATIC, n_elements=20, n_scene=16)
    kappa = _images(op, np.arange(16), ("mf",), 1)[1]["mf"]
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


def test_psf_mf_equals_direct_reconstruction():
    op = small_operator(MONOSTATIC, n_elements=20, n_scene=24)
    coords, images, _ = _images(op, [10], ("mf",), 1)
    gamma = np.zeros(24, dtype=complex)
    gamma[10] = 1.0 / op.col_weight
    direct = reconstruct_mf(op, op.forward(gamma))
    np.testing.assert_array_equal(coords, direct.coords)
    np.testing.assert_allclose(images["mf"][:, 0], direct.values, rtol=1e-12)


def test_psf_peaks_at_the_target():
    op = small_operator(MONOSTATIC, n_elements=30, n_scene=60)
    sp = svd(op)
    _, images, _ = _images(op, [25], ("pinv", "mf"), 1, sp)
    for method in ("pinv", "mf"):
        assert int(np.argmax(np.abs(images[method][:, 0]))) == 25


def test_psf_translation_covariance():
    op = small_operator(MONOSTATIC, n_elements=30, n_scene=60)
    sp = svd(op)
    _, images, _ = _images(op, [20, 28, 40], ("pinv",), 1, sp)
    peaks = [int(i) for i in np.argmax(np.abs(images["pinv"]), axis=0)]
    assert abs(peaks[0] - 20) <= 1
    assert abs((peaks[1] - peaks[0]) - 8) <= 1
    assert abs((peaks[2] - peaks[1]) - 12) <= 1


def test_psf_oversampled_grid_and_peak():
    op = small_operator(MONOSTATIC, n_elements=30, n_scene=48)
    sp = svd(op)
    u_coarse, coarse, _ = _images(op, [24], ("pinv", "mf"), 1, sp)
    u_fine, fine, _ = _images(op, [24], ("pinv", "mf"), 4, sp)
    assert u_fine.size == 48 * 4
    for method in ("pinv", "mf"):
        # the fine grid interpolates the same band-limited image
        mag_coarse, mag_fine = np.abs(coarse[method][:, 0]), np.abs(fine[method][:, 0])
        assert abs(u_fine[np.argmax(mag_fine)] - u_coarse[np.argmax(mag_coarse)]) <= L2 / 48
        assert mag_fine.max() >= 0.95 * mag_coarse.max()


@pytest.mark.parametrize("architecture,n_elements", [(MONOSTATIC, 30), (MULTISTATIC, 12)])
def test_oversampled_psf_contains_the_grid_psf(architecture, n_elements):
    # every third sample of the 3x grid sits on an operator grid point, where
    # the fine image must equal the grid image
    op = small_operator(architecture, n_elements=n_elements, n_scene=48)
    sp = svd(op)
    u_coarse, coarse, _ = _images(op, [3, 24, 40], ("pinv", "mf"), 1, sp)
    u_fine, fine, _ = _images(op, [3, 24, 40], ("pinv", "mf"), 3, sp)
    np.testing.assert_allclose(u_fine[1::3], u_coarse, rtol=0, atol=1e-15)
    for method in ("pinv", "mf"):
        for j in range(3):
            peak = np.abs(coarse[method][:, j]).max()
            np.testing.assert_allclose(
                fine[method][1::3, j], coarse[method][:, j], rtol=0, atol=1e-12 * peak)


def _full_grid_images(op, idx, oversample):
    # the route of every operator that is not mirror-symmetric: the samples
    # idx alone, MF then PINV, imaged at every fine-grid point in one
    # adjoint_to_points call
    w, n, b = op.col_weight, op.scene_u.size, len(idx)
    coeffs = np.zeros((n, b))
    coeffs[idx, np.arange(b)] = math.sqrt(w) / w
    sp = svd(op, leading=True)
    columns = np.hstack([coeffs, _pinv_filter(sp, dof_knee(sp), coeffs)])
    u = op.scene.midpoints(n * oversample)
    stacked = adjoint_to_points(op, columns, op.scene.points(u))
    return u, {"mf": stacked[:, :b], "pinv": stacked[:, b:]}


def _tx_rx_operator(tx, rx):
    ap = Aperture.centered(L1, D)
    layout = ArrayLayout(MULTISTATIC, tx, rx, ap, L1 / tx.size, L1 / rx.size)
    return build_operator(SceneSegment(L2 / 2.0), layout, WaveContext(LAM), 40)


def _train(n):
    # n uniform elements centred on the aperture
    return ArrayLayout.uniform(Aperture.centered(L1, D), n, MULTISTATIC).tx_positions


_SYMMETRIC_OPERATORS = {
    "mono": lambda: small_operator(MONOSTATIC, n_elements=30, n_scene=40),
    "multi_shared": lambda: small_operator(MULTISTATIC, n_elements=12, n_scene=40),
    "tx_rx_trains": lambda: _tx_rx_operator(_train(12), _train(9)),
}

# on n_scene = 40: a mirror-closed set, and the three targets resolution_sweep
# places (n_targets = 3), whose mirrors 29, 19, 9 make a union of 6 columns
_TARGET_SETS = {"closed": [5, 14, 25, 34], "open": [10, 20, 30]}


@pytest.mark.parametrize("targets", sorted(_TARGET_SETS))
@pytest.mark.parametrize("oversample", [1, 3])
@pytest.mark.parametrize("layout", sorted(_SYMMETRIC_OPERATORS))
def test_half_grid_images_match_the_full_grid(layout, oversample, targets):
    op = _SYMMETRIC_OPERATORS[layout]()
    assert operator._factors_are_mirror_symmetric(op.factors)
    idx = _TARGET_SETS[targets]
    u, images, rank = _images(op, idx, ("pinv", "mf"), oversample)
    u_full, full = _full_grid_images(op, idx, oversample)
    np.testing.assert_array_equal(u, u_full)
    assert rank == dof_knee(svd(op, leading=True))
    for method in ("pinv", "mf"):
        assert images[method].shape == (40 * oversample, len(idx))
        # measured: at most 7.3e-14 of the column's peak on these layouts
        peak = np.abs(full[method]).max(axis=0)
        assert np.all(np.abs(images[method] - full[method]).max(axis=0) <= 1e-12 * peak)


_ASYMMETRIC_OPERATORS = {
    "shifted_mono": lambda: small_operator(MONOSTATIC, n_elements=30, n_scene=40, shift=0.03),
    "tilted_multi": lambda: small_operator(MULTISTATIC, n_elements=12, n_scene=40, theta=0.5),
    # the Tx train is mirror-symmetric, the Rx train (its first 9 elements) is not
    "one_side": lambda: _tx_rx_operator(_train(12), _train(12)[:9]),
}


@pytest.mark.parametrize("oversample", [1, 3])
@pytest.mark.parametrize("layout", sorted(_ASYMMETRIC_OPERATORS))
def test_asymmetric_operators_image_the_whole_grid_as_before(layout, oversample):
    op = _ASYMMETRIC_OPERATORS[layout]()
    assert not operator._factors_are_mirror_symmetric(op.factors)
    idx = _TARGET_SETS["open"]
    u, images, _ = _images(op, idx, ("pinv", "mf"), oversample)
    u_full, full = _full_grid_images(op, idx, oversample)
    np.testing.assert_array_equal(u, u_full)
    for method in ("pinv", "mf"):
        np.testing.assert_array_equal(images[method], full[method])


@pytest.mark.parametrize("n_scene, oversample", [(40, 4), (41, 3)])
@pytest.mark.parametrize("architecture", [MONOSTATIC, MULTISTATIC])
def test_symmetric_images_take_tables_at_half_the_fine_points(architecture, n_scene, oversample,
                                                              monkeypatch):
    op = small_operator(architecture, n_elements=12, n_scene=n_scene)
    points = []
    tables = operator._weighted_factors

    def counting(array, at, k):
        points.append(at.shape[0])
        return tables(array, at, k)

    monkeypatch.setattr(operator, "_weighted_factors", counting)
    _images(op, [3, n_scene // 2], ("pinv", "mf"), oversample)
    m = n_scene * oversample
    assert sum(points) == (m + 1) // 2


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
    return resolution_sweep(SceneSegment(L2 / 2), WaveContext(LAM), layout, **args)


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
    curve = resolution_sweep(scene, wave, layout, n_scene=40, n_targets=3, oversample=3)
    op = build_operator(scene, layout, wave, 40)
    idx = np.searchsorted(op.scene_u, curve.positions)
    np.testing.assert_array_equal(op.scene_u[idx], curve.positions)
    # each target imaged on its own: the sweep's batch does not change a column
    for j, i in enumerate(idx):
        coords, images, _ = _images(op, [i], ("pinv", "mf"), 3)
        np.testing.assert_array_equal(coords, curve.profile_coords)
        for method in ("pinv", "mf"):
            np.testing.assert_allclose(
                images[method][:, 0], curve.profiles[method][:, j], rtol=1e-12)


@pytest.mark.parametrize("architecture", [MONOSTATIC, MULTISTATIC])
def test_pinv_psfs_take_only_the_leading_triplets(architecture, monkeypatch):
    # the nominal configuration: the direct SVD (mono) or n x n eigh (multi)
    # of svd(op) would decompose the whole spectrum for a knee of about 30
    layout = ArrayLayout.uniform(Aperture.centered(L1, D), 200, architecture)
    scene, wave, n = SceneSegment(L2 / 2), WaveContext(LAM), 400
    op = build_operator(scene, layout, wave, n)
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counting(a, *args, _name=name, _true=getattr(np.linalg, name), **kwargs):
            calls.append((_name, a.shape))
            return _true(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    resolution_sweep(scene, wave, layout, n_scene=n, n_targets=3, oversample=2)
    _images(op, [n // 2], ("pinv",), 1)
    assert calls and all(name == "eigh" and shape[0] < n for name, shape in calls), calls
    # matched filtering alone takes no spectrum at all
    calls.clear()
    resolution_sweep(scene, wave, layout, methods=("mf",), n_scene=n, n_targets=3, oversample=2)
    assert calls == []


def test_multistatic_analysis_memory_does_not_scale_as_n_squared_times_n():
    # the dense 300^2 x 400 complex operator alone would be 549 MiB
    ap = Aperture.centered(L1, D)
    layout = ArrayLayout.uniform(ap, 300, MULTISTATIC)
    scene, wave = SceneSegment(L2 / 2), WaveContext(LAM)
    tracemalloc.start()
    try:
        svd(build_operator(scene, layout, wave, 400))
        resolution_sweep(scene, wave, layout, n_scene=400, n_targets=5, oversample=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20




def test_resolution_sweep_rejects_unknown_or_no_methods():
    with pytest.raises(ValueError, match="unknown method 'cs'"):
        _sweep(methods=("pinv", "cs"))
    with pytest.raises(ValueError, match="need at least one method"):
        _sweep(methods=())
    with pytest.raises(ValueError, match="n_targets must be >= 1"):
        _sweep(n_targets=0)
    with pytest.raises(ValueError, match="oversample must be >= 1"):
        _sweep(oversample=0)


def test_resolution_curve_validation():
    base = dict(
        positions=np.array([0.0, 0.01]),
        reciprocal_bandwidth=np.array([1.0, 1.0]),
        grid_spacing=0.01,
        profiles={"mf": np.ones((3, 2))},
        profile_coords=np.array([-0.01, 0.0, 0.01]),
    )
    with pytest.raises(ValueError):
        ResolutionCurve(widths={"mf": np.array([-1.0, 0.02])}, **base)
    with pytest.raises(ValueError):
        # a width below the sampling limit cannot be trusted
        ResolutionCurve(widths={"mf": np.array([0.02, 0.001])}, **base)
    # flagged (NaN) entries are exempt, and flagged is read off the widths
    widths = {"mf": np.array([np.nan, 0.02])}
    curve = ResolutionCurve(widths=widths, **base)
    np.testing.assert_array_equal(curve.flagged["mf"], np.isnan(widths["mf"]))
    assert curve.flagged["mf"].dtype == bool
