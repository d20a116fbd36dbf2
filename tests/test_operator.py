import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aperture_dof import (
    MONOSTATIC,
    MULTISTATIC,
    Aperture,
    ArrayLayout,
    SceneSegment,
    SvdSpectrum,
    WaveContext,
    build_operator,
    dof_knee,
    left_vectors,
    reconstruct_pinv,
    sigma_bar,
    sigma_bar_sq,
    svd,
)
from aperture_dof.operator import (
    _MIRROR_ROWS,
    _POINT_BLOCK,
    _RITZ_FLOOR,
    _RITZ_START,
    _factored_gram,
    _is_mirror_symmetric,
    _mirror_blocks,
    _one_way_phases,
    _spectrum,
    adjoint_to_points,
)

from conftest import LAM, L1, L2, D, small_operator, random_gamma


def test_uniform_layout_midpoint_grid():
    ap = Aperture.centered(0.15, 0.2)
    layout = ArrayLayout.uniform(ap, 4, MONOSTATIC)
    np.testing.assert_allclose(
        layout.tx_positions, [-0.075 + 0.0375 * (i + 0.5) for i in range(4)]
    )
    assert layout.tx_weight == pytest.approx(0.15 / 4)
    scene, wave = SceneSegment(L2 / 2), WaveContext(LAM)
    assert build_operator(scene, layout, wave, 4).shape == (4, 4)
    assert build_operator(scene, ArrayLayout.uniform(ap, 4, MULTISTATIC), wave, 4).shape == (16, 4)


def test_layout_validation():
    ap = Aperture.centered(0.15, 0.2)
    with pytest.raises(ValueError):
        ArrayLayout(MONOSTATIC, [0.2], [0.2], ap, 0.01, 0.01)  # outside aperture
    with pytest.raises(ValueError):
        ArrayLayout(MONOSTATIC, [0.0], [0.01], ap, 0.01, 0.01)  # tx != rx
    with pytest.raises(ValueError):
        ArrayLayout(MULTISTATIC, [0.0], [0.01], ap, 0.0, 0.01)  # zero weight
    with pytest.raises(ValueError):
        ArrayLayout("bistatic", [0.0], [0.0], ap, 0.01, 0.01)
    # asymmetric multistatic layouts are legal
    ArrayLayout(MULTISTATIC, [0.0, 0.02], [0.01], ap, 0.01, 0.01)


def test_operator_entries_have_quadrature_magnitude():
    op = small_operator(MONOSTATIC, n_elements=8, n_scene=12)
    expected = math.sqrt(op.row_weight * op.col_weight)
    np.testing.assert_allclose(np.abs(op.matrix), expected, rtol=1e-12)


def test_operator_entry_phase_matches_round_trip_path():
    op = small_operator(MONOSTATIC, n_elements=8, n_scene=12)
    x = op.array.tx_positions[3]
    p = op.scene.points(op.scene_u)[5]
    r = math.hypot(x - p[0], p[1] + D)
    expected = np.exp(-2j * op.wave.k * r) * math.sqrt(
        op.row_weight * op.col_weight
    )
    assert op.matrix[3, 5] == pytest.approx(expected, rel=1e-12)


def test_multistatic_rows_are_row_major_pairs():
    op = small_operator(MULTISTATIC, n_elements=3, n_scene=10)
    tx = op.array.tx_positions
    rx = op.array.rx_positions
    row = 1 * rx.size + 2  # pair (tx[1], rx[2])
    p = op.scene.points(op.scene_u)[4]
    k = op.wave.k
    r_tx = math.hypot(tx[1] - p[0], p[1] + D)
    r_rx = math.hypot(rx[2] - p[0], p[1] + D)
    expected = np.exp(-1j * k * (r_tx + r_rx)) * math.sqrt(
        op.row_weight * op.col_weight
    )
    assert op.matrix[row, 4] == pytest.approx(expected, rel=1e-12)


def test_forward_matches_matrix_action():
    rng = np.random.default_rng(7)
    op = small_operator(MONOSTATIC, n_elements=10, n_scene=14)
    gamma = random_gamma(rng, 14)
    s = op.forward(gamma)
    manual = (op.matrix @ (math.sqrt(op.col_weight) * gamma)) / np.sqrt(op.row_weight)
    np.testing.assert_allclose(s, manual, rtol=1e-12)
    np.testing.assert_allclose(op.weight_data(s), op.matrix @ (math.sqrt(op.col_weight) * gamma), rtol=1e-12)


def test_scene_behind_aperture_rejected():
    ap = Aperture.centered(0.15, 0.05)
    layout = ArrayLayout.uniform(ap, 4, MONOSTATIC)
    scene = SceneSegment(0.10, 0.5 * math.pi)  # along range, reaches z = -0.10
    with pytest.raises(ValueError):
        build_operator(scene, layout, WaveContext(LAM), 20)


def test_hs_norm_is_exact_for_unit_modulus_kernels():
    # |entry|^2 = w_row * w_col, so the squared norm telescopes to the
    # product of domain lengths regardless of geometry
    mono = small_operator(MONOSTATIC, n_elements=20, n_scene=30)
    assert svd(mono).hs_norm_sq == pytest.approx(L1 * L2, rel=1e-12)
    multi = small_operator(MULTISTATIC, n_elements=12, n_scene=30)
    assert svd(multi).hs_norm_sq == pytest.approx(L1 * L1 * L2, rel=1e-12)


def test_gram_route_norm_is_measured_from_the_factors():
    # the Gram route reads the norm off the trace of the factored Gram: it
    # equals the dense norm, and a factor that lost its sqrt(weight) moves
    # it by exactly that weight instead of leaving the analytic value
    op = small_operator(MULTISTATIC, n_elements=12, n_scene=30)
    assert op.shape[0] > 4 * op.shape[1]  # Gram route taken
    dense = op.matrix
    hs = svd(op).hs_norm_sq
    assert hs == pytest.approx(np.vdot(dense, dense).real, rel=1e-12)
    t, r = op.factors
    rx_weight = op.array.rx_weight
    broken = op._replace(factors=(t, r / math.sqrt(rx_weight)))
    assert svd(broken).hs_norm_sq == pytest.approx(hs / rx_weight, rel=1e-12)


@pytest.mark.parametrize("theta,shift", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.12), (0.9, -0.1)])
def test_hs_norm_invariant_under_scene_motion(theta, shift):
    op = small_operator(MONOSTATIC, n_elements=16, n_scene=24, theta=theta, shift=shift)
    assert svd(op).hs_norm_sq == pytest.approx(L1 * L2, rel=1e-12)


def test_sum_rule():
    for arch in (MONOSTATIC, MULTISTATIC):
        sp = svd(small_operator(arch, n_elements=10, n_scene=25))
        total = float(np.sum(sp.singular_values**2))
        assert total == pytest.approx(sp.hs_norm_sq, rel=1e-10)


def test_gram_route_matches_dense_svd():
    # multistatic operators go through the factored Gram; the dense SVD of
    # the assembled matrix is the oracle
    op = small_operator(MULTISTATIC, n_elements=12, n_scene=30)
    assert op.matrix.shape[0] > 4 * op.matrix.shape[1]  # Gram route taken
    sig_gram = svd(op).singular_values
    sig_dense = np.linalg.svd(op.matrix, compute_uv=False)
    np.testing.assert_allclose(sig_gram, sig_dense, rtol=0, atol=1e-9 * sig_dense[0])



def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _nominal_phase_inputs(n_elements=200, n_scene=400):
    aperture = Aperture.centered(L1, D)
    layout = ArrayLayout.uniform(aperture, n_elements, MULTISTATIC)
    scene = SceneSegment(L2 / 2.0)
    points = scene.points(scene.midpoints(n_scene))
    return layout.tx_positions, points, aperture.z_plane, WaveContext(LAM).k


@pytest.mark.parametrize("kernel", ["exact", "fresnel"])
def test_one_way_phases_match_their_expressions_bit_for_bit(kernel):
    positions, points, z_plane, k = _nominal_phase_inputs(n_elements=37, n_scene=53)
    dx = positions[:, None] - points[None, :, 0]
    dz = points[None, :, 1] - z_plane
    if kernel == "exact":
        expected = np.exp(-1j * k * np.hypot(dx, dz))
    else:
        expected = np.exp(-1j * (k * dz + k / (2.0 * dz) * dx ** 2))
    np.testing.assert_array_equal(_one_way_phases(positions, points, z_plane, k, kernel),
                                  expected)


def test_one_way_phases_reject_an_unknown_kernel():
    positions, points, z_plane, k = _nominal_phase_inputs(n_elements=4, n_scene=5)
    with pytest.raises(ValueError, match="unknown kernel 'paraxial'"):
        _one_way_phases(positions, points, z_plane, k, kernel="paraxial")


@pytest.mark.parametrize("kernel", ["exact", "fresnel"])
def test_one_way_phases_hold_the_table_and_one_real_table(kernel):
    # N = 200, n = 400: the complex table is 1.2 MiB; building it through
    # separate real and complex temporaries peaks near 3.1 MiB
    positions, points, z_plane, k = _nominal_phase_inputs()
    cells = positions.size * points.shape[0]
    peak = _traced_peak(_one_way_phases, positions, points, z_plane, k, kernel)
    assert peak <= 1.1 * (16 * cells + 8 * cells)


def test_factored_gram_holds_the_gram_and_one_conjugated_factor():
    # a separate one-way Gram, weighted product and symmetrized copy take
    # a shared-table Gram at N = 200, n = 400 to about 9.9 MiB
    op = small_operator(MULTISTATIC, n_elements=200, n_scene=400)
    t, r = op.factors
    assert t is r
    peak = _traced_peak(_factored_gram, t, r, op.col_weight)
    assert peak <= 1.1 * (16 * 400 * 400 + t.nbytes)


def _gram_operator(n_tx, n_rx, n_scene=48):
    layout = ArrayLayout(MULTISTATIC, np.linspace(-0.07, 0.07, n_tx),
                         np.linspace(-0.06, 0.07, n_rx), Aperture.centered(L1, D),
                         L1 / n_tx, L1 / n_rx)
    return build_operator(SceneSegment(L2 / 2.0), layout, WaveContext(LAM), n_scene)


@pytest.mark.parametrize("n_tx,n_rx", [(24, 24), (9, 13)])
def test_factored_gram_spectrum_reads_only_the_lower_triangle(n_tx, n_rx):
    # the Gram is returned without 0.5 (G + G^H): eigvalsh reads its lower
    # triangle, and the trace its real diagonal, so both are unchanged
    op = _gram_operator(n_tx, n_rx)
    gram = _factored_gram(*op.factors, op.col_weight)
    symmetric = 0.5 * (gram + gram.conj().T)
    np.testing.assert_array_equal(np.linalg.eigvalsh(gram), np.linalg.eigvalsh(symmetric))
    assert np.trace(gram).real == np.trace(symmetric).real


@pytest.mark.parametrize("n_tx,n_rx", [(24, 24), (9, 13)])
def test_factored_gram_weights_by_two_square_root_multiplies(n_tx, n_rx):
    # the scalar cell width goes in as a per-column weight vector would, as
    # sqrt(w_i) on the rows and then sqrt(w_j) on the columns: the same
    # bits, which one multiply by du would not give
    n = 48
    op = _gram_operator(n_tx, n_rx, n)
    du = L2 / n
    t, r = op.factors
    root_w = np.sqrt(np.full(n, du))
    expected = (t.conj().T @ t) * (r.conj().T @ r)
    expected *= root_w[:, None]
    expected *= root_w[None, :]
    np.testing.assert_array_equal(_factored_gram(t, r, du), expected)


def test_gram_route_keeps_the_argsort_column_order():
    # eigh's ascending output reversed by a view, not an argsort copy: the
    # singular values and vectors of a nominal multistatic operator are
    # those of the sorted decomposition, bit for bit
    op = small_operator(MULTISTATIC, n_elements=200, n_scene=400)
    evals, evecs = np.linalg.eigh(_factored_gram(*op.factors, op.col_weight))
    order = np.argsort(evals)[::-1]
    spectrum = svd(op)
    np.testing.assert_array_equal(spectrum.singular_values,
                                  np.sqrt(np.clip(evals[order], 0.0, None)))
    np.testing.assert_array_equal(spectrum.right_vectors, evecs[:, order])

def test_tall_monostatic_spectrum_matches_dense_svd():
    # a tall monostatic matrix has no one-way factors to build a Gram from;
    # its spectrum must be as accurate as a direct SVD
    op = small_operator(MONOSTATIC, n_elements=200, n_scene=40)
    assert len(op.factors) == 1 and op.matrix.shape[0] > 4 * op.matrix.shape[1]
    sig_dense = np.linalg.svd(op.matrix, compute_uv=False)
    np.testing.assert_allclose(
        svd(op).singular_values, sig_dense, rtol=0, atol=1e-12 * sig_dense[0])


def test_single_tx_collapse_matches_brute_force():
    # one transmitter, many receivers: compare against an explicitly
    # assembled single-view operator
    ap = Aperture.centered(L1, D)
    wave = WaveContext(LAM)
    rx = ap.a1 + (np.arange(9) + 0.5) * (L1 / 9)
    layout = ArrayLayout(MULTISTATIC, [0.01], rx, ap, L1, L1 / 9)
    scene = SceneSegment(L2 / 2)
    op = build_operator(scene, layout, wave, 30)

    du = L2 / 30
    u = -L2 / 2 + (np.arange(30) + 0.5) * du
    brute = np.empty((9, 30), dtype=complex)
    for i in range(9):
        for c in range(30):
            r = math.hypot(0.01 - u[c], D) + math.hypot(rx[i] - u[c], D)
            brute[i, c] = np.exp(-1j * wave.k * r) * math.sqrt(L1 * (L1 / 9) * du)
    sig_brute = np.linalg.svd(brute, compute_uv=False)
    sig_op = svd(op).singular_values
    np.testing.assert_allclose(sig_op, sig_brute, rtol=0, atol=1e-9 * sig_brute[0])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_column_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    op = small_operator(MONOSTATIC, n_elements=10, n_scene=18)
    perm = rng.permutation(18)
    shuffled = op._replace(factors=tuple(f[:, perm] for f in op.factors))
    np.testing.assert_allclose(
        svd(shuffled).singular_values,
        svd(op).singular_values,
        rtol=0,
        atol=1e-10 * svd(op).singular_values[0],
    )


@pytest.mark.parametrize("arch,n_el", [(MONOSTATIC, 200), (MULTISTATIC, 64)])
def test_sigma_bar_sq_converged_in_scene_sampling(arch, n_el):
    # doubling the scene grid must not move the spectrum summary: the
    # published-value regressions rely on n_scene = 400 being converged
    vals = []
    for n_scene in (400, 800):
        sp = svd(small_operator(arch, n_elements=n_el, n_scene=n_scene))
        vals.append(sigma_bar_sq(sp))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.01


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SvdSpectrum(np.array([1.0, 2.0]), None, 5.0)  # increasing
    with pytest.raises(ValueError):
        SvdSpectrum(np.array([1.0, -0.5]), None, 1.25)  # negative
    with pytest.raises(ValueError):
        SvdSpectrum(np.array([1.0, 0.5]), None, 2.0)  # sum rule broken
    with pytest.raises(ValueError):
        SvdSpectrum(np.array([]), None, 0.0)


def test_dof_knee_on_synthetic_spectrum():
    sig = np.array([1.0, 0.5, 0.3, 0.1, 0.01])
    sp = SvdSpectrum(sig, None, float(np.sum(sig**2)))
    assert dof_knee(sp) == 3  # first below 10^(-10/20) ~ 0.3162
    assert dof_knee(sp, drop_db=-25.0) == 5
    assert dof_knee(sp, drop_db=-40.0) == 5  # 0.01 is not strictly below 0.01
    assert dof_knee(sp, drop_db=-60.0) == 5  # nothing below: full length


def test_sigma_bar_and_sq_on_synthetic_spectrum():
    sig = np.array([2.0, 1.0, 0.5])
    sp = SvdSpectrum(sig, None, float(np.sum(sig**2)))
    assert sigma_bar(sp) == pytest.approx(1.0 + 0.5 + 0.25)
    assert sigma_bar_sq(sp) == pytest.approx(1.0 + 0.25 + 0.0625)


@pytest.mark.parametrize("arch,n_elements,n_scene", [
    (MONOSTATIC, 24, 48),
    (MONOSTATIC, 200, 40),    # tall monostatic: still a direct SVD
    (MULTISTATIC, 24, 48),    # 576 rows > 4 * 48: factored Gram route
    (MULTISTATIC, 6, 48),     # 36 rows: direct SVD of the small matrix
])
def test_values_only_svd_matches_the_full_decomposition(arch, n_elements, n_scene):
    op = small_operator(arch, n_elements=n_elements, n_scene=n_scene)
    full, values = svd(op), svd(op, vectors=False)
    assert values.hs_norm_sq == full.hs_norm_sq
    assert values.right_vectors is None
    s = full.singular_values
    if arch == MONOSTATIC:
        np.testing.assert_allclose(values.singular_values, s, rtol=0, atol=1e-12 * s[0])
    else:
        # eigvalsh and eigh round differently; compare above the Gram floor
        keep = s >= 1e-6 * s[0]
        np.testing.assert_allclose(
            values.singular_values[keep], s[keep], rtol=1e-5, atol=1e-9 * s[0])
    with pytest.raises(ValueError):
        left_vectors(op, values, 3)
    data = op.forward(random_gamma(np.random.default_rng(0), n_scene))
    with pytest.raises(ValueError):
        reconstruct_pinv(op, data, 3, spectrum=values)


def _general_route(op):
    """The values-only spectrum of op as _spectrum takes it without the
    mirror split: eigvalsh of the factored Gram for a tall multistatic
    operator, the values-only SVD of the dense matrix otherwise."""
    if len(op.factors) == 2 and op.shape[0] > 4 * op.shape[1]:
        evals = np.linalg.eigvalsh(_factored_gram(*op.factors, op.col_weight))
        return np.sqrt(np.clip(evals[::-1], 0.0, None))
    return np.linalg.svd(op.matrix, compute_uv=False)


@pytest.mark.parametrize("m, n", [(10, 8), (11, 8), (10, 9), (11, 9)])
def test_mirror_split_matches_the_whole_solve(m, n, mirror_splits):
    # a random centrosymmetric (m, n), all four parity combinations: its even
    # block is ceil x ceil, its odd one floor x floor, and together they
    # hold the values of the whole matrix on both values-only routes
    rng = np.random.default_rng(m * n)
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    a += a[::-1, ::-1].copy()
    even, odd = _mirror_blocks(a)
    assert even.shape == ((m + 1) // 2, (n + 1) // 2)
    assert odd.shape == (m // 2, n // 2)
    whole = np.linalg.svd(a, compute_uv=False)
    split = _spectrum((a,), 1.0, vectors=False).singular_values
    np.testing.assert_allclose(split, whole, rtol=0, atol=1e-14 * whole[0])
    # (a, a): a Khatri-Rao product of m^2 > 4 n rows, whose n x n Gram splits
    whole = np.sqrt(np.linalg.eigvalsh(_factored_gram(a, a, 1.0))[::-1])
    split = _spectrum((a, a), 1.0, vectors=False).singular_values
    np.testing.assert_allclose(split, whole, rtol=0, atol=1e-14 * whole[0])
    assert mirror_splits == [(m, n), (n, n)]


def _mirrored_tx_rx_operator(n_tx, n_rx, n_scene):
    # distinct Tx and Rx tables, each a uniform train centred on the aperture
    ap = Aperture.centered(L1, D)
    tx, rx = (ArrayLayout.uniform(ap, n, MULTISTATIC).tx_positions for n in (n_tx, n_rx))
    layout = ArrayLayout(MULTISTATIC, tx, rx, ap, L1 / n_tx, L1 / n_rx)
    return build_operator(SceneSegment(L2 / 2.0), layout, WaveContext(LAM), n_scene)


_MIRRORED_LAYOUTS = {
    "mono": (lambda: small_operator(MONOSTATIC, n_elements=24, n_scene=47), (24, 47)),
    "multi_shared": (lambda: small_operator(MULTISTATIC, n_elements=12, n_scene=30), (30, 30)),
    "tx_rx_direct": (lambda: _mirrored_tx_rx_operator(6, 5, 16), (30, 16)),
    "tx_rx_gram": (lambda: _mirrored_tx_rx_operator(12, 9, 15), (15, 15)),
}


@pytest.mark.parametrize("layout", sorted(_MIRRORED_LAYOUTS))
def test_mirror_symmetric_operators_split_and_match_a_dense_svd(layout, mirror_splits):
    build, split_shape = _MIRRORED_LAYOUTS[layout]
    op = build()
    values = svd(op, vectors=False)
    assert mirror_splits == [split_shape]
    dense = np.linalg.svd(op.matrix, compute_uv=False)
    assert values.singular_values.size == dense.size
    np.testing.assert_allclose(values.singular_values ** 2, dense ** 2,
                               rtol=0, atol=1e-13 * dense[0] ** 2)
    assert values.hs_norm_sq == svd(op).hs_norm_sq
    # the vector routes never split
    svd(op)
    svd(op, leading=True)
    assert len(mirror_splits) == 1


def _criterion_8_operator(n_scene):
    # off-centre lattice trains like acceptance criterion 8's
    rng = np.random.default_rng(50)
    tx, rx = (np.unique(rng.integers(-30, 31, 9)) * 0.0025 for _ in range(2))
    layout = ArrayLayout(MULTISTATIC, tx, rx, Aperture.centered(L1, 1.0),
                         L1 / tx.size, L1 / rx.size)
    return build_operator(SceneSegment(L2 / 2.0), layout, WaveContext(LAM), n_scene)


_ASYMMETRIC_LAYOUTS = {
    "trains_direct": lambda: _criterion_8_operator(40),
    "trains_gram": lambda: _criterion_8_operator(12),
    "shifted_mono": lambda: small_operator(MONOSTATIC, n_elements=24, n_scene=48, shift=0.03),
    "shifted_multi": lambda: small_operator(MULTISTATIC, n_elements=12, n_scene=30, shift=0.03),
    "tilted_mono": lambda: small_operator(MONOSTATIC, n_elements=24, n_scene=48, theta=0.5),
    "tilted_multi": lambda: small_operator(MULTISTATIC, n_elements=12, n_scene=30, theta=0.5),
}


@pytest.mark.parametrize("layout", sorted(_ASYMMETRIC_LAYOUTS))
def test_asymmetric_operators_take_the_general_route(layout, mirror_splits):
    op = _ASYMMETRIC_LAYOUTS[layout]()
    values = svd(op, vectors=False)
    assert mirror_splits == []
    np.testing.assert_array_equal(values.singular_values, _general_route(op))


def test_mirror_detection_and_blocks_allocate_no_full_size_array():
    f = small_operator(MULTISTATIC, n_elements=200, n_scene=400).factors[0]
    assert _is_mirror_symmetric(f)
    assert _traced_peak(_is_mirror_symmetric, f) < 3 * _MIRROR_ROWS * f[0].nbytes
    # three quarter-size arrays: the quadrant sums and the even block
    gram = _factored_gram(f, f, 1.0)
    assert _traced_peak(_mirror_blocks, gram) < 0.8 * gram.nbytes


def test_left_vectors_orthonormal_and_consistent():
    op = small_operator(MONOSTATIC, n_elements=14, n_scene=20)
    sp = svd(op)
    u = left_vectors(op, sp, 6)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-10)
    # A v_i = sigma_i u_i
    av = op.matrix @ sp.right_vectors[:, :6]
    np.testing.assert_allclose(av, u * sp.singular_values[:6], atol=1e-12)


def test_adjoint_to_points_factored_route_matches_dense():
    rng = np.random.default_rng(3)
    op = small_operator(MULTISTATIC, n_elements=7, n_scene=16)
    assert len(op.factors) == 2
    pts = op.scene.points(np.linspace(-0.04, 0.04, 11))
    coeffs = np.stack([random_gamma(rng, 16) for _ in range(2)], axis=1)
    got = adjoint_to_points(op, coeffs, pts)

    # dense oracle straight from the pair kernel, applied to the data A c
    k = op.wave.k
    tx, rx = op.array.tx_positions, op.array.rx_positions
    kern = np.empty((op.matrix.shape[0], 11), dtype=complex)
    for m, (xt, xr) in enumerate(zip(np.repeat(tx, rx.size), np.tile(rx, tx.size))):
        for q, (xp, zp) in enumerate(pts):
            r = math.hypot(xt - xp, zp + D) + math.hypot(xr - xp, zp + D)
            kern[m, q] = np.exp(-1j * k * r) * math.sqrt(op.row_weight)
    expected = kern.conj().T @ (op.matrix @ coeffs)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.abs(expected).max())


def test_adjoint_to_points_factored_route_non_square():
    # 5 Tx and 3 Rx at distinct positions and weights make the (i, j) sum
    # asymmetric, so a Tx/Rx axis swap fails
    rng = np.random.default_rng(5)
    ap = Aperture.centered(L1, D)
    tx = np.array([-0.07, -0.04, 0.0, 0.03, 0.065])
    rx = np.array([-0.05, 0.01, 0.06])
    layout = ArrayLayout(MULTISTATIC, tx, rx, ap, 0.03, 0.05)
    op = build_operator(SceneSegment(L2 / 2.0), layout, WaveContext(LAM), 16)
    assert len(op.factors) == 2 and op.matrix.shape[0] == 15
    pts = op.scene.points(np.linspace(-0.04, 0.04, 11))
    coeffs = np.stack([random_gamma(rng, 16) for _ in range(5)], axis=1)
    got = adjoint_to_points(op, coeffs, pts)

    # dense oracle straight from the pair kernel, applied to the data A c
    k = op.wave.k
    z = ap.z_plane
    kern = np.empty((15, 11), dtype=complex)
    for m, (xt, xr) in enumerate(zip(np.repeat(tx, rx.size), np.tile(rx, tx.size))):
        for q, (xp, zp) in enumerate(pts):
            r = math.hypot(xt - xp, zp - z) + math.hypot(xr - xp, zp - z)
            kern[m, q] = np.exp(-1j * k * r) * math.sqrt(op.row_weight)
    expected = kern.conj().T @ (op.matrix @ coeffs)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    # the grid back-projection reads the same factors
    v = np.stack([random_gamma(rng, 15) for _ in range(5)], axis=1)
    expected = op.matrix.conj().T @ v
    np.testing.assert_allclose(
        op.adjoint(v), expected, rtol=0, atol=1e-10 * np.abs(expected).max())


def _distinct_tx_rx_operator():
    # the 5 Tx / 3 Rx layout of test_adjoint_to_points_factored_route_non_square
    layout = ArrayLayout(MULTISTATIC, np.array([-0.07, -0.04, 0.0, 0.03, 0.065]),
                         np.array([-0.05, 0.01, 0.06]), Aperture.centered(L1, D), 0.03, 0.05)
    return build_operator(SceneSegment(L2 / 2.0), layout, WaveContext(LAM), 16)


_BLOCK_LAYOUTS = {
    "mono": lambda: small_operator(MONOSTATIC, n_elements=12, n_scene=18),
    "multi": lambda: small_operator(MULTISTATIC, n_elements=7, n_scene=16),
    "distinct_tx_rx": _distinct_tx_rx_operator,
}


@pytest.mark.parametrize("layout", sorted(_BLOCK_LAYOUTS))
# within one block, whole blocks only, and whole blocks plus a one-point tail
@pytest.mark.parametrize("m", [37, 2 * _POINT_BLOCK, 4 * _POINT_BLOCK + 1])
def test_adjoint_to_points_blocks_match_the_pair_kernel(layout, m):
    rng = np.random.default_rng(m)
    op = _BLOCK_LAYOUTS[layout]()
    pts = op.scene.points(np.linspace(-0.045, 0.045, m))
    n = op.scene_u.size
    coeffs = np.stack([random_gamma(rng, n) for _ in range(3)], axis=1)
    got = adjoint_to_points(op, coeffs, pts)
    assert got.shape == (m, 3)
    column = adjoint_to_points(op, coeffs[:, 1], pts)
    assert column.shape == (m,)
    np.testing.assert_allclose(column, got[:, 1], rtol=0, atol=1e-12 * np.abs(got).max())

    # dense oracle straight from the pair kernel, applied to the data A c
    tx, rx = op.array.tx_positions, op.array.rx_positions
    if op.array.architecture == MONOSTATIC:
        x_tx, x_rx = tx, tx
    else:
        x_tx, x_rx = np.repeat(tx, rx.size), np.tile(rx, tx.size)
    depth = pts[None, :, 1] - op.array.aperture.z_plane
    r = np.hypot(x_tx[:, None] - pts[None, :, 0], depth) \
        + np.hypot(x_rx[:, None] - pts[None, :, 0], depth)
    kern = np.exp(-1j * op.wave.k * r) * math.sqrt(op.row_weight)
    expected = kern.conj().T @ (op.matrix @ coeffs)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.abs(expected).max())


@pytest.mark.parametrize("layout,tables", [("mono", 1), ("multi", 1), ("distinct_tx_rx", 2)])
def test_adjoint_to_points_evaluates_one_way_tables_per_block(layout, tables, monkeypatch):
    # a uniform layout's Tx and Rx coincide: one phase table per block, held
    # once by the operator; distinct Tx and Rx need one table each
    op = _BLOCK_LAYOUTS[layout]()
    shared = len(op.factors) == 2 and op.factors[1] is op.factors[0]
    assert shared == (layout == "multi")
    calls = []

    def counting(positions, points, *args, **kwargs):
        calls.append(points.shape[0])
        return _one_way_phases(positions, points, *args, **kwargs)

    monkeypatch.setattr("aperture_dof.operator._one_way_phases", counting)
    pts = op.scene.points(np.linspace(-0.045, 0.045, 2 * _POINT_BLOCK + 1))
    coeffs = np.ones((op.scene_u.size, 2))
    got = adjoint_to_points(op, coeffs, pts)
    blocks = [_POINT_BLOCK, _POINT_BLOCK, 1]
    assert calls == [b for b in blocks for _ in range(tables)]

    if shared:
        # the squared shared product is the product of two equal tables
        t = op.factors[0]
        copied = op._replace(factors=(t, t.copy()))
        np.testing.assert_array_equal(adjoint_to_points(copied, coeffs, pts), got)
        np.testing.assert_array_equal(svd(copied).singular_values, svd(op).singular_values)


def test_adjoint_to_points_memory_does_not_scale_with_points_times_elements():
    # one (m, N) table per factor at m = 6400, N = 200 is 20 MiB, and an
    # (m, n) cross-Gram at n = 400 another 39 MiB
    op = small_operator(MULTISTATIC, n_elements=200, n_scene=400)
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal((400, 42)) + 1j * rng.standard_normal((400, 42))
    pts = op.scene.points(op.scene.midpoints(6400))
    tracemalloc.start()
    try:
        adjoint_to_points(op, coeffs, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_adjoint_to_points_on_grid_matches_matrix_adjoint():
    rng = np.random.default_rng(4)
    op = small_operator(MONOSTATIC, n_elements=12, n_scene=18)
    c = random_gamma(rng, 18)
    got = adjoint_to_points(op, c, op.scene.points(op.scene_u))
    expected = (op.matrix.conj().T @ (op.matrix @ c)) / math.sqrt(op.col_weight)
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def _column_gram(op):
    """The weighted operator's Hermitian column Gram: from the dense matrix
    for one factor, from the lower triangle of the factored Gram for two."""
    if len(op.factors) == 1:
        m = op.matrix
        return m.conj().T @ m
    g = _factored_gram(*op.factors, op.col_weight)
    return np.tril(g) + np.tril(g, -1).conj().T


def _assert_leading_matches_full(op, lead):
    """The leading spectrum agrees with svd(op) up to its -10 dB knee: the
    values, the projector on the kept vectors, and the Gram residual."""
    full = svd(op)
    r = dof_knee(full)
    assert dof_knee(lead) == r
    s, s1 = lead.singular_values, full.singular_values[0]
    assert r <= s.size <= min(op.shape)
    assert lead.right_vectors.shape == (op.shape[1], s.size)
    assert lead.hs_norm_sq == pytest.approx(full.hs_norm_sq, rel=1e-13)
    np.testing.assert_allclose(s[:r], full.singular_values[:r], rtol=0, atol=1e-13 * s1)
    v, v_full = lead.right_vectors[:, :r], full.right_vectors[:, :r]
    np.testing.assert_allclose(v @ v.conj().T, v_full @ v_full.conj().T, rtol=0, atol=1e-13)
    lam = s[:r] ** 2
    assert np.linalg.norm(_column_gram(op) @ v - v * lam, 2) <= 1e-13 * lam[0]


_LEADING_LAYOUTS = {
    **_BLOCK_LAYOUTS,
    # the nominal configuration at its shipped size, knees 30 and 27
    "mono_nominal": lambda: small_operator(MONOSTATIC, n_elements=200, n_scene=400),
    "multi_nominal": lambda: small_operator(MULTISTATIC, n_elements=200, n_scene=400),
}


@pytest.mark.parametrize("layout", sorted(_LEADING_LAYOUTS))
def test_leading_svd_matches_the_full_spectrum_to_the_knee(layout):
    op = _LEADING_LAYOUTS[layout]()
    _assert_leading_matches_full(op, svd(op, leading=True))


def _ritz_sizes(monkeypatch):
    """Records the size of every matrix np.linalg.eigh decomposes."""
    sizes, true_eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return true_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


@pytest.mark.parametrize("start,half_length,expected", [
    # nominal mono, knee 30: 32 Ritz values stop at 1.2e-3 of the largest
    (32, L2 / 2.0, [32, 64]),
    # a 25 cm scene, knee 64: the first sample reaches only 4e-2
    (_RITZ_START, 0.125, [64, 128]),
])
def test_leading_svd_doubles_the_sample_until_the_floor(start, half_length, expected, monkeypatch):
    monkeypatch.setattr("aperture_dof.operator._RITZ_START", start)
    layout = ArrayLayout.uniform(Aperture.centered(L1, D), 200, MONOSTATIC)
    op = build_operator(SceneSegment(half_length), layout, WaveContext(LAM), 400)
    sizes = _ritz_sizes(monkeypatch)
    lead = svd(op, leading=True)
    assert sizes == expected
    s = lead.singular_values
    assert s.size == expected[-1]
    assert s[-1] ** 2 <= _RITZ_FLOOR * s[0] ** 2
    monkeypatch.undo()
    _assert_leading_matches_full(op, lead)


def test_leading_svd_of_an_undersampled_scene_decomposes_the_whole_gram(monkeypatch):
    # 80 samples on a 40 cm scene (knee 73): the Gram has no floor, so the
    # sample grows to all 80 columns and the whole Gram is decomposed
    layout = ArrayLayout.uniform(Aperture.centered(L1, D), 200, MONOSTATIC)
    op = build_operator(SceneSegment(0.2), layout, WaveContext(LAM), 80)
    sizes = _ritz_sizes(monkeypatch)
    lead = svd(op, leading=True)
    assert sizes == [_RITZ_START, 80]
    s = lead.singular_values
    assert s.size == 80 and s[-1] ** 2 > _RITZ_FLOOR * s[0] ** 2
    monkeypatch.undo()
    _assert_leading_matches_full(op, lead)
