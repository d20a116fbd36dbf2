import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aperture_dof import (
    MULTISTATIC,
    Aperture,
    ApertureFunction,
    ArrayLayout,
    SceneSegment,
    WaveContext,
    build_operator,
    effective_aperture,
    fresnel_dof,
    fresnel_equivalence_check,
    sbp_closed_form_g1,
    sbp_g3_fresnel,
    svd,
)
from aperture_dof.fresnel import _coalesce, _lattice_indices, fresnel_kernel_midpoint
from aperture_dof.operator import _one_way_phases, _spectrum

from conftest import LAM, L1, L2, D


def _brute_force_effective(tx, rx, decimals=9):
    # Counter over rounded pair midpoints: the double-sum multiset
    return Counter(round(0.5 * (a + b), decimals) for a in tx for b in rx)


def test_aperture_function_validation():
    with pytest.raises(ValueError):
        ApertureFunction(np.array([0.0, 0.0]), np.array([1, 1]))  # not increasing
    with pytest.raises(ValueError):
        ApertureFunction(np.array([0.0, 1.0]), np.array([1, 0]))  # zero multiplicity
    with pytest.raises(ValueError):
        ApertureFunction(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        ApertureFunction(np.array([0.0, 1.0]), np.array([1]))


@pytest.mark.parametrize("merge_tol", [math.nan, math.inf, -1e-9])
def test_merge_tol_must_be_finite_and_non_negative(merge_tol):
    # a NaN or infinite tolerance would merge every delta, and a negative one
    # surfaced as "positions must be strictly increasing" on repeated positions
    positions = [0.0, 0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="merge_tol"):
        ApertureFunction.from_positions(positions, merge_tol)
    train = ApertureFunction.from_positions(positions)
    with pytest.raises(ValueError, match="merge_tol"):
        effective_aperture(train, train, merge_tol)


def test_from_positions_coalesces():
    fn = ApertureFunction.from_positions([0.0, 1e-12, 0.5, 0.5 + 1e-12, 1.0])
    np.testing.assert_allclose(fn.positions, [5e-13, 0.5 + 5e-13, 1.0])
    np.testing.assert_array_equal(fn.multiplicities, [2, 2, 1])
    assert fn.total == 5


def test_coalesce_groups_around_the_first_point_not_the_neighbour():
    tol = 1e-3
    pos, mul = _coalesce(np.array([0.0, 0.6 * tol, 1.2 * tol]), np.ones(3, dtype=int), tol)
    # 1.2 tol is within tol of 0.6 tol but not of the anchor 0: two groups
    np.testing.assert_array_equal(mul, [2, 1])
    np.testing.assert_allclose(pos, [0.3 * tol, 1.2 * tol], rtol=1e-15)
    # the test is on the rounded difference p - anchor, which can disagree
    # with p against the rounded anchor + tol in either direction
    for pair, groups in (([-0.00031677626471093845, 0.0006832237352890617], 1),
                         ([0.023643249400513433, 0.024643249400513434], 2)):
        pair = np.array(pair)
        assert (pair[1] > pair[0] + tol) == (groups == 1)
        assert _coalesce(pair, np.ones(2, dtype=int), tol)[1].size == groups


@pytest.mark.parametrize("seed", range(6))
def test_coalesce_matches_the_sequential_grouping(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-6
    n = int(rng.integers(1, 400))
    # clusters on a coarse grid, jittered up to 1.5 tol so some chains of
    # neighbours within tol span more than tol from their first point
    pos = rng.integers(-40, 40, n) * 5e-6 + rng.uniform(0.0, 1.5 * tol, n)
    pos[rng.random(n) < 0.2] = pos[0]        # exact duplicates
    mul = rng.integers(1, 5, n)
    got_pos, got_mul = _coalesce(pos, mul, tol)
    assert got_mul.sum() == mul.sum()
    order = np.argsort(pos, kind="stable")
    p, m = pos[order], mul[order]
    # groups are contiguous runs of the sorted input: their multiplicities
    # partition its running total
    running, group_running = np.cumsum(m), np.cumsum(got_mul)
    ends = np.searchsorted(running, group_running) + 1
    np.testing.assert_array_equal(running[ends - 1], group_running)
    for g, (start, end) in enumerate(zip(np.concatenate(([0], ends[:-1])), ends)):
        members = p[start:end]
        # every member lies within tol of the group's first point (the
        # anchor), and the next group starts more than tol past it
        assert np.all(members - members[0] <= tol)
        if end < n:
            assert p[end] - members[0] > tol
        assert got_pos[g] == pytest.approx(np.dot(members, m[start:end]) / got_mul[g],
                                           rel=0, abs=1e-15 * np.abs(pos).max())


def test_effective_aperture_uniform_train_is_triangular():
    pos = np.arange(10) * 0.01
    fn = ApertureFunction.from_positions(pos)
    eff = effective_aperture(fn, fn, merge_tol=1e-9)
    assert eff.positions.size == 19
    np.testing.assert_array_equal(
        eff.multiplicities, np.concatenate([np.arange(1, 11), np.arange(9, 0, -1)])
    )
    assert eff.total == 100
    # midpoints live on a twice-finer grid spanning the same extent
    np.testing.assert_allclose(eff.positions, np.arange(19) * 0.005, atol=1e-12)


@given(
    n_tx=st.integers(1, 8),
    n_rx=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_effective_aperture_commutative_with_product_total(n_tx, n_rx, seed):
    rng = np.random.default_rng(seed)
    # positions on a coarse lattice so merge decisions are unambiguous
    tx = np.unique(rng.integers(-40, 40, n_tx)) * 0.005
    rx = np.unique(rng.integers(-40, 40, n_rx)) * 0.005
    a = ApertureFunction.from_positions(tx)
    b = ApertureFunction.from_positions(rx)
    ab = effective_aperture(a, b)
    ba = effective_aperture(b, a)
    np.testing.assert_allclose(ab.positions, ba.positions, atol=1e-12)
    np.testing.assert_array_equal(ab.multiplicities, ba.multiplicities)
    assert ab.total == tx.size * rx.size


def test_effective_aperture_matches_double_sum_multiset():
    rng = np.random.default_rng(11)
    for _ in range(10):
        tx = np.unique(rng.integers(-60, 60, rng.integers(2, 9))) * 0.0025
        rx = np.unique(rng.integers(-60, 60, rng.integers(2, 9))) * 0.0025
        eff = effective_aperture(
            ApertureFunction.from_positions(tx),
            ApertureFunction.from_positions(rx),
            merge_tol=1e-9,
        )
        expected = _brute_force_effective(tx, rx)
        got = {round(p, 9): int(m) for p, m in zip(eff.positions, eff.multiplicities)}
        assert got == dict(expected)


def _coalesced_pair_midpoints(a, b, tol):
    # every pair midpoint through _coalesce: the path for trains off a lattice
    pos = (0.5 * a.positions[:, None] + 0.5 * b.positions[None, :]).ravel()
    mul = (a.multiplicities[:, None] * b.multiplicities[None, :]).ravel()
    return _coalesce(pos, mul, tol)


_PITCH = 7.5e-4
_TRAINS = {
    # name: (Tx lattice indices, Rx lattice indices, jitter / tol, on lattice)
    "uniform": (np.arange(200), np.arange(200), 0.0, True),
    "gaps": (np.array([0, 1, 2, 5, 6, 9, 30]), np.array([1, 3, 4, 8, 20]), 0.0, True),
    "offset": (np.arange(3, 40), np.arange(0, 25, 2), 0.0, True),
    "single_tx": (np.array([4]), np.arange(10), 0.0, True),
    "jittered": (np.arange(60), np.arange(0, 60, 3), 0.002, True),
    "interleaved": (np.arange(0, 60, 2), np.arange(0, 60, 2) + 0.5, 0.0, False),
    "off_lattice": (np.arange(60), np.arange(0, 60, 3), 0.3, False),
    # more lattice sites than pairs: the pair midpoints are the smaller arrays
    "sparse": (np.array([0, 1, 300]), np.array([0, 2, 5]), 0.0, False),
}


@pytest.mark.parametrize("name", sorted(_TRAINS))
def test_effective_aperture_on_a_lattice_matches_coalesced_pairs(name):
    i_tx, i_rx, jitter, on_lattice = _TRAINS[name]
    rng = np.random.default_rng(sorted(_TRAINS).index(name))
    tol = LAM / 1000.0
    a, b = (ApertureFunction(-0.075 + _PITCH * i + rng.uniform(-jitter, jitter, i.size) * tol,
                             rng.integers(1, 4, i.size)) for i in (i_tx, i_rx))
    assert (_lattice_indices(a.positions, b.positions, tol) is not None) == on_lattice
    eff = effective_aperture(a, b, merge_tol=tol)
    want_pos, want_mul = _coalesced_pair_midpoints(a, b, tol)
    np.testing.assert_array_equal(eff.multiplicities, want_mul)
    np.testing.assert_allclose(eff.positions, want_pos, rtol=0, atol=1e-15)


def test_lattice_needs_a_pitch_above_four_merge_tolerances():
    pos = np.arange(5) * 1e-3
    assert _lattice_indices(pos, pos, 2.4e-4) is not None
    assert _lattice_indices(pos, pos, 2.5e-4) is None
    assert _lattice_indices(pos[:1], pos[:1], 1e-9) is None  # no step to take a pitch from


def test_effective_aperture_of_a_uniform_layout_does_not_grow_as_n_squared():
    # all 10^6 pair midpoints of 1000 elements, with _coalesce's sorted
    # lists, take about 69 MiB
    tol = LAM / 1000.0
    layout = ArrayLayout.uniform(Aperture.centered(L1, D), 1000, MULTISTATIC)
    train = ApertureFunction.from_positions(layout.tx_positions, tol)
    tracemalloc.start()
    try:
        eff = effective_aperture(train, train, merge_tol=tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eff.positions.size == 1999 and eff.total == 1000 ** 2
    assert peak <= 2**20


def test_kernel_factored_form_equals_direct_form():
    wave = WaveContext(LAM)
    rng = np.random.default_rng(2)
    x_tx = rng.uniform(-0.075, 0.075, 20)
    x_rx = rng.uniform(-0.075, 0.075, 20)
    u = rng.uniform(-0.05, 0.05, 20)
    # the two paraxial one-way legs the operator takes under kernel 'fresnel',
    # one row per (x_tx, x_rx) pair and one column per scene point
    points = np.stack([u, np.zeros_like(u)], axis=-1)
    direct = (_one_way_phases(x_tx, points, -D, wave.k, "fresnel")
              * _one_way_phases(x_rx, points, -D, wave.k, "fresnel"))
    factored = fresnel_kernel_midpoint(x_tx[:, None], x_rx[:, None], u[None, :], D, wave)
    np.testing.assert_allclose(factored, direct, atol=5e-7)
    np.testing.assert_allclose(np.abs(direct), 1.0, rtol=1e-12)


def test_fresnel_kernel_validation():
    wave = WaveContext(LAM)
    with pytest.raises(ValueError):
        fresnel_kernel_midpoint(0.0, 0.0, 0.0, 0.0, wave)
    with pytest.raises(ValueError):
        fresnel_kernel_midpoint(0.0, 0.0, 0.0, -1.0, wave)


def test_fresnel_dof_values():
    assert fresnel_dof(L1, L2, 0.10, LAM) == 60.0
    assert fresnel_dof(L1, L2, D, LAM) == 30.0
    with pytest.raises(ValueError):
        fresnel_dof(L1, L2, D, 0.0)


def test_sbp_g3_fresnel_is_cosine_scaled():
    assert sbp_g3_fresnel(L1, L2, D, LAM, 0.0) == fresnel_dof(L1, L2, D, LAM)
    assert sbp_g3_fresnel(L1, L2, D, LAM, math.radians(60.0)) == pytest.approx(
        0.5 * fresnel_dof(L1, L2, D, LAM)
    )
    with pytest.raises(ValueError):
        sbp_g3_fresnel(L1, L2, D, LAM, 2.0)


def test_fresnel_dof_is_the_far_standoff_limit_of_the_closed_form():
    # relative gap shrinks like (L/D)^2; already below 2% at D = 10*(L1+L2)
    gaps = []
    for d in (2.5, 5.0, 10.0, 25.0):
        fd = fresnel_dof(L1, L2, d, LAM)
        gaps.append(abs(fd - sbp_closed_form_g1(L1, L2, d, LAM)) / fd)
    assert gaps[0] < 0.02
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def _layout(n=24, standoff=D):
    ap = Aperture.centered(L1, standoff)
    return ArrayLayout.uniform(ap, n, MULTISTATIC)


def test_pair_singular_values_match_dense_assembly():
    # dense oracle: assemble the full pair matrix and SVD it
    wave = WaveContext(LAM)
    layout = _layout(6)
    n_scene = 15
    du = L2 / n_scene
    x = -L2 / 2 + (np.arange(n_scene) + 0.5) * du
    col_w = np.full(n_scene, du)
    report = fresnel_equivalence_check(layout, SceneSegment(L2 / 2), wave, n_scene=n_scene)
    for kernel in ("fresnel", "exact"):
        sig = report.sigma_pair[kernel]
        rows = []
        for xt in layout.tx_positions:
            for xr in layout.rx_positions:
                if kernel == "fresnel":
                    row = fresnel_kernel_midpoint(xt, xr, x, D, wave)
                else:
                    row = np.exp(
                        -1j * wave.k * (np.hypot(xt - x, D) + np.hypot(xr - x, D))
                    )
                rows.append(row * math.sqrt(layout.tx_weight * layout.rx_weight))
        dense = np.array(rows) * np.sqrt(col_w)
        sig_dense = np.linalg.svd(dense, compute_uv=False)
        # 36 rows <= 4 * 15 columns take the direct SVD here; the bound also
        # admits the Gram route, whose zero tail floors at sqrt(eps)*sigma_1
        np.testing.assert_allclose(
            sig[: sig_dense.size], sig_dense, rtol=0, atol=1e-7 * sig_dense[0]
        )


@pytest.mark.parametrize("shift", [0.0, 0.03])
def test_effective_side_kernel_is_one_fresnel_leg_at_twice_k(shift):
    # the monostatic midpoint kernel (x_tx = x_rx = x) is a single Fresnel
    # leg at 2k: doubling k and D is exact, so the two agree bit for bit,
    # unlike the squared one-way leg
    wave = WaveContext(LAM)
    layout = _layout()
    scene = SceneSegment(L2 / 2, shift=shift)
    report = fresnel_equivalence_check(layout, scene, wave, n_scene=50)
    x = report.effective.positions
    points = scene.points(scene.midpoints(50))
    leg = _one_way_phases(x, points, -D, 2.0 * wave.k, "fresnel")
    mid = fresnel_kernel_midpoint(x[:, None], x[:, None], points[None, :, 0], D, wave)
    np.testing.assert_array_equal(leg, mid)
    # and the check decomposes exactly that kernel, row-scaled, through the
    # package's spectrum routine (which splits the mirror-symmetric shift 0
    # into even and odd blocks), to rounding of numpy's whole SVD
    scale = np.sqrt(report.effective.multiplicities * layout.tx_weight * layout.rx_weight)
    np.testing.assert_array_equal(
        report.sigma_effective,
        _spectrum((mid * scale[:, None],), scene.length / 50, vectors=False).singular_values)
    dense = mid * scale[:, None] * np.sqrt(scene.length / 50)
    sigma = np.linalg.svd(dense, compute_uv=False)
    np.testing.assert_allclose(report.sigma_effective, sigma, rtol=0,
                               atol=64 * np.finfo(float).eps * sigma[0])


def test_only_mirror_symmetric_sides_split(mirror_splits):
    # a uniform layout's effective side (47 x 80) and both pair sides (the
    # 80 x 80 Gram of 576 rows) split; off-centre lattice trains like
    # acceptance criterion 8's split none of the three
    wave, scene = WaveContext(LAM), SceneSegment(L2 / 2)
    fresnel_equivalence_check(_layout(), scene, wave, n_scene=80)
    assert mirror_splits == [(47, 80), (80, 80), (80, 80)]
    rng = np.random.default_rng(50)
    tx, rx = (np.unique(rng.integers(-30, 31, 9)) * 0.0025 for _ in range(2))
    layout = ArrayLayout(MULTISTATIC, tx, rx, Aperture.centered(L1, 1.0),
                         L1 / tx.size, L1 / rx.size)
    fresnel_equivalence_check(layout, scene, wave, n_scene=80)
    assert len(mirror_splits) == 3


@pytest.mark.parametrize("n_elements, n_scene", [(24, 80), (6, 15)])
def test_pair_side_is_the_operator_spectrum(n_elements, n_scene):
    # 576 rows > 4 * 80 columns takes svd's Gram route, 36 <= 4 * 15 the
    # direct SVD; the pair side goes through the same routine either way
    wave = WaveContext(LAM)
    scene = SceneSegment(L2 / 2)
    layout = _layout(n_elements)
    report = fresnel_equivalence_check(layout, scene, wave, n_scene=n_scene)
    spectrum = svd(build_operator(scene, layout, wave, n_scene), vectors=False)
    np.testing.assert_array_equal(report.sigma_pair["exact"], spectrum.singular_values)


def test_equivalence_exact_under_fresnel_propagation():
    report = fresnel_equivalence_check(
        _layout(), SceneSegment(L2 / 2), WaveContext(LAM), n_scene=80
    )
    assert report.max_rel_discrepancy["fresnel"] < 1e-6


def test_equivalence_approximate_under_exact_propagation():
    wave = WaveContext(LAM)
    scene = SceneSegment(L2 / 2)
    far = fresnel_equivalence_check(_layout(standoff=1.0), scene, wave, n_scene=80)
    near = fresnel_equivalence_check(_layout(standoff=0.2), scene, wave, n_scene=80)
    assert far.max_rel_discrepancy["exact"] < 0.01
    # negative control: the regime assumption is violated at short standoff
    assert near.max_rel_discrepancy["exact"] > 0.05


def test_equivalence_requires_parallel_scene():
    with pytest.raises(ValueError):
        fresnel_equivalence_check(_layout(), SceneSegment(L2 / 2, 0.1), WaveContext(LAM))
    for n_scene in (0, 1):
        with pytest.raises(ValueError, match="need n_scene >= 2"):
            fresnel_equivalence_check(
                _layout(), SceneSegment(L2 / 2), WaveContext(LAM), n_scene=n_scene
            )
