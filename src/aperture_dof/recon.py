"""Image formation and resolution analysis for discretized Born operators.

Two reconstruction methods: truncated-SVD pseudoinverse (PINV), which for
noiseless data projects the true reflectivity onto the kept right singular
vectors, and the matched filter / back-propagation adjoint (MF), which
weights the same projections by sigma^2.  PINV applies the V_r Sigma_r^-2
V_r^H filter to what MF back-projects.  Images are formed by two routines,
one per kind of input.  reconstruct_mf and reconstruct_pinv image a
measurement vector through DiscreteOperator.adjoint, on the operator's
grid.  _images forms every point spread function: it images scene-side
columns through adjoint_to_points, on the grid (oversample = 1) or a finer
one, streaming blocks of image points (monostatic images from the small
data, multistatic ones from the factors' cross-Gram), so the N^2-row
multistatic data are never formed.  When the operator's factors measure as
mirror-symmetric, as for a centred broadside scene under a centred array,
only the right half of the grid is imaged and the left half is its mirror
image.  PSFs keep the -10 dB knee, so they take only the leading
singular triplets, by Rayleigh-Ritz.  Resolution is measured as the 3dB
mainlobe width of point-scatterer PSFs and benchmarked against the
reciprocal bandwidth 1/B.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import SceneSegment, WaveContext, _value_type
from .kspace import bandwidth, require_positive, scene_projection_angle
from .operator import (
    ArrayLayout,
    DiscreteOperator,
    SvdSpectrum,
    _factors_are_mirror_symmetric,
    adjoint_to_points,
    build_operator,
    dof_knee,
    svd,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class UnresolvableProfileError(ValueError):
    """Mainlobe clipped by the profile boundary; no 3dB width exists."""


class ImageProfile(_value_type("ImageProfile", "coords values method rank")):
    """Complex reconstruction sampled along the scene coordinate u''; rank
    is the PINV truncation, None for an MF image."""

    __slots__ = ()

    def __new__(cls, coords, values, method: str, rank: int | None = None):
        coords = np.asarray(coords, dtype=float)
        values = np.asarray(values)
        if method not in ("pinv", "mf"):
            raise ValueError(f"unknown method tag {method!r}")
        if coords.size != values.size:
            raise ValueError("coordinate and value lists must have equal length")
        if coords.size and np.any(np.diff(coords) <= 0.0):
            raise ValueError("coordinates must be strictly increasing")
        return super().__new__(cls, coords, values, method, rank)


class ResolutionCurve(_value_type("ResolutionCurve", "positions widths reciprocal_bandwidth "
                                                     "grid_spacing profiles profile_coords")):
    """3dB beamwidths per scatterer and method, with the 1/B benchmark.

    widths[method][i] is NaN where the mainlobe is clipped at the scene
    edge, and flagged marks those entries.  profiles[method] holds the
    complex PSFs, (profile_coords.size, positions.size).
    """

    __slots__ = ()

    @property
    def flagged(self) -> dict:
        """{method: bool array}, True where the width is NaN."""
        return {m: np.isnan(w) for m, w in self.widths.items()}

    def __new__(cls, positions, widths: dict, reciprocal_bandwidth, grid_spacing: float,
                profiles: dict, profile_coords):
        for method, w in widths.items():
            valid = w[~np.isnan(w)]
            if np.any(valid <= 0.0):
                raise ValueError(f"non-positive width in method {method!r}")
            if np.any(valid < grid_spacing * (1.0 - 1e-9)):
                raise ValueError(
                    f"width below grid spacing in method {method!r}: resolution "
                    "claims below the sampling limit are not meaningful"
                )
        return super().__new__(cls, positions, widths, reciprocal_bandwidth, grid_spacing,
                               profiles, profile_coords)


def _back_projection(op: DiscreteOperator, data: np.ndarray) -> np.ndarray:
    """A^H of a physical measurement vector, in weighted scene coordinates."""
    data = np.asarray(data)
    if data.shape != (op.shape[0],):
        raise ValueError(f"data length {data.shape} does not match operator rows")
    return op.adjoint(math.sqrt(op.row_weight) * data)


def _pinv_filter(spectrum: SvdSpectrum, rank: int, x: np.ndarray) -> np.ndarray:
    """V_r Sigma_r^-2 V_r^H x for scene-side columns x (n, b): what turns an
    MF image into the rank-r PINV image, since A^H A = V Sigma^2 V^H."""
    sig = spectrum.singular_values
    if spectrum.right_vectors is None:
        raise ValueError("spectrum carries no singular vectors")
    if not (1 <= rank <= sig.size):
        raise ValueError(f"rank must be in [1, {sig.size}], got {rank}")
    if sig[rank - 1] <= 0.0:
        raise ValueError(f"sigma_{rank} is zero; reduce the truncation rank")
    v_r = spectrum.right_vectors[:, :rank]
    return v_r @ ((v_r.conj().T @ x) / sig[:rank, None] ** 2)


def reconstruct_pinv(
    op: DiscreteOperator,
    data: np.ndarray,
    rank: int,
    spectrum: SvdSpectrum | None = None,
) -> ImageProfile:
    """Truncated-SVD pseudoinverse image, on the scene grid, from a physical
    measurement vector.

    Keeps the top `rank` singular triplets: gamma = sum (1/sigma_i) psi_i
    <data, phi_i>, computed as V_r Sigma_r^-2 V_r^H applied to the
    back-projection A^H data.  For data generated by the operator itself
    this equals the projection of the true reflectivity onto
    span{psi_1..psi_rank}.

    Parameters
    ----------
    data : (n_rows,) complex array
        Physical measurement values s (not weighted coordinates).
    rank : int
        Truncation rank, 1 <= rank <= number of singular values, and
        sigma_rank must be nonzero.
    spectrum : SvdSpectrum, optional
        Precomputed SVD of `op` to reuse across calls.
    """
    g_w = _pinv_filter(spectrum or svd(op), rank, _back_projection(op, data)[:, None])
    return ImageProfile(coords=op.scene_u, values=g_w[:, 0] / math.sqrt(op.col_weight),
                        method="pinv", rank=rank)


def reconstruct_mf(op: DiscreteOperator, data: np.ndarray) -> ImageProfile:
    """Matched-filter (adjoint / back-propagation) image on the scene grid."""
    g_w = _back_projection(op, data)
    return ImageProfile(coords=op.scene_u, values=g_w / math.sqrt(op.col_weight), method="mf")


def _images(op: DiscreteOperator, idx, methods: tuple, oversample: int,
            spectrum: SvdSpectrum | None = None) -> tuple:
    """PSFs of unit scatterers at the scene grid samples idx: the fine grid
    u, {method: (u.size, len(idx)) image} and the PINV rank (None without
    "pinv").  The one place a PSF is formed.

    A unit scatterer is a discrete delta of amplitude 1/col_weight,
    matching the continuous unit-delta convention; in weighted coordinates
    that is sqrt(col_weight) / col_weight.  The grid has oversample
    midpoint samples per operator cell, so oversample = 1 is the operator's
    own grid scene_u, bit for bit; a finer grid interpolates the same
    band-limited image and adds no information.  MF images are adjoints of
    the data A c; PINV images are adjoints of A V_r Sigma_r^-2 V_r^H c,
    where r is the -10 dB dof_knee of spectrum, by default the leading
    spectrum svd(op, leading=True).  Every column goes through one
    adjoint_to_points call, which streams blocks of grid points: all of
    them, or the right half for a mirror-symmetric operator.

    When every distinct factor of op is mirror-symmetric (measured by
    _factors_are_mirror_symmetric, never inferred from the geometry), the
    image of sample i at u equals that of its mirror sample n-1-i at -u, to
    the asymmetry the test allows.  Then only the right half of the m-point
    fine grid, rows m//2 .. m-1, is imaged, for the samples idx and their
    mirrors in the same call, and each target's left half is its mirror's
    right half reversed: half the one-way tables and cross-Gram products,
    for the few mirror columns the target set lacks.  Any other operator
    images every row of the samples idx alone.
    """
    w = op.col_weight
    n = op.scene_u.size
    m = n * oversample
    half = _factors_are_mirror_symmetric(op.factors)
    # the imaged samples: idx, or with the half grid the union of idx and its mirrors
    cols = sorted({*idx, *(n - 1 - i for i in idx)}) if half else idx
    coeffs = np.zeros((n, len(cols)))
    coeffs[cols, np.arange(len(cols))] = math.sqrt(w) / w
    columns = {}
    rank = None
    if "mf" in methods:
        columns["mf"] = coeffs
    if "pinv" in methods:
        sp = spectrum or svd(op, leading=True)
        rank = dof_knee(sp)
        columns["pinv"] = _pinv_filter(sp, rank, coeffs)
    u_fine = op.scene.midpoints(m)
    start = m // 2 if half else 0
    stacked = adjoint_to_points(op, np.hstack(list(columns.values())),
                                op.scene.points(u_fine[start:]))
    b = len(cols)
    images = {meth: stacked[:, i * b:(i + 1) * b] for i, meth in enumerate(columns)}
    if half:
        # row k < start of sample i is row m-1-k of sample n-1-i: the imaged
        # rows reversed, whose first start rows are m-1 .. m-start
        at = {c: j for j, c in enumerate(cols)}
        own = [at[i] for i in idx]
        mirror = [at[n - 1 - i] for i in idx]
        images = {meth: np.concatenate((img[::-1][:start, mirror], img[:, own]))
                  for meth, img in images.items()}
    return u_fine, images, rank


def beamwidth_3db(profile: ImageProfile) -> float:
    """3dB (half-power) mainlobe width of a PSF magnitude profile.

    The peak must be interior and both half-power crossings must exist
    inside the profile; otherwise the mainlobe is clipped and
    UnresolvableProfileError is raised.  Crossings are located by linear
    interpolation of the magnitude between grid samples.
    """
    mag = np.abs(profile.values)
    if mag.size < 3:
        raise UnresolvableProfileError("profile too short for a mainlobe")
    peak = int(np.argmax(mag))
    if peak == 0 or peak == mag.size - 1:
        raise UnresolvableProfileError("unresolvable at edge: peak on boundary")
    level = mag[peak] * _SQRT_HALF
    x = profile.coords

    def cross(i_out, i_in):
        # linear interpolation between the bracketing samples
        f = (level - mag[i_out]) / (mag[i_in] - mag[i_out])
        return x[i_out] + f * (x[i_in] - x[i_out])

    left = None
    for i in range(peak - 1, -1, -1):
        if mag[i] < level:
            left = cross(i, i + 1)
            break
    right = None
    for i in range(peak + 1, mag.size):
        if mag[i] < level:
            right = cross(i, i - 1)
            break
    if left is None or right is None:
        raise UnresolvableProfileError("unresolvable at edge: mainlobe clipped")
    return float(right - left)


def resolution_sweep(
    scene: SceneSegment,
    wave: WaveContext,
    array: ArrayLayout,
    methods: tuple = ("pinv", "mf"),
    n_scene: int = 400,
    n_targets: int = 21,
    oversample: int = 4,
) -> ResolutionCurve:
    """PSF beamwidths across the scene with the 1/B benchmark.

    Places n_targets point scatterers evenly across the interior of the
    scene (snapped to the scene grid), reconstructs each with every
    requested method, extracts 3dB widths, and evaluates the reciprocal
    bandwidth of the array's aperture at the same points, refusing with
    ValueError a target whose B is not positive.  Edge-clipped mainlobes
    are flagged, not dropped.

    PINV truncation keeps the -10 dB knee of the leading spectrum, which
    _images takes only when PINV is requested.  The complex fine-grid PSFs
    are returned on the curve (profiles[method] has shape (n_fine,
    n_targets)).
    """
    if not methods:
        raise ValueError("need at least one method")
    for m in methods:
        if m not in ("pinv", "mf"):
            raise ValueError(f"unknown method {m!r}")
    if n_targets < 1:
        raise ValueError("n_targets must be >= 1")
    if oversample < 1:
        raise ValueError("oversample must be >= 1")

    op = build_operator(scene, array, wave, n_scene)
    u_targets = np.linspace(-scene.half_length, scene.half_length, n_targets + 2)[1:-1]
    idx = np.round((u_targets - op.scene_u[0]) / op.col_weight).astype(int)
    idx = np.clip(idx, 0, n_scene - 1)
    # idx is non-decreasing; np.unique would import numpy.ma
    idx = idx[np.concatenate(([True], np.diff(idx) > 0))]
    positions = op.scene_u[idx]
    b = bandwidth(scene.points(positions), scene_projection_angle(scene), array.aperture, wave)
    require_positive(b, positions)

    # every target and method in one adjoint_to_points call
    u_fine, profiles, rank = _images(op, idx, methods, oversample)

    widths = {}
    for method in methods:
        w = np.full(idx.size, np.nan)
        for j in range(idx.size):
            prof = ImageProfile(
                coords=u_fine, values=profiles[method][:, j], method=method,
                rank=rank if method == "pinv" else None,
            )
            try:
                w[j] = beamwidth_3db(prof)
            except UnresolvableProfileError:
                pass  # the width stays NaN, which flags it
        widths[method] = w

    return ResolutionCurve(
        positions=positions,
        widths=widths,
        reciprocal_bandwidth=1.0 / b,
        grid_spacing=scene.length / (n_scene * oversample),
        profiles=profiles,
        profile_coords=u_fine,
    )
