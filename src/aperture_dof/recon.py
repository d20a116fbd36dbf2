"""Image formation and resolution analysis for discretized Born operators.

Two reconstruction methods: truncated-SVD pseudoinverse (PINV), which for
noiseless data projects the true reflectivity onto the kept right singular
vectors, and the matched filter / back-propagation adjoint (MF), which
weights the same projections by sigma^2.  Every image, on the operator's own
grid (oversample = 1) or on a finer one, is formed by one routine,
_images.  Resolution is measured as the 3dB mainlobe width of
point-scatterer PSFs and benchmarked against the reciprocal bandwidth 1/B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Aperture, SceneSegment, WaveContext
from .kspace import bandwidth
from .operator import (
    ArrayLayout,
    DiscreteOperator,
    SvdSpectrum,
    adjoint_to_points,
    build_operator,
    dof_knee,
    left_vectors,
    svd,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class UnresolvableProfileError(ValueError):
    """Mainlobe clipped by the profile boundary; no 3dB width exists."""


@dataclass(frozen=True)
class ImageProfile:
    """Complex reconstruction sampled along the scene coordinate u''."""

    coords: np.ndarray
    values: np.ndarray
    method: str
    rank: int | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        values = np.asarray(self.values)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)
        if self.method not in ("pinv", "mf"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if coords.size != values.size:
            raise ValueError("coordinate and value lists must have equal length")
        if coords.size and np.any(np.diff(coords) <= 0.0):
            raise ValueError("coordinates must be strictly increasing")


@dataclass(frozen=True)
class ResolutionCurve:
    """3dB beamwidths per scatterer and method, with the 1/B benchmark.

    widths[method][i] is NaN where flagged[method][i] is True (mainlobe
    clipped at the scene edge).
    """

    positions: np.ndarray
    widths: dict
    flagged: dict
    reciprocal_bandwidth: np.ndarray
    grid_spacing: float
    profiles: dict | None = None
    profile_coords: np.ndarray | None = None

    def __post_init__(self):
        for method, w in self.widths.items():
            valid = w[~self.flagged[method]]
            if np.any(valid <= 0.0):
                raise ValueError(f"non-positive width in method {method!r}")
            if np.any(valid < self.grid_spacing * (1.0 - 1e-9)):
                raise ValueError(
                    f"width below grid spacing in method {method!r}: resolution "
                    "claims below the sampling limit are not meaningful"
                )


def _weighted_column(op: DiscreteOperator, data: np.ndarray) -> np.ndarray:
    """Physical measurement vector -> weighted data column (n_rows, 1)."""
    data = np.asarray(data)
    if data.shape != (op.matrix.shape[0],):
        raise ValueError(f"data length {data.shape} does not match operator rows")
    return op.weight_data(data)[:, None]


def _profile(op: DiscreteOperator, spectrum: SvdSpectrum | None, data_w: np.ndarray,
             method: str, rank: int | None, oversample: int = 1) -> ImageProfile:
    """ImageProfile of one weighted data column (n_rows, 1)."""
    coords, images = _images(op, spectrum, data_w, (method,), rank, oversample)
    return ImageProfile(coords=coords, values=images[method][:, 0], method=method,
                        rank=rank if method == "pinv" else None)


def reconstruct_pinv(
    op: DiscreteOperator,
    data: np.ndarray,
    rank: int,
    spectrum: SvdSpectrum | None = None,
) -> ImageProfile:
    """Truncated-SVD pseudoinverse image from a physical measurement vector.

    Keeps the top `rank` singular triplets: gamma = sum (1/sigma_i) psi_i
    <data, phi_i>.  For data generated by the operator itself this equals
    the projection of the true reflectivity onto span{psi_1..psi_rank}.

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
    data_w = _weighted_column(op, data)
    return _profile(op, spectrum or svd(op), data_w, "pinv", rank)


def reconstruct_mf(op: DiscreteOperator, data: np.ndarray) -> ImageProfile:
    """Matched-filter (adjoint / back-propagation) image."""
    return _profile(op, None, _weighted_column(op, data), "mf", None)


def _unit_scatterer_data(op: DiscreteOperator, indices) -> np.ndarray:
    """Weighted data columns (n_rows, len(indices)) of unit scatterers at
    scene grid samples: a delta of amplitude 1/col_weight picks its operator
    column, scaled by sqrt(col_weight) / col_weight."""
    w = op.col_weights[indices]
    return op.matrix[:, indices] * (np.sqrt(w) / w)


def psf(
    scene_point_index: int,
    op: DiscreteOperator,
    method: str,
    rank: int | None = None,
    oversample: int = 1,
    spectrum: SvdSpectrum | None = None,
) -> ImageProfile:
    """Point spread function: image of a unit scatterer at one grid sample.

    The input is a discrete delta of amplitude 1/(scene quadrature weight),
    matching the continuous unit-delta convention.  oversample = 1 images
    on the operator's own grid; oversample > 1 evaluates the same
    band-limited image through the kernel on an oversample-times finer
    grid, which interpolates it and adds no information.  Both go through
    one routine (_images).

    rank defaults to the -10 dB dof_knee of the spectrum (pinv only).
    """
    if method not in ("pinv", "mf"):
        raise ValueError(f"unknown method {method!r}")
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    # an explicit check: a negative index would wrap around in the column slice
    if not (0 <= scene_point_index < op.scene_u.size):
        raise ValueError(f"scene index {scene_point_index} outside grid of {op.scene_u.size}")
    sp = (spectrum or svd(op)) if method == "pinv" else None
    if method == "pinv" and rank is None:
        rank = dof_knee(sp)
    return _profile(op, sp, _unit_scatterer_data(op, [scene_point_index]), method, rank,
                    oversample)


def _images(op: DiscreteOperator, spectrum: SvdSpectrum | None, data_w: np.ndarray,
            methods: tuple, rank: int | None, oversample: int) -> tuple:
    """Scene grid u and {method: (u.size, b) image} of the weighted data
    columns data_w (n_rows, b); the one place an image is formed.

    The grid has oversample midpoint samples per operator cell, so
    oversample = 1 is the operator's own grid scene_u, bit for bit.  MF
    images are adjoints of the data; PINV images expand the data on the top
    `rank` left vectors, whose adjoints are sigma_i * psi_i.
    """
    n_fine = op.scene_u.size * oversample
    u_fine = -op.scene.half_length + (np.arange(n_fine) + 0.5) * (op.scene.length / n_fine)
    adjoint_of = {}
    if "mf" in methods:
        adjoint_of["mf"] = data_w
    if "pinv" in methods:
        sig = spectrum.singular_values
        if not (1 <= rank <= sig.size):
            raise ValueError(f"rank must be in [1, {sig.size}], got {rank}")
        if sig[rank - 1] <= 0.0:
            raise ValueError(f"sigma_{rank} is zero; reduce the truncation rank")
        u_r = left_vectors(op, spectrum, rank)
        coeffs = (u_r.conj().T @ data_w) / sig[:rank, None]
        adjoint_of["pinv"] = u_r
    pts = op.scene.points(u_fine)
    images = {m: adjoint_to_points(op, v, pts) for m, v in adjoint_of.items()}
    if "pinv" in images:
        images["pinv"] = (images["pinv"] / sig[:rank]) @ coeffs
    return u_fine, images


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
    aperture: Aperture,
    wave: WaveContext,
    array: ArrayLayout,
    methods: tuple = ("pinv", "mf"),
    n_scene: int = 400,
    n_targets: int = 21,
    oversample: int = 4,
    rank: int | None = None,
) -> ResolutionCurve:
    """PSF beamwidths across the scene with the 1/B benchmark.

    Places n_targets point scatterers evenly across the interior of the
    scene (snapped to the scene grid), reconstructs each with every
    requested method, extracts 3dB widths, and evaluates the reciprocal
    bandwidth at the same points.  Edge-clipped mainlobes are flagged, not
    dropped.

    PINV truncation uses `rank`, defaulting to the -10 dB knee.  The
    complex fine-grid PSFs are returned on the curve (profiles[method] has
    shape (n_fine, n_targets)).
    """
    for m in methods:
        if m not in ("pinv", "mf"):
            raise ValueError(f"unknown method {m!r}")
    if (aperture.a1, aperture.a2, aperture.standoff) != (
        array.aperture.a1, array.aperture.a2, array.aperture.standoff,
    ):
        raise ValueError("aperture does not match the array's aperture")

    op = build_operator(scene, array, wave, n_scene)
    sp = svd(op)
    if rank is None:
        rank = dof_knee(sp)

    u_targets = np.linspace(-scene.half_length, scene.half_length, n_targets + 2)[1:-1]
    du = scene.length / n_scene
    idx = np.round((u_targets - op.scene_u[0]) / du).astype(int)
    idx = np.unique(np.clip(idx, 0, n_scene - 1))
    positions = op.scene_u[idx]

    # batch the fine-grid evaluation: one pass for the singular-vector basis
    # (target independent) and one for all MF adjoint images
    u_fine, profiles = _images(
        op, sp, _unit_scatterer_data(op, idx), methods, rank, oversample)

    widths = {}
    flagged = {}
    for method in methods:
        w = np.full(idx.size, np.nan)
        f = np.zeros(idx.size, dtype=bool)
        for j in range(idx.size):
            prof = ImageProfile(
                coords=u_fine, values=profiles[method][:, j], method=method,
                rank=rank if method == "pinv" else None,
            )
            try:
                w[j] = beamwidth_3db(prof)
            except UnresolvableProfileError:
                f[j] = True
        widths[method] = w
        flagged[method] = f

    return ResolutionCurve(
        positions=positions,
        widths=widths,
        flagged=flagged,
        reciprocal_bandwidth=1.0 / bandwidth(scene.points(positions), scene, aperture, wave),
        grid_spacing=scene.length / (n_scene * oversample),
        profiles=profiles,
        profile_coords=u_fine,
    )
