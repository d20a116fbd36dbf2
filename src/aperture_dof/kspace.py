"""Spatial-frequency (k-space) coverage of mono- and multistatic arrays.

For a point scatterer seen under viewing angles [alpha, beta], a monostatic
array samples the arc of radius 2k spanning those angles; a multistatic
array samples every vector sum k_tx + k_rx over the angular product space.
The scatterer's usable bandwidth is the width of either set projected onto
the scene's non-redundant direction, and it is the same for both
architectures.

Projection intervals and bandwidths are reported in cyclic spatial
frequency (cycles per meter, i.e. rad/m divided by 2*pi), so an interval
width reads directly as a bandwidth B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (TWO_PI, Aperture, SceneSegment, WaveContext, element_view_angle,
                       viewing_angles)

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class KVector:
    """Single spatial-frequency vector (kx, kz) in rad/m."""

    kx: float
    kz: float

    @property
    def norm(self) -> float:
        return math.hypot(self.kx, self.kz)

    @property
    def angle(self) -> float:
        """Angle from the kz axis, matching the viewing-angle convention."""
        return math.atan2(self.kx, self.kz)


@dataclass(frozen=True)
class SpectralSet:
    """Set of round-trip k-space points available for one scatterer.

    kind 'mono-arc' is the arc of radius 2k over [alpha, beta], stored
    analytically; kind 'multi-region' is a discrete sampling of
    {k_tx + k_rx} stored in `samples` as an (m, 2) array.
    """

    kind: str
    radius: float
    alpha: float
    beta: float
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("mono-arc", "multi-region"):
            raise ValueError(f"unknown spectral set kind {self.kind!r}")
        if not (self.alpha <= self.beta):
            raise ValueError(f"need alpha <= beta, got [{self.alpha}, {self.beta}]")
        if self.samples is not None:
            norms = np.hypot(self.samples[:, 0], self.samples[:, 1])
            # 2k is the outer radius for both kinds; allow rounding slack
            if np.any(norms > self.radius * (1.0 + 1e-12) + 1e-12):
                raise ValueError("spectral samples exceed the 2k outer radius")

    def arc_samples(self, n: int) -> np.ndarray:
        """n points of the underlying mono arc on a uniform angle grid."""
        if n < 1:
            raise ValueError("need at least one sample")
        phi = np.linspace(self.alpha, self.beta, n)
        return self.radius * np.stack([np.sin(phi), np.cos(phi)], axis=-1)


def sample_point(theta_tx: float, theta_rx: float, wave: WaveContext) -> KVector:
    """Round-trip k-space point sampled by a (Tx, Rx) pair of viewing angles.

    Parameters
    ----------
    theta_tx, theta_rx : float
        Viewing angles in radians, each strictly inside (-pi/2, pi/2).
    wave : WaveContext

    Returns
    -------
    KVector
        k_tx + k_rx where each one-way vector is k*(sin(theta), cos(theta)).
        The sum has norm 2k*cos(|theta_tx - theta_rx|/2) and bisects the two
        angles.
    """
    if abs(theta_tx) >= _HALF_PI or abs(theta_rx) >= _HALF_PI:
        raise ValueError(
            f"grazing viewing angle: |theta| must be < pi/2, got {theta_tx}, {theta_rx}"
        )
    k = wave.k
    return KVector(
        kx=k * math.sin(theta_tx) + k * math.sin(theta_rx),
        kz=k * math.cos(theta_tx) + k * math.cos(theta_rx),
    )


def mono_spectrum(scene_point, aperture: Aperture, wave: WaveContext) -> SpectralSet:
    """Arc of radius 2k spanned by the viewing angles of `scene_point`."""
    alpha, beta = viewing_angles(scene_point, aperture)
    return SpectralSet(kind="mono-arc", radius=2.0 * wave.k, alpha=alpha, beta=beta)


def arc_spectrum(alpha: float, beta: float, wave: WaveContext) -> SpectralSet:
    """Mono-style arc built directly from an angular span.

    Supports the degenerate single-element case alpha == beta, which has no
    Aperture representation.
    """
    if alpha > beta:
        raise ValueError(f"need alpha <= beta, got [{alpha}, {beta}]")
    return SpectralSet(kind="mono-arc", radius=2.0 * wave.k, alpha=alpha, beta=beta)


def multi_spectrum(
    scene_point, aperture: Aperture, wave: WaveContext, n_samples: int = 512
) -> SpectralSet:
    """Discrete sampling of the multistatic set {k_tx + k_rx}.

    The (theta_tx, theta_rx) rectangle [alpha, beta]^2 is sampled on an
    n_samples x n_samples grid including the endpoints, so the diagonal
    reproduces the mono arc samples exactly.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2 per angular axis")
    alpha, beta = viewing_angles(scene_point, aperture)
    k = wave.k
    phi = np.linspace(alpha, beta, n_samples)
    kx = k * np.sin(phi)
    kz = k * np.cos(phi)
    sum_kx = (kx[:, None] + kx[None, :]).ravel()
    sum_kz = (kz[:, None] + kz[None, :]).ravel()
    return SpectralSet(
        kind="multi-region",
        radius=2.0 * k,
        alpha=alpha,
        beta=beta,
        samples=np.stack([sum_kx, sum_kz], axis=-1),
    )


def project_points_onto_line(points: np.ndarray, line_angle: float) -> tuple[float, float]:
    """[min, max] of scalar projections of (m, 2) k-space points, in m^-1.

    The projection axis is the unit vector (cos(line_angle), sin(line_angle));
    raw rad/m projections are divided by 2*pi so widths read as bandwidths.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise ValueError("empty point set")
    proj = (points[:, 0] * math.cos(line_angle) + points[:, 1] * math.sin(line_angle)) / TWO_PI
    return float(proj.min()), float(proj.max())


def _project_arc(radius: float, alpha, beta, line_angle) -> tuple:
    """[min, max] in cycles/m of the arc radius*(sin(phi), cos(phi)), phi in
    [alpha, beta], projected onto the line at line_angle; broadcasts.

    The projection is radius*sin(phi + line_angle).  Over the phase span
    (lo, hi] its extrema are the values at the two ends, or +-radius where
    the span meets +-pi/2 + 2*pi*j: where the largest such phase not above
    hi lies above lo.
    """
    lo, hi = np.add(alpha, line_angle), np.add(beta, line_angle)
    ends = radius * np.sin(lo), radius * np.sin(hi)
    meets = lambda stat: np.floor((hi - stat) / TWO_PI) * TWO_PI + stat > lo
    top = np.where(meets(_HALF_PI), radius, np.maximum(*ends))
    bottom = np.where(meets(-_HALF_PI), -radius, np.minimum(*ends))
    return bottom / TWO_PI, top / TWO_PI


def project_onto_line(spectral_set: SpectralSet, line_angle: float) -> tuple[float, float]:
    """Project a spectral set onto the line at `line_angle` from the kx axis.

    Returns
    -------
    (float, float)
        [min, max] of the scalar projections in cycles/m.  Mono arcs are
        projected analytically (sinusoid extrema over the angular span);
        sampled sets by exhaustive min/max over their samples.
    """
    if spectral_set.kind == "mono-arc":
        lo, hi = _project_arc(spectral_set.radius, spectral_set.alpha, spectral_set.beta,
                              line_angle)
        return float(lo), float(hi)
    return project_points_onto_line(spectral_set.samples, line_angle)


def scene_projection_angle(scene: SceneSegment) -> float:
    """Angle of the scene's non-redundant spatial-frequency line.

    A segment x' = rho*z' + t only modulates the combination
    rho*kx + kz, so spectra are projected onto the line along
    (cos(-theta), sin(-theta)); theta = 0 reduces to the kx axis.
    """
    return -scene.theta


def bandwidth(scene_point, scene: SceneSegment, aperture: Aperture, wave: WaveContext):
    """Spatial-frequency bandwidth B of scene points, in cycles/m.

    Width of each point's k-space arc (radius 2k over its viewing angles)
    projected onto the scene's non-redundant line.  By the projection
    identity this is the same for monostatic and multistatic arrays, so the
    mono arc is used.  scene_point is one point (x', z') or an (m, 2) array
    of points; the result is a float or an (m,) array.
    """
    alpha, beta = viewing_angles(scene_point, aperture)
    lo, hi = _project_arc(2.0 * wave.k, alpha, beta, scene_projection_angle(scene))
    return float(hi - lo) if np.ndim(hi) == 0 else hi - lo


def effective_monostatic_point(
    x_tx: float, x_rx: float, scene_point, aperture: Aperture, wave: WaveContext
) -> tuple[float, float]:
    """Equivalent single element + wavelength for one (Tx, Rx) pair.

    The pair's round-trip k-vector for this scatterer equals that of a
    monostatic element placed at the bisector angle and operated at a
    stretched wavelength:

    * x_eff sees the scatterer under the angle (theta_tx + theta_rx)/2,
    * lambda_eff = lambda / cos(|theta_tx - theta_rx|/2) >= lambda.

    The equivalence holds per scatterer only; different scene points map the
    same pair to different x_eff.
    """
    theta_tx = element_view_angle(x_tx, scene_point, aperture)
    theta_rx = element_view_angle(x_rx, scene_point, aperture)
    mid = 0.5 * (theta_tx + theta_rx)
    half_diff = 0.5 * abs(theta_tx - theta_rx)
    xp, zp = float(scene_point[0]), float(scene_point[1])
    x_eff = xp - (zp - aperture.z_plane) * math.tan(mid)
    lambda_eff = wave.wavelength / math.cos(half_diff)
    return x_eff, lambda_eff
