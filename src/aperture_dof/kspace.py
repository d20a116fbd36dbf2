"""Spatial-frequency (k-space) coverage of mono- and multistatic arrays.

For a point scatterer seen under viewing angles [alpha, beta], a monostatic
array samples the arc of radius 2k spanning those angles; a multistatic
array samples every vector sum k_tx + k_rx over the angular product space.
Both sample sets are plain (m, 2) arrays of (kx, kz) rows in rad/m, built
from one table of one-way vectors k*(sin(phi), cos(phi)): the arc is twice
the table, the multistatic set its pairwise sums. The scatterer's usable
bandwidth is the width of either set projected onto the scene's
non-redundant direction, and it is the same for both architectures.

Projection intervals and bandwidths are reported in cyclic spatial
frequency (cycles per meter, i.e. rad/m divided by 2*pi), so an interval
width reads directly as a bandwidth B.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (TWO_PI, Aperture, SceneSegment, WaveContext, element_view_angle,
                       viewing_angles)

_HALF_PI = 0.5 * math.pi


def sample_point(theta_tx: float, theta_rx: float, wave: WaveContext) -> tuple[float, float]:
    """Round-trip k-space point (kx, kz) sampled by a (Tx, Rx) pair of viewing angles.

    Parameters
    ----------
    theta_tx, theta_rx : float
        Viewing angles in radians, each strictly inside (-pi/2, pi/2).
    wave : WaveContext

    Returns
    -------
    (float, float)
        k_tx + k_rx in rad/m, where each one-way vector is
        k*(sin(theta), cos(theta)). The sum has norm
        2k*cos(|theta_tx - theta_rx|/2) and bisects the two angles.
    """
    if abs(theta_tx) >= _HALF_PI or abs(theta_rx) >= _HALF_PI:
        raise ValueError(
            f"grazing viewing angle: |theta| must be < pi/2, got {theta_tx}, {theta_rx}"
        )
    k = wave.k
    return (k * math.sin(theta_tx) + k * math.sin(theta_rx),
            k * math.cos(theta_tx) + k * math.cos(theta_rx))


def _one_way_table(scene_point, aperture: Aperture, wave: WaveContext, n: int) -> np.ndarray:
    """(n, 2) one-way vectors k*(sin(phi), cos(phi)) for n viewing angles phi
    from alpha to beta, endpoints included."""
    if n < 2:
        raise ValueError("need n_samples >= 2 per angular axis")
    alpha, beta = viewing_angles(scene_point, aperture)
    phi = np.linspace(alpha, beta, n)
    k = wave.k
    return np.stack([k * np.sin(phi), k * np.cos(phi)], axis=-1)


def mono_spectrum(
    scene_point, aperture: Aperture, wave: WaveContext, n_samples: int = 512
) -> np.ndarray:
    """(n_samples, 2) samples of the arc of radius 2k spanned by the viewing
    angles of `scene_point`: twice the one-way vectors, on a uniform angle grid."""
    return 2.0 * _one_way_table(scene_point, aperture, wave, n_samples)


def multi_spectrum(
    scene_point, aperture: Aperture, wave: WaveContext, n_samples: int = 512
) -> np.ndarray:
    """(n_samples**2, 2) samples of the multistatic set {k_tx + k_rx}.

    Row i * n_samples + j is the sum of the one-way vectors at the i-th Tx
    and j-th Rx angle of the mono grid. Doubling is exact, so the diagonal
    i == j reproduces `mono_spectrum` bit for bit.
    """
    one_way = _one_way_table(scene_point, aperture, wave, n_samples)
    return (one_way[:, None, :] + one_way[None, :, :]).reshape(-1, 2)


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


def scene_projection_angle(scene: SceneSegment) -> float:
    """Angle of the scene's non-redundant spatial-frequency line.

    A segment x' = rho*z' + t only modulates the combination
    rho*kx + kz, so spectra are projected onto the line along
    (cos(-theta), sin(-theta)); theta = 0 reduces to the kx axis.
    """
    return -scene.theta


def bandwidth(scene_point, line_angle, aperture: Aperture, wave: WaveContext):
    """Spatial-frequency bandwidth B of scene points, in cycles/m.

    Width of each point's k-space arc (radius 2k over its viewing angles)
    projected onto the line at line_angle, for a scene the line of
    scene_projection_angle(scene).  By the projection identity this is the
    same for monostatic and multistatic arrays, so the mono arc is used.
    scene_point is one point (x', z') or an (..., 2) array of points, and
    line_angle broadcasts against the points' leading shape; the result is a
    float or an array of the broadcast shape.
    """
    p = np.asarray(scene_point, dtype=float)
    shape = p.shape[:-1]
    alpha, beta = viewing_angles(p.reshape(-1, 2), aperture)
    lo, hi = _project_arc(2.0 * wave.k, alpha.reshape(shape), beta.reshape(shape), line_angle)
    b = hi - lo
    return float(b) if b.ndim == 0 else b


def require_positive(b: np.ndarray, u: np.ndarray) -> None:
    """Raise ValueError at the first bandwidth b[i] that is not positive,
    naming its scene coordinate u[i]: a scene far beyond the aperture's
    reach rounds B to 0, and its reciprocal to inf."""
    bad = np.flatnonzero(~(b > 0.0))
    if bad.size:
        raise ValueError(f"bandwidth B = {b[bad[0]]:.9g} <= 0 at u = {u[bad[0]]:.9g} m: "
                         "the scene is too large for its reciprocal to be meaningful")


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
