"""Geometric primitives for a 1D aperture observing a 1D scene segment.

Coordinate conventions used throughout the package:

* the scene lives near the plane z = 0,
* the aperture occupies the interval [a1, a2] on the line z = -D,
* a scene segment is parameterized as p(u) = (t + u*cos(theta), -u*sin(theta))
  for u in [-half_length, +half_length], so positive theta tilts the u > 0
  end of the segment toward the aperture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# the two array architectures, as ArrayLayout.architecture names them
MONOSTATIC = "monostatic"
MULTISTATIC = "multistatic"


@dataclass(frozen=True)
class WaveContext:
    """Monochromatic illumination context.

    Attributes
    ----------
    wavelength : float
        Free-space wavelength in meters, > 0.
    """

    wavelength: float

    def __post_init__(self):
        if not (self.wavelength > 0.0):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")

    @property
    def k(self) -> float:
        """Angular wavenumber 2*pi/wavelength in rad/m."""
        return TWO_PI / self.wavelength


@dataclass(frozen=True)
class Aperture:
    """Linear aperture [a1, a2] on the plane z = -standoff.

    Attributes
    ----------
    a1, a2 : float
        Aperture endpoints in meters, a1 < a2.
    standoff : float
        Distance D > 0 between the aperture line and the z = 0 scene plane.
    """

    a1: float
    a2: float
    standoff: float

    def __post_init__(self):
        if not (self.a1 < self.a2):
            raise ValueError(f"aperture requires a1 < a2, got [{self.a1}, {self.a2}]")
        if not (self.standoff > 0.0):
            raise ValueError(f"standoff must be positive, got {self.standoff}")

    @property
    def length(self) -> float:
        return self.a2 - self.a1

    @property
    def z_plane(self) -> float:
        """z coordinate of the aperture line."""
        return -self.standoff

    @classmethod
    def centered(cls, length: float, standoff: float) -> "Aperture":
        """Aperture of the given length centered on x = 0."""
        return cls(-0.5 * length, 0.5 * length, standoff)


@dataclass(frozen=True)
class SceneSegment:
    """Straight scene segment of length 2*half_length.

    The segment passes through (t, 0) and makes angle theta with the x axis:
    p(u) = (t + u*cos(theta), -u*sin(theta)).  theta = 0 and t = 0 is the
    canonical broadside segment; |theta| = pi/2 is a segment along the range
    axis.

    Attributes
    ----------
    half_length : float
        Half of the segment arc length, >= 0.
    theta : float
        Tilt angle in radians, |theta| <= pi/2.
    shift : float
        Cross-range offset t of the segment midpoint.
    """

    half_length: float
    theta: float = 0.0
    shift: float = 0.0

    def __post_init__(self):
        for name in ("half_length", "theta", "shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.half_length < 0.0:
            raise ValueError(f"half_length must be >= 0, got {self.half_length}")
        if abs(self.theta) > 0.5 * math.pi + 1e-12:
            raise ValueError(f"|theta| must be <= pi/2, got {self.theta}")

    @property
    def length(self) -> float:
        return 2.0 * self.half_length

    def midpoints(self, n: int) -> np.ndarray:
        """Scene coordinates u of the midpoints of n equal cells tiling the
        segment; the one scene grid of the operator, images and Fresnel check."""
        return -self.half_length + (np.arange(n) + 0.5) * (self.length / n)

    def point(self, u: float) -> tuple[float, float]:
        """Scene point p(u) = (t + u*cos(theta), -u*sin(theta))."""
        return (self.shift + u * math.cos(self.theta), -u * math.sin(self.theta))

    def points(self, u: np.ndarray) -> np.ndarray:
        """Vectorized p(u); returns an (n, 2) array of (x, z) pairs."""
        u = np.asarray(u, dtype=float)
        return np.stack(
            [self.shift + u * math.cos(self.theta), -u * math.sin(self.theta)],
            axis=-1,
        )

    @property
    def geometry_class(self) -> str:
        """Classification tag: G1 centered broadside, G2 shifted broadside,
        G3 centered tilted, G4 shifted and tilted."""
        tilted = self.theta != 0.0
        shifted = self.shift != 0.0
        if not tilted:
            return "G2" if shifted else "G1"
        return "G4" if shifted else "G3"


def _x_and_depth(scene_point, aperture: Aperture) -> tuple:
    """(x', z' + D) of one point or an (m, 2) array of points; raises
    ValueError if any point lies on or behind the aperture plane."""
    p = np.asarray(scene_point, dtype=float)
    dz = p[..., 1] - aperture.z_plane
    if np.any(dz <= 0.0):
        raise ValueError(f"scene point z'={p[..., 1][dz <= 0.0].flat[0]} lies on or behind "
                         f"the aperture plane z={aperture.z_plane}")
    return p[..., 0], dz


def element_view_angle(x_on_aperture: float, scene_point, aperture: Aperture):
    """Viewing angle of a single aperture element toward scene points.

    Measured from the range (z) axis; positive when the scene point lies on
    the +x side of the element.  scene_point is one point (x', z') or an
    (m, 2) array of points, all in front of the aperture plane; the result
    is a float or an (m,) array.
    """
    xp, dz = _x_and_depth(scene_point, aperture)
    angle = np.arctan2(xp - x_on_aperture, dz)
    return float(angle) if angle.ndim == 0 else angle


def viewing_angles(scene_point, aperture: Aperture) -> tuple:
    """Angular extent [alpha, beta] under which the aperture sees points.

    alpha is the angle subtended at the far edge a2, beta at the near edge
    a1, both measured from the range axis; alpha <= beta always because the
    per-element angle decreases as the element moves toward +x.

    Returns
    -------
    (float, float) or ((m,) array, (m,) array)
        (alpha, beta) in radians, each in (-pi/2, pi/2), for one point
        (x', z') or for an (m, 2) array of points.
    """
    beta = element_view_angle(aperture.a1, scene_point, aperture)
    alpha = element_view_angle(aperture.a2, scene_point, aperture)
    return alpha, beta
