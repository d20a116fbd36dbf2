"""Space-bandwidth product (SBP) of a scene segment seen by an aperture.

The SBP integrates the per-point spatial-frequency bandwidth B over the
scene's arc length and counts the resolvable degrees of freedom available to
the geometry.  Closed forms exist for broadside segments (tilt 0); tilted or
shifted segments are integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Aperture, SceneSegment, WaveContext, path_length
from .kspace import bandwidth


@dataclass(frozen=True)
class SbpResult:
    """SBP value with the method that produced it."""

    value: float
    method: str

    def __post_init__(self):
        if self.method not in ("closed-form-G1", "closed-form-G2", "numeric-integral"):
            raise ValueError(f"unknown SBP method {self.method!r}")
        if self.value < 0.0:
            raise ValueError(f"SBP must be >= 0, got {self.value}")


def sbp_closed_form_g1(L1: float, L2: float, D: float, lam: float) -> float:
    """SBP of a centered broadside scene of length L2 under an aperture L1.

    Parameters
    ----------
    L1, L2, D, lam : float
        Aperture length, scene length, standoff and wavelength, all > 0.

    Returns
    -------
    float
        (4D/lam) * (sqrt(1 + ((L1+L2)/2D)^2) - sqrt(1 + ((L1-L2)/2D)^2)).
        Saturates at 4*L2/lam for unbounded aperture and 4*L1/lam for
        unbounded scene.
    """
    if lam <= 0.0 or D <= 0.0:
        raise ValueError("wavelength and standoff must be positive")
    if L1 < 0.0 or L2 < 0.0:
        raise ValueError("lengths must be non-negative")
    s_plus = math.hypot(1.0, (L1 + L2) / (2.0 * D))
    s_minus = math.hypot(1.0, (L1 - L2) / (2.0 * D))
    return (4.0 * D / lam) * (s_plus - s_minus)


def sbp_closed_form_g2(aperture_interval, scene_interval, D: float, lam: float) -> float:
    """SBP of a shifted broadside scene from the four corner path lengths.

    Parameters
    ----------
    aperture_interval : (a1, a2)
        Aperture endpoints, a1 < a2.
    scene_interval : (s1, s2)
        Scene endpoints on the z = 0 line, s1 <= s2.
    D, lam : float
        Standoff and wavelength, > 0.
    """
    if lam <= 0.0 or D <= 0.0:
        raise ValueError("wavelength and standoff must be positive")
    a1, a2 = aperture_interval
    s1, s2 = scene_interval
    if not (a1 < a2):
        raise ValueError(f"aperture interval must satisfy a1 < a2, got [{a1}, {a2}]")
    if s1 > s2:
        raise ValueError(f"scene interval must satisfy s1 <= s2, got [{s1}, {s2}]")
    ap = Aperture(a1, a2, D)
    r = lambda s, a: path_length(a, (s, 0.0), ap)
    return (2.0 / lam) * ((r(s2, a1) - r(s2, a2)) + (r(s1, a2) - r(s1, a1)))


def sbp_numeric(
    scene: SceneSegment, aperture: Aperture, wave: WaveContext, n_points: int = 512
) -> SbpResult:
    """Trapezoidal integral of the per-point bandwidth over the scene.

    B is evaluated on the whole u-grid in one array-valued bandwidth call.

    Parameters
    ----------
    scene : SceneSegment
    aperture : Aperture
    wave : WaveContext
    n_points : int
        Uniform u-grid size, >= 16.  B(u) is smooth, so the default 512
        points put the quadrature error well below 0.1%.

    Returns
    -------
    SbpResult
        method 'numeric-integral'.
    """
    if n_points < 16:
        raise ValueError("need n_points >= 16")
    u = np.linspace(-scene.half_length, scene.half_length, n_points)
    b = bandwidth(scene.points(u), scene, aperture, wave)
    value = float(np.trapezoid(b, u))
    return SbpResult(value=value, method="numeric-integral")


def compute_sbp(scene: SceneSegment, aperture: Aperture, wave: WaveContext,
                n_points: int = 512) -> SbpResult:
    """SBP by the most specific applicable method.

    Broadside segments use the closed forms (centered -> G1 form, shifted ->
    G2 form); tilted segments fall back to the numeric integral.
    """
    if scene.theta == 0.0:
        if scene.shift == 0.0:
            value = sbp_closed_form_g1(
                aperture.length, scene.length, aperture.standoff, wave.wavelength
            )
            method = "closed-form-G1"
        else:
            value = sbp_closed_form_g2(
                (aperture.a1, aperture.a2),
                (scene.shift - scene.half_length, scene.shift + scene.half_length),
                aperture.standoff,
                wave.wavelength,
            )
            method = "closed-form-G2"
        return SbpResult(value=value, method=method)
    return sbp_numeric(scene, aperture, wave, n_points)


def theta_heu(t: float, D: float) -> float:
    """Heuristic best tilt: rotate the scene square to the sight line.

    asin(t / sqrt(t^2 + D^2)), the tilt that makes the segment orthogonal to
    the line joining the aperture and scene midpoints.
    """
    if D <= 0.0:
        raise ValueError("standoff must be positive")
    return math.asin(t / math.hypot(t, D))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def theta_max(
    t: float,
    scene: SceneSegment,
    aperture: Aperture,
    wave: WaveContext,
    n_points: int = 512,
    tol: float = 1e-4,
) -> float:
    """Tilt angle maximizing the numeric SBP for a segment shifted by t.

    Coarse 181-point grid over [-pi/2, pi/2] followed by golden-section
    refinement of the best bracket down to `tol` radians.  Ties prefer the
    smaller |theta|.
    """

    def objective(theta: float) -> float:
        seg = SceneSegment(scene.half_length, theta, t)
        return sbp_numeric(seg, aperture, wave, n_points).value

    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 181)
    values = np.array([objective(th) for th in grid])
    best = int(np.argmax(values))
    # deterministic tie-break: smallest |theta| among near-equal maxima
    near = np.nonzero(values >= values[best] * (1.0 - 1e-12))[0]
    best = int(near[np.argmin(np.abs(grid[near]))])

    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
    return 0.5 * (lo + hi)

