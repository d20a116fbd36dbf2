"""Space-bandwidth product (SBP) of a scene segment seen by an aperture.

The SBP integrates the per-point spatial-frequency bandwidth B over the
scene's arc length and counts the resolvable degrees of freedom available to
the geometry.  Closed forms exist for broadside segments (tilt 0); tilted
segments are integrated numerically, by Gauss-Legendre quadrature on each
smooth piece of B(u), which reaches rounding level with a few dozen
bandwidth evaluations per piece.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Aperture, SceneSegment, WaveContext
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
    r = lambda s, a: math.hypot(a - s, D)
    return (2.0 / lam) * ((r(s2, a1) - r(s2, a2)) + (r(s1, a2) - r(s1, a1)))


def sbp_numeric(scene: SceneSegment, aperture: Aperture, wave: WaveContext) -> SbpResult:
    """Gauss-Legendre integral of the per-point bandwidth over the scene.

    B(u) is analytic on the segment except for at most one kink, which
    exists only when the scene line crosses the aperture (see _kink).  The
    segment is cut there and each piece takes _GL_NODES nodes.  On
    theta_max's grids that is within 5e-11 of the integral, at rounding level
    on most tilts, unless an end of the segment comes within 1 cm of the
    aperture plane: a singularity of B then nears the segment and costs
    digits (1.4e-10 at 3.2 mm, 1.4e-9 at 1.3 mm).  B is evaluated on all
    nodes in one array-valued bandwidth call.

    Returns
    -------
    SbpResult
        method 'numeric-integral'.
    """
    value = _sbp_of_tilts(np.array([scene.theta]), scene.shift, scene.half_length, aperture,
                          wave)[0]
    return SbpResult(value=float(value), method="numeric-integral")


# Gauss-Legendre nodes per smooth piece of B(u)
_GL_NODES = 32


@functools.cache
def _gauss_legendre(n: int = _GL_NODES) -> tuple:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], n even, as read-only arrays.

    Each positive root of P_n comes from Newton's iteration on the
    three-term Legendre recurrence, started at its asymptotic estimate; the
    negative half mirrors it, so nodes and weights are symmetric bit for
    bit.  Plain floats keep this free of numpy.polynomial (an import per
    process), of LAPACK, and of numpy code no other step of a run touches.
    """
    def legendre(x):
        # P_n(x) and P_n'(x)
        p0, p1 = 1.0, x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    roots, weights = [], []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) < 1e-15:
                break
        dp = legendre(x)[1]
        roots.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    # roots descend from near 1
    nodes = np.array([-x for x in roots] + roots[::-1])
    weights = np.array(weights + weights[::-1])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _kink(cos, sin, t: float, half_length: float, aperture: Aperture) -> np.ndarray:
    """u in (-half_length, half_length) of the kink of B(u) on the line
    through (t, 0) along d = (cos, -sin), or NaN where B has none; per tilt.

    Let c_i be the signed distance of the aperture end A_i = (a_i, -D) from
    the line and s_i = ((t, 0) - A_i).d, so that the end's direction toward
    p(u) projects onto d as (s_i + u) / hypot(s_i + u, c_i).  Only when c_1
    and c_2 differ in sign does the line cross the aperture: every point's
    arc then holds the stationary direction, and B's other bound switches
    between the two end values where they are equal, i.e. where
    |c_1| / r_1 = |c_2| / r_2 with s_1 + u and s_2 + u of one sign, at
    u = -(c_2 s_1 + c_1 s_2) / (c_1 + c_2).  Otherwise, an end on the line
    included, B(u) is smooth.
    """
    ends = np.array([aperture.a1, aperture.a2])[:, None]
    c = (t - ends) * sin + aperture.standoff * cos
    s = (t - ends) * cos - aperture.standoff * sin
    crossed = (c[0] * c[1] < 0.0) & (c[0] + c[1] != 0.0)
    u = -(c[1] * s[0] + c[0] * s[1]) / np.where(crossed, c[0] + c[1], 1.0)
    return np.where(crossed & (np.abs(u) < half_length), u, np.nan)


def _sbp_of_tilts(theta: np.ndarray, t: float, half_length: float, aperture: Aperture,
                  wave: WaveContext) -> np.ndarray:
    """sbp_numeric of SceneSegment(half_length, theta[i], t) for each tilt at
    once; a (tilts,) array.

    Every tilt's [-half_length, half_length] is one piece, or two when cut
    at its kink, and all pieces' nodes go through one bandwidth call.  The
    points are built as SceneSegment.points builds them, with math.cos and
    math.sin per tilt, and each tilt's pieces are added in order, so every
    value equals sbp_numeric's bit for bit whatever the batch.
    """
    cos = np.array([math.cos(th) for th in theta])
    sin = np.array([math.sin(th) for th in theta])
    # the nodes stop short of the segment's ends, so check the nearer end here
    reach = half_length * np.abs(sin).max()
    if reach >= aperture.standoff:
        raise ValueError(f"scene segment reaches {reach} toward the aperture plane, "
                         f"at or beyond its standoff {aperture.standoff}")
    kink = _kink(cos, sin, t, half_length, aperture)
    m = theta.size
    cut = np.flatnonzero(~np.isnan(kink))
    # piece j belongs to tilt tilt[j]: each tilt's first piece, then the
    # second pieces of the cut ones
    tilt = np.concatenate([np.arange(m), cut])
    lo = np.concatenate([np.full(m, -half_length), kink[cut]])
    hi = np.concatenate([np.where(np.isnan(kink), half_length, kink),
                         np.full(cut.size, half_length)])
    x, w = _gauss_legendre()
    half = 0.5 * (hi - lo)
    u = (0.5 * (hi + lo))[:, None] + half[:, None] * x
    points = np.stack([t + u * cos[tilt, None], -u * sin[tilt, None]], axis=-1)
    b = bandwidth(points, -theta[tilt, None], aperture, wave)
    piece = half * (b * w).sum(axis=-1)
    sbp = piece[:m]
    sbp[cut] += piece[m:]
    return sbp


def compute_sbp(scene: SceneSegment, aperture: Aperture, wave: WaveContext) -> SbpResult:
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
    return sbp_numeric(scene, aperture, wave)


def theta_heu(t: float, D: float) -> float:
    """Heuristic best tilt: rotate the scene square to the sight line.

    asin(t / sqrt(t^2 + D^2)), the tilt that makes the segment orthogonal to
    the line joining the aperture and scene midpoints.
    """
    if D <= 0.0:
        raise ValueError("standoff must be positive")
    return math.asin(t / math.hypot(t, D))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Width in radians at which theta_max's golden-section bracket stops.
_TILT_TOL = 1e-4


def theta_max(scene: SceneSegment, aperture: Aperture, wave: WaveContext) -> float:
    """Tilt angle maximizing the numeric SBP of the scene: a segment of its
    half_length and shift, at any tilt (the scene's own tilt is not read).

    Coarse 181-point grid over [-pi/2, pi/2], integrated in one batch,
    followed by golden-section refinement of the best bracket down to
    _TILT_TOL radians, one sbp_numeric per step.  Ties prefer the
    smaller |theta|.  Grid tilts that bring an end of the segment onto or
    behind the aperture plane are skipped; the rest form one interval
    around 0, and the bracket stays inside it.
    """

    t = scene.shift

    def objective(theta: float) -> float:
        seg = SceneSegment(scene.half_length, theta, t)
        return sbp_numeric(seg, aperture, wave).value

    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 181)
    # one end of the segment lies half_length * |sin theta| nearer the aperture than z = 0
    grid = grid[[scene.half_length * abs(math.sin(th)) < aperture.standoff for th in grid]]
    values = _sbp_of_tilts(grid, t, scene.half_length, aperture, wave)
    best = int(np.argmax(values))
    # deterministic tie-break: smallest |theta| among near-equal maxima
    near = np.nonzero(values >= values[best] * (1.0 - 1e-12))[0]
    best = int(near[np.argmin(np.abs(grid[near]))])

    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > _TILT_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
    return 0.5 * (lo + hi)
