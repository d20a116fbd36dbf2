"""Space-bandwidth product (SBP) of a scene segment seen by an aperture.

The SBP integrates the per-point spatial-frequency bandwidth B over the
scene's arc length and counts the resolvable degrees of freedom available to
the geometry.  The integral has a closed form for every segment in front of
the aperture plane: B(u) is a combination of the derivatives of the distances
from the aperture ends to p(u), so the SBP is a combination of those
distances at the segment's ends (and at B's kink, where it has one).
Broadside segments keep the paper's G1 and G2 formulas.  The Fresnel-regime
counts sit beside them: fresnel_dof, 2*L1*L2/(lambda*D), is the far-standoff
limit of the G1 form, and sbp_g3_fresnel scales it by cos(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Aperture, SceneSegment, WaveContext


@dataclass(frozen=True)
class SbpResult:
    """SBP value with the formula that produced it: the paper's broadside
    'closed-form-G1' or 'closed-form-G2', or 'numeric-integral' for
    sbp_numeric's closed form, a label older than that form."""

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
    """SBP of any segment in front of the aperture plane, by the closed form
    of the integral of B(u) that _sbp_of_tilts evaluates (one tilt).

    Returns
    -------
    SbpResult
        method 'numeric-integral': the label of every segment that is not
        handed to sbp_closed_form_g1 or _g2, kept from when this integral was
        a quadrature so that dof.json's sbp_method strings stay as they were.
    """
    value = _sbp_of_tilts(np.array([scene.theta]), scene.shift, scene.half_length, aperture,
                          wave)[0]
    return SbpResult(value=float(value), method="numeric-integral")


def _kink(s: np.ndarray, c: np.ndarray, half_length: float) -> np.ndarray:
    """u in (-half_length, half_length) of the kink of B(u), or NaN where B
    has none; per tilt, from the (2, tilts) projections s and c of
    _sbp_of_tilts.

    Only when c_1 and c_2 differ in sign does the line cross the aperture:
    every point's arc then holds the stationary direction, and B's other
    bound switches between the two end values where they are equal, i.e.
    where |c_1| / r_1 = |c_2| / r_2 with s_1 + u and s_2 + u of one sign, at
    u = -(c_2 s_1 + c_1 s_2) / (c_1 + c_2).  Otherwise, an end on the line
    included, B(u) is smooth.
    """
    crossed = (c[0] * c[1] < 0.0) & (c[0] + c[1] != 0.0)
    u = -(c[1] * s[0] + c[0] * s[1]) / np.where(crossed, c[0] + c[1], 1.0)
    return np.where(crossed & (np.abs(u) < half_length), u, np.nan)


def _sbp_of_tilts(theta: np.ndarray, t: float, half_length: float, aperture: Aperture,
                  wave: WaveContext) -> np.ndarray:
    """SBP of SceneSegment(half_length, theta[i], t) for each tilt at once, in
    closed form; a (tilts,) array.

    Let c_i be the signed distance of the aperture end A_i = (a_i, -D) from
    the line through (t, 0) along d = (cos, -sin), and s_i = ((t, 0) - A_i).d,
    so that A_i lies r_i(u) = hypot(s_i + u, c_i) from p(u), and its
    direction toward p(u) projects onto d as g_i = (s_i + u) / r_i = r_i'(u).
    Where the line misses the aperture (c_1 c_2 >= 0), B = (2/lam)|g_2 - g_1|
    is of one sign on the segment, so SBP = (2/lam)|dr_2 - dr_1|, dr_i the
    change of r_i over it.  Where it crosses, the arc of every point holds
    -sign(sin) d, and B = (2/lam)(1 + max_i sign(sin) g_i): the dominant end
    switches only at _kink, and on each piece its change of sign(sin) r_i is
    the larger, so SBP = (2/lam)(2 half_length + sum over the pieces of
    max_i sign(sin) dr_i).  Every step is elementwise, with math.cos and
    math.sin per tilt as SceneSegment.points takes them, so every value
    equals sbp_numeric's bit for bit whatever the batch.
    """
    cos = np.array([math.cos(th) for th in theta])
    sin = np.array([math.sin(th) for th in theta])
    reach = half_length * np.abs(sin).max()
    if reach >= aperture.standoff:
        raise ValueError(f"scene segment reaches {reach} toward the aperture plane, "
                         f"at or beyond its standoff {aperture.standoff}")
    ends = np.array([aperture.a1, aperture.a2])[:, None]
    c = (t - ends) * sin + aperture.standoff * cos
    s = (t - ends) * cos - aperture.standoff * sin
    kink = _kink(s, c, half_length)
    # the pieces [-h, kink] and [kink, h], or [-h, h] and [h, h] without one
    u = np.stack([np.full_like(cos, -half_length), np.where(np.isnan(kink), half_length, kink),
                  np.full_like(cos, half_length)])
    dr = np.diff(np.hypot(s[:, None] + u, c[:, None]), axis=1)  # (end, piece, tilt)
    missed = np.abs(dr[1].sum(axis=0) - dr[0].sum(axis=0))
    crossed = 2.0 * half_length + (np.sign(sin) * dr).max(axis=0).sum(axis=0)
    return (2.0 / wave.wavelength) * np.where(c[0] * c[1] < 0.0, crossed, missed)


def fresnel_dof(L1: float, L2: float, D: float, lam: float) -> float:
    """Fresnel-regime DoF count 2*L1*L2/(lambda*D), same for mono and multi."""
    if min(L1, L2, D, lam) <= 0.0:
        raise ValueError("all Fresnel DoF inputs must be positive")
    return 2.0 * L1 * L2 / (lam * D)


def sbp_g3_fresnel(L1: float, L2: float, D: float, lam: float, theta: float) -> float:
    """Fresnel approximation of the tilted-scene SBP: fresnel_dof * cos(theta)."""
    if abs(theta) > 0.5 * math.pi + 1e-12:
        raise ValueError(f"|theta| must be <= pi/2, got {theta}")
    return fresnel_dof(L1, L2, D, lam) * math.cos(theta)


def compute_sbp(scene: SceneSegment, aperture: Aperture, wave: WaveContext) -> SbpResult:
    """SBP by the most specific applicable method.

    Broadside segments use the paper's closed forms (centered -> G1 form,
    shifted -> G2 form); tilted segments take sbp_numeric.
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
    """Tilt angle maximizing the SBP of the scene: a segment of its
    half_length and shift, at any tilt (the scene's own tilt is not read).

    Coarse 181-point grid over [-pi/2, pi/2], in one _sbp_of_tilts batch,
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
