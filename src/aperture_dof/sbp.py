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

A tilted segment's SBP is one _sbp_of_tilt call, for sbp_numeric and for
each tilt of theta_max's coarse grid: a few scalar operations in plain
floats.  The module imports neither numpy nor dataclasses (SbpResult is a
namedtuple, as geometry's value types are), so sbp-sweep loads none of them.
"""

from __future__ import annotations

import math

from .geometry import Aperture, SceneSegment, WaveContext, _value_type


class SbpResult(_value_type("SbpResult", "value method")):
    """SBP value with the formula that produced it: the paper's broadside
    'closed-form-G1' or 'closed-form-G2', or 'numeric-integral' for
    sbp_numeric's closed form, a label older than that form."""

    __slots__ = ()

    def __new__(cls, value: float, method: str):
        if method not in ("closed-form-G1", "closed-form-G2", "numeric-integral"):
            raise ValueError(f"unknown SBP method {method!r}")
        if value < 0.0:
            raise ValueError(f"SBP must be >= 0, got {value}")
        return super().__new__(cls, value, method)


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
    of the integral of B(u) that _sbp_of_tilt evaluates.

    Returns
    -------
    SbpResult
        method 'numeric-integral': the label of every segment that is not
        handed to sbp_closed_form_g1 or _g2, kept from when this integral was
        a quadrature so that dof.json's sbp_method strings stay as they were.
    """
    value = _sbp_of_tilt(scene.theta, scene.shift, scene.half_length, aperture, wave)
    return SbpResult(value=float(value), method="numeric-integral")


def _kink(s, c, half_length: float):
    """u in (-half_length, half_length) of the kink of B(u), or None where B
    has none; from the projections s = (s_1, s_2) and c = (c_1, c_2) of the
    tilt in _sbp_of_tilt.

    Only when c_1 and c_2 differ in sign does the line cross the aperture:
    every point's arc then holds the stationary direction, and B's other
    bound switches between the two end values where they are equal, i.e.
    where |c_1| / r_1 = |c_2| / r_2 with s_1 + u and s_2 + u of one sign, at
    u = -(c_2 s_1 + c_1 s_2) / (c_1 + c_2).  Otherwise, an end on the line
    included, B(u) is smooth.
    """
    if c[0] * c[1] < 0.0 and c[0] + c[1] != 0.0:
        u = -(c[1] * s[0] + c[0] * s[1]) / (c[0] + c[1])
        if abs(u) < half_length:
            return u
    return None


def _sbp_of_tilt(theta: float, t: float, half_length: float, aperture: Aperture,
                 wave: WaveContext) -> float:
    """SBP of SceneSegment(half_length, theta, t), in closed form.

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
    max_i sign(sin) dr_i).  A few scalar operations in plain floats, with
    math.cos and math.sin as SceneSegment.points takes them.
    """
    cs, sn = math.cos(theta), math.sin(theta)
    reach = half_length * abs(sn)
    if reach >= aperture.standoff:
        raise ValueError(f"scene segment reaches {reach} toward the aperture plane, "
                         f"at or beyond its standoff {aperture.standoff}")
    ends = (aperture.a1, aperture.a2)
    c = [(t - a) * sn + aperture.standoff * cs for a in ends]
    s = [(t - a) * cs - aperture.standoff * sn for a in ends]
    kink = _kink(s, c, half_length)
    # the pieces [-h, kink] and [kink, h], or [-h, h] and [h, h] without one
    u = (-half_length, half_length if kink is None else kink, half_length)
    # r_i at the piece ends as abs(complex), which is the C library's hypot,
    # as np.hypot is; math.hypot, Python's own, differs from it in the last
    # bit for about 1% of arguments
    r = [[abs(complex(si + uj, ci)) for uj in u] for si, ci in zip(s, c)]
    dr = [[ri[1] - ri[0], ri[2] - ri[1]] for ri in r]  # [end][piece]
    if c[0] * c[1] < 0.0:
        sg = math.copysign(1.0, sn)
        v = 2.0 * half_length + (max(sg * dr[0][0], sg * dr[1][0])
                                 + max(sg * dr[0][1], sg * dr[1][1]))
    else:
        v = abs((dr[1][0] + dr[1][1]) - (dr[0][0] + dr[0][1]))
    return (2.0 / wave.wavelength) * v


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

    Coarse 181-point grid over [-pi/2, pi/2], one _sbp_of_tilt per tilt,
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

    # np.linspace(-pi/2, pi/2, 181)'s own arithmetic, bit for bit
    step = math.pi / 180
    grid = [i * step - 0.5 * math.pi for i in range(180)] + [0.5 * math.pi]
    # one end of the segment lies half_length * |sin theta| nearer the aperture than z = 0
    grid = [th for th in grid if scene.half_length * abs(math.sin(th)) < aperture.standoff]
    values = [_sbp_of_tilt(th, t, scene.half_length, aperture, wave) for th in grid]
    # deterministic tie-break: smallest |theta| among near-equal maxima
    floor = max(values) * (1.0 - 1e-12)
    best = min((i for i, v in enumerate(values) if v >= floor), key=lambda i: abs(grid[i]))

    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
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
