"""The SBP as a quadrature of the public bandwidth: the tests' oracle for the
package's closed form, sharing none of its algebra.

B(u) = kspace.bandwidth on the scene line is analytic on the segment except at
one kink, where the line, extended, crosses the aperture. Off the kink its
singularities lie where the distance from p(u) to an aperture end vanishes, so
at least p(u)'s depth in front of the aperture plane away from the real u
axis. So the segment is cut at the kink, each piece is bisected until no panel
is longer than the least depth on it (panels grade toward an end near the
plane), and each panel takes NODES Gauss-Legendre nodes. A singularity is then
at least two panel half-lengths from every panel, where NODES = 20 converges
to far below rounding.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from aperture_dof import SceneSegment, bandwidth, scene_projection_angle

NODES = 20
_X, _W = leggauss(NODES)


def kink(seg: SceneSegment, ap) -> float | None:
    """u of B's kink on the segment, or None where it has none.

    Where the aperture ends lie on opposite sides of the scene line, B's
    bound other than the line's own direction switches ends where the
    directions from both ends project equally onto the line. Mirroring end 2
    across the line keeps its projection and its distance, so that point is
    where the line through end 1 and the mirrored end 2 meets the scene line.
    """
    d = np.array([math.cos(seg.theta), -math.sin(seg.theta)])
    n = np.array([math.sin(seg.theta), math.cos(seg.theta)])
    q = np.array([seg.shift, 0.0])
    end1, end2 = np.array([ap.a1, -ap.standoff]), np.array([ap.a2, -ap.standoff])
    h1, h2 = (end1 - q) @ n, (end2 - q) @ n
    if h1 * h2 >= 0.0 or h1 + h2 == 0.0:
        return None
    mirrored = end2 - 2.0 * h2 * n
    u = (end1 + h1 / (h1 + h2) * (mirrored - end1) - q) @ d
    return u if abs(u) < seg.half_length else None


def _panels(lo: float, hi: float, depth) -> list:
    """Left edges of the panels that bisect [lo, hi] until none is longer
    than the least depth on it."""
    if hi - lo <= min(depth(lo), depth(hi)):
        return [lo]
    mid = 0.5 * (lo + hi)
    return _panels(lo, mid, depth) + _panels(mid, hi, depth)


def integral(seg: SceneSegment, ap, wave, split: bool = True) -> float:
    """Integral of the public bandwidth over the segment; split=False skips
    the cut at the kink."""
    h = seg.half_length
    k = kink(seg, ap) if split else None
    cuts = [-h, h] if k is None else [-h, k, h]
    depth = lambda u: ap.standoff - u * math.sin(seg.theta)
    edges = np.array(sum((_panels(lo, hi, depth) for lo, hi in zip(cuts, cuts[1:])), []) + [h])
    half = 0.5 * np.diff(edges)
    u = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _X
    b = bandwidth(seg.points(u), scene_projection_angle(seg), ap, wave)
    return float((half * (b @ _W)).sum())
