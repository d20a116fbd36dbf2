"""Fresnel-regime kernel, DoF formula, and effective-aperture synthesis.

In the Fresnel regime (standoff dominating aperture and scene extents) the
round-trip kernel separates into a midpoint term and a pure per-pair phase
mask, so a multistatic array collapses to an effective monostatic array: the
Tx and Rx delta trains shrunk by 2 and convolved.  The classical DoF count
2*L1*L2/(lambda*D) follows from the same expansion; it is sbp.fresnel_dof,
with the other SBP formulas, so that no SBP caller needs this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SceneSegment, WaveContext
from .operator import ArrayLayout, _one_way_phases, _spectrum, _tx_rx_factors


@dataclass(frozen=True)
class ApertureFunction:
    """Delta-train aperture function: sorted positions with multiplicities."""

    positions: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        mult = np.atleast_1d(np.asarray(self.multiplicities, dtype=int))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "multiplicities", mult)
        if pos.size == 0:
            raise ValueError("aperture function must have at least one element")
        if pos.size != mult.size:
            raise ValueError("positions and multiplicities must have equal length")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if np.any(np.diff(pos) <= 0.0):
            raise ValueError("positions must be strictly increasing")
        if np.any(mult < 1):
            raise ValueError("multiplicities must be >= 1")

    @classmethod
    def from_positions(cls, positions, merge_tol: float = 1e-9) -> "ApertureFunction":
        """Delta train from raw positions, coalescing within merge_tol."""
        _check_merge_tol(merge_tol)
        pos = np.atleast_1d(np.asarray(positions, dtype=float))
        return cls(*_coalesce(pos, np.ones(pos.size, dtype=int), merge_tol))

    @property
    def total(self) -> int:
        """Total element count, sum of multiplicities."""
        return int(self.multiplicities.sum())


def _coalesce(positions: np.ndarray, mults: np.ndarray, tol: float):
    """Group sorted-by-position deltas whose positions differ by <= tol.

    A group starts at its first point (the anchor) and takes every later
    point within tol of that anchor, not of its neighbour.  Each group is
    represented by its multiplicity-weighted mean position, which keeps the
    operation symmetric in its inputs.
    """
    order = np.argsort(positions, kind="stable")
    pos, mul = positions[order].tolist(), mults[order].tolist()
    if not pos:  # left for ApertureFunction to reject
        return positions, mults
    out_pos, out_mul = [], []
    anchor, acc_w, acc_m = pos[0], 0.0, 0
    for p, m in zip(pos, mul):
        if p - anchor > tol:
            out_pos.append(acc_w / acc_m)
            out_mul.append(acc_m)
            anchor, acc_w, acc_m = p, 0.0, 0
        acc_w += p * m
        acc_m += m
    out_pos.append(acc_w / acc_m)
    out_mul.append(acc_m)
    return np.array(out_pos), np.array(out_mul, dtype=int)


def _check_merge_tol(merge_tol: float) -> None:
    if not (math.isfinite(merge_tol) and merge_tol >= 0.0):
        raise ValueError(f"merge_tol must be finite and >= 0, got {merge_tol}")


def fresnel_kernel_midpoint(x_tx, x_rx, u_scene, D: float, wave: WaveContext):
    """Factored form: midpoint kernel times the per-pair phase mask.

    exp(-j(k/4D)(x_tx - x_rx)^2) * exp(-j2kD) * exp(-j(k/D)(x_mid - x')^2)
    with x_mid = (x_tx + x_rx)/2; algebraically equal to the product of the
    two paraxial one-way legs exp(-jk(D + (x - x')^2/(2D))) that
    operator._one_way_phases takes under kernel 'fresnel'.
    """
    if D <= 0.0:
        raise ValueError("standoff must be positive")
    k = wave.k
    x_tx, x_rx, u = np.asarray(x_tx), np.asarray(x_rx), np.asarray(u_scene)
    x_mid = 0.5 * (x_tx + x_rx)
    mask = np.exp(-1j * (k / (4.0 * D)) * (x_tx - x_rx) ** 2)
    return mask * np.exp(-1j * (2.0 * k * D + (k / D) * (x_mid - u) ** 2))


def effective_aperture(
    a_tx: ApertureFunction, a_rx: ApertureFunction, merge_tol: float = 1e-9
) -> ApertureFunction:
    """Effective monostatic aperture of a Tx/Rx pair of delta trains.

    Shrinks both trains by a factor of 2 and convolves them, which lands one
    delta at every pair midpoint (x_tx + x_rx)/2 with multiplicities
    accumulated.  Total multiplicity is N_tx * N_rx and the operation is
    commutative.

    merge_tol is the coalescing tolerance in meters; wavelength/1000 is a
    good choice when a wavelength is in scope.

    When both trains lie on one lattice (_lattice_indices; every uniform
    layout, gaps allowed), the midpoints group by lattice index sum, so the
    multiplicities are the convolution of the per-index counts and each
    position is the multiplicity-weighted mean that _coalesce would take,
    from the convolution of the first moments: memory grows as the number
    of lattice sites, not as N_tx * N_rx.  Other trains coalesce all
    N_tx * N_rx pair midpoints.
    """
    _check_merge_tol(merge_tol)
    indices = _lattice_indices(a_tx.positions, a_rx.positions, merge_tol)
    if indices is None:
        half_tx = 0.5 * a_tx.positions
        half_rx = 0.5 * a_rx.positions
        pos = (half_tx[:, None] + half_rx[None, :]).ravel()
        mul = (a_tx.multiplicities[:, None] * a_rx.multiplicities[None, :]).ravel()
        return ApertureFunction(*_coalesce(pos, mul, merge_tol))
    counts, moments = [], []
    for fn, idx in zip((a_tx, a_rx), indices):
        count = np.zeros(idx[-1] + 1, dtype=int)
        count[idx] = fn.multiplicities
        moment = np.zeros(idx[-1] + 1)
        moment[idx] = fn.multiplicities * (0.5 * fn.positions)
        counts.append(count)
        moments.append(moment)
    mult = np.convolve(*counts)
    moment = np.convolve(moments[0], counts[1]) + np.convolve(counts[0], moments[1])
    sums = np.flatnonzero(mult)
    return ApertureFunction(moment[sums] / mult[sums], mult[sums])


def _lattice_indices(tx: np.ndarray, rx: np.ndarray, tol: float) -> list | None:
    """Indices k of two sorted position trains on one lattice x0 + pitch * k,
    or None if they are not on one or it has more sites than the trains
    have pairs (then all pair midpoints are the smaller arrays).

    x0 is the lowest position and pitch the smallest step within a train.
    The trains are on the lattice when every position lies within tol / 4 of
    it and pitch > 4 tol: each pair midpoint then lies within tol / 4 of
    x0 + pitch * (i + j) / 2, so the midpoints of one index sum span at most
    tol / 2 and lie more than 1.5 tol from those of the next sum, and
    _coalesce would group them by index sum.
    """
    steps = np.concatenate((np.diff(tx), np.diff(rx)))
    if steps.size == 0:
        return None
    pitch = steps.min()
    if pitch <= 4.0 * tol:
        return None
    x0 = min(tx[0], rx[0])
    indices = []
    for pos in (tx, rx):
        k = np.rint((pos - x0) / pitch)
        if np.max(np.abs(pos - x0 - k * pitch)) > 0.25 * tol:
            return None
        indices.append(k.astype(int))
    if max(k[-1] for k in indices) >= tx.size * rx.size:
        return None
    return indices


@dataclass(frozen=True)
class FresnelEquivalenceReport:
    """Singular-value comparison of a multistatic array vs its effective
    monostatic replacement `effective` (Fresnel-propagated on that side),
    under each pair kernel: sigma_pair and max_rel_discrepancy are keyed
    'fresnel' and 'exact'."""

    effective: ApertureFunction
    sigma_effective: np.ndarray
    sigma_pair: dict
    max_rel_discrepancy: dict


def fresnel_equivalence_check(
    array: ArrayLayout,
    scene: SceneSegment,
    wave: WaveContext,
    n_scene: int = 200,
) -> FresnelEquivalenceReport:
    """Compare singular values of a multistatic array against its effective
    monostatic replacement in the Fresnel regime.

    Both sides are Born operators in the package frame (aperture on z = -D,
    with D the array's aperture standoff, scene on z = 0), built from the
    operator's phase kernel, and both go through svd's spectrum routine.
    The effective side is built once and freed before the pair side, whose
    one-way factors take each kernel in turn: 'fresnel', under which the
    equivalence is exact, then 'exact', under which it is approximate.
    The effective side always uses the monostatic Fresnel kernel on the
    effective_aperture positions: one Fresnel leg at twice the wavenumber.
    Per-pair Fresnel phase masks are unit modulus row scalings, and rows
    sharing a midpoint differ only by such masks, so duplicates collapse
    into one row scaled by sqrt(multiplicity) without changing any singular
    value; that collapsed form is what is decomposed here.

    Parameters
    ----------
    array : ArrayLayout
        Tx/Rx element positions; the architecture tag is not consulted.
    scene : SceneSegment
        Must be parallel (theta = 0).
    n_scene : int
        Number of scene samples, >= 2, as in build_operator.
    """
    if scene.theta != 0.0:
        raise ValueError("Fresnel equivalence check requires a parallel scene")
    if n_scene < 2:
        raise ValueError("need n_scene >= 2")

    tol = wave.wavelength / 1000.0
    eff = effective_aperture(
        ApertureFunction.from_positions(array.tx_positions, tol),
        ApertureFunction.from_positions(array.rx_positions, tol),
        merge_tol=tol,
    )
    points = scene.points(scene.midpoints(n_scene))
    du = scene.length / n_scene
    z_plane = array.aperture.z_plane
    factor = _one_way_phases(eff.positions, points, z_plane, 2.0 * wave.k, "fresnel")
    factor *= np.sqrt(eff.multiplicities * array.tx_weight * array.rx_weight)[:, None]
    sig_eff = _spectrum((factor,), du, vectors=False).singular_values
    del factor  # freed before the pair side is built

    sigma_pair, discrepancy = {}, {}
    for kernel in ("fresnel", "exact"):
        sig = _spectrum(_tx_rx_factors(array, points, z_plane, wave.k, kernel), du,
                        vectors=False).singular_values
        n = max(sig.size, sig_eff.size)
        gap = np.pad(sig, (0, n - sig.size)) - np.pad(sig_eff, (0, n - sig_eff.size))
        sigma_pair[kernel] = sig
        discrepancy[kernel] = float(np.max(np.abs(gap)) / sig[0])
    return FresnelEquivalenceReport(eff, sig_eff, sigma_pair, discrepancy)
