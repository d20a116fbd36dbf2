"""Discretized Born forward operator and its singular-value analysis.

The measurement model is s(x_tx, x_rx) = integral of
exp(-jk R(x_tx, p)) * exp(-jk R(x_rx, p)) * gamma(p) du over the scene
segment.  Discretizing both domains with quadrature weights folded
symmetrically into the matrix (entry *= sqrt(w_row * w_col)) makes the
discrete singular values approximate the continuous operator's, so the
Hilbert-Schmidt sum rule sum(sigma^2) = V_A * V_B holds at quadrature
accuracy.

A monostatic array of N transceivers yields N rows (x_tx = x_rx); a
multistatic array yields the full Tx x Rx product, N^2 rows for N = 200.
That product is a row-wise Khatri-Rao product of two N x n one-way phase
factors, and the operator holds only the factors: singular values come
from the eigen-decomposition of the n_scene x n_scene Gram matrix, an
elementwise product of two one-way Grams, and multistatic images from
cross-Grams of the factors at the image points and on the grid, streamed
over blocks of image points so that no array spans both all the points
and the elements.  A monostatic image is formed on the data side instead:
the N x b data once, then the conjugated factor at each block of points.
When a layout's Tx and Rx positions and weights coincide (every uniform
layout) the two factors are one shared table, and each Gram is one matrix
product squared elementwise.  Analyses that keep only the leading
singular triplets (resolution's PINV keeps the -10 dB knee, about 30 of
400) take them by a Rayleigh-Ritz step on a sample of the Gram's range
(svd(op, leading=True)) rather than a full eigendecomposition.  A
values-only spectrum of a mirror-symmetric operator (every factor equal to
f[::-1, ::-1] within _MIRROR_TOL: a centred broadside scene under a centred
uniform array) comes from the even and odd blocks of its Gram or matrix
(_mirror_blocks), two half-size solves for a quarter of the flops; by
Weyl's inequality no value moves by more than half the asymmetry's 2-norm.
Every kernel writes into the array it returns: phase tables are exponentiated in
place, and the Gram is weighted in the array of its first matrix product
and never symmetrized, because the eigensolvers read only its lower
triangle and the norm only its diagonal; only the Rayleigh-Ritz products
and the mirror blocks read the upper triangle, which the matrix products
fill with the same values up to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import MONOSTATIC, MULTISTATIC, Aperture, SceneSegment, WaveContext, _value_type

# image points per cross-Gram block in adjoint_to_points: large enough for
# efficient matrix products, small enough that at N = 1000, n_scene = 400 a
# block's factors take 2 MiB each and its cross-Gram 0.8 MiB.  resolution on
# configs/multi_n1000.cfg peaks at 51 MiB, against 58 with blocks of 256, in
# the same wall time
_POINT_BLOCK = 128

# Rayleigh-Ritz in svd(op, leading=True): the first sample size, and the
# floor that the smallest Ritz value, relative to the largest, must reach
# before the sample is taken to hold every triplet above it
_RITZ_START = 64
_RITZ_FLOOR = 1e-12

# the relative asymmetry ||f - f[::-1, ::-1]||_F / ||f||_F up to which a
# factor counts as mirror-symmetric: the shipped symmetric configs measure
# 6e-15 to 2.8e-14, the phase tables' rounding, the shifted and tilted ones
# 1.4; and the rows per block of that comparison
_MIRROR_TOL = 1e-12
_MIRROR_ROWS = 64


class ArrayLayout(_value_type("ArrayLayout", "architecture tx_positions rx_positions "
                                              "aperture tx_weight rx_weight")):
    """Element positions of a mono- or multistatic array on an aperture.

    Attributes
    ----------
    architecture : str
        'monostatic' (transceivers; measurement set {(x_i, x_i)}) or
        'multistatic' (measurement set = full Tx x Rx product).
    tx_positions, rx_positions : np.ndarray
        Element positions in meters, all within [a1, a2].
    aperture : Aperture
    tx_weight, rx_weight : float
        Per-element quadrature weights (meters of aperture represented by
        one element).  Uniform layouts use length / n.
    """

    __slots__ = ()

    def __new__(cls, architecture: str, tx_positions, rx_positions, aperture: Aperture,
                tx_weight: float, rx_weight: float):
        if architecture not in (MONOSTATIC, MULTISTATIC):
            raise ValueError(f"unknown architecture {architecture!r}")
        tx = np.atleast_1d(np.asarray(tx_positions, dtype=float))
        rx = np.atleast_1d(np.asarray(rx_positions, dtype=float))
        if tx.size == 0 or rx.size == 0:
            raise ValueError("array must have at least one element")
        # NaN would pass every range check below
        for name, value in (("tx_positions", tx), ("rx_positions", rx),
                            ("tx_weight", tx_weight), ("rx_weight", rx_weight)):
            bad = np.asarray(value)[~np.isfinite(value)]
            if bad.size:
                raise ValueError(f"{name} must be finite, got {bad.flat[0]}")
        lo, hi = aperture.a1, aperture.a2
        for name, pos in (("tx", tx), ("rx", rx)):
            if pos.min() < lo - 1e-12 or pos.max() > hi + 1e-12:
                raise ValueError(f"{name} positions fall outside the aperture [{lo}, {hi}]")
        if architecture == MONOSTATIC and not np.array_equal(tx, rx):
            raise ValueError("monostatic layout requires identical tx and rx positions")
        if tx_weight <= 0.0 or rx_weight <= 0.0:
            raise ValueError("element quadrature weights must be positive")
        return super().__new__(cls, architecture, tx, rx, aperture, tx_weight, rx_weight)

    @classmethod
    def uniform(cls, aperture: Aperture, n: int, architecture: str) -> "ArrayLayout":
        """n elements at the midpoints of n equal cells tiling the aperture.

        The midpoint grid keeps every element weight equal to length/n, so
        the discrete measurement measure sums exactly to the aperture length.
        """
        if n < 1:
            raise ValueError("need at least one element")
        pitch = aperture.length / n
        pos = aperture.a1 + (np.arange(n) + 0.5) * pitch
        return cls(architecture, pos, pos.copy(), aperture, pitch, pitch)


class DiscreteOperator(_value_type("DiscreteOperator",
                                   "factors row_weight col_weight scene_u array scene wave")):
    """Weighted forward operator, held as its one-way phase factors, plus
    the grids and weights that produced it.

    matrix[m, c] = xi(pair_m, p_c) * sqrt(row_weight * col_weight),
    with |xi| = 1; every row carries the same weight, tx_weight for a
    monostatic array and tx_weight * rx_weight for a multistatic one, and
    every column the scene cell width col_weight.  Rows are measurement
    pairs (mono: (x_i, x_i); multi: row-major over Tx x Rx), columns are
    scene samples at the midpoint grid scene_u.  The matrix is the row-wise
    Khatri-Rao product of `factors` times sqrt(col_weight): a monostatic
    operator has one factor, the weighted round-trip phases (N, n); a
    multistatic one has the weighted Tx and Rx phases (N_tx, n) and
    (N_rx, n), one shared array when the layout's Tx and Rx coincide, so
    the N^2 x n product is never stored.
    """

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return math.prod(f.shape[0] for f in self.factors), self.scene_u.size

    @property
    def matrix(self) -> np.ndarray:
        """The dense weighted matrix, materialized anew on every access (a
        multistatic N = 200, n = 400 operator is 244 MB); no analysis reads
        it, it is there to check small operators against."""
        return _khatri_rao(self.factors, self.col_weight)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Weighted matrix times scene-side x, (n,) or (n, b), from the
        factors: a multistatic column is (T diag(sqrt(w) x)) R^T, row-major."""
        cols = x.reshape(x.shape[0], -1) * math.sqrt(self.col_weight)
        if len(self.factors) == 1:
            out = self.factors[0] @ cols
        else:
            t, r = self.factors
            out = np.stack([((t * c) @ r.T).ravel() for c in cols.T], axis=1)
        return out.reshape((out.shape[0],) + x.shape[1:])

    def adjoint(self, data_w: np.ndarray) -> np.ndarray:
        """Weighted matrix^H times weighted data, (n_rows,) or (n_rows, b).

        A multistatic column, viewed as (n_tx, n_rx * b), goes through one
        GEMM with the conjugated Tx factor, and a Hadamard reduction over Rx
        against the conjugated Rx factor finishes the double sum.
        """
        v = data_w.reshape(data_w.shape[0], -1)
        if len(self.factors) == 1:
            out = self.factors[0].conj().T @ v
        else:
            t, r = self.factors
            n_tx, n_rx, n = t.shape[0], r.shape[0], t.shape[1]
            # g(c, b) = sum_ij conj(t[i, c] r[j, c]) v[(i, j), b]
            g = (t.conj().T @ v.reshape(n_tx, -1)).reshape(n, n_rx, -1)
            out = np.einsum("cjb,cj->cb", g, r.conj().T)
        out *= math.sqrt(self.col_weight)
        return out.reshape((out.shape[0],) + data_w.shape[1:])

    def forward(self, gamma: np.ndarray) -> np.ndarray:
        """Physical measurement vector s for scene reflectivity samples."""
        gamma = np.asarray(gamma)
        return self._apply(math.sqrt(self.col_weight) * gamma) / math.sqrt(self.row_weight)

    def weight_data(self, data: np.ndarray) -> np.ndarray:
        """Physical measurement values -> weighted coordinates."""
        return math.sqrt(self.row_weight) * np.asarray(data)


def _one_way_phases(positions: np.ndarray, points: np.ndarray, z_plane: float, k: float,
                    kernel: str = "exact") -> np.ndarray:
    """exp(-jk R) from each of n positions on the line z = z_plane to each of
    m scene points (x', z'); (n, m).

    With dx = x - x' and dz = z' - z_plane, kernel 'exact' takes
    R = hypot(dx, dz) and 'fresnel' the paraxial R = dz + dx^2/(2 dz).
    """
    if kernel not in ("exact", "fresnel"):
        raise ValueError(f"unknown kernel {kernel!r}")
    dx = positions[:, None] - points[None, :, 0]
    dz = points[None, :, 1] - z_plane
    # in place, in the operation order of exp(-1j * k * hypot(dx, dz)) and
    # exp(-1j * (k dz + k / (2 dz) dx^2)): the same bits, with one real and
    # one complex (n, m) table alive
    if kernel == "exact":
        arg = np.multiply(-1j * k, np.hypot(dx, dz, out=dx))
    else:
        np.square(dx, out=dx)
        dx *= k / (2.0 * dz)
        dx += k * dz
        arg = np.multiply(-1j, dx)
    return np.exp(arg, out=arg)


def _tx_rx_factors(array: ArrayLayout, points: np.ndarray, z_plane: float, k: float,
                   kernel: str = "exact") -> tuple:
    """The Tx and Rx phases at scene points (m, 2) times the square roots of
    their weights; one array, returned twice, when the layout's Tx and Rx
    positions and weights coincide."""
    f_tx = _one_way_phases(array.tx_positions, points, z_plane, k, kernel)
    f_tx *= math.sqrt(array.tx_weight)
    if array.tx_weight == array.rx_weight \
            and np.array_equal(array.tx_positions, array.rx_positions):
        return f_tx, f_tx
    f_rx = _one_way_phases(array.rx_positions, points, z_plane, k, kernel)
    f_rx *= math.sqrt(array.rx_weight)
    return f_tx, f_rx


def _weighted_factors(array: ArrayLayout, points: np.ndarray, k: float) -> tuple:
    """The operator's factors at arbitrary scene points (m, 2): the
    round-trip phases times sqrt(tx_weight) for a monostatic array, the
    weighted Tx and Rx phases (_tx_rx_factors) otherwise."""
    z_plane = array.aperture.z_plane
    if array.architecture == MONOSTATIC:
        e = _one_way_phases(array.tx_positions, points, z_plane, k)
        e *= e
        e *= math.sqrt(array.tx_weight)
        return (e,)
    return _tx_rx_factors(array, points, z_plane, k)


def build_operator(
    scene: SceneSegment, array: ArrayLayout, wave: WaveContext, n_scene: int = 400
) -> DiscreteOperator:
    """Assemble the weighted operator's factors on a midpoint scene grid.

    Parameters
    ----------
    scene : SceneSegment
    array : ArrayLayout
    wave : WaveContext
    n_scene : int
        Number of scene samples (midpoints of n_scene equal cells), >= 2.

    Returns
    -------
    DiscreteOperator
    """
    if n_scene < 2:
        raise ValueError("need n_scene >= 2")
    du = scene.length / n_scene
    scene_u = scene.midpoints(n_scene)
    points = scene.points(scene_u)
    if points[:, 1].min() <= array.aperture.z_plane:
        raise ValueError("scene touches or crosses the aperture plane")

    mono = array.architecture == MONOSTATIC
    return DiscreteOperator(
        factors=_weighted_factors(array, points, wave.k),
        row_weight=array.tx_weight if mono else array.tx_weight * array.rx_weight,
        col_weight=du,
        scene_u=scene_u,
        array=array,
        scene=scene,
        wave=wave,
    )


def _khatri_rao(factors: tuple, col_weight: float) -> np.ndarray:
    """Row-wise Khatri-Rao product of the factors times sqrt(col_weight)."""
    if len(factors) == 1:
        return factors[0] * math.sqrt(col_weight)
    t, r = factors
    kr = (t[:, None, :] * r[None, :, :]).reshape(-1, t.shape[1])
    kr *= math.sqrt(col_weight)
    return kr


def _factored_gram(tx_factor: np.ndarray, rx_factor: np.ndarray, col_weight: float) -> np.ndarray:
    """Hermitian Gram of the Tx x Rx product rows: the elementwise product
    of the one-way Grams, so the N^2 rows never enter a matrix product; a
    shared Tx/Rx table has one one-way Gram, squared.

    The products accumulate in the Tx Gram's array.  eigh, eigvalsh and the
    trace read only its lower triangle and the real part of its diagonal;
    the upper triangle, which the Rayleigh-Ritz products and the mirror
    blocks also read, is what the matrix products left there, the conjugate
    entries up to rounding.
    The weight goes in as two multiplies by sqrt(col_weight), the rounding
    of sqrt(w_i) sqrt(w_j), not one by col_weight.
    """
    root_w = math.sqrt(col_weight)
    gram = tx_factor.conj().T @ tx_factor
    gram *= gram if rx_factor is tx_factor else rx_factor.conj().T @ rx_factor
    gram *= root_w
    gram *= root_w
    return gram


class SvdSpectrum(_value_type("SvdSpectrum", "singular_values right_vectors hs_norm_sq")):
    """Singular values (non-increasing) and right singular vectors.

    right_vectors holds the scene-side vectors in weighted coordinates as
    columns; measurement-side vectors are reconstructed on demand (see
    left_vectors).  A full spectrum holds min(rows, cols) values, a leading
    one (svd(op, leading=True)) k <= min(rows, cols), down to the
    Rayleigh-Ritz floor.  hs_norm_sq is in both the squared Frobenius norm of
    the whole weighted matrix, against which the sum rule sum(sigma^2) is
    validated; a leading spectrum's tail below the floor is far inside the
    rule's tolerance.  right_vectors is None when they were not computed.
    """

    __slots__ = ()

    def __new__(cls, singular_values, right_vectors, hs_norm_sq: float):
        s = np.asarray(singular_values, dtype=float)
        if s.size == 0:
            raise ValueError("empty spectrum")
        slack = 1e-12 * max(s[0], 1.0)
        if np.any(np.diff(s) > slack):
            raise ValueError("singular values must be non-increasing")
        if s[-1] < -slack:
            raise ValueError("singular values must be non-negative")
        if hs_norm_sq > 0.0:
            rel = abs(float(np.sum(s * s)) - hs_norm_sq) / hs_norm_sq
            if rel > 1e-10:
                raise ValueError(f"sum rule violated: relative error {rel:.3e}")
        return super().__new__(cls, s, right_vectors, hs_norm_sq)


def svd(op: DiscreteOperator, vectors: bool = True, *, leading: bool = False) -> SvdSpectrum:
    """Singular-value decomposition of the weighted operator.

    Multistatic operators with many more rows than columns go through the
    n_scene x n_scene Gram matrix built from their one-way factors
    (_factored_gram), whose eigenvalues are the squared singular values and
    whose trace is the squared Frobenius norm; every other operator
    materializes its small matrix for a direct SVD.  With vectors=False only
    the singular values are computed and right_vectors is None.  When every
    factor f then has ||f - f[::-1, ::-1]||_F <= _MIRROR_TOL ||f||_F,
    measured and never inferred from the geometry, the values are those of
    the even and odd blocks of the Gram or matrix (_mirror_blocks), merged:
    by Weyl's inequality each moves by at most half the 2-norm of the
    asymmetry, on the shipped symmetric configs 1.3e-11 sigma_1 or less
    down to 1e-6 sigma_1.

    leading=True returns only the leading triplets, for analyses that keep
    a knee far above the floor, from the column Gram of any operator by
    Rayleigh-Ritz (_leading_eigh): k values, down to one at most
    _RITZ_FLOOR times the largest, or all of them when the Gram has no
    such floor; hs_norm_sq is still the Gram's trace, the full norm.
    """
    return _spectrum(op.factors, op.col_weight, vectors, leading)


def _spectrum(factors: tuple, col_weight: float, vectors: bool,
              leading: bool = False) -> SvdSpectrum:
    """svd on an operator's factors and column weight alone."""
    shape = (math.prod(f.shape[0] for f in factors), factors[0].shape[1])
    split = not (vectors or leading) and all(
        map(_is_mirror_symmetric, factors[:1] if factors[-1] is factors[0] else factors))
    try:
        if leading or (len(factors) == 2 and shape[0] > 4 * shape[1]):
            if len(factors) == 2:
                gram = _factored_gram(*factors, col_weight)
            else:
                gram = factors[0].conj().T @ factors[0]
                gram *= col_weight
            hs = float(np.trace(gram).real)
            if leading:
                evals, evecs = _leading_eigh(gram, min(shape))
            elif split:
                blocks = _mirror_blocks(gram)
                del gram  # the half-size solves run without the full Gram
                evals = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
                evecs = None
            else:
                evals, evecs = np.linalg.eigh(gram) if vectors else (np.linalg.eigvalsh(gram), None)
            # eigh's eigenvalues ascend; non-increasing order is the reversed view
            sigma = np.sqrt(np.clip(evals[::-1], 0.0, None))
            v = None if evecs is None or not vectors else evecs[:, ::-1]
        else:
            m = _khatri_rao(factors, col_weight)
            hs = float(np.vdot(m, m).real)
            if vectors:
                _, sigma, vh = np.linalg.svd(m, full_matrices=False)
                v = vh.conj().T
            elif split:
                blocks = _mirror_blocks(m)
                del m  # the half-size solves run without the full matrix
                sigma = np.sort(np.concatenate(
                    [np.linalg.svd(b, compute_uv=False) for b in blocks]))[::-1]
                v = None
            else:
                sigma, v = np.linalg.svd(m, compute_uv=False), None
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"SVD of {shape} operator failed: {exc}") from exc
    return SvdSpectrum(singular_values=sigma, right_vectors=v, hs_norm_sq=hs)


def _is_mirror_symmetric(f: np.ndarray) -> bool:
    """Whether ||f - f[::-1, ::-1]||_F <= _MIRROR_TOL ||f||_F: row i against
    row rows-1-i reversed, over blocks of _MIRROR_ROWS rows, stopping at the
    first block that takes the sum past the limit."""
    limit = _MIRROR_TOL ** 2 * float(np.vdot(f, f).real)
    mirror = f[::-1, ::-1]
    gap = 0.0
    for start in range(0, f.shape[0], _MIRROR_ROWS):
        d = f[start:start + _MIRROR_ROWS] - mirror[start:start + _MIRROR_ROWS]
        gap += float(np.vdot(d, d).real)
        if gap > limit:
            return False
    return True


def _mirror_blocks(a: np.ndarray) -> tuple:
    """Even and odd blocks, (ceil(m/2), ceil(n/2)) and (floor(m/2),
    floor(n/2)), of the centrosymmetric part C = (a + a[::-1, ::-1]) / 2 of
    a (m, n).

    The even basis (e_i + e_{m-1-i}) / sqrt(2), plus the middle e_i of an
    odd size, and the odd basis (e_i - e_{m-1-i}) / sqrt(2) on each side
    bring C to block-diagonal form, so the two blocks hold its singular
    values, and for a Hermitian C its eigenvalues; those move from a's by at
    most the 2-norm of (a - a[::-1, ::-1]) / 2 (Weyl).  Each block is half
    the sum or difference of a's four quadrants, read as views, with a
    middle row or column, counted twice, weighted 1/sqrt(2): every
    temporary is a quarter of a.
    """
    m, n = a.shape
    h, w = (m + 1) // 2, (n + 1) // 2
    outer = a[:h, :w] + a[::-1, ::-1][:h, :w]
    inner = a[:h, ::-1][:, :w] + a[::-1, :w][:h]
    even = outer + inner
    even *= 0.5
    if m % 2:
        even[-1] *= math.sqrt(0.5)
    if n % 2:
        even[:, -1] *= math.sqrt(0.5)
    odd = outer[:m // 2, :n // 2]
    odd -= inner[:m // 2, :n // 2]
    odd *= 0.5
    return even, odd


def _leading_eigh(gram: np.ndarray, rank: int) -> tuple:
    """Ascending eigenvalues and eigenvectors of the Hermitian Gram (n, n)
    down to a floor, by Rayleigh-Ritz on a sample of its range, at most the
    `rank` = min(rows, cols) largest: the operator has no more singular
    values, and the Gram's eigenvalues past them are rounding.

    Q spans k evenly spaced Gram columns after one power step (QR, times
    the Gram, QR again), and the eigenpairs of Q^H G Q, rotated back by Q,
    are the Ritz pairs.  Once the smallest Ritz value is at most
    _RITZ_FLOOR times the largest, the sample holds every eigenpair above
    the floor to rounding, as for a Gram whose spectrum falls off past its
    space-bandwidth product; until then k doubles from _RITZ_START, and at
    k = n the whole Gram is decomposed.
    """
    n = gram.shape[0]
    k = min(n, _RITZ_START)
    while k < n:
        q = np.linalg.qr(gram[:, np.arange(k) * n // k])[0]
        q = np.linalg.qr(gram @ q)[0]
        evals, w = np.linalg.eigh(q.conj().T @ (gram @ q))
        if evals[0] <= _RITZ_FLOOR * evals[-1]:
            w = q @ w
            break
        k = min(2 * k, n)
    else:
        evals, w = np.linalg.eigh(gram)
    return evals[-rank:], w[:, -rank:]


def left_vectors(op: DiscreteOperator, spectrum: SvdSpectrum, count: int) -> np.ndarray:
    """First `count` measurement-side singular vectors, columns, on demand."""
    if spectrum.right_vectors is None:
        raise ValueError("spectrum carries no singular vectors")
    sig = spectrum.singular_values[:count]
    if np.any(sig <= 0.0):
        raise ValueError("cannot reconstruct left vectors for zero singular values")
    return op._apply(spectrum.right_vectors[:, :count]) / sig


def sigma_bar(spectrum: SvdSpectrum) -> float:
    """Normalized sum of singular values, sum(sigma_i / sigma_1)."""
    s = spectrum.singular_values
    if s[0] <= 0.0:
        raise ValueError("all-zero spectrum")
    return float(np.sum(s / s[0]))


def sigma_bar_sq(spectrum: SvdSpectrum) -> float:
    """Normalized sum of squared singular values, sum(sigma_i^2) / sigma_1^2."""
    s = spectrum.singular_values
    if s[0] <= 0.0:
        raise ValueError("all-zero spectrum")
    return float(np.sum((s / s[0]) ** 2))


def dof_knee(spectrum: SvdSpectrum, drop_db: float = -10.0) -> int:
    """1-based index where the normalized spectrum first drops below drop_db.

    Returns the full spectrum length if no value falls below the threshold.
    """
    s = spectrum.singular_values
    if s[0] <= 0.0:
        raise ValueError("all-zero spectrum")
    threshold = s[0] * 10.0 ** (drop_db / 20.0)
    below = np.nonzero(s < threshold)[0]
    if below.size == 0:
        return int(s.size)
    return int(below[0]) + 1


def adjoint_to_points(
    op: DiscreteOperator, coeffs: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Adjoint image, at arbitrary scene points, of the data op applied to
    scene-side coefficient columns.

    For each column c of `coeffs` (weighted scene coordinates) computes
    g(q) = sum_m conj(xi(pair_m, q)) * sqrt(row_weight) * (A c)[m], the
    continuous adjoint image of the data A c sampled at `points`.  A
    monostatic operator has one factor F, whose N x b data F sqrt(w) c are
    formed once and imaged by F_q^H at each block of points.  Multistatic
    data, N^2 x b, are never formed: g = ((T_q^H T) o (R_q^H R)) sqrt(w) c,
    the cross-Gram of the factors at the points (T_q, R_q) and on the grid
    (T, R), where a shared Tx/Rx table takes one matrix product, squared.
    The points go through in blocks of _POINT_BLOCK, each with its own
    factors, so memory grows with the block and the (m, b) result, not with
    m times the element or scene count.

    Parameters
    ----------
    coeffs : (n_scene,) or (n_scene, b) array
    points : (m, 2) scene points

    Returns
    -------
    (m,) or (m, b) complex array
    """
    points = np.asarray(points, dtype=float)
    root_w = math.sqrt(op.col_weight)
    out = np.empty((points.shape[0],) + np.shape(coeffs)[1:], dtype=complex)
    mono = len(op.factors) == 1
    if mono:
        data = op.factors[0] @ (root_w * coeffs)
    for start in range(0, points.shape[0], _POINT_BLOCK):
        stop = start + _POINT_BLOCK
        at_points = _weighted_factors(op.array, points[start:stop], op.wave.k)
        if mono:
            out[start:stop] = at_points[0].conj().T @ data
            continue
        gram = at_points[0].conj().T @ op.factors[0]
        cross = root_w * gram
        if at_points[1] is not at_points[0] or op.factors[1] is not op.factors[0]:
            gram = at_points[1].conj().T @ op.factors[1]
        cross *= gram
        out[start:stop] = cross @ coeffs
    return out
