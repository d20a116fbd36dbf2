"""Degrees of freedom of 1D active imaging arrays under the Born model.

Monostatic and multistatic apertures observing a 1D scene segment:
discretized operators and their singular-value spectra, space-bandwidth
products, k-space coverage, Fresnel-zone formulas with effective-aperture
equivalence, and PSF resolution against the reciprocal-bandwidth benchmark.
"""

import os as _os

# Two BLAS settings, read only when numpy first loads, so they reach it only
# if this package is imported before numpy; a value the user exported wins.
# APERTURE_DOF_THREADS caps BLAS/OpenMP parallelism through the thread-pool
# env vars. OPENBLAS_THREAD_TIMEOUT is log2 of the cycles an idle OpenBLAS
# worker spins before it sleeps: the default 28 (~0.1 s) burns a vCPU after
# numpy loads and after every threaded call. 20 (~0.4 ms) cut a command's
# CPU by about a third at 2 threads (bench imaging 1.4 -> 0.9 s); 16 (~30 us)
# still keeps LAPACK's back-to-back calls hot and cuts the worker's CPU per
# command by another third (resolution on nominal.cfg 68 -> 48 ms, svd
# 28 -> 19 ms), with main()'s wall time and every result unchanged.
_threads = _os.environ.get("APERTURE_DOF_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")
del _os

from .fresnel import (
    ApertureFunction,
    FresnelEquivalenceReport,
    effective_aperture,
    fresnel_dof,
    fresnel_equivalence_check,
    sbp_g3_fresnel,
)
from .geometry import (
    Aperture,
    SceneSegment,
    WaveContext,
    viewing_angles,
)
from .kspace import (
    bandwidth,
    mono_spectrum,
    multi_spectrum,
    project_points_onto_line,
    scene_projection_angle,
)
from .operator import (
    MONOSTATIC,
    MULTISTATIC,
    ArrayLayout,
    DiscreteOperator,
    SvdSpectrum,
    build_operator,
    dof_knee,
    left_vectors,
    sigma_bar,
    sigma_bar_sq,
    svd,
)
from .recon import (
    ImageProfile,
    ResolutionCurve,
    UnresolvableProfileError,
    beamwidth_3db,
    reconstruct_mf,
    reconstruct_pinv,
    resolution_sweep,
)
from .sbp import (
    SbpResult,
    compute_sbp,
    sbp_closed_form_g1,
    sbp_closed_form_g2,
    sbp_numeric,
    theta_heu,
    theta_max,
)

__version__ = "0.1.0"

__all__ = [
    "Aperture",
    "ApertureFunction",
    "ArrayLayout",
    "DiscreteOperator",
    "FresnelEquivalenceReport",
    "ImageProfile",
    "MONOSTATIC",
    "MULTISTATIC",
    "ResolutionCurve",
    "SbpResult",
    "SceneSegment",
    "SvdSpectrum",
    "UnresolvableProfileError",
    "WaveContext",
    "bandwidth",
    "beamwidth_3db",
    "build_operator",
    "compute_sbp",
    "dof_knee",
    "effective_aperture",
    "fresnel_dof",
    "fresnel_equivalence_check",
    "left_vectors",
    "mono_spectrum",
    "multi_spectrum",
    "project_points_onto_line",
    "reconstruct_mf",
    "reconstruct_pinv",
    "resolution_sweep",
    "sbp_closed_form_g1",
    "sbp_closed_form_g2",
    "sbp_g3_fresnel",
    "sbp_numeric",
    "scene_projection_angle",
    "sigma_bar",
    "sigma_bar_sq",
    "svd",
    "theta_heu",
    "theta_max",
    "viewing_angles",
]
