"""Degrees of freedom of 1D active imaging arrays under the Born model.

Monostatic and multistatic apertures observing a 1D scene segment:
discretized operators and their singular-value spectra, space-bandwidth
products, k-space coverage, Fresnel-zone formulas with effective-aperture
equivalence, and PSF resolution against the reciprocal-bandwidth benchmark.

Importing the package runs none of its layers.  Each public name in
_EXPORTS is served from the layer module that defines it, and a layer runs
when it is first used, so a command or a script loads only what it calls.
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

import importlib.util as _util
import sys as _sys


def _lazy_layer(name: str):
    """The layer module aperture_dof.<name>, registered in sys.modules so that
    it runs only on its first attribute access; one already there is kept."""
    full = f"{__name__}.{name}"
    if full not in _sys.modules:
        spec = _util.find_spec(full)
        spec.loader = _util.LazyLoader(spec.loader)
        _sys.modules[full] = _util.module_from_spec(spec)
        spec.loader.exec_module(_sys.modules[full])
    return _sys.modules[full]


# Every layer is in sys.modules and a package attribute from the start, where
# the benchmark's tracer looks for it.  A reload of this package keeps every
# layer it finds, so no class gets a second copy.  cli is not registered:
# runpy, which runs `python -m aperture_dof.cli`, warns when it finds cli in
# sys.modules.
for _name in ("geometry", "kspace", "sbp", "operator", "fresnel", "recon", "_svg"):
    globals()[_name] = _lazy_layer(_name)
del _name

__version__ = "0.1.0"

# public name -> the layer module that defines it
_EXPORTS = {name: module for module, names in {
    "geometry": ("Aperture", "SceneSegment", "WaveContext", "viewing_angles",
                 "MONOSTATIC", "MULTISTATIC"),
    "kspace": ("bandwidth", "mono_spectrum", "multi_spectrum", "project_points_onto_line",
               "scene_projection_angle"),
    "sbp": ("SbpResult", "compute_sbp", "fresnel_dof", "sbp_closed_form_g1",
            "sbp_closed_form_g2", "sbp_g3_fresnel", "sbp_numeric", "theta_heu", "theta_max"),
    "operator": ("ArrayLayout", "DiscreteOperator", "SvdSpectrum", "build_operator",
                 "dof_knee", "left_vectors", "sigma_bar", "sigma_bar_sq", "svd"),
    "fresnel": ("ApertureFunction", "FresnelEquivalenceReport", "effective_aperture",
                "fresnel_equivalence_check"),
    "recon": ("ImageProfile", "ResolutionCurve", "UnresolvableProfileError", "beamwidth_3db",
              "reconstruct_mf", "reconstruct_pinv", "resolution_sweep"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
