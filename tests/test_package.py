"""The package surface: one export table, layers that load on first use."""

import importlib
import os
import sys

import aperture_dof
from aperture_dof import _EXPORTS

from conftest import SRC, fresh_python

PUBLIC_NAMES = {
    "Aperture", "ApertureFunction", "ArrayLayout", "DiscreteOperator",
    "FresnelEquivalenceReport", "ImageProfile", "MONOSTATIC", "MULTISTATIC",
    "ResolutionCurve", "SbpResult", "SceneSegment", "SvdSpectrum",
    "UnresolvableProfileError", "WaveContext", "bandwidth", "beamwidth_3db",
    "build_operator", "compute_sbp", "dof_knee", "effective_aperture", "fresnel_dof",
    "fresnel_equivalence_check", "left_vectors", "mono_spectrum", "multi_spectrum",
    "project_points_onto_line", "reconstruct_mf", "reconstruct_pinv", "resolution_sweep",
    "sbp_closed_form_g1", "sbp_closed_form_g2", "sbp_g3_fresnel", "sbp_numeric",
    "scene_projection_angle", "sigma_bar", "sigma_bar_sq", "svd", "theta_heu", "theta_max",
    "viewing_angles",
}


def test_all_is_the_export_table():
    assert len(aperture_dof.__all__) == len(PUBLIC_NAMES) == 40
    assert set(aperture_dof.__all__) == set(_EXPORTS) == PUBLIC_NAMES


def test_every_public_name_is_the_object_of_its_layer():
    star = {}
    exec("from aperture_dof import *", star)
    listed = set(dir(aperture_dof))
    for name, layer in _EXPORTS.items():
        defined = getattr(sys.modules[f"aperture_dof.{layer}"], name)
        assert getattr(aperture_dof, name) is defined, name
        assert star[name] is defined, name
        assert name in listed, name


def test_import_loads_neither_numpy_nor_a_layer():
    code = (
        "import sys, types\n"
        "import aperture_dof\n"
        "layers = [m for m in sys.modules if m.startswith('aperture_dof.')]\n"
        "print(sorted(layers))\n"
        "print('numpy' in sys.modules,\n"
        "      [m for m in layers if type(sys.modules[m]) is types.ModuleType])\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    registered = [f"aperture_dof.{m}" for m in sorted(set(_EXPORTS.values()) | {"_svg"})]
    assert proc.stdout.splitlines() == [str(registered), "False []"]


def test_reload_keeps_every_module_object(monkeypatch):
    # a second copy of a layer would give every later test second copies of
    # its classes: isinstance and == across the two would fail
    before = {name: m for name, m in sys.modules.items() if name.startswith("aperture_dof.")}
    monkeypatch.setattr(os, "environ", {})  # the package's setdefaults land here
    importlib.reload(aperture_dof)
    after = {name: m for name, m in sys.modules.items() if name.startswith("aperture_dof.")}
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)
    for name, module in before.items():
        if name.count(".") == 1:
            assert getattr(aperture_dof, name.split(".")[1]) is module


def test_tracer_finds_every_layer_function():
    # perfbench/trace_child.py reads each layer from sys.modules right after
    # importing aperture_dof.cli, and wraps the functions it lists there
    code = (
        "import sys\n"
        "import aperture_dof.cli\n"
        f"sys.path.insert(0, {str(SRC.parent / 'perfbench')!r})\n"
        "from trace_child import LAYER_FUNCTIONS\n"
        "for layer, functions in LAYER_FUNCTIONS.items():\n"
        "    module = sys.modules[f'aperture_dof.{layer}']\n"
        "    for name in functions:\n"
        "        assert callable(getattr(module, name)), (layer, name)\n"
        "print(sorted(LAYER_FUNCTIONS))\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "'operator'" in proc.stdout and "'sbp'" in proc.stdout
