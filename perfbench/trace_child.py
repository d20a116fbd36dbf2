"""Run one aperture-dof CLI command with a span around every layer boundary.

Usage: python3 perfbench/trace_child.py SPANS.npz CLI_ARG...

The package is imported unchanged; the public functions of each layer are
replaced, in every aperture_dof module namespace that holds them, by a
wrapper that records a span (name, parent, start, end).  Spans stay in
memory and are written once, after `aperture_dof.cli.main` returns, so the
file write is not inside any span.  The exit code is the command's.
"""

from __future__ import annotations

import sys
import time
from array import array

# aperture_dof copies APERTURE_DOF_THREADS into OPENBLAS_NUM_THREADS and the
# other thread variables, which OpenBLAS reads once, when numpy first loads:
# the package must be imported before numpy, or BLAS runs at nproc threads.
import aperture_dof.cli as cli

import numpy as np

# layer -> functions whose calls are spans; names of a layer's module
LAYER_FUNCTIONS = {
    "cli": ("cmd_svd", "cmd_sbp_sweep", "cmd_kspace", "cmd_fresnel", "cmd_resolution"),
    "operator": ("build_operator", "svd", "left_vectors", "adjoint_to_points"),
    "recon": ("resolution_sweep", "beamwidth_3db"),
    "fresnel": ("fresnel_equivalence_check",),
    "kspace": ("bandwidth",),
    "sbp": ("sbp_numeric", "theta_max"),
    "_svg": ("plot_lines",),
}


class Tracer:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.matrix_bytes = array("d")  # one entry per build_operator call
        self._stack = [-1]

    def wrap(self, name: str, fn, after=None):
        self.names.append(name)
        nid = len(self.names) - 1
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def save(self, path: str):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            matrix_bytes=np.frombuffer(self.matrix_bytes),
        )


def install(tracer: Tracer):
    """Patch every layer function in every aperture_dof namespace."""
    wrappers = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        module = sys.modules[f"aperture_dof.{layer}"]
        for fname in functions:
            fn = getattr(module, fname)
            after = None
            if (layer, fname) == ("operator", "build_operator"):
                after = lambda op: tracer.matrix_bytes.append(op.matrix.nbytes)
            wrappers[id(fn)] = tracer.wrap(f"{layer}.{fname}", fn, after)
    for modname, module in list(sys.modules.items()):
        if modname != "aperture_dof" and not modname.startswith("aperture_dof."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    config_cls = cli.ExperimentConfig
    config_cls.from_file = classmethod(
        tracer.wrap("cli.from_file", config_cls.__dict__["from_file"].__func__))


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.main", cli.main)
    try:
        return run(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
