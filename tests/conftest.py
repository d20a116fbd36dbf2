# aperture_dof before numpy: its BLAS thread settings apply only if it loads first
from aperture_dof import (
    Aperture,
    ArrayLayout,
    SceneSegment,
    WaveContext,
    build_operator,
)

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# nominal configuration used across the suite: 5 mm wavelength, 15 cm
# aperture, 10 cm scene, 20 cm standoff
LAM = 0.005
L1 = 0.15
L2 = 0.10
D = 0.20

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def wave():
    return WaveContext(LAM)


@pytest.fixture(scope="session")
def aperture():
    return Aperture.centered(L1, D)


@pytest.fixture(scope="session")
def scene_g1():
    return SceneSegment(L2 / 2.0)


@pytest.fixture
def mirror_splits(monkeypatch):
    """Shapes of the arrays whose values-only spectrum is split into even
    and odd mirror blocks."""
    import aperture_dof.operator as operator

    shapes = []
    split = operator._mirror_blocks

    def recording(a):
        shapes.append(a.shape)
        return split(a)

    monkeypatch.setattr(operator, "_mirror_blocks", recording)
    return shapes


def small_operator(architecture, n_elements=16, n_scene=40, theta=0.0, shift=0.0):
    """Desk-scale operator for fast unit tests; nominal geometry otherwise."""
    aperture = Aperture.centered(L1, D)
    scene = SceneSegment(L2 / 2.0, theta, shift)
    layout = ArrayLayout.uniform(aperture, n_elements, architecture)
    return build_operator(scene, layout, WaveContext(LAM), n_scene)


def random_gamma(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def fresh_python(*args, stdout=subprocess.PIPE):
    """Runs `python *args` in a fresh interpreter with the source tree first on
    PYTHONPATH and PYTHONUNBUFFERED unset, so a piped stdout is
    block-buffered as it is for any caller; returns the completed process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
    )
