# aperture_dof before numpy: its BLAS thread settings apply only if it loads first
from aperture_dof import (
    Aperture,
    ArrayLayout,
    SceneSegment,
    WaveContext,
    build_operator,
)

import numpy as np
import pytest

# nominal configuration used across the suite: 5 mm wavelength, 15 cm
# aperture, 10 cm scene, 20 cm standoff
LAM = 0.005
L1 = 0.15
L2 = 0.10
D = 0.20


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
