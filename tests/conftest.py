import numpy as np
import pytest

from focalnet import DEFAULT_TOLERANCES, compile_surface, gallery

_PROGRAMS = {}


@pytest.fixture
def prog():
    """Factory: compiled gallery surface, cached across tests."""
    def get(name, **overrides):
        key = (name, tuple(sorted(overrides.items())))
        if key not in _PROGRAMS:
            _PROGRAMS[key] = compile_surface(gallery(name),
                                             overrides or None)
        return _PROGRAMS[key]
    return get


@pytest.fixture
def graph_source():
    """Factory: surface source of the graph z = f(u, v) over [-1, 1]^2."""
    def get(z):
        return ("surface s {\n  x = u\n  y = v\n  z = " + z
                + "\n  domain u in [-1, 1] v in [-1, 1]\n}\n")
    return get


@pytest.fixture
def tol():
    return DEFAULT_TOLERANCES


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)

