import numpy as np
import pytest

from onofri import RefinementPolicy, build_grid
from onofri.functionals import _exp_moments


@pytest.fixture(scope="session")
def grid16():
    return build_grid(16)


@pytest.fixture(scope="session")
def grid48():
    return build_grid(48)


@pytest.fixture(scope="session")
def grid72():
    return build_grid(72)


@pytest.fixture(scope="session")
def grid104():
    return build_grid(104)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def refine_calls(monkeypatch):
    """The policies of the RefinementPolicy.refine calls a test makes, from an empty moments cache."""
    calls = []
    refine = RefinementPolicy.refine

    def counted(self, *args, **kwargs):
        calls.append(self)
        return refine(self, *args, **kwargs)

    monkeypatch.setattr(RefinementPolicy, "refine", counted)
    _exp_moments.cache_clear()  # no moments kept from an earlier test
    return calls
