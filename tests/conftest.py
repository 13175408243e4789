import numpy as np
import pytest
from hypothesis import settings

from cgmagnus import PauliCoeffs, expm_pauli

# Every run draws the same examples and ignores the local .hypothesis/ database
# (derandomize implies database=None); per-test settings still apply on top.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng) -> np.ndarray:
    """A random 2x2 unitary from an SU(2) exponential plus a random phase."""
    p = PauliCoeffs(*rng.normal(size=4))
    return expm_pauli(p, rng.uniform(0.2, 3.0)).matrix
