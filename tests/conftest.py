import pytest
from hypothesis import settings

from hadamard6.matrices import ExactMatrix

# deterministic property-test runs; every checked property is a theorem, so
# repeatability matters more than fresh randomness per run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def dense_hadamard():
    """The dense reference for verify_prop1's exponent test: H dagger(H) = 6I
    exactly, over Q(w)."""
    return lambda H: H @ H.dagger() == ExactMatrix.identity(6).scaled(6)
