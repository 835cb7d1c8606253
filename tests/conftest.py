"""Shared fixtures.

The expensive objects (1D harmonic profiles, criterion reports) are
session-scoped: they are deterministic, so sharing them across test modules
changes nothing except the wall clock.
"""

import warnings

import numpy as np
import pytest

import liouville_lab as ll

# hypothesis imports this module only when a property test fails, and its
# import of libcst warns through mypy_extensions; under the suite's
# filterwarnings = error that warning would turn the failure report into
# an INTERNALERROR, so the module is imported once here with it silenced
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis then reports failures without it
        pass


@pytest.fixture(scope="session")
def unit_bounds():
    """Ellipticity bounds for any field with q = I."""
    return ll.EllipticityBounds(lambda0=1.0, Lambda0=1.0, domain_radius=100.0, n_samples=1)


@pytest.fixture(scope="session")
def log_field_025():
    return ll.make_log_example(0.25)


@pytest.fixture(scope="session")
def log_field_075():
    return ll.make_log_example(0.75)


@pytest.fixture(scope="session")
def log_field_2():
    return ll.make_log_example(2.0)


@pytest.fixture(scope="session")
def profile_075(log_field_075):
    return ll.harmonic_1d(log_field_075)


@pytest.fixture(scope="session")
def profile_2(log_field_2):
    return ll.harmonic_1d(log_field_2)


@pytest.fixture(scope="session")
def var_q_field():
    return ll.make_standard_fields("var_q_const_b", 2, [0.5])


@pytest.fixture(scope="session")
def var_q_bounds(var_q_field):
    return ll.estimate_ellipticity(var_q_field, radius=10.0, n_samples=20000, seed=3)


def random_symmetric(rng, d, scale=10.0):
    a = rng.uniform(-scale, scale, size=(d, d))
    return 0.5 * (a + a.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
