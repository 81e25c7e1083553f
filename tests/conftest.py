import mpmath
import numpy as np
import pytest


@pytest.fixture
def rng():
    # fixed seed: property tests must fail reproducibly
    return np.random.default_rng(20260815)


@pytest.fixture
def ellipk_mp():
    """K(k) of the float k by mpmath at 40 digits: an oracle outside the package's AGM."""

    def ellipk(k):
        with mpmath.workdps(40):
            return float(mpmath.ellipk(mpmath.mpf(k) ** 2))

    return ellipk
