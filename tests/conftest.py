import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def rng():
    # fixed seed: property tests must fail reproducibly
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def bench_module():
    """Load `bench/<name>.py` as a module, by file path; bench/ is only read."""

    def load(name):
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture
def ellipk_mp():
    """K(k) of the float k by mpmath at 40 digits: an oracle outside the package's AGM."""

    def ellipk(k):
        with mpmath.workdps(40):
            return float(mpmath.ellipk(mpmath.mpf(k) ** 2))

    return ellipk


# Every energy a record or lattice fact is checked at: both sides of the
# separatrix band, from the smallest subnormal to the largest double
ORBIT_ENERGIES = [
    0.0, 5e-324, 1e-315, 1e-20, 1e-14, 1e-12, 1e-8, 1e-6, 1e-4, 1e-3, 0.1, 0.3, 0.5, 1.0,
    1.71, 1.9, 1.9998, 1.9999, 1.99999, 2.0 - 1e-6, 2.0 - 1e-10, 2.0 - 2e-12,
    2.0 + 2e-12, 2.0 + 1e-10, 2.0 + 1e-6, 2.02, 2.5, 3.9, 4.1, 5.0, 8.0, 10.0, 12.0,
    100.0, 1e4, 1e300, sys.float_info.max,
]


@pytest.fixture(params=ORBIT_ENERGIES)
def orbit_mp(request):
    """The orbit of each float E above by mpmath at 40 digits, from E alone.

    `energy` and the canonical top start's theta0 (theta_max or pi), omega0
    (0 or -2 sqrt(E/2 - 1)), w* = -sqrt(2E), T* = scale K(m) and
    K' = scale K'(k), with m = k^2 = E/2 (scale 1) or 2/E (scale k).  K' is
    pi / (2 AGM(1, k)) by `mpmath.agm`: `mpmath.ellipk(1 - m)` is inf where
    1 - m rounds to 1, as at E = 5e-324 and 1e300.  The rest orbit E = 0
    has K' = inf.
    """
    energy = request.param
    with mpmath.workdps(40):
        e = mpmath.mpf(energy)
        if energy < 2.0:
            m = e / 2
            k, scale = mpmath.sqrt(m), 1
            theta0, omega0 = 2 * mpmath.asin(k), mpmath.mpf(0)
        else:
            m = 2 / e
            k = scale = mpmath.sqrt(m)
            theta0, omega0 = +mpmath.pi, -2 * mpmath.sqrt(e / 2 - 1)
        return SimpleNamespace(
            energy=energy, theta0=theta0, omega0=omega0, omega_star=-mpmath.sqrt(2 * e),
            T_star=scale * mpmath.ellipk(m),
            K_prime=scale * mpmath.pi / (2 * mpmath.agm(1, k)) if k else mpmath.inf)


@pytest.fixture
def rho_order():
    """Smallest order N >= floor with rho^N / (1 - rho) <= tol.

    rho = T*/R is the exact convergence ratio of the top-start series, so
    the branch's truncation error falls like rho^N (README, "How it
    works"); this is the order at which the paper's rate promises `tol`.
    """

    from pendseries.convergence import roc_exact

    def order(state, tol, floor):
        report = roc_exact(state, "top")
        rho = report.t_star / report.exact_roc
        return max(floor, math.ceil(math.log(tol * (1.0 - rho)) / math.log(rho)))

    return order
