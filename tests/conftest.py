import importlib.util
import math
from pathlib import Path

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
