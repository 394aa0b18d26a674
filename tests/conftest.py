"""Shared fixtures: reference configs, random draws, and slow oracles."""

import mpmath as mp
import numpy as np
import pytest

from noma_pop import DerivedParams, SystemConfig, reference_config

mp.mp.dps = 60


@pytest.fixture
def ref_config() -> SystemConfig:
    return reference_config()


@pytest.fixture
def ref_derived(ref_config) -> DerivedParams:
    return DerivedParams.from_config(ref_config)


def draw_config(rng: np.random.Generator, rho_t_db: float = 60.0,
                beta_max: float = 0.5) -> SystemConfig:
    """One random parameter set in the standard sampling ranges."""
    return SystemConfig(
        d1=50.0,
        d2=rng.uniform(60.0, 300.0),
        path_loss_constant=1.0,
        path_loss_exponent=3.0,
        rho_t_db=rho_t_db,
        beta=rng.uniform(0.0, beta_max),
        r1_th=rng.uniform(0.05, 0.5),
        r2_th=rng.uniform(0.05, 0.5),
    )


@pytest.fixture
def config_factory():
    return draw_config


def pop_reference(alpha, derived: DerivedParams) -> mp.mpf:
    """High-precision POP oracle, independent of the library's case logic.

    Works from the unreduced outage expression: the product of the two
    exponential tail probabilities at the binding (max) thresholds, with an
    infeasible threshold forcing certain outage. Evaluated in 60-digit
    arithmetic so finite differences of it are rounding-noise free.
    """
    a = mp.mpf(alpha)
    pi1, pi2 = mp.mpf(derived.pi1), mp.mpf(derived.pi2)
    beta, rho = mp.mpf(derived.beta), mp.mpf(derived.rho_t)
    lam1, lam2 = mp.mpf(derived.lambda1), mp.mpf(derived.lambda2)
    dens = (
        a - beta * (1 - a) * pi1,
        1 - a - a * pi2,
        a - (1 - a) * pi1,
        1 - a - beta * a * pi2,
    )
    nums = (pi1, pi2, pi1, pi2)
    zs = [n / (d * rho) if d > 0 else mp.inf for n, d in zip(nums, dens)]
    exponent = max(zs[0], zs[1]) / lam1 + max(zs[2], zs[3]) / lam2
    if not mp.isfinite(exponent):
        return mp.mpf(1)
    return 1 - mp.e ** (-exponent)


def fd_reference(alpha: float, derived: DerivedParams,
                 step: str = "1e-7") -> mp.mpf:
    """Central finite difference of the high-precision POP oracle."""
    h = mp.mpf(step)
    return (pop_reference(mp.mpf(alpha) + h, derived)
            - pop_reference(mp.mpf(alpha) - h, derived)) / (2 * h)
