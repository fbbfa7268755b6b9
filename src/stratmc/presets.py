"""Benchmark parameter sets shared by the demos, the self-test suite and
the bundled configuration files."""
from __future__ import annotations

import numpy as np

from .models import BsParams, CirParams

__all__ = [
    "bs_asian_params",
    "bs_barrier_params",
    "basket_params",
    "cir_asian_params",
]


def bs_asian_params() -> BsParams:
    """Single-asset Asian benchmark: S0=50, sigma=0.3, r=0.05, 64 dates."""
    return BsParams(s0=50.0, sigma=0.3, steps=64, rate=0.05)


def bs_barrier_params() -> BsParams:
    """Single-asset barrier benchmark: S0=50, sigma=0.1, r=0.05, 16 dates."""
    return BsParams(s0=50.0, sigma=0.1, steps=16, rate=0.05)


def basket_params() -> BsParams:
    """40-asset terminal basket: spots 20..60, vols 0.1..0.4, rho=0.5."""
    m = 40
    return BsParams(s0=np.linspace(20.0, 60.0, m),
                    sigma=np.linspace(0.1, 0.4, m), steps=1, rho=0.5, rate=0.05)


def cir_asian_params() -> CirParams:
    """Mean-reverting square-root benchmark: S0=100, alpha=1.5, level 100,
    sigma=8, 64 steps over one year."""
    return CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0, n_steps=64,
                     rate=0.05)
