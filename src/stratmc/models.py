"""Map standard-normal driver vectors to asset-price paths.

BS paths are sampled exactly at the monitoring dates through the Cholesky
factor of the Kronecker covariance Sigma_B (x) Sigma_A; BsParams computes
that factor, the drift exponents and the payoff coefficients once, as its
derived fields factor, drift and coef.  CIR paths use the Euler scheme with
the square-root argument floored at zero.  Flattened BS indices run
asset-fastest: k = k2*M + k1 (0-based asset k1, date k2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StratMcError
from .linalg import bm_covariance, cholesky

__all__ = [
    "BsParams",
    "bs_model",
    "CirParams",
    "PathMatrix",
    "asset_covariance",
    "path_covariance",
    "bs_basket_g",
    "bs_paths",
    "cir_euler_path",
    "cir_zero_noise_path",
    "uniform_weights",
]


def uniform_weights(m: int, n: int) -> np.ndarray:
    """The equal-weight (m, n) averaging grid, every entry 1 / (m n)."""
    return np.full((m, n), 1.0 / (m * n))


@dataclass(frozen=True)
class BsParams:
    """Multi-asset Black-Scholes parameters on a monitoring grid.

    weights is the (M, N) averaging matrix w_ij, summing to 1, of every
    contract priced under the model, and of the drift construction
    mu_k = ln(w S0) + (r - sigma^2/2) t; maturity is t_N.

    Derived on construction, over the flattened (asset, date) index k:
    factor is the lower-triangular C with C C^T = Sigma_MN, drift the
    exponents (r - sigma_{k1}^2 / 2) t_{k2} and coef the prefactors
    w_{k1 k2} S0_{k1}, so that exp(mu_k) = coef_k e^{drift_k}.  A covariance
    that is numerically singular raises StratMcError.  Paths must stay in
    the float64 range, or payoffs overflow and prices read nan: ValueError
    unless ln S0_{k1} + drift_k + 10 sigma_{k1} sqrt(t_{k2}) is below
    ln(float64 max) for every k.
    """

    s0: np.ndarray
    sigma: np.ndarray
    corr: np.ndarray
    rate: float
    grid: np.ndarray
    weights: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)
    drift: np.ndarray = field(init=False, repr=False, compare=False)
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s0 = np.atleast_1d(np.asarray(self.s0, dtype=float))
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        grid = np.atleast_1d(np.asarray(self.grid, dtype=float))
        corr = np.atleast_2d(np.asarray(self.corr, dtype=float))
        weights = np.atleast_2d(np.asarray(self.weights, dtype=float))
        m = s0.size
        if sigma.size != m or corr.shape != (m, m):
            raise ValueError("s0, sigma and corr sizes disagree")
        if np.any(s0 <= 0.0) or np.any(sigma <= 0.0):
            raise ValueError("s0 and sigma must be positive")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12) or \
                not np.allclose(corr, corr.T, atol=1e-12):
            raise ValueError("corr must be symmetric with unit diagonal")
        if grid[0] <= 0.0 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must satisfy 0 < t_1 < ... < t_N")
        if weights.shape != (m, grid.size):
            raise ValueError("weights must have shape (assets, dates)")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise ValueError("averaging weights must sum to 1")
        k1 = np.arange(m * grid.size) % m
        k2 = np.arange(m * grid.size) // m
        drift = (self.rate - 0.5 * sigma[k1] ** 2) * grid[k2]
        top = np.max(np.log(s0[k1]) + drift + 10.0 * sigma[k1] * np.sqrt(grid[k2]))
        if not top < np.log(np.finfo(float).max):
            raise ValueError(f"paths leave the float64 range: ln s0 + drift + "
                             f"10 sigma sqrt(t) reaches {top:.6g} > 709.78")
        for name, val in (("s0", s0), ("sigma", sigma), ("corr", corr),
                          ("grid", grid), ("weights", weights)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "factor", cholesky(path_covariance(self)))
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "coef", weights[k1, k2] * s0[k1])

    @property
    def n_assets(self) -> int:
        return self.s0.size

    @property
    def n_dates(self) -> int:
        return self.grid.size

    @property
    def dim(self) -> int:
        return self.n_assets * self.n_dates

    @property
    def maturity(self) -> float:
        return float(self.grid[-1])


def bs_model(*, s0, sigma, rho, rate, steps, maturity) -> BsParams:
    """The lognormal family of the benchmarks and the INI files: one spot
    and one volatility per asset (a single sigma serves every asset), a
    common correlation rho, `steps` equally spaced dates up to `maturity`
    and the uniform average.  A common rho gives a positive-definite
    correlation exactly for -1/(m-1) < rho < 1 over m assets."""
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    m = s0.size
    if m == 0:
        raise ValueError("s0 needs at least one value")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    sigma = np.full(m, sigma[0]) if sigma.size == 1 else sigma
    if m > 1 and not -1.0 / (m - 1) < rho < 1.0:
        raise ValueError(f"rho = {rho} must lie in ({-1.0 / (m - 1):g}, 1) "
                         f"for {m} assets")
    corr = np.full((m, m), rho)
    np.fill_diagonal(corr, 1.0)
    return BsParams(s0=s0, sigma=sigma, corr=corr, rate=rate,
                    grid=np.arange(1, steps + 1) * (maturity / steps),
                    weights=uniform_weights(m, steps))


@dataclass(frozen=True)
class CirParams:
    """CIR square-root diffusion dS = alpha (mu - S) dt + sigma sqrt(S) dW.

    The parameters must satisfy the Feller condition 2*alpha*mu > sigma^2.
    Contracts average the N Euler values with the uniform weights.
    """

    s0: float
    alpha: float
    mu: float
    sigma: float
    rate: float
    n_steps: int
    maturity: float

    def __post_init__(self):
        if self.s0 <= 0.0 or self.mu <= 0.0 or self.maturity <= 0.0:
            raise ValueError("s0, mu and maturity must be positive")
        if self.alpha < 0.0 or self.sigma < 0.0 or self.rate < 0.0:
            raise ValueError("alpha, sigma and rate must be nonnegative")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        # sigma * sigma: a float ** raises OverflowError where * gives inf
        if not 2.0 * self.alpha * self.mu > self.sigma * self.sigma:
            raise StratMcError(
                f"2*alpha*mu = {2 * self.alpha * self.mu} must exceed "
                f"sigma^2 = {self.sigma * self.sigma}")

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps

    @property
    def dim(self) -> int:
        return self.n_steps

    @property
    def weights(self) -> np.ndarray:
        return uniform_weights(1, self.n_steps)


@dataclass
class PathMatrix:
    """Asset-price values on the monitoring grid, shape (..., M, N).

    Leading dimensions hold a batch of paths.  floored records whether the
    CIR Euler recursion clipped a negative value under the square root.
    """

    values: np.ndarray
    floored: bool = False


# --- BS ----------------------------------------------------------------------


def asset_covariance(params: BsParams) -> np.ndarray:
    """Sigma_A with entries sigma_i rho_ik sigma_k."""
    return np.outer(params.sigma, params.sigma) * params.corr


def path_covariance(params: BsParams) -> np.ndarray:
    """Sigma_MN = Sigma_B (x) Sigma_A (dates-major, assets-minor)."""
    return np.kron(bm_covariance(params.grid), asset_covariance(params))


def bs_basket_g(eps: np.ndarray, params: BsParams) -> np.ndarray:
    """Weighted sum of lognormal grid values, g(eps) = sum_k exp(mu_k + (C eps)_k).

    eps has shape (..., M*N).
    """
    eps = np.asarray(eps, dtype=float)
    return np.exp(params.drift + eps @ params.factor.T) @ params.coef


def bs_paths(eps: np.ndarray, params: BsParams) -> PathMatrix:
    """Exact lognormal grid values S_{k1}(t_{k2}), shape (..., M, N)."""
    eps = np.asarray(eps, dtype=float)
    m, n = params.n_assets, params.n_dates
    k1 = np.arange(m * n) % m
    flat = params.s0[k1] * np.exp(params.drift + eps @ params.factor.T)
    shaped = flat.reshape(eps.shape[:-1] + (n, m))
    return PathMatrix(values=np.swapaxes(shaped, -1, -2))


# --- CIR ---------------------------------------------------------------------


def cir_euler_path(z: np.ndarray, params: CirParams) -> PathMatrix:
    """Euler paths S_1..S_N driven by z, shape (..., 1, N).

    The square-root argument is floored at zero (full-truncation style);
    the floored flag records whether clipping ever occurred.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != params.n_steps:
        raise ValueError("driver length must equal n_steps")
    dt = params.dt
    s = np.broadcast_to(np.float64(params.s0), z.shape[:-1]).copy()
    out = np.empty(z.shape)
    floored = False
    for j in range(params.n_steps):
        base = np.maximum(s, 0.0)
        if not floored and np.any(base != s):
            floored = True
        s = s + params.alpha * (params.mu - s) * dt \
            + params.sigma * np.sqrt(base * dt) * z[..., j]
        out[..., j] = s
    return PathMatrix(values=out[..., None, :], floored=floored)


def cir_zero_noise_path(params: CirParams) -> np.ndarray:
    """Deterministic skeleton S_j = (1 - alpha dt)^j (S0 - mu) + mu, j = 0..N."""
    j = np.arange(params.n_steps + 1)
    return (1.0 - params.alpha * params.dt) ** j * (params.s0 - params.mu) + params.mu
