"""Map standard-normal driver vectors to asset-price paths.

A path is an (..., M, N) array of M assets on N monitoring dates, and
every contract reads its uniform average.  BS paths are sampled exactly at
the monitoring dates through the Cholesky factor of the Kronecker
covariance Sigma_B (x) Sigma_A; BsParams computes that factor (one
np.linalg.cholesky, with a relative pivot check), the drift exponents and
the payoff coefficients once, as its derived fields factor, drift and
coef.  On the equally spaced dates that factor is
(sqrt(dt) lower-ones) (x) L_A, the random-walk construction, so the BS maps
apply it as one M x M product per date and a running sum over the dates,
O(M^2 N) per draw rather than the dense product's O((M N)^2); the dense
factor serves the gradients and the checks.  CIR paths use the Euler scheme
S_{j+1} = S_j (1 - alpha dt) + alpha mu dt + sigma sqrt(dt) sqrt(max(S_j, 0)) z_j,
with the square-root argument floored at zero; cir_euler_path returns a
PathMatrix whose floored flag marks a batch in which a state fed to the
square root was negative or nan.  Both maps work step-major, one
contiguous row per grid index, and their path values are views of that
memory.  Flattened BS indices run asset-fastest:
k = k2*M + k1 (0-based asset k1, date k2).
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import StratMcError

__all__ = [
    "BsParams",
    "CirParams",
    "PathMatrix",
    "path_covariance",
    "bs_basket_g",
    "bs_paths",
    "cir_euler_path",
    "cir_zero_noise_path",
]


def _check_fields(params, floats, steps):
    """ValueError naming the first non-finite float field of params, or its
    step count when that is not an integer (a bool is not)."""
    for name in floats:
        value = getattr(params, name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} = {value} must be finite")
    value = getattr(params, steps)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{steps} = {value!r} must be an integer")


@dataclass(frozen=True)
class BsParams:
    """The lognormal family of the presets and the INI files.

    One spot and one volatility per asset (a single sigma serves every
    asset), a common correlation rho, `steps` equally spaced monitoring
    dates up to `maturity` and the uniform average.  A common rho gives a
    positive-definite correlation exactly for -1/(m-1) < rho < 1 over
    m >= 2 assets; one asset takes -1 < rho < 1.

    Derived on construction: corr (1 on the diagonal, rho elsewhere), the
    dates grid t_j = j T / steps and, over the flattened (asset, date)
    index k: factor, the lower-triangular C with C C^T = Sigma_MN; drift,
    the exponents (r - sigma_{k1}^2 / 2) t_{k2}; and coef, the prefactors
    S0_{k1} / (M N) of the uniform average, so that
    exp(mu_k) = coef_k e^{drift_k} for the drift construction
    mu_k = ln(S0 / (M N)) + (r - sigma^2/2) t.  A covariance that is
    numerically singular raises StratMcError: "not positive definite" when
    the factorization fails, and "pivot at or below tolerance" when a pivot
    C_kk^2 is at most 1e-12 times the largest variance Sigma_kk.  Paths
    must stay in the float64 range, or payoffs overflow and prices read
    nan: ValueError unless
    ln S0_{k1} + drift_k + 10 sigma_{k1} sqrt(t_{k2}) is below
    ln(float64 max) for every k.  Before those checks, a non-finite s0,
    sigma, rho, rate or maturity, or a steps that is not an integer, raises
    ValueError naming the field.
    """

    s0: np.ndarray
    sigma: np.ndarray
    steps: int
    rho: float = 0.0
    rate: float = 0.0
    maturity: float = 1.0
    corr: np.ndarray = field(init=False, repr=False, compare=False)
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    factor: np.ndarray = field(init=False, repr=False, compare=False)
    drift: np.ndarray = field(init=False, repr=False, compare=False)
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_fields(self, ("s0", "sigma", "rho", "rate", "maturity"), "steps")
        s0 = np.atleast_1d(np.asarray(self.s0, dtype=float))
        m, n = s0.size, self.steps
        if m == 0:
            raise ValueError("s0 needs at least one value")
        if n < 1:
            raise ValueError("steps must be >= 1")
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        sigma = np.full(m, sigma[0]) if sigma.size == 1 else sigma
        lo = -1.0 / max(m - 1, 1)  # -1 for one asset, whose corr is [1]
        if not lo < self.rho < 1.0:
            raise ValueError(f"rho = {self.rho} must lie in ({lo:g}, 1) for "
                             f"{m} asset{'s' * (m > 1)}")
        if sigma.size != m:
            raise ValueError(f"sigma needs one value or one per asset ({m}), "
                             f"got {sigma.size}")
        if np.any(s0 <= 0.0) or np.any(sigma <= 0.0):
            raise ValueError("s0 and sigma must be positive")
        if not self.maturity > 0.0:
            raise ValueError("maturity must be positive")
        corr = np.full((m, m), float(self.rho))
        np.fill_diagonal(corr, 1.0)
        grid = np.arange(1, n + 1) * (self.maturity / n)
        k1 = np.arange(m * n) % m
        k2 = np.arange(m * n) // m
        drift = (self.rate - 0.5 * sigma[k1] ** 2) * grid[k2]
        top = np.max(np.log(s0[k1]) + drift + 10.0 * sigma[k1] * np.sqrt(grid[k2]))
        if not top < np.log(np.finfo(float).max):
            raise ValueError(f"paths leave the float64 range: ln s0 + drift + "
                             f"10 sigma sqrt(t) reaches {top:.6g} > 709.78")
        for name, val in (("s0", s0), ("sigma", sigma), ("corr", corr),
                          ("grid", grid)):
            object.__setattr__(self, name, val)
        cov = path_covariance(self)
        try:
            factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise StratMcError(str(exc)) from exc
        if np.min(np.diag(factor)) ** 2 <= 1e-12 * np.max(np.diag(cov)):
            raise StratMcError("pivot at or below tolerance")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "coef", (1.0 / (m * n)) * s0[k1])

    @property
    def n_assets(self) -> int:
        return self.s0.size

    @property
    def dim(self) -> int:
        return self.n_assets * self.steps


@dataclass(frozen=True)
class CirParams:
    """CIR square-root diffusion dS = alpha (mu - S) dt + sigma sqrt(S) dW.

    The parameters must satisfy the Feller condition 2*alpha*mu > sigma^2.
    Contracts average the N Euler values uniformly.  Path covariances and
    payoff variances square the Euler values, so they must stay below
    sqrt(float64 max): ValueError unless the scale bound
    (s0 + mu + 10 sigma sqrt((s0 + mu) T)) max(1, |1 - alpha dt|)^N is.
    A non-finite float field, or an n_steps that is not an integer, raises
    ValueError naming the field first.
    """

    s0: float
    alpha: float
    mu: float
    sigma: float
    n_steps: int
    rate: float = 0.0
    maturity: float = 1.0

    def __post_init__(self):
        _check_fields(self, ("s0", "alpha", "mu", "sigma", "rate", "maturity"),
                     "n_steps")
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
        # in logs and Python floats: an overflow reads inf, not a warning
        scale = float(self.s0) + float(self.mu)
        top = math.log(scale + 10.0 * self.sigma * math.sqrt(scale * self.maturity)) \
            + self.n_steps * math.log(max(1.0, abs(1.0 - self.alpha * self.dt)))
        if not top < 0.5 * math.log(sys.float_info.max):
            raise ValueError(f"paths leave the float64 range: the Euler scale "
                             f"bound reaches e^{top:.6g} > e^354.89")

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps

    @property
    def dim(self) -> int:
        return self.n_steps


@dataclass
class PathMatrix:
    """What cir_euler_path returns: the Euler values, shape (..., 1, N),
    with leading dimensions holding a batch of paths, and floored, whether
    the recursion fed a negative or nan state to the square root."""

    values: np.ndarray
    floored: bool


# --- BS ----------------------------------------------------------------------


def path_covariance(params: BsParams) -> np.ndarray:
    """Sigma_MN = Sigma_B (x) Sigma_A (dates-major, assets-minor): Brownian
    min(t_j, t_n) over the dates, sigma_i rho_ik sigma_k over the assets."""
    return np.kron(np.minimum.outer(params.grid, params.grid),
                   np.outer(params.sigma, params.sigma) * params.corr)


def _lognormal_grid(eps: np.ndarray, params: BsParams) -> np.ndarray:
    """exp(drift_k + (C eps)_k) over the flattened grid index k, for
    eps of shape (..., M*N), in one step-major (M*N, rows) work array with
    one column per batch entry of eps; eps is read, never written.

    On the equally spaced dates C = (sqrt(dt) lower-ones) (x) L_A, so C eps
    is a random walk: date row j of the array is y_j = y_{j-1} + L z_j,
    with z_j the M drivers of date j and L = C[:M, :M] = sqrt(dt) L_A.  One
    asset scales by the number L, several take one batched M x M product,
    and a running sum adds each date row to its predecessor in place."""
    m, n = params.n_assets, params.steps
    flat = np.moveaxis(np.asarray(eps, dtype=float), -1, 0).reshape(params.dim, -1)
    y = np.empty(flat.shape)
    if m == 1:
        np.multiply(flat, params.factor[0, 0], out=y)
    else:
        np.matmul(params.factor[:m, :m], flat.reshape(n, m, -1),
                  out=y.reshape(n, m, -1))
    dates = y.reshape(n, -1)
    for j in range(1, n):
        dates[j] += dates[j - 1]
    y += params.drift[:, None]
    return np.exp(y, out=y)


def bs_basket_g(eps: np.ndarray, params: BsParams) -> np.ndarray:
    """Weighted sum of lognormal grid values, g(eps) = sum_k exp(mu_k + (C eps)_k),
    for eps of shape (..., M*N); one step-major work array holds the grid."""
    return (params.coef @ _lognormal_grid(eps, params)).reshape(np.shape(eps)[:-1])


def bs_paths(eps: np.ndarray, params: BsParams) -> np.ndarray:
    """Exact lognormal grid values S_{k1}(t_{k2}), shape (..., M, N), built
    in place in one step-major work array the size of the output; the
    result is a view of that array, not a copy."""
    m, n = params.n_assets, params.steps
    y = _lognormal_grid(eps, params)
    y *= np.tile(params.s0, n)[:, None]
    lead = np.shape(eps)[:-1]
    return np.moveaxis(y.reshape((n, m) + lead), (0, 1), (-1, -2))


# --- CIR ---------------------------------------------------------------------


def cir_euler_path(z: np.ndarray, params: CirParams) -> PathMatrix:
    """Euler paths S_1..S_N driven by z, shape (..., 1, N).

    Each step is S_{j+1} = S_j (1 - alpha dt) + alpha mu dt
    + sigma sqrt(dt) sqrt(max(S_j, 0)) z_j: the square-root argument is
    floored at zero, the state itself is not.  The steps run in eight
    in-place passes over two batch-shaped buffers and write one contiguous
    step-major row each, so values is a view of an (N, ...) array, not a
    copy.  floored records whether a state fed to the square root was
    negative or nan.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != params.n_steps:
        raise ValueError("driver length must equal n_steps")
    dt = params.dt
    keep, pull = 1.0 - params.alpha * dt, params.alpha * params.mu * dt
    vol = params.sigma * math.sqrt(dt)
    out = np.empty((params.n_steps,) + z.shape[:-1])
    s = np.full(z.shape[:-1], float(params.s0))
    b = np.empty(z.shape[:-1])
    for j in range(params.n_steps):
        np.maximum(s, 0.0, out=b)
        np.sqrt(b, out=b)
        b *= z[..., j]
        b *= vol
        s *= keep
        s += pull
        s += b
        out[j] = s
    # S_N never reaches the square root; a nan minimum fails the test too
    floored = not out[:-1].min(initial=np.inf) >= 0.0
    return PathMatrix(values=np.moveaxis(out, 0, -1)[..., None, :], floored=floored)


def cir_zero_noise_path(params: CirParams) -> np.ndarray:
    """Deterministic skeleton S_j = (1 - alpha dt)^j (S0 - mu) + mu, j = 0..N."""
    j = np.arange(params.n_steps + 1)
    return (1.0 - params.alpha * params.dt) ** j * (params.s0 - params.mu) + params.mu
