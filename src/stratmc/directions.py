"""Stratification direction engines.

PCA (leading covariance eigenvectors), Linear Approximation (normalized
payoff gradient at the zero-noise point) and Linear Transformation
(rotation built column by column from first-order payoff expansions at
leading-ones points) for the BS and CIR models, plus the pilot-sample
PCA-like direction for CIR.  engines(params) is the table of the engines
each model has.

Conventions shared by every engine: returned directions are unit vectors
with the largest-magnitude component positive, and multi-direction sets are
reported as DirectionSet columns.  The PCA direction is the covariance
eigenvector itself, used directly as a direction in the iid driver space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StratMcError
from .gaussian import RandomStream
from .linalg import normalize_sign, symmetric_eigen
from .models import BsParams, CirParams, cir_euler_path, path_covariance
from .stratify import DirectionSet

__all__ = [
    "engines",
    "pca_directions",
    "bs_gradient",
    "la_directions_multi",
    "lt_directions_bs",
    "LtCirWorkspace",
    "cir_workspace",
    "lt_directions_cir",
    "pilot_pca_cir",
    "export_directions",
]

# paths in the pilot sample of pilot_pca_cir
_PILOT_N = 2000


def _project_out(b: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """Remove the span of unit columns from b; two passes keep the result
    orthogonal to machine precision even when b is nearly in the span."""
    for _ in range(2):
        for prev in cols:
            b = b - (prev @ b) * prev
    return b


def pca_directions(sigma: np.ndarray, m: int) -> DirectionSet:
    """The top-m covariance eigenvectors."""
    w, v = symmetric_eigen(sigma)
    if m > w.size:
        raise ValueError("cannot request more directions than dimensions")
    return DirectionSet(columns=v[:, :m])


def _lt_columns(expansion, count: int, dim: int) -> DirectionSet:
    """The LT construction shared by both models: column p is the
    first-order expansion column expansion(previous columns), projected
    against the previous columns, normalized and sign-fixed.  A column
    vanishes when projection leaves at most 1e-12 of its expansion's norm,
    whatever that norm's scale."""
    if not 1 <= count <= dim:
        raise ValueError(f"column count must lie in 1..{dim}")
    cols: list[np.ndarray] = []
    for _ in range(count):
        raw = expansion(cols)
        b = _project_out(raw, cols)
        norm = float(np.linalg.norm(b))
        if not norm > 1e-12 * float(np.linalg.norm(raw)):
            raise StratMcError("expansion column vanished after projection")
        cols.append(normalize_sign(b / norm))
    a_mat = np.column_stack(cols)
    assert np.max(np.abs(a_mat.T @ a_mat - np.eye(count))) < 1e-10
    return DirectionSet(columns=a_mat)


# --- Black-Scholes -----------------------------------------------------------


def _bs_expansion(params: BsParams, shift: np.ndarray) -> np.ndarray:
    """C^T (e^mu * e^shift): the payoff gradient at the point whose
    path-space shift is C eps = shift."""
    return params.factor.T @ (params.coef * np.exp(params.drift + shift))


def bs_gradient(params: BsParams, eps: np.ndarray) -> np.ndarray:
    """Gradient of g(eps) = sum_k exp(mu_k + (C eps)_k): C^T (e^mu * e^{C eps})."""
    return _bs_expansion(params, params.factor @ np.asarray(eps, float))


def la_directions_multi(gradient, dim: int, count: int) -> DirectionSet:
    """Iterated-gradient LA directions: v_1 = grad(0)/||.||, v_{p+1} =
    grad(v_p)/||.||.  v_1 is the LA direction, the normalized payoff
    gradient at the zero-noise point.  The returned set is generally
    non-orthogonal.  A gradient vanishes only when its norm is 0 or not
    finite: a tiny but representable gradient still has a direction."""
    point = np.zeros(dim)
    cols = []
    for _ in range(count):
        g = np.asarray(gradient(point), dtype=float)
        norm = float(np.linalg.norm(g))
        if not 0.0 < norm < np.inf:
            raise StratMcError("gradient vanished at an iterated point")
        v = g / norm
        cols.append(v)
        point = v
    return DirectionSet(np.column_stack([normalize_sign(v) for v in cols]))


def lt_directions_bs(params: BsParams, count: int) -> DirectionSet:
    """Orthonormal LT columns for the BS basket payoff.

    Column p maximizes the first-coordinate variance of the first-order
    expansion at the point with p-1 leading ones in the already-rotated
    coordinates: u^{(p)}_k = exp(mu_k + sum_{m<p} (C A_m)_k), the new column
    is C^T u^{(p)} projected against the previous columns and normalized.
    The first column therefore coincides with the LA direction.
    """
    c = params.factor
    return _lt_columns(
        lambda cols: _bs_expansion(
            params, sum((c @ a for a in cols), np.zeros(params.dim))),
        count, params.dim)


# --- CIR ---------------------------------------------------------------------


@dataclass(frozen=True)
class LtCirWorkspace:
    """Coefficients of the first-order CIR expansion along one driver path.

    alpha[i] = dS_{i+2}/dS_{i+1} and beta[m] = sigma sqrt(dt S_m) on the
    induced Euler path S_0..S_N; w[m, j] = dS_{j+1}/dz_{m+1} obeys the
    one-step recurrence w[m, j+1] = alpha[j] w[m, j]; t[m] = sum_j w[m, j]
    is the unnormalized direction and t[N-1] = beta[N-1] always.
    """

    alpha: np.ndarray  # (N-1,)
    beta: np.ndarray   # (N,)
    w: np.ndarray      # (N, N) lower-right; w[m, j] = 0 for j < m
    t: np.ndarray      # (N,)


def cir_workspace(params: CirParams, zhat: np.ndarray) -> LtCirWorkspace:
    """Build the expansion coefficients on the path induced by driver zhat."""
    zhat = np.asarray(zhat, dtype=float)
    n = params.n_steps
    if zhat.shape != (n,):
        raise ValueError("driver must have length n_steps")
    dt = params.dt
    s = np.r_[params.s0, cir_euler_path(zhat, params).values[0]]
    negative = np.flatnonzero(s[:n] < 0.0)
    if negative.size:
        raise StratMcError(
            f"induced path went negative at step {negative[0]}")
    beta = params.sigma * np.sqrt(dt * s[:n])
    # alpha[i] = 1 - a dt + (sigma/2) sqrt(dt / S_{i+1}) z_{i+2}, i = 0..N-2
    inner = s[1:n]
    if np.any(inner <= 0.0):
        raise StratMcError("induced path hit zero inside the horizon")
    alpha = 1.0 - params.alpha * dt \
        + 0.5 * params.sigma * np.sqrt(dt / inner) * zhat[1:]
    # w[m, j] = beta[m] alpha[m] ... alpha[j-1], a running product along row
    # m taken left to right, as the recurrence takes it
    j = np.arange(n)
    steps = np.where(j > j[:, None], np.r_[1.0, alpha], 1.0)
    np.fill_diagonal(steps, beta)
    w = np.triu(np.cumprod(steps, axis=1))
    t = w.sum(axis=1)
    return LtCirWorkspace(alpha=alpha, beta=beta, w=w, t=t)


def lt_directions_cir(params: CirParams, count: int) -> DirectionSet:
    """Orthonormal LT columns for the CIR Asian payoff.

    Column l's coefficients are evaluated on the Euler path driven by l raw
    leading ones, so column 1 sits near, not on, the LA direction.
    """
    n = params.n_steps

    def expansion(cols):
        zhat = np.zeros(n)
        zhat[:len(cols) + 1] = 1.0
        return cir_workspace(params, zhat).t
    return _lt_columns(expansion, count, n)


def pilot_pca_cir(params: CirParams, stream: RandomStream) -> np.ndarray:
    """Leading eigenvector of the price-path covariance of _PILOT_N pilot
    paths.

    The eigenvector is returned (normalized, sign-fixed) as the direction
    for stratifying the driving noise directly.
    """
    z = stream.normal((_PILOT_N, params.n_steps))
    paths = cir_euler_path(z, params).values[:, 0, :]
    # np.cov of a single column (one step) is 0-d
    cov = np.atleast_2d(np.cov(paths, rowvar=False))
    cov = 0.5 * (cov + cov.T)
    w, v = symmetric_eigen(cov)
    if w[0] <= 1e-12 * max(1.0, abs(float(np.trace(cov)))):
        raise StratMcError("pilot paths carry no variance")
    return normalize_sign(v[:, 0] / np.linalg.norm(v[:, 0]))


def engines(params: BsParams | CirParams,
            stream: RandomStream | None = None) -> dict:
    """The model's direction engines, each mapping a count k to a
    DirectionSet of k directions: la, lt and pca for BsParams; la, lt and
    pilot-pca for CirParams.  pilot-pca draws its pilot sample from
    stream.child(1), so it needs a stream, and gives one direction whatever
    k is."""
    if isinstance(params, BsParams):
        return {
            "la": lambda k: la_directions_multi(
                lambda e: bs_gradient(params, e), params.dim, k),
            "lt": lambda k: lt_directions_bs(params, k),
            "pca": lambda k: pca_directions(path_covariance(params), k),
        }

    def pilot_pca(k):
        if stream is None:
            raise ValueError("the pilot-pca engine needs a stream")
        return DirectionSet(pilot_pca_cir(params, stream.child(1)))
    return {
        "la": lambda k: la_directions_multi(
            lambda z: cir_workspace(params, z).t, params.n_steps, k),
        "lt": lambda k: lt_directions_cir(params, k),
        "pilot-pca": pilot_pca,
    }


def export_directions(columns: np.ndarray, path: str) -> None:
    """Write direction columns as plain text, one component per line with
    17 significant digits; columns are separated by '# column j' headers."""
    cols = np.asarray(columns, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(cols.shape[1]):
            fh.write(f"# column {j + 1}\n")
            for val in cols[:, j]:
                fh.write(f"{val:.17g}\n")
