"""Stratification direction engines.

PCA (leading covariance eigenvectors), Linear Approximation (normalized
payoff gradient at the zero-noise point) and Linear Transformation
(rotation built column by column from first-order payoff expansions at
leading-ones points) for the BS and CIR models, plus the pilot-sample
PCA-like direction for CIR.

Conventions shared by every engine: returned directions are unit vectors
with the largest-magnitude component positive, and multi-direction sets are
reported as DirectionSet columns.  The PCA direction is the covariance
eigenvector itself, used directly as a direction in the iid driver space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateColumn,
    DegenerateCovariance,
    DegenerateGradient,
    DependentDirections,
    NegativePathValue,
    RankDeficient,
)
from .gaussian import RandomStream
from .linalg import normalize_sign, symmetric_eigen
from .models import BsParams, CirParams, cir_euler_path
from .stratify import DirectionSet

__all__ = [
    "pca_directions",
    "la_direction_bs",
    "bs_gradient",
    "la_directions_multi",
    "lt_directions_bs",
    "LtCirWorkspace",
    "cir_workspace",
    "cir_mean_gradient",
    "lt_directions_cir",
    "la_direction_cir",
    "pilot_pca_cir",
    "export_directions",
]


def _project_out(b: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """Remove the span of unit columns from b; two passes keep the result
    orthogonal to machine precision even when b is nearly in the span."""
    for _ in range(2):
        for prev in cols:
            b = b - (prev @ b) * prev
    return b


def pca_directions(sigma: np.ndarray, m: int) -> tuple[DirectionSet, float]:
    """Top-m covariance eigenvectors plus their explained-variance ratio."""
    eig = symmetric_eigen(sigma)
    if m > eig.eigenvalues.size:
        raise ValueError("cannot request more directions than dimensions")
    total = float(eig.eigenvalues.sum())
    ratio = float(eig.eigenvalues[:m].sum()) / total
    cols = eig.eigenvectors[:, :m]
    return DirectionSet(columns=cols), ratio


# --- Black-Scholes -----------------------------------------------------------


def bs_gradient(params: BsParams, eps: np.ndarray) -> np.ndarray:
    """Gradient of g(eps) = sum_k exp(mu_k + (C eps)_k): C^T (e^mu * e^{C eps})."""
    c = params.factor
    return c.T @ (params.coef * np.exp(params.drift + c @ np.asarray(eps, float)))


def la_direction_bs(params: BsParams) -> np.ndarray:
    """Normalized payoff gradient at the zero-noise point, v = C^T e^mu / ||.||."""
    grad = bs_gradient(params, np.zeros(params.dim))
    norm = float(np.linalg.norm(grad))
    if norm < 1e-14:
        raise DegenerateGradient("zero-noise gradient vanished")
    return normalize_sign(grad / norm)


def la_directions_multi(gradient, dim: int, count: int) -> DirectionSet:
    """Iterated-gradient LA directions: v_1 = grad(0)/||.||, v_{p+1} =
    grad(v_p)/||.||.  The returned set is generally non-orthogonal."""
    point = np.zeros(dim)
    cols = []
    for _ in range(count):
        g = np.asarray(gradient(point), dtype=float)
        norm = float(np.linalg.norm(g))
        if norm < 1e-14:
            raise DegenerateGradient("gradient vanished at an iterated point")
        v = g / norm
        cols.append(v)
        point = v
    try:
        return DirectionSet(np.column_stack([normalize_sign(v) for v in cols]))
    except RankDeficient as exc:
        raise DependentDirections(str(exc)) from exc


def lt_directions_bs(params: BsParams, count: int) -> DirectionSet:
    """Orthonormal LT columns for the BS basket payoff.

    Column p maximizes the first-coordinate variance of the first-order
    expansion at the point with p-1 leading ones in the already-rotated
    coordinates: u^{(p)}_k = exp(mu_k + sum_{m<p} (C A_m)_k), the new column
    is C^T u^{(p)} projected against the previous columns and normalized.
    The first column therefore coincides with the LA direction.
    """
    c = params.factor
    dim = params.dim
    if not 1 <= count <= dim:
        raise ValueError("column count must lie in 1..dim")
    cols: list[np.ndarray] = []
    shift = np.zeros(dim)
    for _ in range(count):
        u = params.coef * np.exp(params.drift + shift)
        b = c.T @ u
        b = _project_out(b, cols)
        norm = float(np.linalg.norm(b))
        if norm < 1e-12:
            raise DegenerateColumn("expansion column vanished after projection")
        a = normalize_sign(b / norm)
        cols.append(a)
        shift += c @ a
    a_mat = np.column_stack(cols)
    assert np.max(np.abs(a_mat.T @ a_mat - np.eye(count))) < 1e-10
    return DirectionSet(columns=a_mat)


# --- CIR ---------------------------------------------------------------------


@dataclass(frozen=True)
class LtCirWorkspace:
    """Coefficients of the first-order CIR expansion along one driver path.

    alpha[i] = dS_{i+2}/dS_{i+1} and beta[m] = sigma sqrt(dt S_m) on the
    induced path; w[m, j] = dS_{j+1}/dz_{m+1} obeys the one-step recurrence
    w[m, j+1] = alpha[j] w[m, j]; t[m] = sum_j w[m, j] is the unnormalized
    direction and t[N-1] = beta[N-1] always.
    """

    path: np.ndarray   # induced path S_0..S_N, length N+1
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
    s = np.empty(n + 1)
    s[0] = params.s0
    for j in range(n):
        if s[j] < 0.0:
            raise NegativePathValue(
                f"induced path went negative at step {j}")
        s[j + 1] = s[j] + params.alpha * (params.mu - s[j]) * dt \
            + params.sigma * np.sqrt(s[j] * dt) * zhat[j]
    beta = params.sigma * np.sqrt(dt * s[:n])
    # alpha[i] = 1 - a dt + (sigma/2) sqrt(dt / S_{i+1}) z_{i+2}, i = 0..N-2
    inner = s[1:n]
    if np.any(inner <= 0.0):
        raise NegativePathValue("induced path hit zero inside the horizon")
    alpha = 1.0 - params.alpha * dt \
        + 0.5 * params.sigma * np.sqrt(dt / inner) * zhat[1:]
    w = np.zeros((n, n))
    for m in range(n):
        w[m, m] = beta[m]
        for j in range(m, n - 1):
            w[m, j + 1] = alpha[j] * w[m, j]
    t = w.sum(axis=1)
    return LtCirWorkspace(path=s, alpha=alpha, beta=beta, w=w, t=t)


def cir_mean_gradient(params: CirParams, z: np.ndarray) -> np.ndarray:
    """Gradient of sum_j S_j with respect to the driver, evaluated at z."""
    return cir_workspace(params, z).t


def lt_directions_cir(params: CirParams, count: int,
                      expansion: str = "shifted") -> DirectionSet:
    """Orthonormal LT columns for the CIR Asian payoff.

    expansion selects the driver path on which column l's coefficients are
    evaluated: "shifted" (default) drives the Euler path with l raw leading
    ones; "nominal" uses the rotated expansion point with l-1 leading ones
    (so column 1 sits on the zero-noise skeleton and coincides with the LA
    direction exactly).
    """
    n = params.n_steps
    if not 1 <= count <= n:
        raise ValueError("column count must lie in 1..n_steps")
    if expansion not in ("shifted", "nominal"):
        raise ValueError(f"unknown expansion rule {expansion!r}")
    cols: list[np.ndarray] = []
    for el in range(1, count + 1):
        if expansion == "shifted":
            zhat = np.zeros(n)
            zhat[:el] = 1.0
        else:
            zhat = np.sum(cols, axis=0) if cols else np.zeros(n)
        ws = cir_workspace(params, zhat)
        b = _project_out(ws.t.copy(), cols)
        norm = float(np.linalg.norm(b))
        if norm < 1e-12:
            raise DegenerateColumn("expansion column vanished after projection")
        cols.append(normalize_sign(b / norm))
    a_mat = np.column_stack(cols)
    assert np.max(np.abs(a_mat.T @ a_mat - np.eye(count))) < 1e-10
    return DirectionSet(columns=a_mat)


def la_direction_cir(params: CirParams) -> np.ndarray:
    """Normalized gradient of the path average at the zero-noise point.

    On the deterministic skeleton the coefficients collapse to
    alpha_j = 1 - alpha dt, so t_m = beta_{m-1} (1 - q^{N-m+1}) / (1 - q).
    """
    t = cir_workspace(params, np.zeros(params.n_steps)).t
    norm = float(np.linalg.norm(t))
    if norm < 1e-14:
        raise DegenerateGradient("zero-noise gradient vanished")
    return normalize_sign(t / norm)


def pilot_pca_cir(params: CirParams, stream: RandomStream,
                  pilot_n: int = 2000) -> np.ndarray:
    """Leading eigenvector of the pilot-sample price-path covariance.

    The eigenvector is returned (normalized, sign-fixed) as the direction
    for stratifying the driving noise directly.
    """
    if pilot_n < 2:
        raise ValueError("pilot sample must have at least two paths")
    z = stream.normal((pilot_n, params.n_steps))
    paths = cir_euler_path(z, params).values[:, 0, :]
    cov = np.cov(paths, rowvar=False)
    cov = 0.5 * (cov + cov.T)
    eig = symmetric_eigen(cov)
    lead = float(eig.eigenvalues[0])
    if lead <= 1e-12 * max(1.0, abs(float(np.trace(cov)))):
        raise DegenerateCovariance("pilot paths carry no variance")
    v = eig.eigenvectors[:, 0]
    return normalize_sign(v / np.linalg.norm(v))


def export_directions(columns: np.ndarray, path: str) -> None:
    """Write direction columns as plain text, one component per line with
    17 significant digits; columns are separated by '# column j' headers."""
    cols = np.asarray(columns, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(cols.shape[1]):
            fh.write(f"# column {j + 1}\n")
            for val in cols[:, j]:
                fh.write(f"{val:.17g}\n")
