"""Dense linear algebra used throughout the package.

Covariance constructors, Cholesky factorization, Gram-Schmidt
orthonormalization, symmetric eigendecomposition and direction angles.
Factorizations and eigensolves delegate to LAPACK (via numpy) and then
enforce the package-wide conventions: eigenvalues sorted descending, each
eigenvector's largest-magnitude component positive, Cholesky pivots checked
against a relative tolerance.
"""
from __future__ import annotations

import numpy as np

from .errors import StratMcError

__all__ = [
    "cholesky",
    "bm_covariance",
    "gram_schmidt",
    "symmetric_eigen",
    "normalize_sign",
    "angle_degrees",
]


def _require_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise ValueError("matrix is not symmetric")
    return m


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular C with C @ C.T == m.

    Raises StratMcError if factorization fails or any pivot c_ii^2
    falls at or below 1e-12 times the largest diagonal entry of m.
    """
    m = _require_symmetric(m)
    tol = 1e-12 * float(np.max(np.diag(m))) if m.size else 0.0
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise StratMcError(str(exc)) from exc
    if m.size and float(np.min(np.diag(c)) ** 2) <= tol:
        raise StratMcError("pivot at or below tolerance")
    return c


def bm_covariance(grid) -> np.ndarray:
    """Brownian-motion covariance on a time grid: entry (j, n) = min(t_j, t_n)."""
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise StratMcError("grid must be a non-empty 1-d sequence")
    if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
        raise StratMcError("grid must satisfy 0 < t_1 < ... < t_N")
    return np.minimum.outer(t, t)


def gram_schmidt(vectors) -> np.ndarray:
    """Orthonormalize a sequence of vectors (columns of the result).

    Returns F with orthonormal columns spanning the input; the first column
    is the first input vector, normalized.  Raises StratMcError when the
    residual of a vector against its predecessors has norm below 1e-10.
    """
    e = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    d, k = e.shape
    f = np.zeros((d, k))
    for i in range(k):
        resid = e[:, i].copy()
        for j in range(i):  # modified Gram-Schmidt
            resid -= (f[:, j] @ resid) * f[:, j]
        norm = np.linalg.norm(resid)
        if norm < 1e-10:
            raise StratMcError(f"vector {i} is dependent on its predecessors")
        f[:, i] = resid / norm
    return f


def symmetric_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition (w, v) of a symmetric matrix, as
    np.linalg.eigh returns it: column v[:, i] pairs with w[i].

    Eigenvalues come back sorted descending; each eigenvector is flipped so
    its largest-magnitude component is positive (directions are defined up
    to sign, a fixed convention keeps results deterministic).
    """
    m = _require_symmetric(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise StratMcError(str(exc)) from exc
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    for i in range(v.shape[1]):
        v[:, i] = normalize_sign(v[:, i])
    return w, v


def normalize_sign(v: np.ndarray) -> np.ndarray:
    """Flip a vector so its largest-magnitude component is positive."""
    v = np.asarray(v, dtype=float)
    j = int(np.argmax(np.abs(v)))
    return -v if v[j] < 0.0 else v.copy()


def angle_degrees(u, v) -> float:
    """Angle between two directions in degrees, folded to [0, 90].

    Directions are sign-invariant, so the cosine is taken in absolute
    value.  Raises StratMcError for zero-length input.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise StratMcError("angle undefined for zero vector")
    c = abs(float(u @ v)) / (nu * nv)
    return float(np.degrees(np.arccos(min(c, 1.0))))
