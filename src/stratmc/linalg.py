"""Dense linear algebra used throughout the package.

Covariance constructors, Cholesky factorization, Gram-Schmidt
orthonormalization, symmetric eigendecomposition and direction angles.
Factorizations and eigensolves delegate to LAPACK (via numpy) and then
enforce the package-wide conventions: eigenvalues sorted descending, each
eigenvector's largest-magnitude component positive, Cholesky pivots checked
against a relative tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonIncreasingGrid,
    NoConvergence,
    NotPositiveDefinite,
    RankDeficient,
    ZeroVector,
)

__all__ = [
    "EigenDecomposition",
    "cholesky",
    "bm_covariance",
    "gram_schmidt",
    "symmetric_eigen",
    "angle_degrees",
]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]


def _require_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise ValueError("matrix is not symmetric")
    return m


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular C with C @ C.T == m.

    Raises NotPositiveDefinite if factorization fails or any pivot c_ii^2
    falls at or below 1e-12 times the largest diagonal entry of m.
    """
    m = _require_symmetric(m)
    tol = 1e-12 * float(np.max(np.diag(m))) if m.size else 0.0
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if m.size and float(np.min(np.diag(c)) ** 2) <= tol:
        raise NotPositiveDefinite("pivot at or below tolerance")
    return c


def bm_covariance(grid) -> np.ndarray:
    """Brownian-motion covariance on a time grid: entry (j, n) = min(t_j, t_n)."""
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise NonIncreasingGrid("grid must be a non-empty 1-d sequence")
    if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
        raise NonIncreasingGrid("grid must satisfy 0 < t_1 < ... < t_N")
    return np.minimum.outer(t, t)


def gram_schmidt(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize a sequence of vectors (columns of the result).

    Returns (F, norms) where F has orthonormal columns spanning the input
    and norms[i] is the length of the i-th residual f'_i before
    normalization.  The first column equals the first input vector, so for
    unit inputs norms[0] == 1.  Raises RankDeficient when a residual norm
    drops below 1e-10.
    """
    e = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    d, k = e.shape
    f = np.zeros((d, k))
    norms = np.zeros(k)
    for i in range(k):
        resid = e[:, i].copy()
        for j in range(i):  # modified Gram-Schmidt
            resid -= (f[:, j] @ resid) * f[:, j]
        norms[i] = np.linalg.norm(resid)
        if norms[i] < 1e-10:
            raise RankDeficient(f"vector {i} is dependent on its predecessors")
        f[:, i] = resid / norms[i]
    return f, norms


def symmetric_eigen(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues come back sorted descending; each eigenvector is flipped so
    its largest-magnitude component is positive (directions are defined up
    to sign, a fixed convention keeps results deterministic).
    """
    m = _require_symmetric(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    for i in range(v.shape[1]):
        j = int(np.argmax(np.abs(v[:, i])))
        if v[j, i] < 0.0:
            v[:, i] = -v[:, i]
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def normalize_sign(v: np.ndarray) -> np.ndarray:
    """Flip a vector so its largest-magnitude component is positive."""
    v = np.asarray(v, dtype=float)
    j = int(np.argmax(np.abs(v)))
    return -v if v[j] < 0.0 else v.copy()


def angle_degrees(u, v) -> float:
    """Angle between two directions in degrees, folded to [0, 90].

    Directions are sign-invariant, so the cosine is taken in absolute
    value.  Raises ZeroVector for zero-length input.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("angle undefined for zero vector")
    c = abs(float(u @ v)) / (nu * nv)
    return float(np.degrees(np.arccos(min(c, 1.0))))
