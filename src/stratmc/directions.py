"""Stratification direction engines.

PCA (leading covariance eigenvectors), Linear Approximation (normalized
payoff gradient at the zero-noise point) and Linear Transformation
(rotation built column by column from the payoff gradient at leading-ones
points) for the BS and CIR models.  PCA reads the model's path covariance,
exact for BS and estimated from a pilot sample for CIR.  LA and LT read
one driver-space gradient per model: bs_gradient for BS, and for CIR
cir_gradient, one backward pass over the Euler path (Imai and Tan's
first-order expansion of the Euler map, in O(N) memory).  engines(params)
is the table of the engines each model has.

Conventions shared by every engine: returned directions are unit vectors
with the largest-magnitude component positive (normalize_sign), and
multi-direction sets are reported as DirectionSet columns.  The PCA
direction is the covariance eigenvector itself, from the one eigen solve
(pca_directions), used directly as a direction in the iid driver space.
angle_degrees compares two directions up to sign.
"""
from __future__ import annotations

import numpy as np

from .errors import StratMcError
from .gaussian import RandomStream
from .models import BsParams, CirParams, cir_euler_path, path_covariance
from .stratify import DirectionSet

__all__ = [
    "engines",
    "pca_directions",
    "bs_gradient",
    "la_directions_multi",
    "cir_gradient",
    "pilot_covariance",
    "export_directions",
    "normalize_sign",
    "angle_degrees",
]

# paths in the pilot sample of pilot_covariance
_PILOT_N = 2000


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


def pca_directions(sigma: np.ndarray, m: int) -> DirectionSet:
    """The top-m eigenvectors of the symmetric covariance sigma, leading
    first, each sign-fixed; StratMcError when the largest eigenvalue is not
    positive (a check without scale, as eigenvectors have none)."""
    dim = len(sigma)
    if not 1 <= m <= dim:
        raise ValueError(f"column count must lie in 1..{dim}")
    try:
        w, v = np.linalg.eigh(sigma)
    except np.linalg.LinAlgError as exc:
        raise StratMcError(str(exc)) from exc
    if not w[-1] > 0.0:
        raise StratMcError("covariance carries no variance")
    # eigh returns the eigenvalues ascending
    return DirectionSet(np.column_stack(
        [normalize_sign(c) for c in v[:, ::-1][:, :m].T]))


def _lt_directions(gradient, point, dim: int, count: int) -> DirectionSet:
    """LT columns: column p is the gradient at point(previous columns),
    projected against the previous columns, normalized and sign-fixed.  The
    projection runs twice, which keeps the column orthogonal to machine
    precision even when the gradient nearly lies in their span.  A column
    vanishes when projection leaves at most 1e-12 of its gradient's norm,
    whatever that norm's scale."""
    if not 1 <= count <= dim:
        raise ValueError(f"column count must lie in 1..{dim}")
    cols: list[np.ndarray] = []
    for _ in range(count):
        raw = gradient(point(cols))
        b = raw
        for _ in range(2):
            for prev in cols:
                b = b - (prev @ b) * prev
        norm = float(np.linalg.norm(b))
        if not norm > 1e-12 * float(np.linalg.norm(raw)):
            raise StratMcError("expansion column vanished after projection")
        cols.append(normalize_sign(b / norm))
    a_mat = np.column_stack(cols)
    assert np.max(np.abs(a_mat.T @ a_mat - np.eye(count))) < 1e-10
    return DirectionSet(columns=a_mat)


def la_directions_multi(gradient, dim: int, count: int) -> DirectionSet:
    """Iterated-gradient LA directions: v_1 = grad(0)/||.||, v_{p+1} =
    grad(v_p)/||.||.  v_1 is the LA direction, the normalized payoff
    gradient at the zero-noise point.  The returned set is generally
    non-orthogonal.  A gradient vanishes only when its norm is 0 or not
    finite: a tiny but representable gradient still has a direction."""
    if not 1 <= count <= dim:
        raise ValueError(f"column count must lie in 1..{dim}")
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


# --- Black-Scholes -----------------------------------------------------------


def bs_gradient(params: BsParams, eps: np.ndarray) -> np.ndarray:
    """Gradient of g(eps) = sum_k exp(mu_k + (C eps)_k):
    C^T (coef * e^{drift + C eps})."""
    shift = params.factor @ np.asarray(eps, float)
    return params.factor.T @ (params.coef * np.exp(params.drift + shift))


# --- CIR ---------------------------------------------------------------------


def cir_gradient(params: CirParams, z: np.ndarray) -> np.ndarray:
    """Gradient of sum_j S_j over the Euler path driven by z, in one
    backward pass over that path (the adjoint of cir_euler_path).

    beta[m] = sigma sqrt(dt S_m) = dS_{m+1}/dz_m and alpha[m] =
    dS_{m+2}/dS_{m+1} = 1 - a dt + (sigma/2) sqrt(dt / S_{m+1}) z_{m+1};
    u[N-1] = 1, u[m] = 1 + alpha[m] u[m+1], and the gradient is beta u, so
    its last component is beta[N-1] exactly.
    """
    z = np.asarray(z, dtype=float)
    n = params.n_steps
    if z.shape != (n,):
        raise ValueError("driver must have length n_steps")
    dt = params.dt
    s = np.r_[params.s0, cir_euler_path(z, params).values[0]]
    negative = np.flatnonzero(s[:n] < 0.0)
    if negative.size:
        raise StratMcError(
            f"induced path went negative at step {negative[0]}")
    inner = s[1:n]
    if np.any(inner <= 0.0):
        raise StratMcError("induced path hit zero inside the horizon")
    alpha = 1.0 - params.alpha * dt \
        + 0.5 * params.sigma * np.sqrt(dt / inner) * z[1:]
    u = np.ones(n)
    for m in range(n - 2, -1, -1):
        u[m] += alpha[m] * u[m + 1]
    return params.sigma * np.sqrt(dt * s[:n]) * u


def pilot_covariance(params: CirParams, stream: RandomStream) -> np.ndarray:
    """The (N, N) sample covariance of _PILOT_N Euler price paths from stream;
    StratMcError when their spread is not above 1e-12 of their price level."""
    z = stream.normal((_PILOT_N, params.n_steps))
    paths = cir_euler_path(z, params).values[:, 0, :]
    # np.cov of a single column (one step) is 0-d
    cov = np.atleast_2d(np.cov(paths, rowvar=False))
    if not np.trace(cov) > len(cov) * (1e-12 * np.abs(paths).max()) ** 2:
        raise StratMcError("pilot paths carry no variance")
    return cov


def engines(params: BsParams | CirParams,
            stream: RandomStream | None = None) -> dict:
    """The model's direction engines, each mapping a count k to a
    DirectionSet of k directions: la, lt and pca for BsParams; la, lt and
    pilot-pca for CirParams.  pca and pilot-pca are pca_directions of
    path_covariance and of pilot_covariance of stream.child(1), so
    pilot-pca needs a stream.

    la and lt read the model's driver-space payoff gradient.  LT (Imai and
    Tan's construction) gives orthonormal columns: column p maximizes the
    first-coordinate variance of the payoff's first-order expansion at a
    point with p - 1 leading ones, so it is the gradient there, projected
    against the previous columns and normalized.  For BS the ones are taken
    in the already-rotated coordinates, so the point is the sum of the
    previous columns: column p is C^T u^(p) with
    u^(p)_k = exp(mu_k + sum_{m<p} (C A_m)_k), and the first column is the
    LA direction.  For CIR the point is p raw leading ones in the driver,
    so column 1 sits near, not on, the LA direction.
    """
    dim = params.dim
    if isinstance(params, BsParams):
        gradient = lambda eps: bs_gradient(params, eps)
        lt_point = lambda cols: sum(cols, np.zeros(dim))
        pca, cov = "pca", lambda: path_covariance(params)
    else:
        gradient = lambda z: cir_gradient(params, z)
        lt_point = lambda cols: (np.arange(dim) <= len(cols)).astype(float)

        def cov():
            if stream is None:
                raise ValueError("the pilot-pca engine needs a stream")
            return pilot_covariance(params, stream.child(1))
        pca = "pilot-pca"
    return {
        "la": lambda k: la_directions_multi(gradient, dim, k),
        "lt": lambda k: _lt_directions(gradient, lt_point, dim, k),
        pca: lambda k: pca_directions(cov(), k),
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
