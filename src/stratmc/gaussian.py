"""Seedable substreams, stratified uniforms and Latin Hypercube normal
matrices.

Randomness is built on the counter-based Philox generator keyed by
(seed, stream_id): every stream is a pure function of its key, and so is
every child stream derived with :meth:`RandomStream.child`.  A result that
draws from a fixed tree of children is therefore reproducible bit for bit,
whatever order the children are consumed in.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import StratMcError

__all__ = [
    "RandomStream",
    "stratum_uniform",
    "lhs_normals",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """splitmix64 finalizer; good avalanche for deriving substream ids."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class RandomStream:
    """Deterministic random stream keyed by (seed, stream_id).

    The output sequence is a pure function of the key and the order of
    calls on this object.  Distinct stream ids give statistically
    independent Philox streams; use :meth:`child` to derive them.
    Drawing advances the stream, so give every independent consumer (a
    payoff, a cell, a stage, a chunk of draws) its own child: then no
    consumer shifts another's draws.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen: np.random.Generator | None = None

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"

    def child(self, index: int) -> "RandomStream":
        """Independent substream number `index` of this stream."""
        mixed = _splitmix64(self.stream_id ^ _splitmix64((int(index) + 1) & _MASK64))
        return RandomStream(self.seed, mixed)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def uniform_open(self, size=None):
        """Uniforms strictly inside (0, 1) — safe to push through quantiles."""
        ints = self.generator.integers(0, 1 << 53, size=size, dtype=np.int64)
        return (ints + 0.5) / float(1 << 53)

    def normal(self, size=None, out=None):
        """Standard normals of shape `size`, or written into `out` (a
        C-contiguous float64 array, which is returned) when given: the same
        values either way, so a caller may reuse one buffer across draws."""
        return self.generator.standard_normal(size=size, out=out)


def stratum_uniform(k: int, n_strata: int, stream: RandomStream, size=None):
    """Uniform draw(s) V on the k-th of n_strata equal slices of (0, 1).

    V = (k - U) / K with U uniform on (0, 1), so V lies strictly inside
    ((k-1)/K, k/K).  k is 1-based.
    """
    if not 1 <= k <= n_strata:
        raise StratMcError(f"stratum {k} outside 1..{n_strata}")
    u = stream.uniform_open(size=size)
    return (k - u) / n_strata


def lhs_normals(n: int, d: int, stream: RandomStream) -> np.ndarray:
    """Latin Hypercube sample of standard normals, shape (n, d), returned as
    the transposed view of step-major (d, n) memory.

    Each column places exactly one point in each of the n equiprobable
    cells: value = Phi^{-1}((perm + U)/n) with an independent permutation
    and in-cell uniforms per column.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    cells = np.empty((d, n))
    for j in range(d):
        perm = stream.generator.permutation(n)
        u = stream.uniform_open(size=n)
        np.divide(perm + u, n, out=cells[j])
    return ndtri(cells, out=cells).T
