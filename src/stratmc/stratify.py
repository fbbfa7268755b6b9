"""The conditional Gaussian sampler for strata defined by linear
projections, allocation rules, and the stratified / plain / LHS estimators.

Strata are slabs of standard-normal space: for a direction set with columns
e_1..e_d' and per-direction interval counts K_1..K_d', stratum (k_1..k_d')
collects the z with e_i . z in the k_i-th marginal quantile interval.  Every
direction set is sampled on the orthonormal frame F of its QR factorization
E = F R through sequentially conditioned coordinates, and every draw
carries the product of its conditional interval probabilities as a weight.
The estimator sums the stratum means of weight * g, so the joint
probability of a box is never needed; for orthonormal directions the frame
is the set itself and every weight is p_k = 1/prod(K_j).
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import StratMcError
from .gaussian import RandomStream
from .gaussian import lhs_normals as _lhs_normals

__all__ = [
    "DirectionSet",
    "StratumSpec",
    "EstimateReport",
    "StrataDraw",
    "sample_strata",
    "optimal_allocation",
    "stratified_estimate",
    "two_stage_estimate",
    "ALLOCS",
    "min_budget",
    "plain_mc_estimate",
    "lhs_estimate",
]

_P_FLOOR = np.nextafter(0.0, 1.0)
_P_CEIL = np.nextafter(1.0, 0.0)
# draws per sampler call within a stage, and per evaluator call in plain
# MC: large enough to amortize the per-call overhead, small enough to bound
# a call's working set (the chunk's d normals per draw) whatever the size
_CHUNK = 8192
# draws per stream call in plain MC; the MC rows' bytes depend on it
_MC_CHUNK = 200_000
# fewest draws a reachable stratum gets in any stage: two give a
# within-stratum variance estimate
_N_MIN = 2
# share of an opt cell's budget spent on its pilot stage
_PILOT_FRACTION = 0.1
# the allocation rules and their stage counts: "const" allocates in one
# stage, "opt" in a pilot stage and a main stage
_STAGES = {"const": 1, "opt": 2}
ALLOCS = tuple(_STAGES)


@dataclass(frozen=True)
class DirectionSet:
    """d' >= 1 linearly independent unit direction columns E in R^d; a 1-d
    vector is one direction.

    frame holds the orthonormal frame F of the QR factorization E = F R,
    signed so that diag(R) > 0, and m = R^T, exactly lower triangular: the
    first frame column is the first direction, and for orthonormal columns
    F = E and m = I up to rounding.  A column with |R_ii| < 1e-10, or one
    beyond the dimension, is dependent on its predecessors: StratMcError.
    """

    columns: np.ndarray
    frame: np.ndarray = field(init=False, repr=False)
    m: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim == 1:
            cols = cols[:, None]
        if cols.ndim != 2:
            raise ValueError("columns must form a 2-d array")
        if cols.shape[1] == 0:
            raise ValueError("need at least one direction column")
        object.__setattr__(self, "columns", cols)
        norms = np.linalg.norm(cols, axis=0)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # nan fails too
            raise ValueError("direction columns must have unit norm")
        d, k = cols.shape
        if k > d:  # reduced QR would return a short frame without complaint
            raise StratMcError(f"vector {d} is dependent on its predecessors")
        frame, r = np.linalg.qr(cols)
        small = np.flatnonzero(np.abs(np.diag(r)) < 1e-10)
        if small.size:
            raise StratMcError(
                f"vector {small[0]} is dependent on its predecessors")
        sign = np.sign(np.diag(r))
        object.__setattr__(self, "frame", frame * sign)
        object.__setattr__(self, "m", (r * sign[:, None]).T)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class StratumSpec:
    """Per-direction interval counts; marginal intervals are equiprobable.
    A stratum is named by its flat 0-based index over the grid, last
    direction fastest (np.unravel_index(k, counts) gives its intervals)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        raw = np.atleast_1d(self.counts)
        if raw.size == 0:  # numpy gives () a float dtype
            raise ValueError("need at least one interval count")
        if raw.dtype.kind not in "iu":
            raise ValueError("interval counts must be integers")
        counts = tuple(int(c) for c in raw)
        if any(c < 1 for c in counts):
            raise ValueError("interval counts must be >= 1")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(np.prod(self.counts))

    def edges(self, direction: int) -> np.ndarray:
        """The K_j + 1 quantile edges along one direction, -inf to inf;
        stratum k (0-based) spans edges[k] to edges[k + 1]."""
        n = self.counts[direction]
        return ndtri(np.arange(n + 1) / n)


@dataclass
class EstimateReport:
    """Price estimate with variance bookkeeping, one entry per evaluator row.

    An evaluator prices S contracts from the same draws, f(z) -> (S, n), one
    row per contract; a 1-d f(z) -> (n,) is one row.  price, variance and
    est_variance have shape (S,), and the stratum_* arrays (S, K) over K
    strata: K = 1 for plain MC and LHS, whose one stratum is never empty.
    `variance` is the single-draw-equivalent value n_used * Var(estimator),
    directly comparable with a plain-MC sample variance; `est_variance` is
    the variance of the estimator itself.  n_samples counts the draws in
    the estimate: an int shared by every row for one stage or a baseline,
    one count per row from two_stage_estimate.  The report holds statistics
    only: run_experiment times each cell around its estimator call.
    """

    price: np.ndarray
    variance: np.ndarray
    est_variance: np.ndarray
    n_samples: int | np.ndarray
    n_strata: int
    stratum_means: np.ndarray
    stratum_sigmas: np.ndarray
    stratum_counts: np.ndarray
    stratum_empty: np.ndarray = field(repr=False)


# --- sampler ------------------------------------------------------------------


class StrataDraw(NamedTuple):
    """Rows drawn by sample_strata; unpacks as (z, weight)."""

    z: np.ndarray
    weight: np.ndarray


def sample_stratum_nonorthogonal(directions: DirectionSet, spec: StratumSpec,
                                 strata, stream: RandomStream,
                                 out: np.ndarray | None = None) -> StrataDraw:
    """Draw one z per entry of `strata`, with every projection in its box.

    `strata` holds flat 0-based stratum indices, last direction fastest
    (see StratumSpec).  The draws are made on the set's orthonormal frame F,
    with E = F m^T (directions.frame and directions.m): coordinate x_i along
    f_i is drawn from the normal restricted to the sequential interval
    (a_i^- - s_i, a_i^+ - s_i) / m[i, i], with s_i the shift of x_1..x_{i-1},
    and one in-place gemm completes a normal zp: z = zp + (x - zp F) F^T.

    Returns a StrataDraw (z, weight): z has shape (n, d), the transposed
    view of step-major (d, n) memory, and weight[r] is
    the product of row r's conditional interval probabilities, which stands
    in for p_k in the estimator, so the joint box probability is never
    needed.  For orthonormal sets every weight is p_k.  A weight of 0 marks
    a row whose box is unreachable from its earlier coordinates.

    `out`, a flat C-contiguous float64 array of at least d * n entries,
    holds z: its first d * n entries are overwritten and z is a view of
    them, so a caller can draw chunk after chunk into one buffer.  Without
    it the sampler allocates that array itself; the draws are the same.
    """
    f, m = directions.frame, directions.m
    d, dp = f.shape
    if len(spec.counts) != dp:
        raise StratMcError("stratum spec arity does not match the directions")
    strata = np.asarray(strata)
    if strata.size and strata.dtype.kind not in "iu":  # [] is float64
        raise ValueError("stratum indices must be integers")
    strata = strata.astype(np.intp, copy=False)
    if strata.size and (strata.min() < 0 or strata.max() >= spec.total):
        raise StratMcError(f"stratum index outside 0..{spec.total - 1}")
    n = strata.size
    ks = np.unravel_index(strata, spec.counts)
    u = stream.uniform_open(size=(dp, n))
    x = np.empty((dp, n))
    weight = np.ones(n)
    for i in range(dp):
        edges = spec.edges(i)
        shift = m[i, :i] @ x[:i]
        ta_lo = (edges[ks[i]] - shift) / m[i, i]
        ta_hi = (edges[ks[i] + 1] - shift) / m[i, i]
        p_lo = ndtr(ta_lo)
        width = ndtr(ta_hi) - p_lo
        p = np.clip(p_lo + u[i] * width, _P_FLOOR, _P_CEIL)
        x[i] = np.clip(ndtri(p), ta_lo, ta_hi)
        weight *= width
    if out is None:
        out = np.empty(d * n)
    z = stream.normal(out=out[:d * n].reshape(d, n)).T
    if n:  # gemm rejects an empty c
        # imported here: scipy.linalg adds about 60 ms to `import stratmc`
        from scipy.linalg.blas import dgemm
        dgemm(1.0, (x - f.T @ z.T).T, f.T, beta=1.0, c=z, overwrite_c=True)
    return StrataDraw(z, weight)


# The one sampler, under its public name.  The function keeps the name of the
# general (non-orthogonal) sampler because bench/tracer.py times the
# stratified draws under that name; renaming it goes with a benchmark change.
sample_strata = sample_stratum_nonorthogonal


# --- allocation --------------------------------------------------------------


def _largest_remainder(q: np.ndarray, total: int,
                       active: np.ndarray) -> np.ndarray:
    """Integerize fractions q*total, keeping the sum exact and n >= _N_MIN
    on active strata (inactive strata get 0); total must be at least
    _N_MIN per active stratum."""
    target = np.where(active, q * total, 0.0)
    n = np.floor(target).astype(int)
    short = total - int(n.sum())
    if short > 0:
        order = np.argsort(-(target - n), kind="stable")
        order = order[active[order]]
        n[order[:short]] += 1
    low = active & (n < _N_MIN)
    n[low] = _N_MIN
    surplus = int(n.sum()) - total
    while surplus > 0:
        i = int(np.argmax(np.where(active & (n > _N_MIN), n, -1)))
        take = min(surplus, n[i] - _N_MIN)
        n[i] -= take
        surplus -= take
    return n


def optimal_allocation(p, sigma_hat, n_total: int) -> np.ndarray:
    """Integer counts n_k proportional to p_k * sigma_k (the
    variance-minimizing rule), summing to n_total.

    Strata with p_k == 0 are treated as unreachable and get zero draws;
    strata with sigma_hat == 0 still get _N_MIN so stage two can correct a
    lucky pilot.  Where p * sigma_hat has no mass (a contract worth the
    same on every pilot draw), every reachable stratum gets only _N_MIN.
    Unit sigma_hat gives proportional allocation n_k ~ p_k, the "const"
    rule.  p and sigma_hat must be finite, and n_total an integer (not a
    bool) of at least _N_MIN per reachable stratum.
    """
    if isinstance(n_total, bool) or not isinstance(n_total, numbers.Integral):
        raise ValueError(f"n_total = {n_total!r} must be an integer")
    p = np.asarray(p, dtype=float)
    s = np.asarray(sigma_hat, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(s))):
        raise ValueError("stratum probabilities and sigma estimates must be "
                         "finite")
    if np.any(p < 0.0) or float(p.sum()) > 1.0 + 1e-9:
        raise ValueError("stratum probabilities must be >= 0 and sum to <= 1")
    if np.any(s < 0.0):
        raise ValueError("sigma estimates must be >= 0")
    active = p > 0.0
    if n_total < _N_MIN * np.count_nonzero(active):
        raise ValueError("total too small for n_min per stratum")
    w = p * s
    if not np.any(w > 0.0):
        return np.where(active, _N_MIN, 0)
    return _largest_remainder(w / w.sum(), n_total, active)


# --- threads -----------------------------------------------------------------


# (get, set) thread-count symbols of OpenBLAS: numpy's wheel, scipy's wheel
# and a system build
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of every OpenBLAS mapped into the
    process, read once from /proc/self/maps (none where that file is
    missing): an OpenBLAS loaded after the first call is not found."""
    # loads scipy's OpenBLAS, which the sampler calls, before the scan
    import scipy.linalg.blas  # noqa: F401
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return ()
    found = []
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREADS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                found.append((get, set_))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS at one thread, and restore each count on
    exit.  numpy's and scipy's wheels each bring an OpenBLAS with its own
    pool, and on a chunk's small gemm and gemv the two pools' threads wake
    and spin against each other, or against the stage's own helper
    threads.  An OpenBLAS loaded after the first hold is not held.  Nested
    holds restore in order; holds entered at once from two threads may
    leave a count at 1, which moves no bytes."""
    counts = [(get(), set_) for get, set_ in _openblas_threads()]
    try:
        for _, set_ in counts:
            set_(1)
        yield
    finally:
        for n, set_ in counts:
            set_(n)


def _map_chunks(chunk, n_chunks: int) -> list:
    """[chunk(c) for c in range(n_chunks)], computed on the calling thread
    and one helper thread per further usable core, under one BLAS thread:
    the chunks of a stratified stage, or the groups of LHS replications.

    Each thread takes the next chunk index until none is left, and every
    result lands at its own index, so the list does not depend on the
    schedule.  A single chunk or a single usable core starts no thread.  An
    error in any chunk leaves the remaining chunks untaken and is raised
    once every thread has stopped.  The calling thread takes chunks itself
    because a pool mapped over every chunk held about 9 MB more at peak on
    the benchmark tables, and an error drains the shared iterator so that
    Ctrl-C in the calling thread stops a long stage without running its
    remaining chunks."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cores = os.cpu_count() or 1
    workers = min(n_chunks, cores)
    if workers == 1:
        return [chunk(c) for c in range(n_chunks)]
    results = [None] * n_chunks
    order = iter(range(n_chunks))  # next() on it is atomic under the GIL

    def work():
        try:
            for c in order:
                results[c] = chunk(c)
        except BaseException:
            for _ in order:  # leave the other threads nothing to take
                pass
            raise

    with _one_blas_thread(), ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
        for helper in helpers:
            helper.result()
    return results


# --- estimators ---------------------------------------------------------------


def stratified_estimate(evaluator, directions: DirectionSet, spec: StratumSpec,
                        counts, stream: RandomStream) -> EstimateReport:
    """Single-stage stratified estimator over every stratum in spec.

    Every draw carries its weight (p_k for orthonormal directions): the
    estimate is sum_k mean_k(weight * g) and the estimator variance is
    sum_k s_k^2 / n_k, with s_k the within-stratum sample std of
    weight * g; stratum_means and stratum_sigmas hold these weighted
    values.  A stratum with an unreachable draw is reported empty, with no
    draws and no contribution.

    `counts` holds the draws n_k per stratum, shape (K,) for every row of
    the evaluator or (S, K) with one row per evaluator row.  The stage
    draws max_s n_k^s rows in stratum k and row s uses the first n_k^s of
    them, so each row sees an iid sample of exactly its own size; its
    emptiness is decided on those same draws.  n_samples counts the draws
    that enter at least one row's estimate.

    The stage's draws are laid out stratum by stratum and sampled in chunks
    of _CHUNK rows, chunk c from substream stream.child(c), so the result is
    a pure function of the stream and the counts.  The chunks are sampled
    and evaluated on every usable core (see _map_chunks), so the evaluator
    must be safe to call from several threads at once; the payoff
    evaluators are.  Each worker thread draws its chunks' normals into one
    _CHUNK x d buffer, so the evaluator's z is overwritten by that thread's
    next chunk: the evaluator must not keep it.
    """
    n_strata = spec.total
    n = np.atleast_2d(counts)
    if n.shape[1] != n_strata:
        raise ValueError("allocation does not match stratum spec")
    if n.dtype.kind not in "iu" or n.min() < 0 or n.max() < 1:
        raise ValueError(
            "counts must be non-negative integers with at least one draw")
    pool = n.max(axis=0)
    strata = np.repeat(np.arange(n_strata), pool)
    # position of each draw within its stratum
    rank = np.arange(strata.size) - np.repeat(np.cumsum(pool) - pool, pool)
    # one normal buffer per worker thread, reused chunk after chunk and
    # freed when the stage returns
    buffers = threading.local()

    def chunk(c):
        if not hasattr(buffers, "z"):
            buffers.z = np.empty(directions.dim * min(_CHUNK, strata.size))
        start = c * _CHUNK
        z, weight = sample_strata(directions, spec, strata[start:start + _CHUNK],
                                  stream.child(c), out=buffers.z)
        # an unreachable draw enters no estimate, and it may sit far out on
        # its box's boundary, where the payoff overflows: evaluate it at 0
        # (a product, since a row of step-major z is d strided writes)
        if not weight.all():
            z *= weight[:, None] != 0.0
        return evaluator(z) * weight, weight

    parts, weights = zip(*_map_chunks(chunk, -(-strata.size // _CHUNK)))
    rows = np.concatenate(parts, axis=-1).reshape(-1, strata.size)
    unreachable = np.concatenate(weights) == 0.0

    # a row's stratum is empty when an unreachable draw is among its own
    first_bad = np.full(n_strata, strata.size)
    np.minimum.at(first_bad, strata[unreachable], rank[unreachable])
    empty = np.broadcast_to(first_bad < n, (rows.shape[0], n_strata))
    report = _stratum_report(rows, strata, rank, np.where(empty, 0, n))
    report.stratum_empty = empty
    return report


def _stratum_report(rows: np.ndarray, strata: np.ndarray, rank: np.ndarray,
                    counts: np.ndarray, size: int = 1) -> EstimateReport:
    """Every estimator's report on rows (S, n) of values, each the mean of
    `size` draws: row s uses value i, in stratum strata[i] at rank[i], when
    rank[i] < counts[s, strata[i]].  stratum_empty is all False."""
    n_strata = counts.shape[1]
    means, sigmas = np.empty((2,) + counts.shape)
    price, est_var = np.empty((2, rows.shape[0]))
    for s, (row, c) in enumerate(zip(rows, counts)):
        keep = rank < c[strata]
        st, v = strata[keep], row[keep]
        # two passes: means first, then squared deviations from them, so
        # the within-stratum variance does not cancel
        means[s] = np.bincount(st, v, n_strata) / np.maximum(c, 1)
        dev2 = np.bincount(st, (v - means[s][st]) ** 2, n_strata)
        sigmas[s] = np.sqrt(dev2 / np.maximum(c - 1, 1))
        used = c > 0
        price[s] = np.sum(means[s][used])
        est_var[s] = np.sum(sigmas[s][used] ** 2 / c[used])

    return EstimateReport(
        price=price,
        variance=est_var * counts.sum(axis=1) * size,
        est_variance=est_var,
        n_samples=int(counts.max(axis=0).sum()) * size,
        n_strata=n_strata,
        stratum_means=means,
        stratum_sigmas=sigmas,
        stratum_counts=counts,
        stratum_empty=np.zeros(counts.shape, dtype=bool),
    )


def min_budget(n_strata: int, allocation: str) -> int:
    """Fewest draws two_stage_estimate accepts over n_strata strata: _N_MIN
    per stratum in each stage, one stage for "const" and two for "opt" (its
    pilot takes max(_PILOT_FRACTION n, _N_MIN n_strata) of the n draws)."""
    return _N_MIN * n_strata * _STAGES[allocation]


def two_stage_estimate(evaluator, directions: DirectionSet, spec: StratumSpec,
                       n_total: int, stream: RandomStream,
                       allocation: str = "opt") -> EstimateReport:
    """Stratified estimate under the constant or the two-stage optimal rule.

    "const": proportional allocation n_k ~ p_k of n_total in one stage,
    equal counts while the strata are equiprobable.  "opt": a pilot stage
    allocated as "const" (_PILOT_FRACTION of the budget) estimates the
    per-stratum stds, the remaining budget is allocated proportionally to
    p_k * sigma_hat_k, and the reported price and variance come from the
    main stage alone.  A budget below min_budget(spec.total, allocation)
    raises ValueError.

    The pilot is shared by the evaluator's rows and each row gets its own
    allocation from its own stds; a row whose pilot stds are all zero (a
    contract worth the same on every pilot draw) takes _N_MIN draws in
    each reachable stratum.  The main stage draws one pool, of which row s
    uses the first n_k^s draws of stratum k (see stratified_estimate).
    n_samples holds one count per row, shape (S,): the draws that enter the
    row's estimate, the pilot's included.
    """
    n_strata = spec.total
    if isinstance(n_total, bool) or not isinstance(n_total, numbers.Integral):
        raise ValueError(f"n_total = {n_total!r} must be an integer")
    if allocation not in _STAGES:
        raise ValueError(f"unknown allocation rule: {allocation!r}")
    if n_total < min_budget(n_strata, allocation):
        raise ValueError(f"budget too small for {allocation} over {n_strata} strata")
    # the estimator variance is sum_k s_k^2 / n_k, with s_k the std of
    # weight * g (the weight carries p_k), and n_k proportional to s_k
    # minimizes it; a uniform p makes the optimal rule exactly that, and
    # counts every stratum reachable until the pilot finds it empty
    p = np.full(n_strata, 1.0 / n_strata)
    # "const" is the pilot stage given the whole budget: the p * sigma
    # rule at unit stds
    n_pilot = n_total if allocation == "const" else \
        max(int(round(_PILOT_FRACTION * n_total)), _N_MIN * n_strata)
    pilot = stratified_estimate(
        evaluator, directions, spec,
        optimal_allocation(p, np.ones(n_strata), n_pilot), stream.child(1))
    report, n_used = pilot, pilot.stratum_counts.sum(axis=1)
    if allocation == "opt":
        p_eff = np.where(pilot.stratum_empty, 0.0, p)
        counts = [optimal_allocation(pe, s, n_total - n_pilot)
                  for pe, s in zip(p_eff, pilot.stratum_sigmas)]
        report = stratified_estimate(evaluator, directions, spec, counts,
                                     stream.child(2))
        n_used = pilot.n_samples + report.stratum_counts.sum(axis=1)
    report.n_samples = n_used
    report.variance = report.est_variance * n_used
    return report


def plain_mc_estimate(evaluator, dim: int, n_total: int,
                      stream: RandomStream) -> EstimateReport:
    """Plain Monte Carlo baseline: n_total draws reduced as one stratum.

    The draws come from the one stream in blocks of min(n_total, _MC_CHUNK)
    step-major (dim, m) normals, each block drawn in one call, and the
    evaluator sees each block _CHUNK draws at a time, on the calling
    thread.  Only one block is held at a time, so the working set is one
    block plus one chunk's evaluation, and an evaluator that prices each
    row on its own gives the values of evaluating each block whole.
    """
    if n_total < 2:
        raise ValueError("need at least two draws")
    parts = []
    for done in range(0, n_total, _MC_CHUNK):
        z = stream.normal((dim, min(_MC_CHUNK, n_total - done)))
        parts += [evaluator(z[:, a:a + _CHUNK].T)
                  for a in range(0, z.shape[1], _CHUNK)]
        del z  # free the block before the next one is drawn
    vals = np.concatenate(parts, axis=-1).reshape(-1, n_total)
    one = np.zeros(n_total, dtype=np.intp)
    return _stratum_report(vals, one, one, np.full((len(vals), 1), n_total))


def lhs_estimate(evaluator, rotation: np.ndarray, n_total: int,
                 replications: int, stream: RandomStream) -> EstimateReport:
    """Latin Hypercube estimator on rotated coordinates.

    Each replication evaluates the payoff on rotation @ L^T for an
    independent LHS matrix L from stream.child(r); the replication means,
    each of n_rep draws, are reduced as one stratum, so `variance` is their
    sample variance times n_rep (single-draw units).
    Groups of ceil(_CHUNK / n_rep) replications run on every usable core
    (see _map_chunks), so the evaluator must be safe to call from several
    threads at once; a budget of one group starts no thread.
    """
    rotation = np.asarray(rotation, dtype=float)
    d = rotation.shape[0]
    if rotation.shape != (d, d) or \
            not np.max(np.abs(rotation.T @ rotation - np.eye(d))) <= 1e-8:
        raise StratMcError("rotation matrix is not orthogonal")
    if replications < 2:
        raise ValueError("need at least two replications")
    n_rep = n_total // replications
    if n_rep < 2:
        raise ValueError("budget too small for the replication count")

    group = -(-_CHUNK // n_rep)

    def chunk(c):
        # one call per replication: a group's call would change the gemm
        # shapes, and with them the bytes
        return [evaluator((rotation @ _lhs_normals(n_rep, d, stream.child(r)).T).T)
                .reshape(-1, n_rep).mean(axis=1)
                for r in range(c * group, min((c + 1) * group, replications))]

    # one row of replication means per evaluator row
    parts = _map_chunks(chunk, -(-replications // group))
    means = np.stack([m for part in parts for m in part], axis=1)
    one = np.zeros(replications, dtype=np.intp)
    return _stratum_report(means, one, one,
                           np.full((len(means), 1), replications), n_rep)
