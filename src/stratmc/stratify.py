"""The conditional Gaussian sampler for strata defined by linear
projections, allocation rules, and the stratified / plain / LHS estimators.

Strata are slabs of standard-normal space: for a direction set with columns
e_1..e_d' and per-direction interval counts K_1..K_d', stratum (k_1..k_d')
collects the z with e_i . z in the k_i-th marginal quantile interval.  Every
direction set is sampled on its Gram-Schmidt frame through sequentially
conditioned coordinates, and every draw carries the product of its
conditional interval probabilities as a weight.  The estimator sums the
stratum means of weight * g, so the joint probability of a box is never
needed; for orthonormal directions the frame is the set itself and every
weight is p_k = 1/prod(K_j).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import AllZeroSigma, IndexOutOfRange, NotOrthogonal
from .gaussian import RandomStream
from .gaussian import lhs_normals as _lhs_normals
from .linalg import gram_schmidt

__all__ = [
    "DirectionSet",
    "StratumSpec",
    "AllocationPlan",
    "EstimateReport",
    "StrataDraw",
    "sample_strata",
    "optimal_allocation",
    "equal_allocation",
    "stratified_estimate",
    "two_stage_estimate",
    "plain_mc_estimate",
    "lhs_estimate",
]

_P_FLOOR = np.nextafter(0.0, 1.0)
_P_CEIL = np.nextafter(1.0, 0.0)
# draws per sampler call within a stage: large enough to amortize the
# per-call overhead, small enough to bound a call's working set (the
# chunk's d normals per draw) whatever the stage size
_CHUNK = 8192
# draws per evaluator call in plain MC; the MC rows' bytes depend on it
_MC_CHUNK = 200_000


@dataclass(frozen=True)
class DirectionSet:
    """d' linearly independent unit direction columns E in R^d.

    frame holds the Gram-Schmidt frame F of the columns and m = E^T F, so
    that E = F m^T with m lower triangular; for orthonormal columns F = E
    and m = I up to rounding.
    """

    columns: np.ndarray
    frame: np.ndarray = field(init=False, repr=False)
    m: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cols = np.atleast_2d(np.asarray(self.columns, dtype=float))
        if cols.ndim != 2:
            raise ValueError("columns must form a 2-d array")
        object.__setattr__(self, "columns", cols)
        norms = np.linalg.norm(cols, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("direction columns must have unit norm")
        frame, _ = gram_schmidt(cols.T)  # raises RankDeficient on dependence
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "m", cols.T @ frame)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class StratumSpec:
    """Per-direction interval counts; marginal intervals are equiprobable."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in np.atleast_1d(self.counts))
        if any(c < 1 for c in counts):
            raise ValueError("interval counts must be >= 1")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(np.prod(self.counts))

    def indices(self):
        """All stratum multi-indices (1-based), last direction fastest."""
        for idx in np.ndindex(*self.counts):
            yield tuple(i + 1 for i in idx)

    def edges(self, direction: int) -> np.ndarray:
        """The K_j + 1 quantile edges along one direction, -inf to inf;
        stratum k (1-based) spans edges[k - 1] to edges[k]."""
        n = self.counts[direction]
        edges = ndtri(np.arange(n + 1) / n)
        edges[0], edges[-1] = -np.inf, np.inf
        return edges

    def marginal_bounds(self, direction: int, k: int) -> tuple[float, float]:
        """Quantile interval (a^-, a^+) of stratum k along one direction."""
        n = self.counts[direction]
        if not 1 <= k <= n:
            raise IndexOutOfRange(f"stratum {k} outside 1..{n}")
        edges = self.edges(direction)
        return float(edges[k - 1]), float(edges[k])


@dataclass
class AllocationPlan:
    """Stratum fractions q_k and integer counts n_k."""

    q: np.ndarray
    n: np.ndarray
    total: int

    def __post_init__(self):
        if abs(float(np.sum(self.q)) - 1.0) > 1e-12:
            raise ValueError("allocation fractions must sum to 1")
        if int(np.sum(self.n)) != self.total:
            raise ValueError("integer counts must sum to the total")


@dataclass
class EstimateReport:
    """Price estimate with variance bookkeeping.

    `variance` is the single-draw-equivalent value n_used * Var(estimator),
    directly comparable with a plain-MC sample variance; `est_variance` is
    the variance of the estimator itself.
    """

    price: float
    variance: float
    est_variance: float
    wall_time: float
    n_samples: int
    n_strata: int
    stratum_means: np.ndarray | None = None
    stratum_sigmas: np.ndarray | None = None
    stratum_counts: np.ndarray | None = None
    stratum_empty: np.ndarray | None = field(default=None, repr=False)

    @property
    def std_error(self) -> float:
        return float(np.sqrt(max(self.est_variance, 0.0)))


# --- sampler ------------------------------------------------------------------


class StrataDraw(NamedTuple):
    """Rows drawn by sample_strata; unpacks as (z, weight)."""

    z: np.ndarray
    weight: np.ndarray


def sample_stratum_nonorthogonal(directions: DirectionSet, spec: StratumSpec,
                                 strata, stream: RandomStream) -> StrataDraw:
    """Draw one z per entry of `strata`, with every projection in its box.

    `strata` holds flat 0-based stratum indices in the order of
    spec.indices().  The draws are made on the set's orthonormal frame F,
    with E = F m^T (directions.frame and directions.m): coordinate i along
    f_i is drawn from the normal restricted to the sequential interval
    (a_i^- - s_i, a_i^+ - s_i) / m[i, i], with s_i the shift contributed by
    the already-drawn coordinates, and the residual is completed in O(d).

    Returns a StrataDraw (z, weight): z has shape (n, d) and weight[r] is
    the product of row r's conditional interval probabilities, which stands
    in for p_k in the estimator, so the joint box probability is never
    needed.  For orthonormal sets every weight is p_k.  A weight of 0 marks
    a row whose box is unreachable from its earlier coordinates.
    """
    f, m = directions.frame, directions.m
    d, dp = f.shape
    if len(spec.counts) != dp:
        raise IndexOutOfRange("stratum spec arity does not match the directions")
    strata = np.asarray(strata, dtype=np.intp)
    if strata.size and (strata.min() < 0 or strata.max() >= spec.total):
        raise IndexOutOfRange(f"stratum index outside 0..{spec.total - 1}")
    n = strata.size
    ks = np.unravel_index(strata, spec.counts)
    u = stream.uniform_open(size=(n, dp))
    x = np.empty((n, dp))
    weight = np.ones(n)
    for i in range(dp):
        edges = spec.edges(i)
        shift = x[:, :i] @ m[i, :i]
        ta_lo = (edges[ks[i]] - shift) / m[i, i]
        ta_hi = (edges[ks[i] + 1] - shift) / m[i, i]
        p_lo = ndtr(ta_lo)
        width = ndtr(ta_hi) - p_lo
        p = np.clip(p_lo + u[:, i] * width, _P_FLOOR, _P_CEIL)
        x[:, i] = np.clip(ndtri(p), ta_lo, ta_hi)
        weight *= width
    zp = stream.normal((n, d))
    z = zp - (zp @ f) @ f.T + x @ f.T
    return StrataDraw(z, weight)


# The one sampler, under its public name.  The function keeps the name of the
# general (non-orthogonal) sampler because bench/tracer.py times the
# stratified draws under that name; renaming it goes with a benchmark change.
sample_strata = sample_stratum_nonorthogonal


# --- allocation --------------------------------------------------------------


def _largest_remainder(q: np.ndarray, total: int, n_min: int,
                       active: np.ndarray) -> np.ndarray:
    """Integerize fractions q*total, keeping the sum exact and n >= n_min
    on active strata (inactive strata get 0)."""
    target = np.where(active, q * total, 0.0)
    n = np.floor(target).astype(int)
    short = total - int(n.sum())
    if short > 0:
        order = np.argsort(-(target - n), kind="stable")
        order = order[active[order]]
        n[order[:short]] += 1
    low = active & (n < n_min)
    n[low] = n_min
    surplus = int(n.sum()) - total
    while surplus > 0:
        i = int(np.argmax(np.where(active & (n > n_min), n, -1)))
        if n[i] <= n_min:
            raise ValueError("total too small for n_min per stratum")
        take = min(surplus, n[i] - n_min)
        n[i] -= take
        surplus -= take
    return n


def optimal_allocation(p, sigma_hat, n_total: int, n_min: int = 2) -> AllocationPlan:
    """Counts n_k proportional to p_k * sigma_k (the variance-minimizing rule).

    Strata with p_k == 0 are treated as unreachable and get zero draws;
    strata with sigma_hat == 0 still get n_min so stage two can correct a
    lucky pilot.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(sigma_hat, dtype=float)
    if np.any(p < 0.0) or float(p.sum()) > 1.0 + 1e-9:
        raise ValueError("stratum probabilities must be >= 0 and sum to <= 1")
    if np.any(s < 0.0):
        raise ValueError("sigma estimates must be >= 0")
    active = p > 0.0
    w = p * s
    if not np.any(w > 0.0):
        raise AllZeroSigma("every stratum std estimate is zero")
    q = w / w.sum()
    n = _largest_remainder(q, n_total, n_min, active)
    return AllocationPlan(q=q, n=n, total=n_total)


def equal_allocation(p, n_total: int, n_min: int = 2) -> AllocationPlan:
    """Equal counts across reachable strata (the constant allocation rule;
    identical to proportional allocation when strata are equiprobable)."""
    p = np.asarray(p, dtype=float)
    active = p > 0.0
    k_active = int(active.sum())
    if k_active == 0:
        raise ValueError("no reachable strata")
    q = np.where(active, 1.0 / k_active, 0.0)
    n = _largest_remainder(q, n_total, n_min, active)
    return AllocationPlan(q=q, n=n, total=n_total)


# --- estimators ---------------------------------------------------------------


def stratified_estimate(evaluator, directions: DirectionSet, spec: StratumSpec,
                        plan: AllocationPlan, stream: RandomStream) -> EstimateReport:
    """Single-stage stratified estimator over every stratum in spec.

    Every draw carries its weight (p_k for orthonormal directions): the
    estimate is sum_k mean_k(weight * g) and the estimator variance is
    sum_k s_k^2 / n_k, with s_k the within-stratum sample std of
    weight * g; stratum_means and stratum_sigmas hold these weighted
    values.  A stratum with an unreachable draw is reported empty, with no
    draws and no contribution.

    The stage's draws are laid out stratum by stratum and sampled in chunks
    of _CHUNK rows, chunk c from substream stream.child(c), so the result is
    a pure function of the stream and the plan.
    """
    t0 = time.perf_counter()
    n_strata = spec.total
    if plan.n.shape[0] != n_strata:
        raise ValueError("allocation plan does not match stratum spec")
    strata = np.repeat(np.arange(n_strata), plan.n)
    vals = np.empty(strata.size)
    unreachable = np.zeros(strata.size, dtype=bool)
    for c, start in enumerate(range(0, strata.size, _CHUNK)):
        rows = slice(start, start + _CHUNK)
        z, weight = sample_strata(directions, spec, strata[rows], stream.child(c))
        vals[rows] = evaluator(z) * weight
        unreachable[rows] = weight == 0.0

    empty = np.bincount(strata[unreachable], minlength=n_strata) > 0
    keep = ~empty[strata]
    strata, vals = strata[keep], vals[keep]
    counts = np.where(empty, 0, plan.n)
    # two passes: means first, then squared deviations from them, so the
    # within-stratum variance does not cancel
    means = np.bincount(strata, vals, n_strata) / np.maximum(counts, 1)
    dev2 = np.bincount(strata, (vals - means[strata]) ** 2, n_strata)
    sigmas = np.sqrt(dev2 / np.maximum(counts - 1, 1))

    used = counts > 0
    price = float(np.sum(means[used]))
    est_var = float(np.sum(sigmas[used] ** 2 / counts[used]))
    n_used = int(counts.sum())
    return EstimateReport(
        price=price,
        variance=est_var * n_used,
        est_variance=est_var,
        wall_time=time.perf_counter() - t0,
        n_samples=n_used,
        n_strata=n_strata,
        stratum_means=means,
        stratum_sigmas=sigmas,
        stratum_counts=counts,
        stratum_empty=empty,
    )


def two_stage_estimate(evaluator, directions: DirectionSet, spec: StratumSpec,
                       n_total: int, stream: RandomStream,
                       allocation: str = "opt", pilot_fraction: float = 0.1,
                       n_min: int = 2) -> EstimateReport:
    """Stratified estimate under the constant or the two-stage optimal rule.

    "const": every reachable stratum gets an equal share of n_total in one
    stage.  "opt": a pilot stage (pilot_fraction of the budget, equal
    allocation) estimates the per-stratum stds, the remaining budget is
    allocated proportionally to p_k * sigma_hat_k, and the reported price
    and variance come from the main stage alone.  n_samples reports the
    full budget either way.
    """
    t0 = time.perf_counter()
    n_strata = spec.total
    # the estimator variance is sum_k s_k^2 / n_k, with s_k the std of
    # weight * g (the weight carries p_k), and n_k proportional to s_k
    # minimizes it; a uniform p makes the optimal rule exactly that, and
    # counts every stratum reachable until the pilot finds it empty
    p = np.full(n_strata, 1.0 / n_strata)

    if allocation == "const":
        plan = equal_allocation(p, n_total, n_min=n_min)
        report = stratified_estimate(evaluator, directions, spec, plan,
                                     stream.child(1))
        report.wall_time = time.perf_counter() - t0
        return report
    if allocation != "opt":
        raise ValueError(f"unknown allocation rule: {allocation!r}")

    n_pilot = max(int(round(pilot_fraction * n_total)), n_min * n_strata)
    n_main = n_total - n_pilot
    if n_main < n_min * n_strata:
        raise ValueError("budget too small for a two-stage run")
    pilot_plan = equal_allocation(p, n_pilot, n_min=n_min)
    pilot = stratified_estimate(evaluator, directions, spec, pilot_plan,
                                stream.child(1))
    p_eff = np.where(pilot.stratum_empty, 0.0, p)
    plan = optimal_allocation(p_eff, pilot.stratum_sigmas, n_main, n_min=n_min)
    report = stratified_estimate(evaluator, directions, spec, plan,
                                 stream.child(2))
    report.n_samples = pilot.n_samples + report.n_samples
    report.variance = report.est_variance * (report.n_samples)
    report.wall_time = time.perf_counter() - t0
    return report


def plain_mc_estimate(evaluator, dim: int, n_total: int,
                      stream: RandomStream) -> EstimateReport:
    """Plain Monte Carlo baseline; variance is the single-draw sample variance."""
    t0 = time.perf_counter()
    if n_total < 2:
        raise ValueError("need at least two draws")
    vals = np.empty(n_total)
    done = 0
    while done < n_total:
        m = min(_MC_CHUNK, n_total - done)
        z = stream.normal((m, dim))
        vals[done:done + m] = evaluator(z)
        done += m
    var1 = float(vals.var(ddof=1))
    return EstimateReport(
        price=float(vals.mean()),
        variance=var1,
        est_variance=var1 / n_total,
        wall_time=time.perf_counter() - t0,
        n_samples=n_total,
        n_strata=1,
    )


def lhs_estimate(evaluator, rotation: np.ndarray, n_total: int,
                 replications: int, stream: RandomStream) -> EstimateReport:
    """Latin Hypercube estimator on rotated coordinates.

    Each replication evaluates the payoff on rotation @ L^T for an
    independent LHS matrix L; the price is the grand mean and the variance
    is estimated across replication means, reported in single-draw units
    (var of means times the per-replication size).
    """
    t0 = time.perf_counter()
    rotation = np.asarray(rotation, dtype=float)
    d = rotation.shape[0]
    if rotation.shape != (d, d) or \
            np.max(np.abs(rotation.T @ rotation - np.eye(d))) > 1e-8:
        raise NotOrthogonal("rotation matrix is not orthogonal")
    if replications < 2:
        raise ValueError("need at least two replications")
    n_rep = n_total // replications
    if n_rep < 2:
        raise ValueError("budget too small for the replication count")

    means = np.array([
        float(np.mean(evaluator(_lhs_normals(n_rep, d, stream.child(r)) @ rotation.T)))
        for r in range(replications)])
    var_rep = float(means.var(ddof=1))
    n_used = n_rep * replications
    return EstimateReport(
        price=float(means.mean()),
        variance=var_rep * n_rep,
        est_variance=var_rep / replications,
        wall_time=time.perf_counter() - t0,
        n_samples=n_used,
        n_strata=1,
    )
