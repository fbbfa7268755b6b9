"""Desk-scale self-test criteria.

Ten end-to-end checks covering sampler correctness, the non-orthogonal
weighting scheme, direction-engine identities and angles, price
reproduction, variance-reduction ordering, allocation optimality,
recurrence invariants, byte-identical output across runs and processes,
and payoff monotonicity.
The same functions back `stratmc selftest` and tests/test_acceptance.py.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .directions import angle_degrees, bs_gradient, cir_gradient, engines
from .experiment import format_rows, load_config, run_experiment
from .gaussian import RandomStream
from .models import (
    bs_basket_g,
    bs_paths,
    cir_euler_path,
    cir_zero_noise_path,
)
from .payoffs import PayoffSpec, evaluate, payoff_evaluator
from .presets import (
    basket_params,
    bs_asian_params,
    bs_barrier_params,
    cir_asian_params,
)
from .stratify import (
    DirectionSet,
    StratumSpec,
    optimal_allocation,
    plain_mc_estimate,
    sample_strata,
    two_stage_estimate,
)

__all__ = ["Criterion", "CRITERIA", "run_all"]


@dataclass(frozen=True)
class Criterion:
    number: int
    slug: str
    budget_seconds: float
    func: object

    def run(self) -> tuple[bool, str]:
        t0 = time.perf_counter()
        ok, detail = self.func()
        elapsed = time.perf_counter() - t0
        if elapsed > self.budget_seconds:
            ok = False
            detail += f"; exceeded {self.budget_seconds:.0f}s budget"
        return ok, f"{detail} [{elapsed:.1f}s]"


def _fails(checks: list[tuple[bool, str]]) -> tuple[bool, str]:
    bad = [f"failed: {msg}" for ok, msg in checks if not ok]
    if bad:
        return False, "; ".join(bad)
    return True, "; ".join(msg for _, msg in checks)


# --- 1: sampler membership and conditional covariance -------------------------


def _in_boxes(z, cols, spec, strata, tol=0.0) -> bool:
    """Whether every projection z @ cols[:, j] lies in its stratum's interval."""
    ok = True
    for j, k in enumerate(np.unravel_index(strata, spec.counts)):
        edges = spec.edges(j)
        lo, hi = edges[k], edges[k + 1]
        proj = z @ cols[:, j]
        ok &= bool(np.all((proj > lo - tol) & (proj < hi + tol)))
    return ok


def _criterion_1():
    stream = RandomStream(101)
    d = 8
    v = stream.normal(d)
    v /= np.linalg.norm(v)
    n_strata = 8
    spec1 = StratumSpec((n_strata,))
    per = 12_500
    strata = np.repeat(np.arange(n_strata), per)
    z, _ = sample_strata(DirectionSet(v), spec1,
                         strata, stream.child(1))
    member_1d = _in_boxes(z, v[:, None], spec1, strata)
    residuals = z - np.outer(z @ v, v)
    cov = np.cov(residuals, rowvar=False)
    cov_err = float(np.max(np.abs(cov - (np.eye(d) - np.outer(v, v)))))

    base = stream.normal((d, 2))
    f = np.linalg.qr(base)[0]
    ospec = StratumSpec((4, 4))
    ostrata = np.repeat(np.arange(ospec.total), 500)
    z, _ = sample_strata(DirectionSet(f), ospec, ostrata,
                         stream.child(2))
    member_orth = _in_boxes(z, f, ospec, ostrata)

    e1 = np.zeros(d)
    e1[0] = 1.0
    e2 = np.zeros(d)
    e2[0] = e2[1] = np.sqrt(0.5)
    ncols = np.column_stack([e1, e2])
    z, _ = sample_strata(DirectionSet(ncols), ospec, ostrata,
                         stream.child(3))
    member_non = _in_boxes(z, ncols, ospec, ostrata, tol=1e-9)

    return _fails([
        (member_1d, "1-d draws inside declared slabs"),
        (member_orth, "orthogonal draws inside declared boxes"),
        (member_non, "non-orthogonal draws inside declared boxes"),
        (cov_err <= 0.02, f"conditional covariance error {cov_err:.4f} <= 0.02"),
    ])


# --- 2: non-orthogonal weighting against a rejection oracle -------------------


def _criterion_2():
    stream = RandomStream(202)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0])
    dirs = DirectionSet(np.column_stack([e1, e2]))
    spec = StratumSpec((4, 4))
    per = 4_000

    def statistics(z):
        """z1, exp(z1 + z2) and 1 per draw, stacked (3, n)."""
        return np.stack([z[:, 0], np.exp(z[:, 0] + z[:, 1]), np.ones(len(z))])

    z, w = sample_strata(dirs, spec, np.repeat(np.arange(spec.total), per),
                         stream.child(1))
    # row i of each (strata, per) block holds the draws of stratum i
    wg = (w * statistics(z)).reshape(3, spec.total, per)
    m, se = wg.mean(axis=2), wg.std(axis=2, ddof=1) / np.sqrt(per)

    # oracle: unconditional draws; E[w g | stratum k] drawn stratified equals
    # E[g 1_{box k}] drawn plainly, and E[w] equals the box probability
    n_plain = 4_000_000
    chunk = 1_000_000
    sums = np.zeros((3, spec.total))
    sq = np.zeros((3, spec.total))
    ostream = stream.child(10_000)
    for _ in range(n_plain // chunk):
        z = ostream.normal((chunk, 3))
        # each draw's box in the sampler's flat order, lo < projection <= hi
        box = np.ravel_multi_index(
            [np.searchsorted(spec.edges(j), z @ e) - 1
             for j, e in enumerate((e1, e2))], spec.counts)
        g = statistics(z)
        sums += [np.bincount(box, row, spec.total) for row in g]
        sq += [np.bincount(box, row ** 2, spec.total) for row in g]
    o_mean = sums / n_plain
    o_se = np.sqrt(np.maximum(sq / n_plain - o_mean ** 2, 0.0) / n_plain)
    match = np.all(np.abs(m - o_mean) <= 3 * np.sqrt(se ** 2 + o_se ** 2),
                   axis=1)

    # orthant: both projections positive has probability 3/8 at 45 degrees;
    # flat index 3 is stratum (2, 2) of the 2 x 2 grid
    _, w = sample_strata(dirs, StratumSpec((2, 2)), np.full(100_000, 3),
                         stream.child(20_000))
    w_mean = float(w.mean())
    w_se = float(w.std(ddof=1) / np.sqrt(w.size))
    ok_orthant = abs(w_mean - 0.375) <= 3 * w_se

    return _fails([
        (match[0], "weighted means of z1 match oracle"),
        (match[1], "weighted means of exp(z1+z2) match oracle"),
        (match[2], "mean weights match oracle box probabilities"),
        (ok_orthant, f"orthant weight {w_mean:.4f} vs 3/8"),
    ])


# --- 3: LA equals the first LT column in BS -----------------------------------


def _criterion_3():
    checks = []
    for label, params in (("asian", bs_asian_params()), ("basket", basket_params())):
        model_engines = engines(params)
        ang = angle_degrees(model_engines["la"](1).columns[:, 0],
                            model_engines["lt"](1).columns[:, 0])
        checks.append((ang <= 1e-8, f"{label}: angle(la, lt1) = {ang:.2e} deg"))
    return _fails(checks)


# --- 4: angle reproduction -----------------------------------------------------


def _criterion_4():
    bs = engines(bs_asian_params())
    ang_bs = angle_degrees(bs["la"](1).columns[:, 0],
                           bs["pca"](1).columns[:, 0])

    cir = engines(cir_asian_params())
    ang_cir = angle_degrees(cir["la"](1).columns[:, 0],
                            cir["lt"](1).columns[:, 0])
    return _fails([
        (abs(ang_bs - 52.73) <= 1.0,
         f"bs angle(la, pca) = {ang_bs:.4f} vs 52.73 +- 1"),
        (abs(ang_cir - 1.00) <= 0.5,
         f"cir angle(la, lt) = {ang_cir:.4f} vs 1.00 +- 0.5"),
    ])


# --- 5: price reproduction at desk scale ---------------------------------------


def _price_check(label, evaluator, dim, stream, target, half_ulp,
                 n_samples=100_000):
    rep = plain_mc_estimate(evaluator, dim, n_samples, stream)
    price, variance = rep.price[0], rep.variance[0]
    # combine our SE with the SE of the reference run (2e6 draws) and allow
    # half an ulp of the printed value
    se_ref = np.sqrt(variance / 2_000_000)
    tol = 3.0 * np.sqrt(rep.est_variance[0] + se_ref ** 2) + half_ulp
    ok = abs(price - target) <= tol
    return variance, (ok, f"{label}: {price:.4f} vs {target} (tol {tol:.4f})")


def _criterion_5():
    stream = RandomStream(23)
    asian = bs_asian_params()
    barrier = bs_barrier_params()
    basket = basket_params()
    # (label, model, contract, substream, printed target)
    cases = [(f"bs K={k:g}", asian, PayoffSpec(k), i, target)
             for i, (k, target) in enumerate([(45.0, 7.02), (50.0, 4.02),
                                              (55.0, 2.06)])]
    cases += [
        ("barrier-expiry", barrier,
         PayoffSpec(50.0, "asian-barrier-expiry", 60.0), 10, 1.38),
        ("barrier-complete", barrier,
         PayoffSpec(50.0, "asian-barrier-complete", 60.0), 11, 1.22),
        ("basket K=40", basket, PayoffSpec(40.0), 12, 4.15),
    ]
    checks = [_price_check(label, payoff_evaluator(params, [spec]), params.dim,
                           stream.child(child), target, 0.005)[1]
              for label, params, spec, child, target in cases]

    cir = cir_asian_params()
    ev_c = payoff_evaluator(cir, [PayoffSpec(100.0)])
    var_c, chk = _price_check("cir K=100", ev_c, cir.dim, stream.child(13),
                              10.6, 0.05)
    checks.append(chk)
    checks.append((abs(var_c - 310.0) <= 31.0,
                   f"cir var {var_c:.1f} vs 310 +- 10%"))
    return _fails(checks)


# --- 6: variance-reduction ordering --------------------------------------------


def _criterion_6():
    stream = RandomStream(606)
    n_samples, n_strata = 100_000, 100
    spec1 = StratumSpec((n_strata,))

    bs = bs_asian_params()
    # one contract per evaluator: every estimate reads row 0
    ev = payoff_evaluator(bs, [PayoffSpec(50.0)])
    mc = plain_mc_estimate(ev, bs.dim, n_samples, stream.child(0)).variance[0]
    la_set = engines(bs)["la"](1)
    pca_set = engines(bs)["pca"](1)
    la = two_stage_estimate(ev, la_set, spec1, n_samples, stream.child(1),
                            "opt").variance[0]
    pca = two_stage_estimate(ev, pca_set, spec1, n_samples, stream.child(2),
                             "opt").variance[0]
    ratio_bs = mc / la

    cir = cir_asian_params()
    ev_c = payoff_evaluator(cir, [PayoffSpec(100.0)])
    mc_c = plain_mc_estimate(ev_c, cir.dim, n_samples,
                             stream.child(3)).variance[0]
    la_c_set = engines(cir)["la"](1)
    la_c = two_stage_estimate(ev_c, la_c_set, spec1, n_samples,
                              stream.child(4), "opt").variance[0]
    ratio_cir = mc_c / la_c

    return _fails([
        (ratio_bs >= 100.0, f"bs var(mc)/var(la-opt) = {ratio_bs:.0f} >= 100"),
        (la < pca < mc,
         f"ordering la {la:.3g} < pca {pca:.3g} < mc {mc:.3g}"),
        (ratio_cir >= 100.0, f"cir var(mc)/var(la-opt) = {ratio_cir:.0f} >= 100"),
    ])


# --- 7: allocation optimality ----------------------------------------------------


def _criterion_7():
    rng = np.random.default_rng(707)
    worst = -np.inf
    for _ in range(100):
        k = int(rng.integers(2, 40))
        p = rng.random(k) + 1e-3
        p /= p.sum()
        sigma = rng.random(k) * rng.integers(0, 2, k)  # allow zero sigmas
        if not np.any(p * sigma > 0):
            sigma[0] = 1.0
        q = optimal_allocation(p, sigma, 10_000) / 10_000
        live = sigma > 0
        var_opt = float(np.sum((p[live] * sigma[live]) ** 2 / q[live]))
        var_prop = float(np.sum(p[live] * sigma[live] ** 2))
        worst = max(worst, var_opt - var_prop * (1 + 1e-12))
    ok = worst <= 0.0
    return ok, f"max(var_opt - var_prop) = {worst:.3e} over 100 instances"


# --- 8: recurrence invariants and gradients ---------------------------------------


def _criterion_8():
    cir = cir_asian_params()
    stream = RandomStream(808)
    checks = []

    exact = True
    for trial in range(5):
        zhat = 0.5 * stream.normal(cir.n_steps)
        s_last = cir_euler_path(zhat, cir).values[0, -2]
        exact &= bool(cir_gradient(cir, zhat)[-1]
                      == cir.sigma * np.sqrt(cir.dt * s_last))
    checks.append((exact, "t_N == sigma sqrt(dt S_{N-1}) exact"))

    n = cir.n_steps
    skel = cir_zero_noise_path(cir)
    euler = cir_euler_path(np.zeros(n), cir).values[0, :]
    err = float(np.max(np.abs(euler - skel[1:]) / np.abs(skel[1:])))
    checks.append((err <= 1e-12, f"zero-noise closed form rel err {err:.2e}"))

    # zero noise: alpha is the constant q = 1 - a dt, so the backward pass
    # sums a geometric series
    q = 1.0 - cir.alpha * cir.dt
    beta = cir.sigma * np.sqrt(cir.dt * skel[:n])
    series = beta * (1.0 - q ** (n - np.arange(n))) / (1.0 - q)
    grad_c = cir_gradient(cir, np.zeros(n))
    err = float(np.max(np.abs(grad_c - series) / np.abs(series)))
    checks.append((err <= 1e-12, f"zero-noise geometric series rel err {err:.2e}"))

    bs = bs_asian_params()
    h = 1e-5
    dim = bs.dim
    eps = np.vstack([np.eye(dim) * h, -np.eye(dim) * h])
    g_vals = bs_basket_g(eps, bs)
    fd = (g_vals[:dim] - g_vals[dim:]) / (2 * h)
    grad = bs_gradient(bs, np.zeros(dim))
    rel_bs = float(np.linalg.norm(fd - grad) / np.linalg.norm(grad))
    checks.append((rel_bs < 1e-5, f"bs gradient vs FD rel err {rel_bs:.2e}"))

    h = 1e-6
    eps = np.vstack([np.eye(n) * h, -np.eye(n) * h])
    sums = cir_euler_path(eps, cir).values[:, 0, :].sum(axis=1)
    fd_c = (sums[:n] - sums[n:]) / (2 * h)
    rel_cir = float(np.linalg.norm(fd_c - grad_c) / np.linalg.norm(grad_c))
    checks.append((rel_cir < 1e-4, f"cir gradient vs FD rel err {rel_cir:.2e}"))
    return _fails(checks)


# --- 9: byte-identical tables for a fixed seed ------------------------------------

_DETERMINISM_INI = """\
[model]
kind = bs
s0 = 50
sigma = 0.3
rate = 0.05
steps = 64

[payoff]
kind = asian-basket
strike = 50

[run]
methods = mc, la, la+pca, lhs
alloc = opt
strata = 25
n_samples = 20000
lhs_replications = 10
seed = 909
"""


def _criterion_9():
    # the opt main stage's 18000 draws span three sampler chunks and the
    # LHS cell's ten replications two groups (a test checks both); the
    # pinned process runs them on one thread, the others on every core
    starts = [None, None]
    if hasattr(os, "sched_setaffinity"):
        core = min(os.sched_getaffinity(0))
        starts.append(lambda: os.sched_setaffinity(0, {core}))
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "determinism.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(_DETERMINISM_INI)
        tables = [format_rows(run_experiment(load_config(ini)), "csv")
                  for _ in range(2)]
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for start in starts:
            proc = subprocess.run(
                [sys.executable, "-m", "stratmc.cli", "experiment",
                 "--config", ini], capture_output=True, text=True, env=env,
                timeout=120, preexec_fn=start)
            if proc.returncode != 0:
                return False, f"stratmc experiment exited {proc.returncode}"
            tables.append(proc.stdout)
    pinned = ", one pinned to one core" if len(starts) > 2 else ""
    if len(set(tables)) == 1:
        return True, (f"csv identical across 2 runs and {len(starts)} fresh "
                      f"processes{pinned}")
    return False, "csv differs across runs with the same seed"


# --- 10: barrier monotonicity -------------------------------------------------------


def _criterion_10():
    params = bs_barrier_params()
    stream = RandomStream(1010)
    eps = stream.normal((10_000, params.dim))
    paths = bs_paths(eps, params)
    plain, expiry, complete = (
        evaluate(paths, PayoffSpec(50.0, kind, barrier), params)
        for kind, barrier in (("asian-basket", None),
                              ("asian-barrier-expiry", 60.0),
                              ("asian-barrier-complete", 60.0)))
    violations = int(np.sum(complete > expiry) + np.sum(expiry > plain))
    ok = violations == 0
    return ok, f"{violations} ordering violations over 10000 paths"


CRITERIA = (
    Criterion(1, "sampler-membership-covariance", 10.0, _criterion_1),
    Criterion(2, "nonorthogonal-oracle", 30.0, _criterion_2),
    Criterion(3, "la-equals-lt1-bs", 10.0, _criterion_3),
    Criterion(4, "angle-reproduction", 1.0, _criterion_4),
    Criterion(5, "price-reproduction", 120.0, _criterion_5),
    Criterion(6, "variance-reduction-ordering", 120.0, _criterion_6),
    Criterion(7, "allocation-optimality", 10.0, _criterion_7),
    Criterion(8, "recurrences-and-gradients", 10.0, _criterion_8),
    Criterion(9, "seed-determinism", 60.0, _criterion_9),
    Criterion(10, "barrier-monotonicity", 10.0, _criterion_10),
)


def run_all(numbers=None) -> list[tuple[Criterion, bool, str]]:
    results = []
    for crit in CRITERIA:
        if numbers and crit.number not in numbers:
            continue
        ok, detail = crit.run()
        results.append((crit, ok, detail))
    return results
