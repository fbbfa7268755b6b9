"""Conditional samplers, allocation rules and the estimators.

Oracles:
- truncated-normal mean (phi(a) - phi(b)) / (Phi(b) - Phi(a)) for per-stratum
  projection means
- plain Monte Carlo for full-space consistency of the weighted estimator
- the discarded unweighted scheme is kept as a negative control: it must
  disagree with the truth for correlated directions while the weighted
  estimator agrees
"""
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from stratmc import (
    BsParams,
    CirParams,
    DirectionSet,
    PayoffSpec,
    RandomStream,
    StratMcError,
    StratumSpec,
    bs_asian_params,
    engines,
    lhs_estimate,
    min_budget,
    optimal_allocation,
    payoff_evaluator,
    plain_mc_estimate,
    sample_strata,
    stratified_estimate,
    two_stage_estimate,
)
from stratmc import stratify
from stratmc.stratify import _CHUNK, _openblas_threads


def const_allocation(p, n_total):
    """The "const" rule: the p * sigma rule at unit stds."""
    return optimal_allocation(p, np.ones(len(p)), n_total)


def phi(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / np.sqrt(2 * np.pi)


def truncated_mean(a, b):
    """E[X | a < X < b] for standard normal X; handles infinite endpoints."""
    pa = 0.0 if np.isinf(a) else phi(a)
    pb = 0.0 if np.isinf(b) else phi(b)
    ca = 0.0 if a == -np.inf else ndtr(a)
    cb = 1.0 if b == np.inf else ndtr(b)
    return (pa - pb) / (cb - ca)


class TestDirectionSet:
    def test_requires_unit_columns(self):
        with pytest.raises(ValueError):
            DirectionSet(np.array([[2.0], [0.0]]))

    def test_frame_reproduces_columns(self):
        # E = F m^T with F orthonormal and m = R^T exactly lower triangular
        # with a positive diagonal, so the first frame column is the first
        # direction; an orthonormal set is its own frame
        hand = np.column_stack([[1.0, 0.0, 0.0],
                                [np.sqrt(0.5), np.sqrt(0.5), 0.0]])
        two_la = engines(bs_asian_params())["la"](2).columns  # 1.26 deg apart
        rand = np.random.default_rng(50).normal(size=(6, 3))
        for cols in (hand, two_la, rand / np.linalg.norm(rand, axis=0)):
            ds = DirectionSet(cols)
            assert (ds.dim, ds.count) == cols.shape
            np.testing.assert_allclose(ds.frame.T @ ds.frame,
                                       np.eye(ds.count), atol=1e-15)
            np.testing.assert_allclose(ds.frame @ ds.m.T, cols, atol=1e-15)
            assert np.all(np.diag(ds.m) > 0)
            np.testing.assert_array_equal(np.triu(ds.m, 1), 0.0)
            np.testing.assert_allclose(ds.frame[:, 0], cols[:, 0],
                                       rtol=0, atol=1e-15)
        q, _ = np.linalg.qr(np.random.default_rng(49).normal(size=(5, 3)))
        ortho = DirectionSet(q)
        np.testing.assert_allclose(ortho.m, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(ortho.frame, q, atol=1e-14)

    def test_dependent_columns_rejected(self):
        cols = np.column_stack([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(StratMcError, match="dependent on its predecessors"):
            DirectionSet(cols)

    def test_more_columns_than_dimensions_rejected(self):
        cols = np.column_stack([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        with pytest.raises(StratMcError, match="vector 2 is dependent"):
            DirectionSet(cols)

    def test_vector_is_one_direction(self):
        v = np.array([0.6, 0.8, 0.0])
        ds = DirectionSet(v)
        assert (ds.dim, ds.count) == (3, 1)
        np.testing.assert_array_equal(ds.columns[:, 0], v)


class TestStratumSpec:
    def test_marginal_bounds(self):
        edges = StratumSpec((4,)).edges(0)
        assert edges[0] == -np.inf
        assert edges[1] == pytest.approx(ndtri(0.25))
        assert edges[3] == pytest.approx(ndtri(0.75))
        assert edges[4] == np.inf

    def test_edges_match_marginal_bounds(self):
        # stratum k (0-based) along direction j spans edges[k] to edges[k + 1]
        spec = StratumSpec((3, 5))
        assert spec.total == 15
        for j, count in enumerate(spec.counts):
            edges = spec.edges(j)
            assert edges.shape == (count + 1,)
            assert edges[0] == -np.inf and edges[-1] == np.inf
            assert np.all(np.diff(edges) > 0)
            np.testing.assert_array_equal(edges[1:-1],
                                          ndtri(np.arange(1, count) / count))


def stratum_draws(dirs, spec, per, stream):
    """per draws from every stratum of spec, stratum by stratum."""
    strata = np.repeat(np.arange(spec.total), per)
    z, weight = sample_strata(dirs, spec, strata, stream)
    return z, weight, strata


def assert_in_boxes(z, dirs, spec, strata, tol=0.0):
    for j, k in enumerate(np.unravel_index(strata, spec.counts)):
        edges = spec.edges(j)
        lo, hi = edges[k], edges[k + 1]
        proj = z @ dirs.columns[:, j]
        assert np.all((proj > lo - tol) & (proj < hi + tol))


class TestSample1d:
    def test_membership_strict(self):
        dirs = DirectionSet(np.array([[3.0], [4.0]]) / 5.0)
        spec = StratumSpec((6,))
        z, weight, strata = stratum_draws(dirs, spec, 2_000, RandomStream(50))
        assert_in_boxes(z, dirs, spec, strata)
        np.testing.assert_allclose(weight, 1 / 6, rtol=0, atol=1e-12)

    def test_projection_mean_matches_truncated_normal(self):
        v = np.array([1.0, 0.0, 0.0])
        spec = StratumSpec((4,))
        n = 40_000
        z, _, _ = stratum_draws(DirectionSet(v[:, None]), spec,
                                n, RandomStream(51))
        proj = (z @ v).reshape(4, n)
        edges = spec.edges(0)
        for k in range(4):
            target = truncated_mean(edges[k], edges[k + 1])
            se = proj[k].std(ddof=1) / np.sqrt(n)
            assert abs(proj[k].mean() - target) < 3.5 * se

    def test_unstratified_coordinates_stay_standard_normal(self):
        dirs = DirectionSet(np.array([[1.0], [0.0]]))
        z, _ = sample_strata(dirs, StratumSpec((8,)), np.zeros(50_000, dtype=int),
                             RandomStream(52))
        other = z[:, 1]
        assert abs(other.mean()) < 3.5 / np.sqrt(other.size)
        assert abs(other.std(ddof=1) - 1.0) < 0.02

    def test_bad_stratum(self):
        dirs = DirectionSet(np.array([[1.0], [0.0]]))
        for bad in (8, -1):
            with pytest.raises(StratMcError, match="stratum index outside 0..7"):
                sample_strata(dirs, StratumSpec((8,)), [bad], RandomStream(0))


class TestSampleOrthogonal:
    def test_quadrant_case(self):
        # identity directions in d=2: stratum (2, 2), flat index 3, is the
        # positive quadrant
        dirs = DirectionSet(np.eye(2))
        z, weight = sample_strata(dirs, StratumSpec((2, 2)), np.full(4_000, 3),
                                  RandomStream(53))
        assert np.all(z > 0.0)
        np.testing.assert_allclose(weight, 0.25, rtol=0, atol=1e-12)

    def test_membership_all_strata(self):
        rng = np.random.default_rng(54)
        base = rng.normal(size=(5, 2))
        q, _ = np.linalg.qr(base)
        dirs = DirectionSet(q)
        spec = StratumSpec((3, 4))
        z, weight, strata = stratum_draws(dirs, spec, 500, RandomStream(55))
        assert_in_boxes(z, dirs, spec, strata)
        np.testing.assert_allclose(weight, 1 / 12, rtol=0, atol=1e-12)


class TestSampleNonOrthogonal:
    def dirs45(self, d=3):
        e1 = np.zeros(d)
        e1[0] = 1.0
        e2 = np.zeros(d)
        e2[0] = e2[1] = np.sqrt(0.5)
        return DirectionSet(np.column_stack([e1, e2]))

    def test_membership_closed_bounds(self):
        dirs = self.dirs45()
        spec = StratumSpec((3, 3))
        z, weight, strata = stratum_draws(dirs, spec, 800, RandomStream(56))
        assert np.all((weight > 0.0) & (weight <= 1.0))
        assert_in_boxes(z, dirs, spec, strata, tol=1e-9)

    def test_orthant_weight_three_eighths(self):
        # P(z1 > 0 and (z1 + z2)/sqrt(2) > 0) = 1/4 + 1/8 at 45 degrees;
        # flat index 3 is stratum (2, 2)
        _, weight = sample_strata(self.dirs45(), StratumSpec((2, 2)),
                                  np.full(60_000, 3), RandomStream(57))
        se = weight.std(ddof=1) / np.sqrt(weight.size)
        assert abs(weight.mean() - 0.375) < 3.5 * se

    def test_unreachable_stratum_is_empty(self):
        # nearly parallel directions: bottom box on e1 makes the top box on
        # e2 unreachable, so stratum (1, 50) (flat index 49) is empty
        theta = np.radians(5.0)
        cols = np.column_stack([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
        dirs = DirectionSet(cols)
        spec = StratumSpec((50, 50))
        _, weight = sample_strata(dirs, spec, np.full(100, 49), RandomStream(58))
        assert np.all(weight == 0.0)
        counts = const_allocation(np.full(spec.total, 1 / spec.total), 10 * spec.total)
        rep = stratified_estimate(lambda z: np.exp(z[:, 0]), dirs, spec, counts,
                                  RandomStream(58))
        assert rep.stratum_empty[0, 49]
        # strata where only some draws are unreachable are empty too, and no
        # empty stratum reports a mean, a spread or draws
        empty = rep.stratum_empty
        assert np.all(rep.stratum_counts[empty] == 0)
        assert np.all(rep.stratum_means[empty] == 0.0)
        assert np.all(rep.stratum_sigmas[empty] == 0.0)
        assert rep.n_samples == int(rep.stratum_counts.sum()) < 10 * spec.total
        assert not rep.stratum_empty[0, 0]

    def test_weighted_full_space_consistency(self):
        # summing weighted stratum means over every stratum must reproduce
        # the unconditional expectation
        dirs = self.dirs45()
        spec = StratumSpec((4, 4))
        per = 2_500
        z, weight, _ = stratum_draws(dirs, spec, per, RandomStream(59))
        wg = (weight * np.exp(z[:, 0])).reshape(spec.total, per)
        total = wg.mean(axis=1).sum()
        var_acc = (wg.var(axis=1, ddof=1) / per).sum()
        truth = np.exp(0.5)  # E[exp(z1)]
        assert abs(total - truth) < 3.5 * np.sqrt(var_acc)

    def test_unweighted_scheme_is_biased_negative_control(self):
        # treating the sequentially-sampled strata as equiprobable and exact
        # (no weights) must NOT reproduce the truth for correlated
        # directions; this pins down why the weights exist
        dirs = self.dirs45()
        spec = StratumSpec((4, 4))
        per = 4_000
        z, weight, _ = stratum_draws(dirs, spec, per, RandomStream(60))
        g = np.exp(z[:, 0] + z[:, 1]).reshape(spec.total, per)
        wg = weight.reshape(spec.total, per) * g
        naive = g.mean(axis=1).sum() / spec.total
        naive_var = (g.var(axis=1, ddof=1) / per).sum() / spec.total ** 2
        weighted = wg.mean(axis=1).sum()
        weighted_var = (wg.var(axis=1, ddof=1) / per).sum()
        truth = np.exp(1.0)  # Var(z1 + z2) = 2
        assert abs(weighted - truth) < 3.5 * np.sqrt(weighted_var)
        assert abs(naive - truth) > 5.0 * np.sqrt(naive_var)


def orthonormal_pair():
    q, _ = np.linalg.qr(np.random.default_rng(62).normal(size=(6, 2)))
    return DirectionSet(q)


def la_pca_pair():
    """The non-orthogonal la+pca pair of the bs Asian benchmark."""
    model = engines(bs_asian_params())
    return DirectionSet(np.column_stack([model["la"](1).columns,
                                         model["pca"](1).columns]))


class TestResidualCompletion:
    """z = zp + (x - zp F) F^T puts each draw's frame coordinates at x and
    leaves the rest of the stream's normal zp in place."""

    @pytest.mark.parametrize("make", [orthonormal_pair, la_pca_pair],
                             ids=["orthonormal", "la+pca"])
    def test_boxes_and_residual(self, make):
        dirs = make()
        spec = StratumSpec((5, 4))
        z, weight, strata = stratum_draws(dirs, spec, 200, RandomStream(63))
        assert np.all(weight > 0.0)
        assert_in_boxes(z, dirs, spec, strata)
        # replay the stream: the sampler takes its uniforms, then zp, both
        # drawn step-major
        stream = RandomStream(63)
        stream.uniform_open(size=(dirs.count, strata.size))
        zp = stream.normal(z.shape[::-1]).T
        f = dirs.frame
        np.testing.assert_allclose(z - (z @ f) @ f.T, zp - (zp @ f) @ f.T,
                                   rtol=0, atol=1e-12)

    def test_no_strata_no_draws(self):
        z, weight = sample_strata(la_pca_pair(), StratumSpec((5, 4)), [],
                                  RandomStream(64))
        assert z.shape == (0, 64) and weight.shape == (0,)


# (dimension, seed, angle in degrees between the two unit directions)
unit_pairs = st.tuples(st.integers(2, 6), st.integers(0, 2**32 - 1),
                       st.one_of(st.just(90.0), st.floats(5.0, 89.0)))


class TestSampleStrataProperties:
    @settings(max_examples=60, deadline=None)
    @given(unit_pairs, st.integers(2, 10), st.integers(2, 10),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40))
    def test_boxes_and_weights(self, pair, k1, k2, picks):
        d, seed, theta = pair
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, 2)))
        t = np.radians(theta)
        cols = np.column_stack([q[:, 0], np.cos(t) * q[:, 0] + np.sin(t) * q[:, 1]])
        cols /= np.linalg.norm(cols, axis=0)
        dirs = DirectionSet(cols)
        spec = StratumSpec((k1, k2))
        strata = (np.array(picks) * spec.total).astype(int)
        z, weight = sample_strata(dirs, spec, strata, RandomStream(seed))
        assert_in_boxes(z, dirs, spec, strata, tol=1e-9)
        assert np.all((weight >= 0.0) & (weight <= 1.0))
        if theta == 90.0:
            np.testing.assert_allclose(weight, 1 / spec.total, rtol=0, atol=1e-12)


class TestAllocation:
    def test_optimal_textbook_split(self):
        np.testing.assert_array_equal(
            optimal_allocation([0.5, 0.5], [1.0, 3.0], 400), [100, 300])

    def test_equal_allocation_largest_remainder(self):
        counts = const_allocation([1 / 3, 1 / 3, 1 / 3], 10)
        assert counts.sum() == 10
        assert sorted(counts) == [3, 3, 4]
        counts = const_allocation([1 / 3, 1 / 3, 1 / 3], 100)
        assert sorted(counts) == [33, 33, 34]

    def test_zero_probability_stratum_gets_nothing(self):
        counts = optimal_allocation([0.0, 0.5, 0.5], [2.0, 1.0, 1.0], 100)
        assert counts[0] == 0
        assert counts.sum() == 100

    def test_zero_sigma_keeps_n_min(self):
        counts = optimal_allocation([0.5, 0.5], [0.0, 1.0], 100)
        np.testing.assert_array_equal(counts, [2, 98])

    def test_all_zero_sigma_gives_n_min(self):
        # a contract worth the same on every pilot draw
        np.testing.assert_array_equal(
            optimal_allocation([0.0, 0.5, 0.5], [1.0, 0.0, 0.0], 100), [0, 2, 2])

    def test_optimal_never_worse_than_proportional(self):
        # the integer split the estimators use, against proportional
        rng = np.random.default_rng(61)
        for _ in range(20):
            k = int(rng.integers(2, 20))
            p = rng.random(k)
            p /= p.sum()
            sigma = rng.random(k)
            q = optimal_allocation(p, sigma, 5_000) / 5_000
            var_opt = np.sum((p * sigma) ** 2 / q)
            var_prop = np.sum(p * sigma ** 2)
            assert var_opt <= var_prop * (1 + 1e-12)

    def test_counts_respect_n_min_and_total(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            k = int(rng.integers(2, 30))
            p = rng.random(k)
            p /= p.sum()
            sigma = rng.random(k) + 0.01
            total = int(rng.integers(10 * k, 2000))
            counts = optimal_allocation(p, sigma, total)
            assert counts.sum() == total
            assert np.all(counts[p > 0] >= 2)


def _one_dir(d=3):
    return DirectionSet(np.eye(d)[:, :1])


def _mean_z(z):
    return z.mean(axis=1)


# the input checks of the module that no other test reaches, with the
# error each raises
BAD_INPUTS = {
    "columns-not-2d": (lambda: DirectionSet(np.ones((2, 1, 1))),
                       ValueError, "2-d array"),
    "no-direction-columns": (lambda: DirectionSet(np.zeros((3, 0))),
                             ValueError, "at least one direction column"),
    "no-interval-counts": (lambda: StratumSpec(()),
                           ValueError, "at least one interval count"),
    "interval-count-below-one": (lambda: StratumSpec((4, 0)),
                                 ValueError, ">= 1"),
    "interval-count-not-integer": (lambda: StratumSpec((2.7,)),
                                   ValueError, "integers"),
    "nan-direction": (lambda: DirectionSet(np.array([np.nan, 0.0, 0.0])),
                      ValueError, "unit norm"),
    "sampler-arity": (lambda: sample_strata(
        DirectionSet(np.eye(3)[:, :2]), StratumSpec((4,)), [0], RandomStream(1)),
        StratMcError, "arity"),
    "fractional-stratum-index": (lambda: sample_strata(
        _one_dir(), StratumSpec((4,)), [0.5, 3.9], RandomStream(1)),
        ValueError, "stratum indices must be integers"),
    "total-below-n-min": (lambda: optimal_allocation([0.5, 0.5], [1.0, 1.0], 3),
                          ValueError, "total too small"),
    "fractional-total": (lambda: optimal_allocation([0.5, 0.5], [1.0, 1.0], 10.5),
                         ValueError, r"n_total = 10\.5 must be an integer"),
    "bool-total": (lambda: optimal_allocation([0.5, 0.5], [1.0, 1.0], True),
                   ValueError, "n_total = True must be an integer"),
    "two-stage-fractional-total": (lambda: two_stage_estimate(
        _mean_z, _one_dir(), StratumSpec((4,)), 1000.5, RandomStream(3)),
        ValueError, r"n_total = 1000\.5 must be an integer"),
    "negative-p": (lambda: optimal_allocation([-0.1, 1.1], [1.0, 1.0], 10),
                   ValueError, "probabilities"),
    "p-above-one": (lambda: optimal_allocation([0.6, 0.6], [1.0, 1.0], 10),
                    ValueError, "probabilities"),
    "negative-sigma": (lambda: optimal_allocation([0.5, 0.5], [1.0, -1.0], 10),
                       ValueError, "sigma estimates"),
    "nan-sigma": (lambda: optimal_allocation([0.5, 0.5], [np.nan, 1.0], 10),
                  ValueError, "must be finite"),
    "inf-sigma": (lambda: optimal_allocation([0.5, 0.5], [np.inf, 1.0], 10),
                  ValueError, "must be finite"),
    "nan-p": (lambda: optimal_allocation([np.nan, 0.5], [1.0, 1.0], 10),
              ValueError, "must be finite"),
    "inf-p": (lambda: optimal_allocation([np.inf, 0.5], [1.0, 1.0], 10),
              ValueError, "must be finite"),
    "plan-spec-mismatch": (lambda: stratified_estimate(
        _mean_z, _one_dir(), StratumSpec((4,)),
        const_allocation(np.full(3, 1 / 3), 30), RandomStream(2)),
        ValueError, "does not match"),
    "unknown-rule": (lambda: two_stage_estimate(
        _mean_z, _one_dir(), StratumSpec((4,)), 100, RandomStream(3), "equal"),
        ValueError, "unknown allocation rule"),
    "mc-one-draw": (lambda: plain_mc_estimate(_mean_z, 3, 1, RandomStream(4)),
                    ValueError, "two draws"),
    "lhs-nan-rotation": (lambda: lhs_estimate(
        _mean_z, np.diag([1.0, 1.0, np.nan]), 100, 10, RandomStream(5)),
        StratMcError, "not orthogonal"),
    "lhs-one-replication": (lambda: lhs_estimate(
        _mean_z, np.eye(3), 100, 1, RandomStream(5)),
        ValueError, "two replications"),
    "lhs-one-draw-per-replication": (lambda: lhs_estimate(
        _mean_z, np.eye(3), 10, 6, RandomStream(6)),
        ValueError, "budget too small"),
}


@pytest.mark.parametrize("call, error, match", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("counts", [np.zeros(4, int), [3, -1, 2, 2],
                                    np.full(4, 5.0)],
                         ids=["no-draws", "negative", "float"])
def test_counts_must_be_draw_counts(counts):
    with pytest.raises(ValueError, match="non-negative integers with at least"):
        stratified_estimate(_mean_z, _one_dir(), StratumSpec((4,)), counts,
                            RandomStream(7))


class TestEstimators:
    def v_first(self, d):
        v = np.zeros(d)
        v[0] = 1.0
        return DirectionSet(v[:, None])

    def test_constant_payoff_is_exact(self):
        dirs = self.v_first(3)
        spec = StratumSpec((8,))
        counts = const_allocation(np.full(8, 1 / 8), 800)
        rep = stratified_estimate(lambda z: np.full(z.shape[0], 7.25), dirs,
                                  spec, counts, RandomStream(63))
        assert rep.price == pytest.approx(7.25, abs=1e-14)
        assert rep.variance == pytest.approx(0.0, abs=1e-20)

    def test_linear_payoff_variance_collapses(self):
        # stratifying along v removes all explained variance of g(z) = v.z;
        # the optimal rule then spends the budget on the wide tail strata
        d = 4
        dirs = self.v_first(d)
        spec = StratumSpec((100,))
        n = 50_000
        ev = lambda z: z[:, 0]
        strat = two_stage_estimate(ev, dirs, spec, n, RandomStream(64), "opt")
        mc = plain_mc_estimate(ev, d, n, RandomStream(65))
        assert mc.variance / strat.variance > 1e3

    def test_stratum_means_match_truncated_normal(self):
        # stratum means are of weight * g, and every weight is p_k = 1/8
        dirs = self.v_first(2)
        spec = StratumSpec((8,))
        counts = const_allocation(np.full(8, 1 / 8), 64_000)
        rep = stratified_estimate(lambda z: z[:, 0], dirs, spec, counts,
                                  RandomStream(66))
        edges = spec.edges(0)
        for k in range(8):
            target = truncated_mean(edges[k], edges[k + 1]) / 8
            se = rep.stratum_sigmas[0, k] / np.sqrt(rep.stratum_counts[0, k])
            assert abs(rep.stratum_means[0, k] - target) < 4 * se

    def test_two_stage_opt_concentrates_on_high_sigma_strata(self):
        # relu payoff: deep-negative strata are constant zero, so the
        # optimal rule starves them down to n_min
        dirs = self.v_first(3)
        spec = StratumSpec((10,))
        ev = lambda z: np.maximum(z[:, 0], 0.0)
        rep = two_stage_estimate(ev, dirs, spec, 40_000, RandomStream(67), "opt")
        (counts,) = rep.stratum_counts
        assert counts[0] == 2  # n_min floor in the main stage
        assert counts[-1] > counts[0] * 10
        assert rep.n_samples == 40_000

    def test_two_stage_const_is_equal_split(self):
        dirs = self.v_first(2)
        spec = StratumSpec((5,))
        rep = two_stage_estimate(lambda z: z[:, 0] ** 2, dirs, spec, 1_000,
                                 RandomStream(68), "const")
        np.testing.assert_array_equal(rep.stratum_counts, np.full((1, 5), 200))

    @pytest.mark.parametrize("allocation", ["const", "opt"])
    def test_min_budget_is_the_smallest_accepted(self, allocation):
        # at min_budget every stage keeps two draws per stratum; one draw
        # fewer is refused
        dirs = self.v_first(2)
        payoff = lambda z: z[:, 0] ** 2 + z[:, 1]
        for k in (1, 5, 10, 37):
            spec, n = StratumSpec((k,)), min_budget(k, allocation)
            rep = two_stage_estimate(payoff, dirs, spec, n, RandomStream(k),
                                     allocation)
            assert rep.stratum_counts.min() >= 2
            assert rep.n_samples == n
            with pytest.raises(ValueError, match="budget too small"):
                two_stage_estimate(payoff, dirs, spec, n - 1, RandomStream(k),
                                   allocation)

    def test_estimate_matches_plain_mc(self):
        # cross-estimator agreement on a smooth payoff
        d = 6
        rng = np.random.default_rng(69)
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        dirs = DirectionSet(v[:, None])
        ev = lambda z: np.exp(0.3 * z @ v + 0.2 * z[:, 1])
        strat = two_stage_estimate(ev, dirs, StratumSpec((50,)), 50_000,
                                   RandomStream(70), "opt")
        mc = plain_mc_estimate(ev, d, 200_000, RandomStream(71))
        se = np.sqrt(strat.est_variance + mc.est_variance)
        assert abs(strat.price - mc.price) < 3.5 * se

    def test_nonorthogonal_estimator_consistency(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0])
        dirs = DirectionSet(np.column_stack([e1, e2]))
        spec = StratumSpec((5, 5))
        ev = lambda z: np.exp(z[:, 0])
        counts = const_allocation(np.full(25, 1 / 25), 50_000)
        rep = stratified_estimate(ev, dirs, spec, counts, RandomStream(72))
        mc = plain_mc_estimate(ev, 3, 200_000, RandomStream(73))
        se = np.sqrt(rep.est_variance + mc.est_variance)
        assert abs(rep.price - mc.price) < 3.5 * se

    def test_chunks_match_per_stratum_reduction(self):
        # the stage spans several sampler chunks, with strata straddling
        # chunk boundaries; drawing each chunk from its own substream, in
        # reverse order, and reducing stratum by stratum in a loop must
        # reproduce the vectorized reduction
        spec = StratumSpec((4, 4))
        p = np.full(spec.total, 1 / spec.total)
        counts = optimal_allocation(p, np.linspace(1.0, 4.0, spec.total),
                                    3 * _CHUNK + 1_000)
        e2 = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
        q, _ = np.linalg.qr(np.random.default_rng(74).normal(size=(4, 2)))
        ev = lambda z: np.maximum(z[:, 0] + 0.1 * z[:, 1], 0.0)
        for dirs in (DirectionSet(q),
                     DirectionSet(np.column_stack([np.eye(4)[:, 0], e2]))):
            rep = stratified_estimate(ev, dirs, spec, counts, RandomStream(74))
            again = stratified_estimate(ev, dirs, spec, counts, RandomStream(74))
            assert (rep.price, rep.variance) == (again.price, again.variance)

            strata = np.repeat(np.arange(spec.total), counts)
            vals = np.empty(strata.size)
            starts = list(range(0, strata.size, _CHUNK))
            assert len(starts) == 4
            for c in reversed(range(len(starts))):
                rows = slice(starts[c], starts[c] + _CHUNK)
                z, weight = sample_strata(dirs, spec, strata[rows],
                                          RandomStream(74).child(c))
                vals[rows] = ev(z) * weight
            for k in range(spec.total):
                mine = vals[strata == k]
                assert rep.stratum_means[0, k] == pytest.approx(mine.mean(),
                                                                rel=1e-12)
                assert rep.stratum_sigmas[0, k] == pytest.approx(
                    mine.std(ddof=1), rel=1e-10)
            assert not rep.stratum_empty.any()

    def test_report_bookkeeping(self):
        dirs = self.v_first(2)
        spec = StratumSpec((4,))
        counts = const_allocation(np.full(4, 0.25), 400)
        rep = stratified_estimate(lambda z: z[:, 0], dirs, spec, counts,
                                  RandomStream(75))
        assert rep.n_strata == 4
        assert rep.n_samples == 400
        np.testing.assert_array_equal(rep.stratum_counts, [counts])
        assert rep.variance == pytest.approx(rep.est_variance * 400)

    def test_mc_draws_blocks_in_sequence(self, monkeypatch):
        # plain MC evaluates at most _MC_CHUNK draws per call, each block
        # drawn after the last from its one stream, and reduces the blocks
        # as one sample
        monkeypatch.setattr(stratify, "_MC_CHUNK", 1_000)
        ev = lambda z: np.stack([np.exp(z[:, 0]), np.maximum(z.sum(axis=1), 0.0)])
        sizes = []

        def spy(z):
            sizes.append(z.shape[0])
            return ev(z)
        rep = plain_mc_estimate(spy, 3, 2_500, RandomStream(86))
        assert sizes == [1_000, 1_000, 500]
        stream = RandomStream(86)
        vals = np.concatenate([ev(stream.normal((3, n)).T)
                               for n in (1_000, 1_000, 500)], axis=1)
        one = np.zeros(2_500, dtype=np.intp)
        want = stratify._stratum_report(vals, one, one, np.full((2, 1), 2_500))
        for name in ("price", "variance", "est_variance", "stratum_means",
                     "stratum_sigmas", "stratum_counts", "stratum_empty"):
            np.testing.assert_array_equal(getattr(rep, name),
                                          getattr(want, name), err_msg=name)
        assert rep.n_samples == 2_500

    def test_baselines_report_one_stratum(self):
        # plain MC reduces its draws, and LHS its replication means, as one
        # stratum through the stages' per-stratum reduction
        ev = lambda z: np.stack([np.exp(z[:, 0]), np.maximum(z.sum(axis=1), 0.0)])
        mc = plain_mc_estimate(ev, 3, 2_500, RandomStream(102))
        draws = ev(RandomStream(102).normal((3, 2_500)).T)
        means = []

        def spy(z):
            out = ev(z)
            means.append(out.mean(axis=1))
            return out
        # 8 replications of 500 draws: one group, evaluated in order
        lhs = lhs_estimate(spy, np.eye(3), 4_000, 8, RandomStream(103))
        for rep, values, size in ((mc, draws, 1),
                                  (lhs, np.stack(means, axis=1), 500)):
            assert rep.n_strata == 1
            for name in ("stratum_means", "stratum_sigmas", "stratum_counts",
                         "stratum_empty"):
                assert getattr(rep, name).shape == (2, 1), name
            assert not rep.stratum_empty.any()
            np.testing.assert_array_equal(rep.stratum_counts,
                                          np.full((2, 1), values.shape[1]))
            np.testing.assert_array_equal(rep.stratum_means[:, 0], rep.price)
            np.testing.assert_allclose(rep.price, values.mean(axis=1),
                                       rtol=1e-12)
            np.testing.assert_allclose(
                rep.variance, values.var(ddof=1, axis=1) * size, rtol=1e-12)
            assert rep.n_samples == values.shape[1] * size


class TestSharedRows:
    """An evaluator with S rows, f(z) -> (S, n), prices S contracts from
    the same draws; every row must keep exactly its own estimator."""

    STRIKES = (-0.5, 0.0, 0.8)

    @staticmethod
    def rows(z):
        return np.stack([np.maximum(z[:, 0] + 0.3 * z[:, 1] - k, 0.0)
                         for k in TestSharedRows.STRIKES])

    @staticmethod
    def pool_values(ev, dirs, spec, pool, stream):
        """Redraw a stage of `pool` draws per stratum, chunk by chunk."""
        strata = np.repeat(np.arange(spec.total), pool)
        vals, weights = [], []
        for c, start in enumerate(range(0, strata.size, _CHUNK)):
            z, weight = sample_strata(dirs, spec, strata[start:start + _CHUNK],
                                      stream.child(c))
            vals.append(ev(z) * weight)
            weights.append(weight)
        return strata, np.concatenate(vals, axis=-1), np.concatenate(weights)

    @staticmethod
    def estimators(dirs, spec):
        """The four estimators, each run from a fixed stream."""
        return {
            "mc": lambda ev: plain_mc_estimate(ev, 3, 5_000, RandomStream(90)),
            "lhs": lambda ev: lhs_estimate(ev, np.eye(3), 5_000, 10,
                                           RandomStream(91)),
            "stratified": lambda ev: stratified_estimate(
                ev, dirs, spec, np.full(spec.total, 500), RandomStream(92)),
            "const": lambda ev: two_stage_estimate(ev, dirs, spec, 5_000,
                                                   RandomStream(93), "const"),
            "opt": lambda ev: two_stage_estimate(ev, dirs, spec, 5_000,
                                                 RandomStream(94), "opt"),
        }

    def test_one_row_is_the_stacked_row(self):
        # a 1-d evaluator f(z) -> (n,) is one row: its report equals the
        # report of its (1, n) twin bit for bit, with (1,) and (1, K) shapes
        dirs = DirectionSet(np.eye(3)[:, :1])
        spec = StratumSpec((10,))
        flat = lambda z: self.rows(z)[1]
        stacked = lambda z: self.rows(z)[None, 1]
        for name, run in self.estimators(dirs, spec).items():
            a, b = run(flat), run(stacked)
            for field in ("price", "variance", "est_variance"):
                got = getattr(a, field)
                assert isinstance(got, np.ndarray) and got.shape == (1,), name
                np.testing.assert_array_equal(got, getattr(b, field))
            np.testing.assert_array_equal(a.n_samples, b.n_samples)
            for field in ("stratum_means", "stratum_sigmas", "stratum_counts",
                          "stratum_empty"):
                got = getattr(a, field)
                if name not in ("mc", "lhs"):
                    assert got.shape == (1, spec.total), (name, field)
                np.testing.assert_array_equal(got, getattr(b, field))

    def test_n_samples_is_one_count_or_one_per_row(self):
        # single-stage estimators count the draws drawn, one Python int
        # shared by every row; two_stage_estimate counts per row
        dirs = DirectionSet(np.eye(3)[:, :1])
        spec = StratumSpec((10,))
        for name, run in self.estimators(dirs, spec).items():
            rep = run(self.rows)
            assert rep.price.shape == (3,), name
            if name in ("const", "opt"):
                assert rep.n_samples.shape == (3,)
                assert rep.stratum_counts.shape == (3, spec.total)
            else:
                assert type(rep.n_samples) is int, name

    def test_opt_rows_use_their_own_allocation_from_one_pool(self):
        # one shared pilot; row s gets optimal_allocation of its own pilot
        # stds, and its main stage is the first n_k^s draws of stratum k
        # of one pool of max_s n_k^s draws per stratum
        dirs = DirectionSet(np.eye(4)[:, :1])
        spec = StratumSpec((20,))
        n_total = 3 * _CHUNK
        stream = RandomStream(94)
        rep = two_stage_estimate(self.rows, dirs, spec, n_total, stream, "opt")

        p = np.full(spec.total, 1 / spec.total)
        n_pilot = max(round(0.1 * n_total), 2 * spec.total)
        plans = []
        for s in range(len(self.STRIKES)):
            pilot = stratified_estimate(lambda z: self.rows(z)[s], dirs, spec,
                                        const_allocation(p, n_pilot),
                                        stream.child(1))
            plans.append(optimal_allocation(p, pilot.stratum_sigmas[0],
                                            n_total - n_pilot))
        plans = np.array(plans)
        assert len({tuple(n) for n in plans}) == len(self.STRIKES)
        np.testing.assert_array_equal(rep.stratum_counts, plans)
        np.testing.assert_array_equal(rep.n_samples, n_total)

        strata, vals, _ = self.pool_values(self.rows, dirs, spec,
                                           plans.max(axis=0), stream.child(2))
        for s, n in enumerate(plans):
            means = [vals[s][strata == k][:n[k]].mean() for k in range(spec.total)]
            assert rep.price[s] == pytest.approx(np.sum(means), rel=1e-12)
            np.testing.assert_allclose(rep.stratum_means[s], means, rtol=1e-12)

    def test_emptiness_is_decided_on_each_rows_own_draws(self):
        # nearly parallel directions leave corner boxes partly reachable; a
        # row that stops before a box's first unreachable draw keeps the box
        theta = np.radians(5.0)
        dirs = DirectionSet(np.column_stack([[1.0, 0.0, 0.0],
                                             [np.cos(theta), np.sin(theta), 0.0]]))
        spec = StratumSpec((6, 6))
        p = np.full(spec.total, 1 / spec.total)
        small = const_allocation(p, 3 * spec.total)
        large = const_allocation(p, 60 * spec.total)
        ev = lambda z: np.stack([np.exp(z[:, 0]), np.exp(0.5 * z[:, 1])])
        rep = stratified_estimate(ev, dirs, spec, [small, large],
                                  RandomStream(95))

        strata, vals, weight = self.pool_values(ev, dirs, spec, large,
                                                RandomStream(95))
        for s, n in enumerate((small, large)):
            for k in range(spec.total):
                mine = slice(0, n[k])
                w = weight[strata == k][mine]
                assert rep.stratum_empty[s, k] == np.any(w == 0.0)
                if not rep.stratum_empty[s, k]:
                    assert rep.stratum_means[s, k] == pytest.approx(
                        vals[s][strata == k][mine].mean(), rel=1e-12)
        # the case is exercised: some box is empty for one row only
        assert np.any(rep.stratum_empty[0] != rep.stratum_empty[1])
        np.testing.assert_array_equal(rep.stratum_counts,
                                      np.where(rep.stratum_empty, 0,
                                               [small, large]))
        assert rep.n_samples == int(rep.stratum_counts.max(axis=0).sum())


def use_cores(monkeypatch, n):
    """Make every estimator see n usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def assert_helpers_see_one_blas_thread(monkeypatch, run, rows):
    """run(ev) on four cores, with every OpenBLAS at two threads: each
    helper thread's evaluator call reads one, and the two come back."""
    import scipy.linalg.blas  # noqa: F401
    libraries = _openblas_threads()
    if not libraries:
        pytest.skip("no OpenBLAS is loaded")
    before = [get() for get, _ in libraries]
    seen = []

    def ev(z):
        if threading.current_thread() is not threading.main_thread():
            seen.append([get() for get, _ in libraries])
        return rows(z)
    use_cores(monkeypatch, 4)
    try:
        for _, set_ in libraries:
            set_(2)
        run(ev)
        after = [get() for get, _ in libraries]
    finally:
        for n, (_, set_) in zip(before, libraries):
            set_(n)
    assert seen and all(counts == [1] * len(libraries) for counts in seen)
    assert after == [2] * len(libraries)


def run_switching(run, ev, monkeypatch):
    """[run(ev) on one core, run(ev) on four], switching threads as often as
    the interpreter allows; one usable core must start no thread."""
    reports, threads = [], set()

    def spy(z):
        threads.add(threading.get_ident())
        return ev(z)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for n in (1, 4):
            use_cores(monkeypatch, n)
            reports.append(run(spy))
            if n == 1:
                assert threads == {threading.get_ident()}
    finally:
        sys.setswitchinterval(interval)
    return reports


class TestChunkThreads:
    """A stage samples and evaluates its chunks on every usable core; the
    report never depends on how many there are."""

    @staticmethod
    def stage(ev, stream=None):
        """Four chunks over nearly parallel directions, whose corner boxes
        hold unreachable draws, with one count row per evaluator row."""
        theta = np.radians(5.0)
        dirs = DirectionSet(np.column_stack([[1.0, 0.0, 0.0],
                                             [np.cos(theta), np.sin(theta), 0.0]]))
        spec = StratumSpec((6, 6))
        p = np.full(spec.total, 1 / spec.total)
        counts = [const_allocation(p, 500 * spec.total),
                  const_allocation(p, 700 * spec.total)]
        assert 3 * _CHUNK < counts[1].sum() <= 4 * _CHUNK
        return stratified_estimate(ev, dirs, spec, counts,
                                   stream or RandomStream(96))

    @staticmethod
    def rows(z):
        return np.stack([np.exp(z[:, 0]), np.exp(0.5 * z[:, 1])])

    def test_reports_match_across_core_counts(self, monkeypatch):
        # four threads on any host: each chunk is evaluated once, whoever
        # takes it
        calls = []

        def ev(z):
            calls.append(z.shape[0])
            return self.rows(z)
        one, four = run_switching(self.stage, ev, monkeypatch)
        assert sorted(calls[:4]) == sorted(calls[4:]) and len(calls) == 8
        assert np.any(one.stratum_empty)
        for name in ("price", "variance", "est_variance", "n_samples",
                     "stratum_means", "stratum_sigmas", "stratum_counts",
                     "stratum_empty"):
            np.testing.assert_array_equal(getattr(one, name),
                                          getattr(four, name), err_msg=name)

    def test_cpu_count_serves_without_affinity(self, monkeypatch):
        # where os.sched_getaffinity is missing, os.cpu_count() counts the
        # cores: four give the one-core bytes, on three helper threads
        use_cores(monkeypatch, 1)
        one = self.stage(self.rows)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        workers = []
        real_pool = stratify.ThreadPoolExecutor

        def pool(max_workers):
            workers.append(max_workers)
            return real_pool(max_workers)
        monkeypatch.setattr(stratify, "ThreadPoolExecutor", pool)
        four = self.stage(self.rows)
        assert workers == [3]
        for name in ("price", "variance", "est_variance", "n_samples",
                     "stratum_means", "stratum_sigmas", "stratum_counts",
                     "stratum_empty"):
            np.testing.assert_array_equal(getattr(one, name),
                                          getattr(four, name), err_msg=name)

    def test_unknown_cpu_count_runs_one_worker(self, monkeypatch):
        # os.cpu_count() returns None where it cannot tell: one worker, the
        # calling thread, and no pool
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")
        monkeypatch.setattr(stratify, "ThreadPoolExecutor", no_pool)
        threads = set()

        def ev(z):
            threads.add(threading.get_ident())
            return self.rows(z)
        self.stage(ev)
        assert threads == {threading.get_ident()}

    def test_chunk_error_propagates_and_threads_stop(self, monkeypatch):
        # chunk 2 is recognised by its draws, whichever thread takes it
        stream = RandomStream(97)
        found = []
        real = stratify.sample_strata

        def spy(directions, spec, strata, chunk_stream, out=None):
            draw = real(directions, spec, strata, chunk_stream, out=out)
            if chunk_stream.stream_id == stream.child(2).stream_id:
                found.append(draw.z)
            return draw
        monkeypatch.setattr(stratify, "sample_strata", spy)

        def ev(z):
            if any(z is bad for bad in found):
                raise RuntimeError("chunk 2 failed")
            return self.rows(z)
        use_cores(monkeypatch, 4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 2 failed"):
            self.stage(ev, stream)
        assert len(found) == 1
        assert threading.active_count() == before

    def test_helper_threads_see_one_blas_thread(self, monkeypatch):
        assert_helpers_see_one_blas_thread(monkeypatch, self.stage, self.rows)

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("n", [2, 5, 13])
    def test_threads_take_chunk_after_chunk(self, monkeypatch, n, cores):
        # up to six chunks a thread: each thread keeps taking the next
        # chunk from the shared iterator, every chunk runs once, and each
        # result lands at its own index
        workers = []
        real_pool = stratify.ThreadPoolExecutor

        def pool(max_workers):
            workers.append(max_workers)
            return real_pool(max_workers)
        monkeypatch.setattr(stratify, "ThreadPoolExecutor", pool)
        calls = []

        def f(c):
            calls.append(c)
            return [c, sum(range(1_000 * (c + 1)))]
        expected = [[c, sum(range(1_000 * (c + 1)))] for c in range(n)]
        use_cores(monkeypatch, cores)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            got = stratify._map_chunks(f, n)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert sorted(calls) == list(range(n))
        assert workers == [min(n, cores) - 1]

    def test_error_leaves_the_other_chunks_untaken(self, monkeypatch):
        # chunk 0 fails while the other thread is in its chunk: the failing
        # thread drains the shared iterator, so no thread takes a third
        calls = []

        def f(c):
            calls.append(c)
            if c == 0:
                time.sleep(0.05)
                raise RuntimeError("chunk 0 failed")
            time.sleep(0.2)
            return c
        use_cores(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 0 failed"):
            stratify._map_chunks(f, 20)
        assert 0 in calls and len(calls) <= 2
        assert threading.active_count() == before


class TestLhsThreads:
    """LHS runs its replications in groups of about _CHUNK draws on every
    usable core; the report never depends on how many there are."""

    @staticmethod
    def lhs(ev, n_total=40_000, stream=None):
        """Eight replications on a rotated frame: by default of 5,000 draws,
        in four groups of two."""
        rotation = np.linalg.qr(np.random.default_rng(98).normal(size=(3, 3)))[0]
        return lhs_estimate(ev, rotation, n_total, 8, stream or RandomStream(99))

    @staticmethod
    def rows(z):
        return np.stack([np.exp(z[:, 0]), np.maximum(z.sum(axis=1), 0.0)])

    def test_reports_match_across_core_counts(self, monkeypatch):
        calls, groups = [], []
        real = stratify._map_chunks
        monkeypatch.setattr(stratify, "_map_chunks",
                            lambda chunk, n: groups.append(n) or real(chunk, n))

        def ev(z):
            calls.append(z.shape[0])
            return self.rows(z)
        one, four = run_switching(self.lhs, ev, monkeypatch)
        assert groups == [4, 4]
        # each replication is evaluated once, on its own
        assert calls == [5_000] * 16
        for name in ("price", "variance", "est_variance", "n_samples"):
            np.testing.assert_array_equal(getattr(one, name),
                                          getattr(four, name), err_msg=name)

    def test_replication_error_propagates_and_threads_stop(self, monkeypatch):
        # replication 5 is recognised by its stream, whichever thread takes it
        stream = RandomStream(100)
        bad = stream.child(5).stream_id
        real = stratify._lhs_normals

        def spy(n, d, rep_stream):
            if rep_stream.stream_id == bad:
                raise RuntimeError("replication 5 failed")
            return real(n, d, rep_stream)
        monkeypatch.setattr(stratify, "_lhs_normals", spy)
        use_cores(monkeypatch, 4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="replication 5 failed"):
            self.lhs(self.rows, stream=stream)
        assert threading.active_count() == before

    def test_one_group_starts_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")
        monkeypatch.setattr(stratify, "ThreadPoolExecutor", no_pool)
        use_cores(monkeypatch, 4)
        threads = set()

        def ev(z):
            threads.add(threading.get_ident())
            return self.rows(z)
        self.lhs(ev, n_total=_CHUNK)
        assert threads == {threading.get_ident()}

    def test_helper_threads_see_one_blas_thread(self, monkeypatch):
        assert_helpers_see_one_blas_thread(monkeypatch, self.lhs, self.rows)


class TestLhsEstimator:
    def test_additive_payoff_collapses(self):
        d = 5
        ev = lambda z: z.sum(axis=1)
        lhs = lhs_estimate(ev, np.eye(d), 20_000, 20, RandomStream(76))
        mc = plain_mc_estimate(ev, d, 20_000, RandomStream(77))
        assert lhs.variance < mc.variance / 50

    def test_constant_payoff_zero_variance(self):
        rep = lhs_estimate(lambda z: np.full(z.shape[0], 3.0), np.eye(3),
                           3_000, 10, RandomStream(78))
        assert rep.price == pytest.approx(3.0, abs=1e-14)
        assert rep.variance == 0.0

    def test_rotation_must_be_orthogonal(self):
        bad = np.array([[1.0, 0.9], [0.0, 1.0]])
        with pytest.raises(StratMcError, match="rotation matrix is not orthogonal"):
            lhs_estimate(lambda z: z[:, 0], bad, 1_000, 5, RandomStream(79))

    def test_unbiased_under_rotation(self):
        rng = np.random.default_rng(80)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        ev = lambda z: np.exp(z[:, 0])
        rep = lhs_estimate(ev, q, 40_000, 20, RandomStream(81))
        se = np.sqrt(rep.est_variance)
        assert abs(rep.price - np.exp(0.5)) < 4 * se


class TestDriverLayout:
    """Every estimator hands its evaluator (n, d) views of step-major (d, n)
    memory, so a path map reads each step's drivers as one contiguous row."""

    def spy(self, seen):
        def ev(z):
            seen.append((z.shape, z.T.flags.c_contiguous))
            return z[:, 0]
        return ev

    def test_every_estimator_hands_step_major_drivers(self):
        d, seen = 5, []
        ev = self.spy(seen)
        plain_mc_estimate(ev, d, 1_000, RandomStream(82))
        assert seen == [((1_000, d), True)]
        seen.clear()
        lhs_estimate(ev, np.linalg.qr(np.random.default_rng(83).normal(size=(d, d)))[0],
                     1_000, 4, RandomStream(84))
        assert seen == [((250, d), True)] * 4
        seen.clear()
        # the pilot stage (400 draws) and the main stage (3,600 draws)
        two_stage_estimate(ev, la_pca_pair(), StratumSpec((4, 5)), 4_000,
                           RandomStream(85), "opt")
        assert seen == [((400, 64), True), ((3_600, 64), True)]


class TestWorkingSet:
    """Plain MC holds one block of normals and evaluates it _CHUNK draws at
    a time; a stratified worker draws every chunk into one buffer."""

    bs = BsParams(s0=[100.0], sigma=0.2, steps=16)
    evaluators = {
        "bs-basket": (bs, [PayoffSpec(100.0), PayoffSpec(110.0)]),
        "bs-barrier": (bs, [PayoffSpec(100.0, "asian-barrier-complete", 130.0)]),
        "cir": (CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0,
                          n_steps=16), [PayoffSpec(100.0)]),
    }

    def test_mc_evaluates_at_most_a_chunk(self):
        sizes = []

        def spy(z):
            sizes.append(z.shape[0])
            return z[:, 0]
        plain_mc_estimate(spy, 3, 2 * _CHUNK + 1_000, RandomStream(110))
        assert sizes == [_CHUNK, _CHUNK, 1_000]

    @pytest.mark.parametrize("name", sorted(evaluators))
    def test_mc_slices_move_no_bytes(self, monkeypatch, name):
        # two blocks, each evaluated in slices, against each block
        # evaluated whole from the same stream
        monkeypatch.setattr(stratify, "_MC_CHUNK", 2 * _CHUNK + 3_000)
        params, specs = self.evaluators[name]
        ev = payoff_evaluator(params, specs)
        n = 3 * _CHUNK + 5_000
        rep = plain_mc_estimate(ev, params.dim, n, RandomStream(111))
        stream = RandomStream(111)
        vals = np.concatenate([ev(stream.normal((params.dim, m)).T)
                               for m in (2 * _CHUNK + 3_000, _CHUNK + 2_000)],
                              axis=1)
        one = np.zeros(n, dtype=np.intp)
        want = stratify._stratum_report(vals, one, one,
                                        np.full((len(specs), 1), n))
        np.testing.assert_array_equal(rep.price, want.price)
        np.testing.assert_array_equal(rep.variance, want.variance)

    def test_mc_peak_is_one_block_and_a_few_slices(self):
        # evaluating a whole block would add its (d, n) work array, as large
        # as the block itself
        params, specs = self.evaluators["bs-basket"]
        ev = payoff_evaluator(params, specs)
        d, n = params.dim, 100_000
        plain_mc_estimate(ev, d, 1_000, RandomStream(112))  # warm the imports
        tracemalloc.start()
        try:
            plain_mc_estimate(ev, d, n, RandomStream(112))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n + 4 * _CHUNK) * d * 8

    def test_sampler_draws_into_the_buffer(self):
        dirs, spec = la_pca_pair(), StratumSpec((5, 4))
        strata = np.repeat(np.arange(spec.total), 30)
        z, weight = sample_strata(dirs, spec, strata, RandomStream(113))
        buf = np.full(dirs.dim * (strata.size + 7), np.nan)
        z_out, weight_out = sample_strata(dirs, spec, strata, RandomStream(113),
                                          out=buf)
        np.testing.assert_array_equal(z_out, z)
        np.testing.assert_array_equal(weight_out, weight)
        assert np.shares_memory(z_out, buf)
        assert np.isnan(buf[dirs.dim * strata.size:]).all()

    @pytest.mark.parametrize("cores", [1, 4])
    def test_stage_reuses_one_buffer_per_thread(self, monkeypatch, cores):
        buffers = {}
        real = stratify.sample_strata

        def spy(directions, spec, strata, chunk_stream, out=None):
            assert out is not None
            buffers.setdefault(threading.get_ident(), set()).add(id(out))
            return real(directions, spec, strata, chunk_stream, out=out)
        monkeypatch.setattr(stratify, "sample_strata", spy)
        use_cores(monkeypatch, cores)
        TestChunkThreads.stage(TestChunkThreads.rows)
        assert 1 <= len(buffers) <= cores
        assert all(len(ids) == 1 for ids in buffers.values())
