"""Conditional samplers, allocation rules and the estimators.

Oracles:
- truncated-normal mean (phi(a) - phi(b)) / (Phi(b) - Phi(a)) for per-stratum
  projection means
- plain Monte Carlo for full-space consistency of the weighted estimator
- the discarded unweighted scheme is kept as a negative control: it must
  disagree with the truth for correlated directions while the weighted
  estimator agrees
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from stratmc import (
    AllZeroSigma,
    DirectionSet,
    IndexOutOfRange,
    NotOrthogonal,
    RandomStream,
    RankDeficient,
    StratumSpec,
    equal_allocation,
    lhs_estimate,
    optimal_allocation,
    plain_mc_estimate,
    sample_strata,
    stratified_estimate,
    two_stage_estimate,
)
from stratmc.stratify import _CHUNK


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
        # E = F m^T with F orthonormal and m lower triangular; an
        # orthonormal set is its own frame
        cols = np.column_stack([[1.0, 0.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5), 0.0]])
        ds = DirectionSet(cols)
        assert ds.dim == 3 and ds.count == 2
        np.testing.assert_allclose(ds.frame.T @ ds.frame, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(ds.frame @ ds.m.T, cols, atol=1e-15)
        np.testing.assert_allclose(np.triu(ds.m, 1), 0.0, atol=1e-15)
        q, _ = np.linalg.qr(np.random.default_rng(49).normal(size=(5, 3)))
        ortho = DirectionSet(q)
        np.testing.assert_allclose(ortho.m, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(ortho.frame, q, atol=1e-14)

    def test_dependent_columns_rejected(self):
        cols = np.column_stack([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(RankDeficient):
            DirectionSet(cols)


class TestStratumSpec:
    def test_indices_lexicographic_one_based(self):
        spec = StratumSpec((2, 3))
        assert spec.total == 6
        assert list(spec.indices()) == [(1, 1), (1, 2), (1, 3),
                                        (2, 1), (2, 2), (2, 3)]

    def test_marginal_bounds(self):
        spec = StratumSpec((4,))
        lo, hi = spec.marginal_bounds(0, 1)
        assert lo == -np.inf
        assert hi == pytest.approx(ndtri(0.25))
        lo, hi = spec.marginal_bounds(0, 4)
        assert lo == pytest.approx(ndtri(0.75))
        assert hi == np.inf

    def test_edges_match_marginal_bounds(self):
        spec = StratumSpec((3, 5))
        for j, count in enumerate(spec.counts):
            edges = spec.edges(j)
            assert edges.shape == (count + 1,)
            assert edges[0] == -np.inf and edges[-1] == np.inf
            assert np.all(np.diff(edges) > 0)
            for k in range(1, count + 1):
                assert spec.marginal_bounds(j, k) == (edges[k - 1], edges[k])

    def test_bad_index(self):
        spec = StratumSpec((4,))
        with pytest.raises(IndexOutOfRange):
            spec.marginal_bounds(0, 0)
        with pytest.raises(IndexOutOfRange):
            spec.marginal_bounds(0, 5)


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
        for k in range(1, 5):
            target = truncated_mean(*spec.marginal_bounds(0, k))
            se = proj[k - 1].std(ddof=1) / np.sqrt(n)
            assert abs(proj[k - 1].mean() - target) < 3.5 * se

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
            with pytest.raises(IndexOutOfRange):
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
        plan = equal_allocation(np.full(spec.total, 1 / spec.total), 10 * spec.total)
        rep = stratified_estimate(lambda z: np.exp(z[:, 0]), dirs, spec, plan,
                                  RandomStream(58))
        assert rep.stratum_empty[49]
        # strata where only some draws are unreachable are empty too, and no
        # empty stratum reports a mean, a spread or draws
        empty = rep.stratum_empty
        assert np.all(rep.stratum_counts[empty] == 0)
        assert np.all(rep.stratum_means[empty] == 0.0)
        assert np.all(rep.stratum_sigmas[empty] == 0.0)
        assert rep.n_samples == int(rep.stratum_counts.sum()) < 10 * spec.total
        assert not rep.stratum_empty[0]

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
        plan = optimal_allocation([0.5, 0.5], [1.0, 3.0], 400)
        np.testing.assert_array_equal(plan.n, [100, 300])
        np.testing.assert_allclose(plan.q, [0.25, 0.75])
        assert plan.total == 400

    def test_equal_allocation_largest_remainder(self):
        plan = equal_allocation([1 / 3, 1 / 3, 1 / 3], 10)
        assert plan.n.sum() == 10
        assert sorted(plan.n) == [3, 3, 4]
        plan = equal_allocation([1 / 3, 1 / 3, 1 / 3], 100)
        assert sorted(plan.n) == [33, 33, 34]

    def test_zero_probability_stratum_gets_nothing(self):
        plan = optimal_allocation([0.0, 0.5, 0.5], [2.0, 1.0, 1.0], 100)
        assert plan.n[0] == 0
        assert plan.n.sum() == 100

    def test_zero_sigma_keeps_n_min(self):
        plan = optimal_allocation([0.5, 0.5], [0.0, 1.0], 100, n_min=2)
        np.testing.assert_array_equal(plan.n, [2, 98])

    def test_all_zero_sigma_raises(self):
        with pytest.raises(AllZeroSigma):
            optimal_allocation([0.5, 0.5], [0.0, 0.0], 100)

    def test_optimal_never_worse_than_proportional(self):
        # continuous-allocation variances; Cauchy-Schwarz makes this exact
        rng = np.random.default_rng(61)
        for _ in range(20):
            k = int(rng.integers(2, 20))
            p = rng.random(k)
            p /= p.sum()
            sigma = rng.random(k)
            plan = optimal_allocation(p, sigma, 5_000)
            var_opt = np.sum((p * sigma) ** 2 / plan.q)
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
            plan = optimal_allocation(p, sigma, total, n_min=2)
            assert plan.n.sum() == total
            assert np.all(plan.n[p > 0] >= 2)


class TestEstimators:
    def v_first(self, d):
        v = np.zeros(d)
        v[0] = 1.0
        return DirectionSet(v[:, None])

    def test_constant_payoff_is_exact(self):
        dirs = self.v_first(3)
        spec = StratumSpec((8,))
        plan = equal_allocation(np.full(8, 1 / 8), 800)
        rep = stratified_estimate(lambda z: np.full(z.shape[0], 7.25), dirs,
                                  spec, plan, RandomStream(63))
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
        plan = equal_allocation(np.full(8, 1 / 8), 64_000)
        rep = stratified_estimate(lambda z: z[:, 0], dirs, spec, plan,
                                  RandomStream(66))
        for k in range(1, 9):
            target = truncated_mean(*spec.marginal_bounds(0, k)) / 8
            n_k = rep.stratum_counts[k - 1]
            se = rep.stratum_sigmas[k - 1] / np.sqrt(n_k)
            assert abs(rep.stratum_means[k - 1] - target) < 4 * se

    def test_two_stage_opt_concentrates_on_high_sigma_strata(self):
        # relu payoff: deep-negative strata are constant zero, so the
        # optimal rule starves them down to n_min
        dirs = self.v_first(3)
        spec = StratumSpec((10,))
        ev = lambda z: np.maximum(z[:, 0], 0.0)
        rep = two_stage_estimate(ev, dirs, spec, 40_000, RandomStream(67), "opt")
        counts = rep.stratum_counts
        assert counts[0] == 2  # n_min floor in the main stage
        assert counts[-1] > counts[0] * 10
        assert rep.n_samples == 40_000

    def test_two_stage_const_is_equal_split(self):
        dirs = self.v_first(2)
        spec = StratumSpec((5,))
        rep = two_stage_estimate(lambda z: z[:, 0] ** 2, dirs, spec, 1_000,
                                 RandomStream(68), "const")
        np.testing.assert_array_equal(rep.stratum_counts, np.full(5, 200))

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
        plan = equal_allocation(np.full(25, 1 / 25), 50_000)
        rep = stratified_estimate(ev, dirs, spec, plan, RandomStream(72))
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
        plan = optimal_allocation(p, np.linspace(1.0, 4.0, spec.total),
                                  3 * _CHUNK + 1_000)
        e2 = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
        q, _ = np.linalg.qr(np.random.default_rng(74).normal(size=(4, 2)))
        ev = lambda z: np.maximum(z[:, 0] + 0.1 * z[:, 1], 0.0)
        for dirs in (DirectionSet(q),
                     DirectionSet(np.column_stack([np.eye(4)[:, 0], e2]))):
            rep = stratified_estimate(ev, dirs, spec, plan, RandomStream(74))
            again = stratified_estimate(ev, dirs, spec, plan, RandomStream(74))
            assert (rep.price, rep.variance) == (again.price, again.variance)

            strata = np.repeat(np.arange(spec.total), plan.n)
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
                assert rep.stratum_means[k] == pytest.approx(mine.mean(), rel=1e-12)
                assert rep.stratum_sigmas[k] == pytest.approx(mine.std(ddof=1),
                                                              rel=1e-10)
            assert not rep.stratum_empty.any()

    def test_report_bookkeeping(self):
        dirs = self.v_first(2)
        spec = StratumSpec((4,))
        plan = equal_allocation(np.full(4, 0.25), 400)
        rep = stratified_estimate(lambda z: z[:, 0], dirs, spec, plan,
                                  RandomStream(75))
        assert rep.n_strata == 4
        assert rep.n_samples == 400
        np.testing.assert_array_equal(rep.stratum_counts, plan.n)
        assert rep.std_error == pytest.approx(np.sqrt(rep.est_variance))
        assert rep.variance == pytest.approx(rep.est_variance * 400)


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
        with pytest.raises(NotOrthogonal):
            lhs_estimate(lambda z: z[:, 0], bad, 1_000, 5, RandomStream(79))

    def test_unbiased_under_rotation(self):
        rng = np.random.default_rng(80)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        ev = lambda z: np.exp(z[:, 0])
        rep = lhs_estimate(ev, q, 40_000, 20, RandomStream(81))
        se = np.sqrt(rep.est_variance)
        assert abs(rep.price - np.exp(0.5)) < 4 * se
