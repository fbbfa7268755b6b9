"""Direction engines: PCA, gradient (LA), expansion (LT) and pilot PCA.

Oracles:
- finite differences for gradients
- the closed-form geometric series that the mean-reverting model's
  backward pass sums on the zero-noise path (alpha[j] is constant there),
  and its exact terminal component
- LT columns rebuilt by hand from the gradient at the documented points
- frozen measured angles between engines on the benchmark parameter sets,
  which double as regression pins for the whole pipeline
"""
import tracemalloc

import numpy as np
import pytest

from stratmc import (
    RandomStream,
    StratMcError,
    angle_degrees,
    bs_asian_params,
    bs_barrier_params,
    bs_gradient,
    basket_params,
    cir_asian_params,
    cir_gradient,
    engines,
    export_directions,
    la_directions_multi,
    path_covariance,
    pca_directions,
    pilot_covariance,
)
from stratmc.models import (
    BsParams,
    CirParams,
    bs_basket_g,
    cir_euler_path,
    cir_zero_noise_path,
)


def la_of(params):
    """The LA direction: the first direction of the model's la engine."""
    return engines(params)["la"](1).columns[:, 0]


def next_lt_column(gradient, first):
    """Reference LT column 2: the gradient projected against the first
    column, normalized, largest-magnitude component positive."""
    b = gradient - (first @ gradient) * first
    b /= np.linalg.norm(b)
    return -b if b[np.argmax(np.abs(b))] < 0 else b


class TestPca:
    def test_diagonal_covariance(self):
        ds = pca_directions(np.diag([4.0, 1.0]), 1)
        np.testing.assert_allclose(ds.columns[:, 0], [1.0, 0.0], atol=1e-14)

    def test_bm_leading_eigenvector_shape(self):
        # the first principal component of Brownian covariance loads every
        # date positively and grows toward maturity
        t = np.arange(1, 65) / 64
        sigma = np.minimum.outer(t, t)
        v1 = pca_directions(sigma, 2).columns[:, 0]
        assert np.all(v1 > 0)
        assert np.all(np.diff(v1) > 0)

    def test_direction_does_not_depend_on_scale(self):
        # a 1e-7 volatility makes the covariance 1e-14 times smaller, not
        # degenerate
        t = np.arange(1, 9) / 8
        sigma = np.minimum.outer(t, t)
        np.testing.assert_allclose(pca_directions(1e-14 * sigma, 3).columns,
                                   pca_directions(sigma, 3).columns,
                                   rtol=0, atol=1e-12)
        p = BsParams(s0=[50.0], sigma=[1e-7], steps=8)
        np.testing.assert_allclose(engines(p)["pca"](1).columns,
                                   pca_directions(sigma, 1).columns,
                                   rtol=0, atol=1e-12)

    def test_too_many_directions(self):
        with pytest.raises(ValueError):
            pca_directions(np.eye(3), 4)

    # eigh raises LinAlgError ("Eigenvalues did not converge") on nan
    @pytest.mark.parametrize("fill, message", [
        (np.nan, "did not converge"), (0.0, "covariance carries no variance")],
        ids=["nan", "zero"])
    def test_unusable_covariance(self, fill, message):
        with pytest.raises(StratMcError, match=message):
            pca_directions(np.full((3, 3), fill), 1)


class TestLaBs:
    def test_single_date_single_asset(self):
        p = BsParams(s0=[50.0], sigma=[0.3], steps=1, rate=0.05)
        np.testing.assert_allclose(la_of(p), [1.0])

    def test_gradient_matches_finite_differences(self):
        p = BsParams(s0=[100.0, 60.0], sigma=[0.2, 0.35], steps=2, rho=0.4,
                     rate=0.03)
        point = np.array([0.1, -0.2, 0.3, 0.05])
        grad = bs_gradient(p, point)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (bs_basket_g(point + e, p)
                  - bs_basket_g(point - e, p)) / (2 * h)
            assert grad[i] == pytest.approx(float(fd), rel=1e-6)

    def test_unit_norm_and_sign(self):
        v = la_of(bs_asian_params())
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v[np.argmax(np.abs(v))] > 0

    def test_matches_first_lt_column(self):
        for p in (bs_asian_params(), basket_params()):
            lt = engines(p)["lt"](1)
            assert angle_degrees(la_of(p), lt.columns[:, 0]) <= 1e-8


class TestMultiLa:
    def test_constant_gradient_is_dependent(self):
        grad = lambda point: np.array([1.0, 2.0, 0.0])
        with pytest.raises(StratMcError, match="dependent on its predecessors"):
            la_directions_multi(grad, 3, 2)

    # a zero gradient at the origin, and a nan one at the second point,
    # the first direction
    @pytest.mark.parametrize("gradient, count", [
        (lambda point: np.zeros(3), 1),
        (lambda point: np.full(3, np.nan if point.any() else 1.0), 2)],
        ids=["zero", "nan-at-second-point"])
    def test_gradient_vanishes(self, gradient, count):
        with pytest.raises(StratMcError, match="gradient vanished"):
            la_directions_multi(gradient, 3, count)

    def test_two_directions_bs(self):
        p = bs_asian_params()
        ds = la_directions_multi(lambda e: bs_gradient(p, e), p.dim, 2)
        assert ds.count == 2
        np.testing.assert_allclose(np.linalg.norm(ds.columns, axis=0),
                                   [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(ds.columns[:, 0], la_of(p),
                                   atol=1e-12)
        # second iterate moves away but stays close to the first
        ang = angle_degrees(ds.columns[:, 0], ds.columns[:, 1])
        assert 0.01 < ang < 45.0


class TestLtBs:
    @pytest.mark.parametrize("count", [2, 8])
    def test_orthonormal_columns(self, count):
        ds = engines(bs_asian_params())["lt"](count)
        gram = ds.columns.T @ ds.columns
        np.testing.assert_allclose(gram, np.eye(count), atol=1e-10)

    def test_full_rotation(self):
        p = bs_asian_params()
        ds = engines(p)["lt"](p.dim)
        gram = ds.columns.T @ ds.columns
        np.testing.assert_allclose(gram, np.eye(p.dim), atol=1e-10)

    def test_second_column_is_gradient_at_first(self):
        # the point for column 2 is the rotated leading one: column 1 itself
        p = bs_asian_params()
        ds = engines(p)["lt"](2)
        first = ds.columns[:, 0]
        np.testing.assert_allclose(
            ds.columns[:, 1], next_lt_column(bs_gradient(p, first), first),
            atol=1e-12)

    def test_count_bounds(self):
        # every counted engine takes 1..dim columns, not a negative slice
        table = engines(bs_asian_params())
        for name in ("lt", "la", "pca"):
            for count in (-1, 0, 65):
                with pytest.raises(ValueError, match=r"must lie in 1\.\.64"):
                    table[name](count)


class TestAngleRegressions:
    """Frozen measured angles on the benchmark sets; loose +-1 degree pins."""

    def test_asian_la_vs_pca(self):
        p = bs_asian_params()
        la = la_of(p)
        pca = pca_directions(path_covariance(p), 1).columns[:, 0]
        assert angle_degrees(la, pca) == pytest.approx(54.62, abs=1.0)

    def test_barrier_la_vs_pca(self):
        p = bs_barrier_params()
        la = la_of(p)
        pca = pca_directions(path_covariance(p), 1).columns[:, 0]
        assert angle_degrees(la, pca) == pytest.approx(51.95, abs=1.0)

    def test_angles_do_not_depend_on_strike(self):
        # both engines see only model parameters, so strike plays no role
        p = bs_asian_params()
        assert la_of(p).shape == (64,)
        # (documented invariant; the engines take no strike argument)


class TestCirWorkspace:
    """cir_gradient: one backward pass over the Euler path."""

    def test_zero_noise_geometric_series_oracle(self):
        # with zhat = 0, alpha is the constant q = 1 - a dt and the backward
        # pass sums beta_m (1 - q^{N-m}) / (1 - q), with beta_m =
        # sigma sqrt(dt S_m) on the zero-noise skeleton
        p = cir_asian_params()
        n = p.n_steps
        beta = p.sigma * np.sqrt(p.dt * cir_zero_noise_path(p)[:n])
        q = 1.0 - p.alpha * p.dt
        expected = beta * (1.0 - q ** (n - np.arange(n))) / (1.0 - q)
        np.testing.assert_allclose(cir_gradient(p, np.zeros(n)), expected,
                                   rtol=1e-12)

    def test_terminal_identity(self):
        # only z_{N-1} moves S_N, by sigma sqrt(dt S_{N-1}), exactly
        p = cir_asian_params()
        stream = RandomStream(95)
        for _ in range(3):
            zhat = 0.4 * stream.normal(p.n_steps)
            t = cir_gradient(p, zhat)
            assert t.shape == (64,)
            s_last = cir_euler_path(zhat, p).values[0, -2]
            assert t[-1] == p.sigma * np.sqrt(p.dt * s_last)

    def test_gradient_matches_finite_differences(self):
        # at the zero driver, and at a random one where alpha varies step
        # to step
        p = cir_asian_params()
        h = 1e-6
        for z0 in (np.zeros(p.n_steps),
                   0.5 * RandomStream(99).normal(p.n_steps)):
            grad = cir_gradient(p, z0)
            for i in [0, 7, 31, 62, 63]:
                e = np.zeros(p.n_steps)
                e[i] = h
                up = cir_euler_path(z0 + e, p).values.sum()
                dn = cir_euler_path(z0 - e, p).values.sum()
                assert grad[i] == pytest.approx((up - dn) / (2 * h), rel=1e-4)

    def test_memory_is_linear_in_steps(self):
        # an N x N expansion matrix at N = 4000 would take 128 MB
        p = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0, rate=0.05,
                      n_steps=4000, maturity=1.0)
        z = np.zeros(p.n_steps)
        tracemalloc.start()
        try:
            cir_gradient(p, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_negative_path_raises(self):
        p = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0, rate=0.05,
                      n_steps=64, maturity=1.0)
        with pytest.raises(StratMcError, match="induced path went negative"):
            cir_gradient(p, np.full(64, -15.0))

    def test_path_at_zero_raises(self):
        # dt = 0.25: 1 - alpha dt = 0, alpha mu dt = 1 and sigma sqrt(dt) = 1,
        # so S_1 = 0 + 1 + 1 * 1 * (-1) is exactly 0
        p = CirParams(s0=1.0, alpha=4.0, mu=1.0, sigma=2.0, n_steps=4)
        with pytest.raises(StratMcError, match="hit zero inside the horizon"):
            cir_gradient(p, np.array([-1.0, 0.0, 0.0, 0.0]))

    def test_batch_equals_each_driver(self):
        # one batched pass gives every driver's own gradient, bit for bit,
        # for a (2, 3, N) batch as for the LT points' (N, N) batch
        p = cir_asian_params()
        n = p.n_steps
        batches = (0.4 * RandomStream(98).normal((2, 3, n)),
                   (np.arange(n) <= np.arange(n)[:, None]).astype(float))
        for z in batches:
            grad = cir_gradient(p, z)
            assert grad.shape == z.shape
            for idx in np.ndindex(z.shape[:-1]):
                np.testing.assert_array_equal(grad[idx], cir_gradient(p, z[idx]))

    def test_driver_length_checked(self):
        with pytest.raises(ValueError, match="driver must have length"):
            cir_gradient(cir_asian_params(), np.zeros(63))


class TestLtCir:
    def test_single_step(self):
        p = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0, rate=0.05,
                      n_steps=1, maturity=1.0)
        ds = engines(p)["lt"](1)
        np.testing.assert_allclose(ds.columns, [[1.0]])

    def test_orthonormal(self):
        ds = engines(cir_asian_params())["lt"](4)
        np.testing.assert_allclose(ds.columns.T @ ds.columns, np.eye(4),
                                   atol=1e-10)

    def test_columns_at_raw_leading_ones(self):
        # column 1 reads the gradient at e_1, column 2 at e_1 + e_2
        p = cir_asian_params()
        ds = engines(p)["lt"](2)
        ones = np.zeros(p.n_steps)
        ones[0] = 1.0
        t1 = cir_gradient(p, ones)
        first = t1 / np.linalg.norm(t1)
        np.testing.assert_allclose(ds.columns[:, 0], first, atol=1e-12)
        ones[1] = 1.0
        np.testing.assert_allclose(
            ds.columns[:, 1],
            next_lt_column(cir_gradient(p, ones), first), atol=1e-12)

    def test_first_column_near_la(self):
        # frozen measured value for the benchmark set
        p = cir_asian_params()
        ang = angle_degrees(la_of(p),
                            engines(p)["lt"](1).columns[:, 0])
        assert ang == pytest.approx(0.616, abs=0.02)



class TestLaCir:
    def test_unit_and_deterministic(self):
        p = cir_asian_params()
        v = la_of(p)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        np.testing.assert_array_equal(v, la_of(p))

    def test_matches_workspace_zero_noise(self):
        p = cir_asian_params()
        t = cir_gradient(p, np.zeros(p.n_steps))
        assert angle_degrees(t, la_of(p)) <= 1e-12


class TestPilotPca:
    def test_deterministic_given_stream(self):
        p = cir_asian_params()
        a = pca_directions(pilot_covariance(p, RandomStream(96).child(1)), 1)
        b = pca_directions(pilot_covariance(p, RandomStream(96).child(1)), 1)
        np.testing.assert_array_equal(a.columns, b.columns)
        assert np.linalg.norm(a.columns) == pytest.approx(1.0)

    def test_angle_to_la_benchmark(self):
        p = cir_asian_params()
        v = pca_directions(pilot_covariance(p, RandomStream(97)), 1)
        ang = angle_degrees(v.columns[:, 0], la_of(p))
        assert ang == pytest.approx(43.7, abs=3.0)

    @pytest.mark.parametrize("k", [1, 2, 64])
    def test_engine_gives_k_directions(self, k):
        # the engine is pca_directions of the pilot covariance of the
        # stream's child 1
        p = cir_asian_params()
        ds = engines(p, RandomStream(96))["pilot-pca"](k)
        expected = pca_directions(pilot_covariance(p, RandomStream(96).child(1)), k)
        assert ds.columns.shape == (p.n_steps, k)
        np.testing.assert_array_equal(ds.columns, expected.columns)

    def test_engine_needs_a_stream(self):
        with pytest.raises(ValueError, match="pilot-pca engine needs a stream"):
            engines(cir_asian_params())["pilot-pca"](1)

    def test_small_variance_is_not_degenerate(self):
        # at sigma = 1e-8 the pilot covariance is sigma^2 times the one at
        # 1e-4, to about 7 digits, so its leading direction is the same
        def leading(sigma):
            p = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=sigma,
                          rate=0.05, n_steps=16, maturity=1.0)
            cov = pilot_covariance(p, RandomStream(98))
            return pca_directions(cov, 1).columns[:, 0]
        assert angle_degrees(leading(1e-8), leading(1e-4)) < 1e-3

    def test_degenerate_covariance(self):
        # s0 = mu holds the drift at 0, and sigma sqrt(S dt) z ~ 1e-19 is
        # below the spacing of doubles near 100: every path stays at 100
        p = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=1e-20, rate=0.05,
                      n_steps=16, maturity=1.0)
        with pytest.raises(StratMcError, match="pilot paths carry no variance"):
            pilot_covariance(p, RandomStream(98))

    @pytest.mark.parametrize("sigma", [0.0, 1e-15], ids=["zero", "below-ulp"])
    def test_rounding_noise_is_degenerate(self, sigma):
        # s0 != mu gives paths at non-round values, so np.cov's mean is off
        # by an ulp and the covariance is a tiny positive matrix of rounding
        # error: identical paths at sigma = 0, and at 1e-15 a spread below
        # the spacing of doubles near 100
        p = CirParams(s0=100.0, alpha=1.5, mu=95.0, sigma=sigma, rate=0.05,
                      n_steps=16, maturity=1.0)
        with pytest.raises(StratMcError, match="pilot paths carry no variance"):
            pilot_covariance(p, RandomStream(98))


def test_export_round_trip(tmp_path):
    ds = engines(bs_asian_params())["lt"](2)
    out = tmp_path / "dirs.txt"
    export_directions(ds.columns, str(out))
    text = out.read_text()
    assert text.count("# column") == 2
    vals = [float(line) for line in text.splitlines()
            if not line.startswith("#")]
    back = np.array(vals).reshape(2, 64).T
    np.testing.assert_array_equal(back, ds.columns)
