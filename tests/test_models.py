"""Path models: lognormal basket driver and the square-root Euler scheme.

Ground truth: hand-built index maps for the flattened (asset, date) layout,
the closed-form zero-noise skeleton for the mean-reverting model, and the
discounted-martingale property E[S(t)] = S0 e^{rt} checked statistically.
"""
import numpy as np
import pytest

from stratmc import (
    BsParams,
    CirParams,
    RandomStream,
    StratMcError,
    asset_covariance,
    bm_covariance,
    bs_basket_g,
    bs_model,
    bs_paths,
    cir_euler_path,
    cir_zero_noise_path,
    path_covariance,
    uniform_weights,
)


def two_asset_params():
    return BsParams(
        s0=[100.0, 50.0],
        sigma=[0.2, 0.4],
        corr=[[1.0, 0.3], [0.3, 1.0]],
        rate=0.05,
        grid=[0.25, 0.5, 1.0],
        weights=uniform_weights(2, 3),
    )


class TestBsParams:
    def test_dims(self):
        p = two_asset_params()
        assert p.n_assets == 2
        assert p.n_dates == 3
        assert p.dim == 6

    def test_rejects_bad_corr(self):
        with pytest.raises(ValueError):
            BsParams(s0=[1.0, 1.0], sigma=[0.1, 0.1],
                     corr=[[1.0, 0.5], [0.4, 1.0]], rate=0.0,
                     grid=[1.0], weights=uniform_weights(2, 1))

    def test_rejects_nonpositive_spot(self):
        with pytest.raises(ValueError):
            BsParams(s0=[0.0], sigma=[0.1], corr=[[1.0]], rate=0.0,
                     grid=[1.0], weights=uniform_weights(1, 1))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            BsParams(s0=[1.0], sigma=[0.1], corr=[[1.0]], rate=0.0,
                     grid=[0.5, 0.5], weights=uniform_weights(1, 2))


class TestBsModel:
    def test_common_rho_equally_spaced_uniform_average(self):
        p = bs_model(s0=[100.0, 50.0], sigma=0.2, rho=0.3, rate=0.05,
                     steps=4, maturity=2.0)
        np.testing.assert_array_equal(p.sigma, [0.2, 0.2])
        np.testing.assert_array_equal(p.corr, [[1.0, 0.3], [0.3, 1.0]])
        np.testing.assert_array_equal(p.grid, [0.5, 1.0, 1.5, 2.0])
        np.testing.assert_array_equal(p.weights, uniform_weights(2, 4))

    @pytest.mark.parametrize("m, rho", [(2, 1.0), (2, -1.0), (3, -0.5)])
    def test_rho_outside_positive_definite_range(self, m, rho):
        with pytest.raises(ValueError, match="rho"):
            bs_model(s0=[50.0] * m, sigma=0.3, rho=rho, rate=0.0, steps=2,
                     maturity=1.0)

    def test_needs_an_asset(self):
        with pytest.raises(ValueError, match="at least one value"):
            bs_model(s0=[], sigma=0.3, rho=0.0, rate=0.0, steps=2,
                     maturity=1.0)

    def test_needs_a_date(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            bs_model(s0=50.0, sigma=0.3, rho=0.0, rate=0.0, steps=0,
                     maturity=1.0)


class TestFlattenedLayout:
    def test_drift_and_coefficients_brute_force(self):
        p = two_asset_params()
        drift, coef = p.drift, p.coef
        m = p.n_assets
        for k in range(p.dim):
            i, j = k % m, k // m  # asset-minor, date-major
            assert drift[k] == pytest.approx(
                (p.rate - 0.5 * p.sigma[i] ** 2) * p.grid[j])
            assert coef[k] == pytest.approx(p.weights[i, j] * p.s0[i])

    def test_path_covariance_is_kron(self):
        p = two_asset_params()
        expected = np.kron(bm_covariance(p.grid), asset_covariance(p))
        np.testing.assert_allclose(path_covariance(p), expected)

    def test_asset_covariance_entries(self):
        p = two_asset_params()
        sa = asset_covariance(p)
        assert sa[0, 1] == pytest.approx(0.2 * 0.3 * 0.4)
        assert sa[1, 1] == pytest.approx(0.16)

    def test_factor_multiplies_back(self):
        p = two_asset_params()
        c = p.factor
        sigma = path_covariance(p)
        assert np.linalg.norm(c @ c.T - sigma) / np.linalg.norm(sigma) < 1e-10


class TestBsPaths:
    def test_g_at_zero_noise(self):
        p = two_asset_params()
        g0 = bs_basket_g(np.zeros((1, p.dim)), p)
        expected = float(np.sum(p.coef * np.exp(p.drift)))
        assert g0[0] == pytest.approx(expected, rel=1e-14)

    def test_paths_and_g_agree(self):
        # two routes to the weighted average must coincide
        p = two_asset_params()
        eps = RandomStream(90).normal((500, p.dim))
        g = bs_basket_g(eps, p)
        paths = bs_paths(eps, p)
        avg = np.einsum("nij,ij->n", paths.values, p.weights)
        np.testing.assert_allclose(g, avg, rtol=1e-12)

    def test_terminal_martingale(self):
        p = BsParams(s0=[80.0], sigma=[0.25], corr=[[1.0]], rate=0.03,
                     grid=[1.0], weights=uniform_weights(1, 1))
        eps = RandomStream(91).normal((400_000, 1))
        s_t = bs_paths(eps, p).values[:, 0, 0]
        target = 80.0 * np.exp(0.03)
        se = s_t.std(ddof=1) / np.sqrt(s_t.size)
        assert abs(s_t.mean() - target) < 3.5 * se

    def test_every_date_martingale(self):
        p = two_asset_params()
        eps = RandomStream(92).normal((200_000, p.dim))
        paths = bs_paths(eps, p).values
        for i in range(2):
            for j in range(3):
                vals = paths[:, i, j]
                target = p.s0[i] * np.exp(p.rate * p.grid[j])
                se = vals.std(ddof=1) / np.sqrt(vals.size)
                assert abs(vals.mean() - target) < 4 * se

    def test_batch_shapes(self):
        p = two_asset_params()
        eps = np.zeros((7, 3, p.dim))
        assert bs_paths(eps, p).values.shape == (7, 3, 2, 3)
        assert bs_basket_g(eps, p).shape == (7, 3)


def one_asset_params():
    return bs_model(s0=50.0, sigma=0.3, rho=0.0, rate=0.05, steps=4,
                    maturity=1.0)


@pytest.mark.parametrize("p", [one_asset_params(), two_asset_params()],
                         ids=["1-asset", "2-asset"])
@pytest.mark.parametrize("lead", [(), (5,), (2, 5)], ids=["d", "n-d", "2-n-d"])
def test_in_place_maps_match_out_of_place(p, lead):
    # the maps build their values in place; IEEE add and multiply commute,
    # so they equal the out-of-place expressions bit for bit, and they leave
    # a read-only eps as it was
    eps = RandomStream(95).normal(lead + (p.dim,))
    eps.setflags(write=False)
    before = eps.copy()
    grid = np.exp(p.drift + eps @ p.factor.T)
    g = grid @ p.coef
    flat = p.s0[np.arange(p.dim) % p.n_assets] * grid
    paths = np.swapaxes(flat.reshape(lead + (p.n_dates, p.n_assets)), -1, -2)
    got_g, got_paths = bs_basket_g(eps, p), bs_paths(eps, p).values
    assert got_g.shape == g.shape and got_g.tobytes() == g.tobytes()
    assert got_paths.shape == paths.shape
    assert got_paths.tobytes() == paths.tobytes()
    assert eps.tobytes() == before.tobytes()


class TestCir:
    def params(self, **kw):
        base = dict(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0, rate=0.05,
                    n_steps=64, maturity=1.0)
        base.update(kw)
        return CirParams(**base)

    def test_zero_noise_matches_closed_form(self):
        p = self.params(s0=80.0)
        skel = cir_zero_noise_path(p)
        dt = p.maturity / p.n_steps
        for j in range(p.n_steps + 1):
            expected = (1 - p.alpha * dt) ** j * (p.s0 - p.mu) + p.mu
            assert skel[j] == pytest.approx(expected, rel=1e-14)
        euler = cir_euler_path(np.zeros(p.n_steps), p).values[0]
        np.testing.assert_allclose(euler, skel[1:], rtol=1e-12)

    def test_zero_volatility_limit_converges_to_mean(self):
        p = self.params(s0=50.0, sigma=1e-12)
        path = cir_euler_path(np.zeros(p.n_steps), p).values[0]
        assert path[-1] > 50.0
        assert abs(path[-1] - (p.mu + (1 - p.alpha / 64) ** 64 * (50 - p.mu))) < 1e-6

    def test_feller_check(self):
        # 2*alpha*mu must strictly exceed sigma^2
        with pytest.raises(StratMcError, match=r"must exceed sigma\^2"):
            self.params(alpha=1.0, mu=50.0, sigma=10.0)  # 100 == 100
        self.params(alpha=1.0, mu=50.0, sigma=9.99)
        self.params()  # 300 > 64, fine

    def test_flooring_flag_on_extreme_draws(self):
        # the sqrt argument is floored at zero, the state itself is not
        p = self.params()
        z = np.full(p.n_steps, -6.0)
        paths = cir_euler_path(z, p)
        assert paths.floored
        assert np.all(np.isfinite(paths.values))

    def test_typical_paths_not_floored(self):
        p = self.params()
        z = RandomStream(93).normal((1000, p.n_steps))
        paths = cir_euler_path(z, p)
        assert not paths.floored
        assert paths.values.shape == (1000, 1, p.n_steps)

    def test_long_run_mean_reversion(self):
        # with S0 = mu the mean stays near mu at every step
        p = self.params(s0=100.0)
        z = RandomStream(94).normal((100_000, p.n_steps))
        vals = cir_euler_path(z, p).values[:, 0, :]
        means = vals.mean(axis=0)
        ses = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        assert np.all(np.abs(means - 100.0) < 4 * ses + 1e-9)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            self.params(s0=-1.0)
        with pytest.raises(ValueError):
            self.params(sigma=-1.0)
        with pytest.raises(ValueError):
            self.params(n_steps=0)
        with pytest.raises(StratMcError, match=r"must exceed sigma\^2"):
            self.params(sigma=20.0)  # 2*1.5*100 < 400

    @pytest.mark.parametrize("key", ["s0", "alpha", "mu", "maturity"])
    def test_rejects_paths_beyond_float64(self, key):
        # Euler values near 1e300 square to inf in covariances and variances
        with pytest.raises(ValueError, match="leave the float64 range"):
            self.params(**{key: 1e300})
