"""Path models: lognormal basket driver and the square-root Euler scheme.

Ground truth: hand-built index maps for the flattened (asset, date) layout,
the dense Cholesky product for the running-sum lognormal maps, the
closed-form zero-noise skeleton for the mean-reverting model, a scalar
Euler recursion for its vectorized kernel, and the discounted-martingale
property E[S(t)] = S0 e^{rt} checked statistically.
"""
import math
import re
from pathlib import Path

import numpy as np
import pytest

from stratmc import (
    BsParams,
    CirParams,
    RandomStream,
    StratMcError,
    basket_params,
    bs_asian_params,
    bs_barrier_params,
    bs_basket_g,
    bs_paths,
    cir_euler_path,
    cir_zero_noise_path,
    load_config,
    path_covariance,
)
from stratmc.stratify import _CHUNK

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def two_asset_params():
    return BsParams(s0=[100.0, 50.0], sigma=[0.2, 0.4], steps=3, rho=0.3,
                    rate=0.05)


class TestBsParams:
    def test_dims(self):
        p = two_asset_params()
        assert p.n_assets == 2
        assert p.steps == 3
        assert p.dim == 6

    def test_rejects_nonpositive_spot(self):
        with pytest.raises(ValueError):
            BsParams(s0=[0.0], sigma=[0.1], steps=1)

    def test_rejects_bad_grid(self):
        # the dates t_j = j T / steps need a positive maturity T
        with pytest.raises(ValueError, match="maturity must be positive"):
            BsParams(s0=[1.0], sigma=[0.1], steps=2, maturity=0.0)


class TestBsModel:
    def test_common_rho_equally_spaced_uniform_average(self):
        p = BsParams(s0=[100.0, 50.0], sigma=0.2, steps=4, rho=0.3,
                     rate=0.05, maturity=2.0)
        np.testing.assert_array_equal(p.sigma, [0.2, 0.2])
        np.testing.assert_array_equal(p.corr, [[1.0, 0.3], [0.3, 1.0]])
        np.testing.assert_array_equal(p.grid, [0.5, 1.0, 1.5, 2.0])
        # the uniform average of 2 assets on 4 dates: coef = S0 / 8
        np.testing.assert_array_equal(p.coef, np.tile([100.0, 50.0], 4) / 8)

    @pytest.mark.parametrize("m, rho", [(2, 1.0), (2, -1.0), (3, -0.5),
                                        (1, 7.0), (1, -1.0)])
    def test_rho_outside_positive_definite_range(self, m, rho):
        # one asset's corr is [1] whatever rho is, yet rho lies in (-1, 1)
        with pytest.raises(ValueError, match=f"rho = {re.escape(str(rho))} "
                                             f"must lie in .* for {m} asset"):
            BsParams(s0=[50.0] * m, sigma=0.3, steps=2, rho=rho)

    def test_needs_an_asset(self):
        with pytest.raises(ValueError, match="at least one value"):
            BsParams(s0=[], sigma=0.3, steps=2)

    def test_sigma_count_must_match_assets(self):
        with pytest.raises(ValueError, match=re.escape(
                "sigma needs one value or one per asset (2), got 3")):
            BsParams(s0=[50.0, 60.0], sigma=[0.1, 0.2, 0.3], steps=4)

    def test_needs_a_date(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            BsParams(s0=50.0, sigma=0.3, steps=0)

    @pytest.mark.parametrize("key, value, message", [
        ("steps", 4.5, "steps = 4.5 must be an integer"),
        ("rate", -np.inf, "rate = -inf must be finite"),
        ("s0", np.nan, "s0 = nan must be finite"),
        ("sigma", np.nan, "sigma = nan must be finite"),
        ("rate", np.nan, "rate = nan must be finite"),
    ])
    def test_rejects_non_finite_fields_and_fractional_steps(self, key, value,
                                                            message):
        # checked before the range checks, which would misreport them
        base = dict(s0=50.0, sigma=0.3, steps=4, rate=0.05)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BsParams(**{**base, key: value})


class TestFlattenedLayout:
    def test_drift_and_coefficients_brute_force(self):
        p = two_asset_params()
        drift, coef = p.drift, p.coef
        m = p.n_assets
        for k in range(p.dim):
            i, j = k % m, k // m  # asset-minor, date-major
            assert drift[k] == pytest.approx(
                (p.rate - 0.5 * p.sigma[i] ** 2) * p.grid[j])
            assert coef[k] == pytest.approx(p.s0[i] / p.dim)

    def test_path_covariance_is_kron(self):
        # entry (k, l) = min(t_j, t_n) sigma_i rho_ia sigma_a for k = (i, j)
        # and l = (a, n), built over the asset-minor index map
        p = two_asset_params()
        m = p.n_assets
        expected = np.empty((p.dim, p.dim))
        for k in range(p.dim):
            for l in range(p.dim):
                i, j, a, n = k % m, k // m, l % m, l // m
                expected[k, l] = (min(p.grid[j], p.grid[n]) * p.sigma[i]
                                  * p.corr[i, a] * p.sigma[a])
        np.testing.assert_allclose(path_covariance(p), expected, rtol=1e-15)

    def test_asset_covariance_entries(self):
        # the first date's block is t_1 Sigma_A
        p = two_asset_params()
        sa = path_covariance(p)[:2, :2] / p.grid[0]
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
        # two routes to the uniform average must coincide
        p = two_asset_params()
        eps = RandomStream(90).normal((500, p.dim))
        g = bs_basket_g(eps, p)
        avg = bs_paths(eps, p).mean(axis=(-2, -1))
        np.testing.assert_allclose(g, avg, rtol=1e-12)

    def test_terminal_martingale(self):
        p = BsParams(s0=[80.0], sigma=[0.25], steps=1, rate=0.03)
        eps = RandomStream(91).normal((400_000, 1))
        s_t = bs_paths(eps, p)[:, 0, 0]
        target = 80.0 * np.exp(0.03)
        se = s_t.std(ddof=1) / np.sqrt(s_t.size)
        assert abs(s_t.mean() - target) < 3.5 * se

    def test_every_date_martingale(self):
        p = two_asset_params()
        eps = RandomStream(92).normal((200_000, p.dim))
        paths = bs_paths(eps, p)
        for i in range(2):
            for j in range(3):
                vals = paths[:, i, j]
                target = p.s0[i] * np.exp(p.rate * p.grid[j])
                se = vals.std(ddof=1) / np.sqrt(vals.size)
                assert abs(vals.mean() - target) < 4 * se

    def test_batch_shapes(self):
        p = two_asset_params()
        eps = np.zeros((7, 3, p.dim))
        assert bs_paths(eps, p).shape == (7, 3, 2, 3)
        assert bs_basket_g(eps, p).shape == (7, 3)


def one_asset_params():
    return BsParams(s0=50.0, sigma=0.3, steps=4, rate=0.05)


def five_asset_params():
    return BsParams(s0=[40.0, 45.0, 50.0, 55.0, 60.0], sigma=0.25, steps=4,
                    rho=0.3, rate=0.03)


@pytest.mark.parametrize("p", [
    one_asset_params(), two_asset_params(), five_asset_params(),
    bs_asian_params(), bs_barrier_params(), basket_params(),
    *(load_config(str(DEMO_CONFIGS / f"{name}.ini")).params
      for name in ("bs_asian", "bs_barrier", "basket"))],
    ids=["1-asset", "2-asset", "5-asset", "bs_asian_params",
         "bs_barrier_params", "basket_params", "bs_asian.ini",
         "bs_barrier.ini", "basket.ini"])
def test_factor_is_a_random_walk_of_date_blocks(p):
    # the path maps build C eps as a running sum of L z_j, L = C[:M, :M]:
    # that is exact when C = (sqrt(dt) lower-ones) (x) L_A, the Cholesky
    # factor of Sigma_B (x) Sigma_A on equally spaced dates
    m, n = p.n_assets, p.steps
    root_dt = math.sqrt(p.maturity / n)
    walk = np.kron(root_dt * np.tril(np.ones((n, n))), p.factor[:m, :m] / root_dt)
    np.testing.assert_allclose(p.factor, walk, rtol=0,
                               atol=1e-14 * np.abs(p.factor).max())


@pytest.mark.parametrize("p", [one_asset_params(), two_asset_params(),
                               five_asset_params(), basket_params()],
                         ids=["1-asset", "2-asset", "5-asset-4-date",
                              "40-asset-1-date"])
@pytest.mark.parametrize("lead", [(), (5,), (2, 5)], ids=["d", "n-d", "2-n-d"])
def test_in_place_maps_match_out_of_place(p, lead):
    # the maps build their values in place in step-major memory, as a
    # running sum over the dates; they agree to rounding with the dense
    # product C eps, and they leave a read-only eps as it was
    eps = RandomStream(95).normal(lead + (p.dim,))
    eps.setflags(write=False)
    before = eps.copy()
    grid = np.exp(p.drift[:, None]
                  + p.factor @ np.moveaxis(eps, -1, 0).reshape(p.dim, -1))
    g = (p.coef @ grid).reshape(lead)
    flat = p.s0[np.arange(p.dim) % p.n_assets][:, None] * grid
    paths = np.moveaxis(flat.reshape((p.steps, p.n_assets) + lead), (0, 1), (-1, -2))
    got_g, got_paths = bs_basket_g(eps, p), bs_paths(eps, p)
    assert got_g.shape == g.shape
    np.testing.assert_allclose(got_g, g, rtol=1e-13, atol=0)
    assert got_paths.shape == paths.shape
    np.testing.assert_allclose(got_paths, paths, rtol=1e-13, atol=0)
    assert eps.tobytes() == before.tobytes()


@pytest.mark.parametrize("p", [one_asset_params(), two_asset_params()],
                         ids=["1-asset", "2-asset"])
@pytest.mark.parametrize("lead", [(), (5,), (2, 5), (_CHUNK,)],
                         ids=["d", "n-d", "2-n-d", "mc-chunk"])
def test_path_maps_do_not_depend_on_the_layout(p, lead):
    # the estimators hand the maps step-major drivers: F-ordered (n, d)
    # views in a stratified stage, and in plain MC a _CHUNK-column slice of
    # a (d, m) block, transposed.  A C-ordered copy of the same z gives the
    # same Euler bits and, for one asset, where no matmul runs, the same
    # lognormal bits; several assets' M x M products agree to rounding
    def layouts(seed, d):
        if lead == (_CHUNK,):
            block = RandomStream(seed).normal((d, 3 * _CHUNK))
            z = block[:, _CHUNK:2 * _CHUNK].T
        else:
            z = RandomStream(seed).normal(lead + (d,))
        return z, np.ascontiguousarray(z), np.asfortranarray(z)

    cir = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=10.0, n_steps=64)
    euler = [cir_euler_path(z, cir) for z in layouts(97, cir.n_steps)]
    for e in euler[1:]:
        assert e.values.tobytes() == euler[0].values.tobytes()
        assert e.floored == euler[0].floored
    base, *others = layouts(98, p.dim)
    for eps in others:
        for path_map in (bs_basket_g, bs_paths):
            want, got = path_map(base, p), path_map(eps, p)
            if p.n_assets == 1:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def scalar_euler(z, p):
    """One Euler path in Python floats, in the textbook form
    S + alpha (mu - S) dt + sigma sqrt(max(S, 0) dt) z, and whether a state
    fed to the square root was negative or nan."""
    s, dt, out, floored = p.s0, p.dt, [], False
    for zj in z:
        floored = floored or not s >= 0.0
        s = s + p.alpha * (p.mu - s) * dt + p.sigma * math.sqrt(max(s, 0.0) * dt) * zj
        out.append(s)
    return np.array(out), floored


class TestCir:
    def params(self, **kw):
        base = dict(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0, rate=0.05,
                    n_steps=64, maturity=1.0)
        base.update(kw)
        return CirParams(**base)

    def kernel_params(self, **kw):
        # sigma sqrt(dt) = 1.25: a kernel that dropped the factor would show
        return self.params(sigma=10.0, **kw)

    def kernel_draws(self, p):
        # rows 0-7 start with two z = -6 steps, which drive the state
        # below zero (100 -> 25 -> -10.75); row 8 turns nan mid-path
        z = RandomStream(96).normal((40, p.n_steps))
        z[:8, :2] = -6.0
        z[8, p.n_steps // 2] = np.nan
        return z

    def test_driver_length_must_equal_steps(self):
        p = self.params(n_steps=8)
        with pytest.raises(ValueError, match="driver length"):
            cir_euler_path(np.zeros((3, 7)), p)

    def test_kernel_matches_scalar_reference(self):
        p = self.kernel_params()
        z = self.kernel_draws(p)
        got = cir_euler_path(z, p)
        refs = [scalar_euler(row, p) for row in z]
        flags = [f for _, f in refs]
        assert any(flags) and not all(flags)
        np.testing.assert_allclose(got.values[:, 0, :], [v for v, _ in refs],
                                   rtol=1e-13)
        assert got.floored == any(flags)
        for row, (_, flag) in zip(z, refs):
            assert cir_euler_path(row, p).floored == flag

    def test_kernel_rows_do_not_depend_on_batch_shape(self):
        p = self.kernel_params()
        z = self.kernel_draws(p)[:24].reshape(2, 12, p.n_steps)
        one = [[cir_euler_path(row, p).values[0].tobytes() for row in block]
               for block in z]
        assert cir_euler_path(z[0, 0], p).values.shape == (1, p.n_steps)
        assert cir_euler_path(z[0, 0], p).values[0].tobytes() == one[0][0]
        flat = cir_euler_path(z[0], p).values
        assert flat.shape == (12, 1, p.n_steps)
        assert [v[0].tobytes() for v in flat] == one[0]
        full = cir_euler_path(z, p).values
        assert full.shape == (2, 12, 1, p.n_steps)
        assert [[v[0].tobytes() for v in block] for block in full] == one

    def test_kernel_leaves_read_only_drivers_alone(self):
        p = self.kernel_params()
        z = self.kernel_draws(p)
        before = z.copy()
        z.setflags(write=False)
        cir_euler_path(z, p)
        assert z.tobytes() == before.tobytes()

    def test_kernel_single_step(self):
        # S_1 is never fed to the square root, so a negative S_1 is no floor
        p = self.kernel_params(n_steps=1)
        for z1 in (0.7, -20.0):
            got = cir_euler_path(np.array([z1]), p)
            ref, flag = scalar_euler([z1], p)
            assert got.values.shape == (1, 1)
            np.testing.assert_allclose(got.values[0], ref, rtol=1e-13)
            assert got.floored is flag is False
        assert cir_euler_path(np.array([-20.0]), p).values[0, 0] < 0.0

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

    @pytest.mark.parametrize("key, value, message", [
        ("rate", np.nan, "rate = nan must be finite"),
        ("rate", np.inf, "rate = inf must be finite"),
        ("n_steps", 64.5, "n_steps = 64.5 must be an integer"),
    ])
    def test_rejects_non_finite_fields_and_fractional_steps(self, key, value,
                                                            message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.params(**{key: value})

    @pytest.mark.parametrize("key", ["s0", "alpha", "mu", "maturity"])
    def test_rejects_paths_beyond_float64(self, key):
        # Euler values near 1e300 square to inf in covariances and variances
        with pytest.raises(ValueError, match="leave the float64 range"):
            self.params(**{key: 1e300})
