"""Direction engines: PCA, gradient (LA), expansion (LT) and pilot PCA.

Oracles:
- finite differences for gradients
- closed-form geometric-series expansion coefficients on the zero-noise
  path for the mean-reverting model (alpha[j] is constant there)
- frozen measured angles between engines on the benchmark parameter sets,
  which double as regression pins for the whole pipeline
"""
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
    bm_covariance,
    cir_asian_params,
    cir_workspace,
    engines,
    export_directions,
    la_directions_multi,
    lt_directions_bs,
    lt_directions_cir,
    path_covariance,
    pca_directions,
    pilot_pca_cir,
)
from stratmc.models import BsParams, CirParams, bs_basket_g, cir_euler_path


def la_of(params):
    """The LA direction: the first direction of the model's la engine."""
    return engines(params)["la"](1).columns[:, 0]


class TestPca:
    def test_diagonal_covariance(self):
        ds = pca_directions(np.diag([4.0, 1.0]), 1)
        np.testing.assert_allclose(ds.columns[:, 0], [1.0, 0.0], atol=1e-14)

    def test_bm_leading_eigenvector_shape(self):
        # the first principal component of Brownian covariance loads every
        # date positively and grows toward maturity
        sigma = bm_covariance(np.arange(1, 65) / 64)
        v1 = pca_directions(sigma, 2).columns[:, 0]
        assert np.all(v1 > 0)
        assert np.all(np.diff(v1) > 0)

    def test_too_many_directions(self):
        with pytest.raises(ValueError):
            pca_directions(np.eye(3), 4)


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
            lt = lt_directions_bs(p, 1)
            assert angle_degrees(la_of(p), lt.columns[:, 0]) <= 1e-8


class TestMultiLa:
    def test_constant_gradient_is_dependent(self):
        grad = lambda point: np.array([1.0, 2.0, 0.0])
        with pytest.raises(StratMcError, match="dependent on its predecessors"):
            la_directions_multi(grad, 3, 2)

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
        ds = lt_directions_bs(bs_asian_params(), count)
        gram = ds.columns.T @ ds.columns
        np.testing.assert_allclose(gram, np.eye(count), atol=1e-10)

    def test_full_rotation(self):
        p = bs_asian_params()
        ds = lt_directions_bs(p, p.dim)
        gram = ds.columns.T @ ds.columns
        np.testing.assert_allclose(gram, np.eye(p.dim), atol=1e-10)

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            lt_directions_bs(bs_asian_params(), 0)
        with pytest.raises(ValueError):
            lt_directions_bs(bs_asian_params(), 65)


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
    def test_recurrence_and_terminal_identities(self):
        p = cir_asian_params()
        stream = RandomStream(95)
        for _ in range(3):
            zhat = 0.4 * stream.normal(p.n_steps)
            ws = cir_workspace(p, zhat)
            assert ws.t[-1] == ws.beta[-1]
            assert ws.t.shape == (64,)
            assert ws.alpha.shape == (63,)
            for m in range(0, 64, 13):
                for j in range(m, 63):
                    assert ws.w[m, j + 1] == ws.alpha[j] * ws.w[m, j]

    def test_zero_noise_geometric_series_oracle(self):
        # with zhat = 0, alpha is the constant q = 1 - a dt and the row sums
        # collapse to beta_m (1 - q^{N-m}) / (1 - q)
        p = cir_asian_params()
        ws = cir_workspace(p, np.zeros(p.n_steps))
        q = 1.0 - p.alpha * p.dt
        n = p.n_steps
        expected = ws.beta * (1.0 - q ** (n - np.arange(n))) / (1.0 - q)
        np.testing.assert_allclose(ws.t, expected, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        p = cir_asian_params()
        z0 = np.zeros(p.n_steps)
        grad = cir_workspace(p, z0).t
        h = 1e-6
        idx = [0, 7, 31, 63]
        for i in idx:
            e = np.zeros(p.n_steps)
            e[i] = h
            up = cir_euler_path(z0 + e, p).values.sum()
            dn = cir_euler_path(z0 - e, p).values.sum()
            assert grad[i] == pytest.approx((up - dn) / (2 * h), rel=1e-4)

    def test_negative_path_raises(self):
        p = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0, rate=0.05,
                      n_steps=64, maturity=1.0)
        with pytest.raises(StratMcError, match="induced path went negative"):
            cir_workspace(p, np.full(64, -15.0))


class TestLtCir:
    def test_single_step(self):
        p = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=8.0, rate=0.05,
                      n_steps=1, maturity=1.0)
        ds = lt_directions_cir(p, 1)
        np.testing.assert_allclose(ds.columns, [[1.0]])

    def test_orthonormal(self):
        ds = lt_directions_cir(cir_asian_params(), 4)
        np.testing.assert_allclose(ds.columns.T @ ds.columns, np.eye(4),
                                   atol=1e-10)

    def test_first_column_near_la(self):
        # frozen measured value for the benchmark set
        p = cir_asian_params()
        ang = angle_degrees(la_of(p),
                            lt_directions_cir(p, 1).columns[:, 0])
        assert ang == pytest.approx(0.616, abs=0.02)



class TestLaCir:
    def test_unit_and_deterministic(self):
        p = cir_asian_params()
        v = la_of(p)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        np.testing.assert_array_equal(v, la_of(p))

    def test_matches_workspace_zero_noise(self):
        p = cir_asian_params()
        t = cir_workspace(p, np.zeros(p.n_steps)).t
        assert angle_degrees(t, la_of(p)) <= 1e-12


class TestPilotPca:
    def test_deterministic_given_stream(self):
        p = cir_asian_params()
        a = pilot_pca_cir(p, RandomStream(96).child(1))
        b = pilot_pca_cir(p, RandomStream(96).child(1))
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_angle_to_la_benchmark(self):
        p = cir_asian_params()
        v = pilot_pca_cir(p, RandomStream(97))
        ang = angle_degrees(v, la_of(p))
        assert ang == pytest.approx(43.7, abs=3.0)

    def test_engine_needs_a_stream(self):
        with pytest.raises(ValueError, match="pilot-pca engine needs a stream"):
            engines(cir_asian_params())["pilot-pca"](1)

    def test_degenerate_covariance(self):
        p = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=1e-8, rate=0.05,
                      n_steps=16, maturity=1.0)
        with pytest.raises(StratMcError, match="pilot paths carry no variance"):
            pilot_pca_cir(p, RandomStream(98))


def test_export_round_trip(tmp_path):
    ds = lt_directions_bs(bs_asian_params(), 2)
    out = tmp_path / "dirs.txt"
    export_directions(ds.columns, str(out))
    text = out.read_text()
    assert text.count("# column") == 2
    vals = [float(line) for line in text.splitlines()
            if not line.startswith("#")]
    back = np.array(vals).reshape(2, 64).T
    np.testing.assert_array_equal(back, ds.columns)
