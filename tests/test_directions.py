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
    DegenerateCovariance,
    DependentDirections,
    NegativePathValue,
    RandomStream,
    angle_degrees,
    bs_asian_params,
    bs_barrier_params,
    bs_gradient,
    basket_params,
    bm_covariance,
    cir_asian_params,
    cir_mean_gradient,
    cir_workspace,
    export_directions,
    la_direction_bs,
    la_direction_cir,
    la_directions_multi,
    lt_directions_bs,
    lt_directions_cir,
    path_covariance,
    pca_directions,
    pilot_pca_cir,
    uniform_weights,
)
from stratmc.models import BsParams, CirParams, bs_basket_g, cir_euler_path


class TestPca:
    def test_diagonal_covariance(self):
        ds, ratio = pca_directions(np.diag([4.0, 1.0]), 1)
        np.testing.assert_allclose(ds.columns[:, 0], [1.0, 0.0], atol=1e-14)
        assert ratio == pytest.approx(0.8)

    def test_identity_explains_one_over_d(self):
        _, ratio = pca_directions(np.eye(5), 1)
        assert ratio == pytest.approx(0.2)

    def test_bm_leading_eigenvector_shape(self):
        # the first principal component of Brownian covariance loads every
        # date positively and grows toward maturity
        sigma = bm_covariance(np.arange(1, 65) / 64)
        ds, ratio = pca_directions(sigma, 2)
        v1 = ds.columns[:, 0]
        assert np.all(v1 > 0)
        assert np.all(np.diff(v1) > 0)
        assert ratio > 0.8  # first two components carry most of a BM

    def test_too_many_directions(self):
        with pytest.raises(ValueError):
            pca_directions(np.eye(3), 4)


class TestLaBs:
    def test_single_date_single_asset(self):
        p = BsParams(s0=[50.0], sigma=[0.3], corr=[[1.0]], rate=0.05,
                     grid=[1.0], weights=uniform_weights(1, 1))
        np.testing.assert_allclose(la_direction_bs(p), [1.0])

    def test_gradient_matches_finite_differences(self):
        p = BsParams(s0=[100.0, 60.0], sigma=[0.2, 0.35],
                     corr=[[1.0, 0.4], [0.4, 1.0]], rate=0.03,
                     grid=[0.5, 1.0], weights=uniform_weights(2, 2))
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
        v = la_direction_bs(bs_asian_params())
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v[np.argmax(np.abs(v))] > 0

    def test_matches_first_lt_column(self):
        for p in (bs_asian_params(), basket_params()):
            lt = lt_directions_bs(p, 1)
            assert angle_degrees(la_direction_bs(p), lt.columns[:, 0]) <= 1e-8


class TestMultiLa:
    def test_constant_gradient_is_dependent(self):
        grad = lambda point: np.array([1.0, 2.0, 0.0])
        with pytest.raises(DependentDirections):
            la_directions_multi(grad, 3, 2)

    def test_two_directions_bs(self):
        p = bs_asian_params()
        ds = la_directions_multi(lambda e: bs_gradient(p, e), p.dim, 2)
        assert ds.count == 2
        np.testing.assert_allclose(np.linalg.norm(ds.columns, axis=0),
                                   [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(ds.columns[:, 0], la_direction_bs(p),
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
        la = la_direction_bs(p)
        pca = pca_directions(path_covariance(p), 1)[0].columns[:, 0]
        assert angle_degrees(la, pca) == pytest.approx(54.62, abs=1.0)

    def test_barrier_la_vs_pca(self):
        p = bs_barrier_params()
        la = la_direction_bs(p)
        pca = pca_directions(path_covariance(p), 1)[0].columns[:, 0]
        assert angle_degrees(la, pca) == pytest.approx(51.95, abs=1.0)

    def test_angles_do_not_depend_on_strike(self):
        # both engines see only model parameters, so strike plays no role
        p = bs_asian_params()
        assert la_direction_bs(p).shape == (64,)
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
        grad = cir_mean_gradient(p, z0)
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
        with pytest.raises(NegativePathValue):
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
        ang = angle_degrees(la_direction_cir(p),
                            lt_directions_cir(p, 1).columns[:, 0])
        assert ang == pytest.approx(0.616, abs=0.02)

    def test_nominal_expansion_first_column_is_la(self):
        p = cir_asian_params()
        ds = lt_directions_cir(p, 2, expansion="nominal")
        assert angle_degrees(ds.columns[:, 0], la_direction_cir(p)) <= 1e-10

    def test_nominal_no_reversion_gives_linear_ramp(self):
        # alpha = 0 freezes the zero-noise path, so the row sums count the
        # remaining steps: direction proportional to (N, N-1, ..., 1)
        p = CirParams(s0=100.0, alpha=0.0, mu=100.0, sigma=2.0, rate=0.0,
                      n_steps=8, maturity=1.0, enforce_feller=False)
        ds = lt_directions_cir(p, 1, expansion="nominal")
        ramp = np.arange(8, 0, -1.0)
        np.testing.assert_allclose(ds.columns[:, 0], ramp / np.linalg.norm(ramp),
                                   rtol=1e-12)


class TestLaCir:
    def test_unit_and_deterministic(self):
        p = cir_asian_params()
        v = la_direction_cir(p)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        np.testing.assert_array_equal(v, la_direction_cir(p))

    def test_matches_workspace_zero_noise(self):
        p = cir_asian_params()
        t = cir_workspace(p, np.zeros(p.n_steps)).t
        assert angle_degrees(t, la_direction_cir(p)) <= 1e-12


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
        ang = angle_degrees(v, la_direction_cir(p))
        assert ang == pytest.approx(43.7, abs=3.0)

    def test_degenerate_covariance(self):
        p = CirParams(s0=100.0, alpha=1.5, mu=100.0, sigma=1e-8, rate=0.05,
                      n_steps=16, maturity=1.0)
        with pytest.raises(DegenerateCovariance):
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
