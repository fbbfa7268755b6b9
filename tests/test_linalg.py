"""Dense linear-algebra kernels against closed forms and brute-force oracles.

Ground truth used here:
- Kronecker product (np.kron): explicit double loop over blocks
- Cholesky / eigen: multiply back and compare, plus hand 2x2 factorizations
- Brownian covariance: min(t_i, t_j) elementwise
- Gram-Schmidt frame (the Q of E = Q R with diag(R) > 0): hand 2-d pair,
  F^T F = I, first column kept
"""
import numpy as np
import pytest

from stratmc import (
    BsParams,
    DirectionSet,
    StratMcError,
    angle_degrees,
    cholesky,
    normalize_sign,
    path_covariance,
    symmetric_eigen,
)


def kron_oracle(a, b):
    """Textbook block construction, independent of np.kron."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb))
    for i in range(ra):
        for j in range(ca):
            out[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = a[i, j] * b
    return out


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_closed_form_2x2(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        np.testing.assert_allclose(cholesky(m), expected, atol=1e-15)

    def test_multiply_back_bm64(self):
        t = np.arange(1, 65) / 64
        sigma = np.minimum.outer(t, t)  # Brownian covariance
        c = cholesky(sigma)
        err = np.linalg.norm(c @ c.T - sigma) / np.linalg.norm(sigma)
        assert err < 1e-10
        assert np.allclose(np.triu(c, k=1), 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(StratMcError, match="not positive definite"):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(StratMcError, match="not positive definite"):
            cholesky(np.ones((2, 2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.2], [0.1, 1.0]]))


class TestBmCovariance:
    def test_min_rule(self):
        # one unit-volatility asset: Sigma_MN is the Brownian covariance
        p = BsParams(s0=[100.0], sigma=[1.0], steps=3, maturity=0.9)
        sigma = path_covariance(p)
        for i in range(3):
            for j in range(3):
                assert sigma[i, j] == min(p.grid[i], p.grid[j])


def test_kron_matches_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(4, 5))
    np.testing.assert_array_equal(np.kron(a, b), kron_oracle(a, b))


def gram_schmidt_frame(vecs):
    """Orthonormal frame of the rows of vecs, each normalized to a unit
    direction column; classical Gram-Schmidt gives the same frame as the
    QR of E with diag(R) > 0."""
    vecs = np.asarray(vecs, dtype=float)
    return DirectionSet((vecs / np.linalg.norm(vecs, axis=1)[:, None]).T).frame


class TestGramSchmidt:
    def test_hand_2d(self):
        f = gram_schmidt_frame(np.array([[1.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(f[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(f[:, 1], [0.0, 1.0])

    def test_first_column_kept(self):
        # f_1 is the first input direction, only normalized
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(4, 6))
        f = gram_schmidt_frame(vecs)
        v1 = vecs[0] / np.linalg.norm(vecs[0])
        np.testing.assert_allclose(f[:, 0], v1, atol=1e-14)

    def test_orthonormal_random(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d + 1))
            f = gram_schmidt_frame(rng.normal(size=(k, d)))
            np.testing.assert_allclose(f.T @ f, np.eye(k), atol=1e-12)

    def test_rank_deficient(self):
        v = np.array([1.0, 2.0, 0.0])
        with pytest.raises(StratMcError, match="dependent on its predecessors"):
            gram_schmidt_frame(np.vstack([v, 2.0 * v]))


class TestSymmetricEigen:
    def test_diagonal(self):
        w, v = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0])
        # columns paired with sorted eigenvalues, sign-fixed
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]],
                                   atol=1e-14)
        assert np.all(v.max(axis=0) > 0)

    def test_closed_form_2x2(self):
        w, v = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(v[:, 0], [s, s], atol=1e-14)
        np.testing.assert_allclose(np.abs(v[:, 1]), [s, s], atol=1e-14)

    def test_reconstruction_and_equation(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n))
            m = a @ a.T
            w, v = symmetric_eigen(m)
            rec = v @ np.diag(w) @ v.T
            assert np.linalg.norm(rec - m) / np.linalg.norm(m) < 1e-10
            for j in range(n):
                np.testing.assert_allclose(m @ v[:, j], w[j] * v[:, j],
                                           atol=1e-8 * max(1.0, abs(w[0])))
            assert np.all(np.diff(w) <= 1e-12)
            np.testing.assert_allclose(w.sum(), np.trace(m), rtol=1e-12)

    def test_bm16_reconstruction(self):
        t = np.arange(1, 17) / 16
        sigma = np.minimum.outer(t, t)  # Brownian covariance
        w, v = symmetric_eigen(sigma)
        rec = v @ np.diag(w) @ v.T
        assert np.linalg.norm(rec - sigma) / np.linalg.norm(sigma) < 1e-10
        np.testing.assert_allclose(v.T @ v, np.eye(16), atol=1e-12)


class TestAngle:
    def test_parallel_and_antiparallel_fold_to_zero(self):
        v = np.array([1.0, 2.0, -1.0])
        assert angle_degrees(v, v) == 0.0
        assert angle_degrees(v, -v) == 0.0

    def test_orthogonal(self):
        assert angle_degrees([1.0, 0.0], [0.0, 5.0]) == pytest.approx(90.0)

    def test_45_degrees(self):
        assert angle_degrees([1.0, 0.0], [1.0, 1.0]) == pytest.approx(45.0)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            ang = angle_degrees(a, b)
            assert 0.0 <= ang <= 90.0
            assert ang == pytest.approx(angle_degrees(b, a))
            assert ang == pytest.approx(angle_degrees(3.0 * a, -0.5 * b))

    def test_zero_vector(self):
        with pytest.raises(StratMcError, match="angle undefined for zero vector"):
            angle_degrees([0.0, 0.0], [1.0, 0.0])


def test_normalize_sign_largest_component_positive():
    v = np.array([0.1, -0.9, 0.3])
    w = normalize_sign(v)
    np.testing.assert_array_equal(w, -v)
    # already-positive stays put
    np.testing.assert_array_equal(normalize_sign(w), w)
