"""Dense linear-algebra kernels against closed forms and brute-force oracles.

Ground truth used here:
- Kronecker product (np.kron): explicit double loop over blocks
- Cholesky / eigen: multiply back and compare, plus hand 2x2 factorizations
- Brownian covariance: min(t_i, t_j) elementwise
"""
import numpy as np
import pytest

from stratmc import (
    NonIncreasingGrid,
    NotPositiveDefinite,
    RankDeficient,
    ZeroVector,
    angle_degrees,
    bm_covariance,
    cholesky,
    gram_schmidt,
    normalize_sign,
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


def regular_grid(n):
    return np.arange(1, n + 1) / n


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_closed_form_2x2(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        np.testing.assert_allclose(cholesky(m), expected, atol=1e-15)

    def test_multiply_back_bm64(self):
        sigma = bm_covariance(regular_grid(64))
        c = cholesky(sigma)
        err = np.linalg.norm(c @ c.T - sigma) / np.linalg.norm(sigma)
        assert err < 1e-10
        assert np.allclose(np.triu(c, k=1), 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.ones((2, 2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.2], [0.1, 1.0]]))


class TestBmCovariance:
    def test_min_rule(self):
        grid = np.array([0.1, 0.4, 0.9])
        sigma = bm_covariance(grid)
        for i in range(3):
            for j in range(3):
                assert sigma[i, j] == min(grid[i], grid[j])

    def test_rejects_unsorted(self):
        with pytest.raises(NonIncreasingGrid):
            bm_covariance([0.5, 0.5, 1.0])
        with pytest.raises(NonIncreasingGrid):
            bm_covariance([-0.1, 0.5])


def test_kron_matches_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(4, 5))
    np.testing.assert_array_equal(np.kron(a, b), kron_oracle(a, b))


class TestGramSchmidt:
    def test_hand_2d(self):
        f, norms = gram_schmidt(np.array([[1.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(f[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(f[:, 1], [0.0, 1.0])
        np.testing.assert_allclose(norms, [1.0, 1.0])

    def test_first_column_kept(self):
        # f_1 is the first input direction, only normalized
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(4, 6))
        f, _ = gram_schmidt(vecs)
        v1 = vecs[0] / np.linalg.norm(vecs[0])
        np.testing.assert_allclose(f[:, 0], v1, atol=1e-14)

    def test_orthonormal_random(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d + 1))
            f, norms = gram_schmidt(rng.normal(size=(k, d)))
            np.testing.assert_allclose(f.T @ f, np.eye(k), atol=1e-12)
            assert np.all(norms > 0)

    def test_rank_deficient(self):
        v = np.array([1.0, 2.0, 0.0])
        with pytest.raises(RankDeficient):
            gram_schmidt(np.vstack([v, 2.0 * v]))


class TestSymmetricEigen:
    def test_diagonal(self):
        eig = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 2.0, 1.0])
        # columns paired with sorted eigenvalues, sign-fixed
        np.testing.assert_allclose(np.abs(eig.eigenvectors),
                                   np.eye(3)[:, [0, 2, 1]], atol=1e-14)
        assert np.all(eig.eigenvectors.max(axis=0) > 0)

    def test_closed_form_2x2(self):
        eig = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(eig.eigenvectors[:, 0], [s, s], atol=1e-14)
        np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 1]), [s, s],
                                   atol=1e-14)

    def test_reconstruction_and_equation(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n))
            m = a @ a.T
            eig = symmetric_eigen(m)
            rec = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
            assert np.linalg.norm(rec - m) / np.linalg.norm(m) < 1e-10
            for j in range(n):
                np.testing.assert_allclose(
                    m @ eig.eigenvectors[:, j],
                    eig.eigenvalues[j] * eig.eigenvectors[:, j],
                    atol=1e-8 * max(1.0, abs(eig.eigenvalues[0])))
            assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
            np.testing.assert_allclose(eig.eigenvalues.sum(), np.trace(m),
                                       rtol=1e-12)

    def test_bm16_reconstruction(self):
        sigma = bm_covariance(regular_grid(16))
        eig = symmetric_eigen(sigma)
        rec = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.linalg.norm(rec - sigma) / np.linalg.norm(sigma) < 1e-10
        np.testing.assert_allclose(eig.eigenvectors.T @ eig.eigenvectors,
                                   np.eye(16), atol=1e-12)


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
        with pytest.raises(ZeroVector):
            angle_degrees([0.0, 0.0], [1.0, 0.0])


def test_normalize_sign_largest_component_positive():
    v = np.array([0.1, -0.9, 0.3])
    w = normalize_sign(v)
    np.testing.assert_array_equal(w, -v)
    # already-positive stays put
    np.testing.assert_array_equal(normalize_sign(w), w)
