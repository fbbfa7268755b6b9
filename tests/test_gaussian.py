"""The normal CDF and its inverse, substreams and Latin hypercube matrices.

Ground truth: mpmath's arbitrary-precision erfc for scipy's normal CDF
(ndtr), which the sampler uses with its inverse (ndtri); the
one-sample-per-cell invariant for LHS columns is checked exactly.
"""
import mpmath
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from stratmc import (
    RandomStream,
    StratMcError,
    lhs_normals,
    stratum_uniform,
)

mpmath.mp.dps = 40


def phi_oracle(x):
    return float(0.5 * mpmath.erfc(-x / mpmath.sqrt(2)))


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_against_erfc_oracle(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert abs(ndtr(x) - phi_oracle(x)) <= 1e-15

    def test_quantile_975(self):
        assert abs(ndtr(1.959963985) - 0.975) < 1e-9

    def test_monotone(self):
        xs = np.linspace(-10, 10, 2001)
        assert np.all(np.diff(ndtr(xs)) >= 0)


class TestNormalInvCdf:
    def test_median(self):
        assert ndtri(0.5) == 0.0

    def test_quantile_975(self):
        assert ndtri(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_round_trip(self):
        for x in np.linspace(-6.0, 5.5, 116):
            assert abs(ndtri(ndtr(x)) - x) <= 1e-9

    def test_round_trip_upper_tail_at_double_limit(self):
        # doubles store Phi(x) near 1 with absolute spacing ~1.1e-16, which
        # by itself moves the recovered x by up to ~9e-9 beyond x ~ 5.6; no
        # implementation can round-trip the upper tail tighter than that,
        # so only the encoding-limit bound is asserted there
        for x in np.linspace(5.5, 6.0, 11):
            assert abs(ndtri(ndtr(x)) - x) <= 2e-8

    def test_round_trip_other_way(self):
        for p in np.linspace(1e-10, 1 - 1e-10, 101):
            assert abs(ndtr(ndtri(p)) - p) <= 1e-12

    def test_monotone(self):
        ps = np.linspace(0.001, 0.999, 999)
        assert np.all(np.diff(ndtri(ps)) > 0)


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(42).normal(100)
        b = RandomStream(42).normal(100)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        a = RandomStream(1).normal(100)
        b = RandomStream(2).normal(100)
        assert not np.array_equal(a, b)

    def test_children_differ_from_parent_and_each_other(self):
        root = RandomStream(7)
        seqs = [root.child(i).normal(64) for i in range(6)]
        seqs.append(RandomStream(7).normal(64))
        for i in range(len(seqs)):
            for j in range(i + 1, len(seqs)):
                assert not np.array_equal(seqs[i], seqs[j])

    def test_child_is_deterministic(self):
        a = RandomStream(7).child(3).child(9).uniform_open(size=16)
        b = RandomStream(7).child(3).child(9).uniform_open(size=16)
        np.testing.assert_array_equal(a, b)

    def test_uniform_open_strictly_inside(self):
        u = RandomStream(11).uniform_open(size=1_000_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_child_independence_statistics(self):
        # crude cross-correlation screen across sibling streams
        root = RandomStream(13)
        x = root.child(1).normal(200_000)
        y = root.child(2).normal(200_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


class TestStratumUniform:
    def test_bounds_strict(self):
        stream = RandomStream(5)
        for k in (1, 3, 8):
            v = stratum_uniform(k, 8, stream, size=10_000)
            assert np.all(v > (k - 1) / 8)
            assert np.all(v < k / 8)

    def test_mean(self):
        stream = RandomStream(6)
        n = 200_000
        v = stratum_uniform(2, 4, stream, size=n)
        se = (0.25 / np.sqrt(12)) / np.sqrt(n)
        assert abs(v.mean() - 0.375) < 3 * se

    @pytest.mark.parametrize("k", [0, 9, -1])
    def test_index_out_of_range(self, k):
        with pytest.raises(StratMcError, match="outside 1..8"):
            stratum_uniform(k, 8, RandomStream(0))


class TestLhsNormals:
    def test_one_sample_per_cell_exact(self):
        n, d = 128, 5
        x = lhs_normals(n, d, RandomStream(9))
        cells = np.floor(ndtr(x) * n).astype(int)
        for j in range(d):
            assert sorted(cells[:, j]) == list(range(n))

    def test_columns_are_distinct_permutations(self):
        x = lhs_normals(64, 3, RandomStream(10))
        assert not np.array_equal(x[:, 0], x[:, 1])

    def test_reproducible(self):
        a = lhs_normals(32, 2, RandomStream(3))
        b = lhs_normals(32, 2, RandomStream(3))
        np.testing.assert_array_equal(a, b)

    def test_column_means_tight(self):
        # each column is a stratified sample of the standard normal, so its
        # mean concentrates much faster than 1/sqrt(n)
        x = lhs_normals(4096, 2, RandomStream(4))
        assert np.all(np.abs(x.mean(axis=0)) < 0.01)
