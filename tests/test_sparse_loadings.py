import numpy as np
import pytest

from spla import (
    DataMatrix,
    LoadingMatrix,
    NoConvergenceError,
    PenaltyConfig,
    elastic_net_loadings,
    orthogonalize,
    penalized_rank_one,
    sample_cov,
    sparse_loading_matrix,
)
from spla.matops import sym_eigen

from conftest import random_spd


def _pseudo_sample(cov_values: np.ndarray) -> np.ndarray:
    lam, vecs = sym_eigen(cov_values)
    return np.sqrt(np.maximum(lam, 0.0))[:, None] * vecs.T


class TestPenalizedRankOne:
    def test_loose_budget_is_leading_singular_vector(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(40, 5))
        _, loading, d = penalized_rank_one(x, np.sqrt(5))
        _, s, vt = np.linalg.svd(x)
        lead = vt[0]
        assert np.allclose(np.abs(loading), np.abs(lead), atol=1e-6)
        assert d == pytest.approx(s[0], rel=1e-6)

    def test_c1_selects_max_variance_singleton(self):
        # Brute-force oracle: with budget 1 the loading must be a standard
        # basis vector; the optimum is the column maximizing ||x e_j||.
        rng = np.random.default_rng(22)
        x = rng.normal(size=(30, 4)) * [1.0, 3.0, 0.5, 2.0]
        _, loading, d = penalized_rank_one(x, 1.0)
        assert np.sum(np.abs(loading) > 1e-9) == 1
        best = np.argmax(np.linalg.norm(x, axis=0))
        assert np.argmax(np.abs(loading)) == best
        assert d == pytest.approx(np.linalg.norm(x[:, best]), rel=1e-9)

    def test_l1_budget_respected(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(25, 6))
        for c in (1.0, 1.5, 2.0):
            _, loading, _ = penalized_rank_one(x, c)
            assert np.sum(np.abs(loading)) <= c + 1e-6
            assert np.linalg.norm(loading) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_budget(self):
        x = np.eye(3)
        with pytest.raises(ValueError):
            penalized_rank_one(x, 0.5)
        with pytest.raises(ValueError):
            penalized_rank_one(x, 2.0)

    def test_strict_convergence_raises(self):
        # Seven equal-variance pairs with a shared factor drift slowly at
        # the pair-budget knot; a tight tolerance with few iterations trips.
        from spla import BlockDesign, sample_cov
        from spla.simulate import gen_block_sample_keyed

        s = gen_block_sample_keyed(BlockDesign(rho=0.2), 1000, 20240817, 0)
        x = _pseudo_sample(sample_cov(s).values)
        cfg = PenaltyConfig(max_iter=2, conv_tol=1e-14)
        with pytest.raises(NoConvergenceError):
            penalized_rank_one(x, 1.409, cfg)
        relaxed = PenaltyConfig(max_iter=2, conv_tol=1e-14, strict_convergence=False)
        _, loading, _ = penalized_rank_one(x, 1.409, relaxed)
        assert np.linalg.norm(loading) == pytest.approx(1.0, abs=1e-9)


class TestSparseLoadingMatrix:
    def test_orthonormal_after_orthogonalize(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(50, 5))
        lm = sparse_loading_matrix(x, PenaltyConfig(l1_bound=1.6))
        assert np.allclose(lm.u.T @ lm.u, np.eye(5), atol=1e-8)

    def test_sparsity_monotone_on_fixture(self, exam_data):
        # Total nonzero count is non-increasing as the budget c decreases.
        x = exam_data.values - exam_data.values.mean(axis=0)
        counts = []
        for c in np.linspace(np.sqrt(5), 1.0, 6):
            lm = sparse_loading_matrix(
                x,
                PenaltyConfig(l1_bound=float(c), conv_tol=1e-7,
                              strict_convergence=False, max_iter=200),
                orthogonalize_result=False,
            )
            counts.append(int(np.sum(lm.support_pattern())))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_block_diagonal_input_recovers_blocks(self):
        # Exactly block-diagonal covariance: loadings never straddle blocks.
        cov = np.zeros((4, 4))
        cov[:2, :2] = [[2.0, 0.9], [0.9, 2.0]]
        cov[2:, 2:] = [[1.0, 0.4], [0.4, 1.0]]
        x = _pseudo_sample(cov)
        lm = sparse_loading_matrix(
            x, PenaltyConfig(l1_bound=1.41), orthogonalize_result=False
        )
        pat = lm.support_pattern()
        for j in range(4):
            rows = set(np.nonzero(pat[:, j])[0])
            assert rows <= {0, 1} or rows <= {2, 3}


class TestElasticNet:
    def test_zero_penalty_recovers_eigenvectors(self, exam_cov):
        lm = elastic_net_loadings(
            exam_cov, [0.0], 0.0, 5,
            PenaltyConfig(conv_tol=1e-9),
        )
        _, vecs = sym_eigen(exam_cov.values)
        assert np.allclose(np.abs(lm.u), np.abs(vecs), atol=1e-6)

    def test_penalty_produces_zeros(self, exam_cov):
        lm = elastic_net_loadings(
            exam_cov, [5.0, 5.0, 5.0, 2.0, 2.0], 1e-6, 5,
            PenaltyConfig(conv_tol=1e-4, max_iter=300),
            orthogonalize_result=False,
        )
        assert np.sum(~lm.support_pattern()) > 0

    def test_orthonormal_result(self, exam_cov):
        lm = elastic_net_loadings(
            exam_cov, [5.0, 5.0, 5.0, 2.0, 2.0], 1e-6, 5,
            PenaltyConfig(conv_tol=1e-4, max_iter=300),
        )
        assert np.allclose(lm.u.T @ lm.u, np.eye(5), atol=1e-8)


class TestOrthogonalize:
    def test_projects_to_nearest_orthonormal(self):
        rng = np.random.default_rng(25)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        noisy = q + 1e-3 * rng.normal(size=(5, 5))
        lm = orthogonalize(noisy)
        assert np.allclose(lm.u.T @ lm.u, np.eye(5), atol=1e-10)
        # Columns may come back sign-normalized; compare up to column sign.
        signs = np.sign(np.sum(lm.u * q, axis=0))
        assert np.max(np.abs(lm.u * signs - q)) < 5e-3

    def test_already_orthonormal_unchanged(self):
        lm = orthogonalize(np.eye(4))
        assert np.allclose(lm.u, np.eye(4), atol=1e-12)


class TestLoadingMatrix:
    def test_support(self):
        u = np.eye(3)
        u[0, 1] = 1e-12
        lm = LoadingMatrix(u)
        assert list(lm.support(1)) == [1]

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            LoadingMatrix(np.ones((2, 3)))
