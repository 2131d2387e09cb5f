import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spla import CovMatrix
from spla.blocks import pla_detect
from spla.matops import (
    NonSymmetricError,
    NotPositiveDefiniteError,
    _components,
    cholesky_upper,
    soft_threshold,
    solve_spd,
    svd,
    sym_eigen,
)

from conftest import random_spd


class TestSymEigen:
    def test_hand_2x2(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1 with +-(1,1)/sqrt(2) vectors.
        lam, vecs = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(lam, [3.0, 1.0])
        assert np.allclose(np.abs(vecs[:, 0]), 1 / np.sqrt(2))
        assert np.allclose(np.abs(vecs[:, 1]), 1 / np.sqrt(2))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        for m in (1, 2, 3, 6, 10):
            a = random_spd(rng, m)
            lam, vecs = sym_eigen(a)
            assert np.allclose(vecs @ np.diag(lam) @ vecs.T, a, atol=1e-9)
            assert np.allclose(vecs.T @ vecs, np.eye(m), atol=1e-10)
            assert np.all(np.diff(lam) <= 1e-12)  # descending
            # Sign convention: each column's largest-magnitude entry is >= 0.
            assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(m)] >= 0)

    def test_diagonal_matrix(self):
        lam, vecs = sym_eigen(np.diag([1.0, 5.0, 3.0]))
        assert np.allclose(lam, [5.0, 3.0, 1.0])

    def test_deterministic_signs(self):
        a = random_spd(np.random.default_rng(2), 5)
        lam1, v1 = sym_eigen(a)
        lam2, v2 = sym_eigen(a.copy())
        assert np.array_equal(v1, v2)

    def test_shared_eigenvalue_stays_inside_blocks(self):
        # Three identical 3x3 blocks on interleaved variables: eigenvalue 0.5
        # has multiplicity 6 across the blocks, yet every eigenvector must be
        # supported on one block for the eigenvector detector to see them.
        groups = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
        a = np.eye(9)
        for g in groups:
            for i in g:
                for j in g:
                    if i != j:
                        a[i, j] = 0.5
        lam, vecs = sym_eigen(a)
        assert np.allclose(lam, [2.0] * 3 + [0.5] * 6)
        for j in range(9):
            support = set(np.flatnonzero(np.abs(vecs[:, j]) > 1e-12))
            assert any(support <= set(g) for g in groups)
        p = pla_detect(CovMatrix(a, tuple("abcdefghi")), 0.1)
        assert p is not None
        assert sorted(b.variable_indices for b in p.blocks) == groups

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricError):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_accepts_one_ulp_of_asymmetry_at_a_large_scale(self):
        # Entries up to about 1e14: one ulp of an off-diagonal entry is
        # about 1e-3, rounding rather than asymmetry.
        x = np.random.default_rng(2).normal(size=(50, 3)) * 1e7
        a = np.cov(x, rowvar=False)
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        assert np.max(np.abs(a - a.T)) > 1e-8
        lam, _ = sym_eigen(a)
        assert np.allclose(lam, np.linalg.eigvalsh(a)[::-1])

    def test_rejects_asymmetric_at_a_small_scale(self):
        # The asymmetry is half the largest entry, however small the entries.
        a = 1e-12 * np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(NonSymmetricError,
                           match=r"^max \|a_ij - a_ji\| = 1e-12 exceeds 1e-08 \* max \|a_ij\|$"):
            sym_eigen(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(
            ValueError, match=r"^a must be a square matrix, got shape \(2, 3\)$"
        ):
            sym_eigen(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "a, message",
        [([[np.nan]], "matrix entries must be finite"),
         (np.ones(3), r"a must be a square matrix, got shape \(3,\)")],
    )
    def test_rejects_invalid_entries_and_shape(self, a, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sym_eigen(a)


class TestCholesky:
    def test_hand_2x2(self):
        # [[4,2],[2,5]] = R^T R with R = [[2,1],[0,2]].
        r = cholesky_upper(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(r, [[2.0, 1.0], [0.0, 2.0]])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 4, 8):
            a = random_spd(rng, m)
            r = cholesky_upper(a)
            assert np.allclose(r.T @ r, a, atol=1e-9)
            assert np.allclose(np.tril(r, -1), 0.0)
            assert np.all(np.diag(r) > 0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_upper(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(
            ValueError, match=r"^a must be a square matrix, got shape \(2, 3\)$"
        ):
            cholesky_upper(np.ones((2, 3)))

    def test_rejects_pivot_below_relative_floor(self):
        # Positive definite in exact arithmetic, but the second pivot (1e-13)
        # is below CHOLESKY_PIVOT_RTOL times the largest diagonal entry.
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_upper(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))


class TestQR:
    def test_gram_identity_vs_cholesky(self):
        # R^T R = A^T A links the QR factor to the Cholesky factor of the Gram
        # matrix; the two independently computed factors must agree.
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 5))
        r = np.linalg.qr(a, mode="r")
        r_chol = cholesky_upper(a.T @ a)
        assert np.allclose(np.abs(r), np.abs(r_chol), atol=1e-8)


class TestSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 4))
        u, s, vt = svd(a)
        assert np.allclose(u[:, : len(s)] * s @ vt[: len(s)], a, atol=1e-10)
        assert np.all(np.diff(s) <= 0)


class TestSoftThreshold:
    def test_values(self):
        v = np.array([3.0, -2.0, 0.5, -0.5])
        out = soft_threshold(v, 1.0)
        assert np.allclose(out, [2.0, -1.0, 0.0, 0.0])

    def test_zero_delta_is_identity(self):
        v = np.array([1.0, -2.0])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_per_column_delta_broadcasts(self):
        v = np.array([[3.0, -2.0, 0.5], [-1.0, 4.0, -0.25]])
        out = soft_threshold(v, np.array([1.0, 3.0, 0.0]))
        assert np.array_equal(out, [[2.0, 0.0, 0.5], [0.0, 1.0, -0.25]])
        for j, d in enumerate((1.0, 3.0, 0.0)):
            assert np.array_equal(out[:, j], soft_threshold(v[:, j], d))

    def test_negative_delta_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.ones(3), np.array([0.5, -1e-300, 0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.ones(3), -0.5)


class TestSolveSpd:
    def test_adjugate_inverse_3x3(self):
        # Independent oracle: inverse via the adjugate formula.
        a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        det = np.linalg.det(a)
        adj = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
                adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(solve_spd(a, b), adj @ b / det, atol=1e-10)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 5)
        b = rng.normal(size=(5, 3))
        x = solve_spd(a, b)
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))


def _union_find_components(m: int, columns) -> list[list[int]]:
    """Components of rows ``0..m-1`` by union-find: each column, a set of
    rows, joins its rows. Lists of ascending rows, by smallest row."""
    parent = list(range(m))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for rows in map(sorted, columns):
        for r in rows[1:]:
            parent[root(r)] = root(rows[0])
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(root(i), []).append(i)
    return sorted(groups.values())


@st.composite
def _supports(draw):
    """``(m, columns)``: 1 to 20 rows and 0 to 25 columns, each a set of
    rows, empty included, so empty rows and columns and ``k = 0`` occur."""
    m = draw(st.integers(1, 20))
    return m, draw(st.lists(st.sets(st.integers(0, m - 1), max_size=4), max_size=25))


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(_supports())
    def test_rectangular_support_matches_union_find(self, case):
        m, columns = case
        support = np.zeros((m, len(columns)), dtype=bool)
        for j, rows in enumerate(columns):
            support[sorted(rows), j] = True
        got = [c.tolist() for c in _components(support)]
        assert got == _union_find_components(m, columns)

    @settings(max_examples=200, deadline=None)
    @given(_supports())
    def test_symmetric_adjacency_with_diagonal_matches_union_find(self, case):
        # Each column's rows, pairwise, are the edges; the diagonal makes
        # the adjacency a support of its own graph.
        m, columns = case
        adjacency = np.eye(m, dtype=bool)
        for rows in map(sorted, columns):
            adjacency[np.ix_(rows, rows)] = True
        got = [c.tolist() for c in _components(adjacency)]
        assert got == _union_find_components(m, columns)

    def test_no_columns_gives_singletons(self):
        got = [c.tolist() for c in _components(np.zeros((3, 0), dtype=bool))]
        assert got == [[0], [1], [2]]
