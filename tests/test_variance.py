import numpy as np
import pytest

from spla import (
    Block,
    BlockPartition,
    CovMatrix,
    DataMatrix,
    corrected_variances,
    partial_cov,
    partial_trace_share,
    sample_cov,
    variance_shares,
    weight_basis,
)
from spla.matops import sym_eigen

from conftest import _seq_partition, random_spd
from oracles import corrected_variances_from_data


class TestCorrectedVariances:
    def test_eigenvector_loadings_give_eigenvalues(self):
        rng = np.random.default_rng(41)
        a = random_spd(rng, 5)
        cov = CovMatrix(a, tuple("abcde"))
        lam, vecs = sym_eigen(a)
        cv = corrected_variances(cov, vecs)
        assert np.allclose(cv.r_squared, lam, atol=1e-8)

    def test_identity_loadings_on_diagonal_cov(self):
        cov = CovMatrix(np.diag([3.0, 1.0, 2.0]), ("a", "b", "c"))
        cv = corrected_variances(cov, np.eye(3))
        assert np.allclose(cv.r_squared, [3.0, 1.0, 2.0])

    def test_regression_residual_oracle_3x3(self):
        # Identity loadings: position i carries the residual variance of
        # variable i regressed on variables 0..i-1.
        a = np.array([[1.0, 0.2, 0.2], [0.2, 1.0, 0.0], [0.2, 0.0, 1.0]])
        cov = CovMatrix(a, ("a", "b", "c"))
        cv = corrected_variances(cov, np.eye(3))
        assert cv.r_squared[0] == pytest.approx(1.0)
        assert cv.r_squared[1] == pytest.approx(1.0 - 0.04)
        # Residual of X3 on (X1, X2) via explicit least squares.
        s11 = a[:2, :2]
        s13 = a[:2, 2]
        resid = a[2, 2] - s13 @ np.linalg.solve(s11, s13)
        assert cv.r_squared[2] == pytest.approx(resid, abs=1e-12)

    def test_data_path_agrees_with_cholesky_path(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(60, 4)) @ np.diag([1.0, 2.0, 0.5, 1.5])
        d = DataMatrix(x, tuple("abcd"))
        cov = sample_cov(d)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        c1 = corrected_variances(cov, q)
        c2 = corrected_variances_from_data(d, q)
        assert np.allclose(c1.r_squared, c2.r_squared, rtol=1e-8)
        assert np.allclose(c1.uncorrected, c2.uncorrected, rtol=1e-8)

    def test_total_bounded_by_trace(self):
        rng = np.random.default_rng(43)
        a = random_spd(rng, 6)
        cov = CovMatrix(a, tuple("abcdef"))
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            cv = corrected_variances(cov, q)
            assert np.sum(cv.r_squared) <= np.trace(a) + 1e-8
        lam, vecs = sym_eigen(a)
        cv = corrected_variances(cov, vecs)
        assert np.sum(cv.r_squared) == pytest.approx(np.trace(a), abs=1e-8)


class TestVarianceShares:
    def test_single_block_eigen_cv_is_100(self):
        rng = np.random.default_rng(44)
        a = random_spd(rng, 4)
        cov = CovMatrix(a, tuple("abcd"))
        lam, vecs = sym_eigen(a)
        cv = corrected_variances(cov, vecs)
        shares = variance_shares(cv, cov, _seq_partition([4]))
        assert shares.block_cv[-1] == pytest.approx(100.0, abs=1e-8)

    def test_oecd_table_values(self, oecd_corr):
        names = oecd_corr.variable_names
        idx = {n: i for i, n in enumerate(names)}
        blocks = (
            Block((idx["I/Y"],)),
            Block((idx["SCH"],)),
            Block((idx["POP"],)),
            Block(tuple(sorted((idx["RD"], idx["Y85"], idx["Y60"])))),
        )
        p = BlockPartition(blocks)
        wb = weight_basis(
            p, within_block_order=(
                (idx["I/Y"],), (idx["SCH"],), (idx["POP"],),
                (idx["RD"], idx["Y85"], idx["Y60"]),
            ),
        )
        cv = corrected_variances(oecd_corr, wb)
        shares = variance_shares(cv, oecd_corr, p)
        assert np.allclose(shares.block_sv, [16.67, 16.04, 15.57, 40.26], atol=0.05)
        assert shares.block_cv[-1] == pytest.approx(88.54, abs=0.05)

    def test_dimension_mismatch(self, oecd_corr):
        cv = corrected_variances(oecd_corr, np.eye(6))
        with pytest.raises(ValueError):
            variance_shares(cv, oecd_corr, _seq_partition([2, 2]))


class TestPartialCov:
    def test_hand_2x2(self):
        cov = CovMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), ("a", "b"))
        pc = partial_cov(cov, [1])
        assert pc == pytest.approx(np.array([[0.75]]))

    def test_block_diagonal_is_exact(self):
        values = np.zeros((4, 4))
        values[:2, :2] = [[2.0, 0.5], [0.5, 1.0]]
        values[2:, 2:] = [[3.0, 0.2], [0.2, 1.5]]
        cov = CovMatrix(values, tuple("abcd"))
        pc = partial_cov(cov, [2, 3])
        assert np.allclose(pc, values[2:, 2:], atol=1e-12)

    def test_regression_residual_oracle_random(self):
        rng = np.random.default_rng(45)
        for m in (4, 5, 6):
            a = random_spd(rng, m)
            cov = CovMatrix(a, tuple(f"v{i}" for i in range(m)))
            d = [m - 2, m - 1]
            k = list(range(m - 2))
            pc = partial_cov(cov, d)
            beta = np.linalg.solve(a[np.ix_(k, k)], a[np.ix_(k, d)])
            oracle = a[np.ix_(d, d)] - a[np.ix_(d, k)] @ beta
            assert np.allclose(pc, oracle, atol=1e-8)

    def test_psd_and_trace_bound(self):
        rng = np.random.default_rng(46)
        a = random_spd(rng, 5)
        cov = CovMatrix(a, tuple("abcde"))
        pc = partial_cov(cov, [0, 3])
        eigvals = np.linalg.eigvalsh(pc)
        assert np.min(eigvals) > -1e-10
        assert np.trace(pc) <= np.trace(a[np.ix_([0, 3], [0, 3])]) + 1e-10

    def test_returns_a_symmetric_array(self, exam_cov):
        # A plain array in ascending variable order, symmetric bit for bit.
        pc = partial_cov(exam_cov, [4, 0, 2])
        assert type(pc) is np.ndarray
        assert pc.shape == (3, 3)
        assert np.array_equal(pc, pc.T)

    def test_rejects_improper_subset(self, oecd_corr):
        with pytest.raises(ValueError):
            partial_cov(oecd_corr, [])
        with pytest.raises(ValueError):
            partial_cov(oecd_corr, list(range(6)))

    @pytest.mark.parametrize(
        "d_set, message",
        [([0, 0], "variable index 0 repeats"),
         ([2, 1, 2], "variable index 2 repeats"),
         ([-1], r"variable index -1 outside \[0, 6\)"),
         ([7], r"variable index 7 outside \[0, 6\)"),
         ([1.5], "variable index 1.5 is not an integer"),
         (["1"], "variable index '1' is not an integer")],
        ids=["repeat", "repeat-unsorted", "negative", "past-end", "float", "text"],
    )
    def test_rejects_bad_index(self, oecd_corr, d_set, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            partial_cov(oecd_corr, d_set)
        with pytest.raises(ValueError, match=f"^{message}$"):
            partial_trace_share(oecd_corr, d_set)

    def test_takes_numpy_integers(self, oecd_corr):
        assert np.array_equal(partial_cov(oecd_corr, np.array([3, 1])),
                              partial_cov(oecd_corr, [1, 3]))


class TestPartialTraceShare:
    def test_identity_covariance(self):
        cov = CovMatrix(np.eye(5), tuple("abcde"))
        assert partial_trace_share(cov, [1, 2]) == pytest.approx(100.0 * 2 / 5)

    def test_near_collinear_pair_matches_the_regression_residual(self):
        # Column b is a plus 1e-5 of a draw: S has condition number about
        # 4e10. Conditioning the pair on the other four keeps it well posed,
        # and the share must keep that accuracy. The route through the
        # Schur complement of one factor of S, inv((S^-1)[D, D]), is off by
        # a relative 1.6e-6 here.
        x = np.random.default_rng(0).normal(size=(200, 6))
        x[:, 1] = x[:, 0] + 1e-5 * x[:, 1]
        cov = sample_cov(DataMatrix(x, tuple("abcdef")))
        s, d, k = cov.values, [0, 1], [2, 3, 4, 5]
        beta = np.linalg.solve(s[np.ix_(k, k)], s[np.ix_(k, d)])
        residual = s[np.ix_(d, d)] - s[np.ix_(d, k)] @ beta
        want = 100.0 * np.trace(residual) / np.trace(s)
        assert partial_trace_share(cov, d) == pytest.approx(want, rel=1e-10, abs=0)

    def test_oecd_table_values(self, oecd_corr):
        names = oecd_corr.variable_names
        idx = {n: i for i, n in enumerate(names)}
        expected = {
            ("I/Y",): 10.23,
            ("SCH",): 12.41,
            ("POP",): 12.94,
            ("RD", "Y85", "Y60"): 41.73,
        }
        for vars_, exp in expected.items():
            share = partial_trace_share(oecd_corr, [idx[v] for v in vars_])
            assert share == pytest.approx(exp, abs=0.05)
