import warnings

import numpy as np
import pytest

from spla import (
    ConstantColumnError,
    CovMatrix,
    DataError,
    DataMatrix,
    load_csv,
    sample_cov,
    standardize,
)


class TestDataMatrix:
    def test_basic(self):
        d = DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), ("a", "b"))
        assert d.n_obs == 2 and d.n_vars == 2

    def test_rejects_single_row(self):
        with pytest.raises(DataError):
            DataMatrix(np.array([[1.0, 2.0]]), ("a", "b"))

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            DataMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]), ("a", "b"))

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError):
            DataMatrix(np.ones((3, 2)) * [[1], [2], [3]], ("a", "a"))

    @pytest.mark.parametrize("names", [("", "b"), ("a", "  ")])
    def test_rejects_empty_names(self, names):
        with pytest.raises(DataError, match="^variable names must not be empty$"):
            DataMatrix(np.array([[1.0, 2.0], [3.0, 5.0]]), names)


class TestCovMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(DataError):
            CovMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]), ("a", "b"))

    def test_rejects_indefinite(self):
        with pytest.raises(DataError):
            CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b"))

    def test_trace(self):
        c = CovMatrix(np.diag([2.0, 3.0]), ("a", "b"))
        assert c.trace() == 5.0


class TestLoadCsv:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        d = load_csv(p)
        assert d.variable_names == ("a", "b")
        assert np.allclose(d.values, [[1, 2], [3, 4]])

    def test_bad_cell_diagnostic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError) as exc:
            load_csv(p)
        msg = str(exc.value)
        assert "row" in msg and "b" in msg or "column" in msg

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes("a,b\n1,2\n3,5\n".encode("utf-8-sig"))
        d = load_csv(p)
        assert d.variable_names == ("a", "b")
        assert np.array_equal(d.values, [[1.0, 2.0], [3.0, 5.0]])

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_fixtures_shapes(self, oecd_data, exam_data):
        assert oecd_data.values.shape == (22, 6)
        assert oecd_data.variable_names == ("Y60", "Y85", "I/Y", "SCH", "POP", "RD")
        assert exam_data.values.shape == (88, 5)
        assert exam_data.variable_names == ("mec", "vec", "alg", "ana", "sta")


class TestTransforms:
    def test_standardize_matches_numpy(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 3)) * [1.0, 5.0, 0.1]
        d = standardize(DataMatrix(x, ("a", "b", "c")))
        assert np.allclose(d.values.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(d.values.std(axis=0, ddof=1), 1.0)

    def test_standardize_rejects_constant(self):
        d = DataMatrix(np.array([[1.0, 2.0], [1.0, 3.0]]), ("a", "b"))
        with pytest.raises(ConstantColumnError):
            standardize(d)

    def test_sample_cov_matches_numpy(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(25, 4))
        d = DataMatrix(x, ("a", "b", "c", "d"))
        cov = sample_cov(d)
        assert np.allclose(cov.values, np.cov(x, rowvar=False), atol=1e-12)

    def test_sample_cov_rejects_collinear_sample(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(30, 3))
        x[:, 2] = x[:, 0]
        with pytest.raises(DataError):
            sample_cov(DataMatrix(x, ("a", "b", "c")))

    @pytest.mark.parametrize("n", [2, 4])
    def test_sample_cov_needs_more_rows_than_variables(self, n):
        x = np.random.default_rng(15).normal(size=(5, 4))
        with pytest.raises(
            DataError,
            match=f"^{n} rows for 4 variables: the sample covariance needs at "
            "least 5 rows$",
        ):
            sample_cov(DataMatrix(x[:n], ("a", "b", "c", "d")))
        assert sample_cov(DataMatrix(x, ("a", "b", "c", "d"))).n_vars == 4

    @pytest.mark.parametrize("transform", [standardize, sample_cov])
    def test_overflowing_variance_is_named_without_warnings(self, transform):
        # Squares of cells near 1e200 overflow; column b stays representable.
        x = np.array([[1e200, 1.0], [-2e200, 3.0], [5e199, 2.0], [0.0, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                DataError, match=r"^sample covariance overflows in column\(s\) a$"
            ):
                transform(DataMatrix(x, ("a", "b")))

    def test_sample_cov_of_standardized_has_unit_diagonal(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(50, 3))
        cov = sample_cov(standardize(DataMatrix(x, ("a", "b", "c"))))
        assert np.allclose(np.diag(cov.values), 1.0)
