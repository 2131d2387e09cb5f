import csv
import os
import re
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spla import (
    ConstantColumnError,
    CovMatrix,
    DataError,
    DataMatrix,
    load_csv,
    sample_cov,
    standardize,
)

from oracles import load_csv_cell_by_cell


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

    @pytest.mark.parametrize(
        "values, message",
        [(np.ones(3), r"expected 2-d data, got shape \(3,\)"),
         (np.ones((3, 2)), "1 names for 2 columns")],
    )
    def test_rejects_shape(self, values, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            DataMatrix(values, ("a",))


class TestCovMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(DataError):
            CovMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]), ("a", "b"))

    def test_rejects_indefinite(self):
        with pytest.raises(DataError):
            CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b"))

    @pytest.mark.parametrize(
        "values, names, message",
        [(np.ones((2, 3)), ("a", "b"), r"covariance must be square, got \(2, 3\)"),
         (np.eye(2), ("a",), "1 names for 2 variables"),
         (np.float64(1.0), (), r"covariance must be square, got \(\)"),
         (np.zeros((0, 0)), (), "covariance matrix is empty")],
    )
    def test_rejects_shape(self, values, names, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            CovMatrix(values, names)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values",
        [[[1.0, np.nan], [np.nan, 1.0]], [[1.0, np.inf], [0.0, 1.0]]],
        ids=["nan", "inf"],
    )
    def test_rejects_non_finite_entry(self, values):
        # Checked before symmetry, whose difference would warn on them.
        with pytest.raises(DataError, match="^covariance matrix has a non-finite entry$"):
            CovMatrix(np.array(values), ("a", "b"))

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

    @pytest.mark.parametrize("content", [b"", "\ufeff".encode("utf-8")])
    def test_empty_file(self, tmp_path, content):
        p = tmp_path / "empty.csv"
        p.write_bytes(content)
        with pytest.raises(DataError, match=f"^{re.escape(f'{p}: empty file')}$"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError):
            load_csv(p)

    @pytest.mark.parametrize(
        "text, line",
        [("a" * (csv.field_size_limit() + 1) + ",b\n1,2\n3,4\n", 1),
         ('a,b\n1,2\n"3' + "0" * csv.field_size_limit() + '",4\n', 3)],
        ids=["header", "quoted-cell"],
    )
    def test_field_over_csv_limit_is_a_data_error(self, tmp_path, text, line):
        p = tmp_path / "wide.csv"
        p.write_text(text)
        message = (f"{p}: line {line}: field larger than field limit "
                   f"({csv.field_size_limit()})")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(p)

    def test_quoted_cells_load(self, tmp_path):
        p = tmp_path / "quoted.csv"
        p.write_text('"a",b\n"1.5",2\n3," 4e1 "\n')
        d = load_csv(p)
        assert d.variable_names == ("a", "b")
        assert np.array_equal(d.values, [[1.5, 2.0], [3.0, 40.0]])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "body, want",
        [("1,2\n3,5\n", [[1.0, 2.0], [3.0, 5.0]]),
         ("1,2\n3,x\n", "row 3, column 'b': non-numeric value 'x'")],
    )
    def test_pipe_is_read_once(self, tmp_path, body, want):
        # A pipe cannot be read twice, so it goes the cell-by-cell route.
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("a,b\n" + body,),
                                  daemon=True)
        writer.start()
        try:
            if isinstance(want, str):
                with pytest.raises(DataError, match=f"^{re.escape(f'{fifo}: {want}')}$"):
                    load_csv(fifo)
            else:
                assert load_csv(fifo).values.tolist() == want
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_fixtures_shapes(self, oecd_data, exam_data):
        assert oecd_data.values.shape == (22, 6)
        assert oecd_data.variable_names == ("Y60", "Y85", "I/Y", "SCH", "POP", "RD")
        assert exam_data.values.shape == (88, 5)
        assert exam_data.variable_names == ("mec", "vec", "alg", "ana", "sta")


#: Cells where Python ``float()`` and a vectorised parser may disagree:
#: quotes, underscores, non-ASCII digits and spaces, non-finite values,
#: blanks, text and comment marks.
_ODD_CELLS = ['"1.5"', '" -2 "', "1_0", "\uff11", "\u0663", " 3\xa0", "inf",
              "-Infinity", "nan", "1e400", "-1e400", "5e-324", "", " ", "x",
              "#1", "0x1", "1e", "+.5", "5."]
_PLAIN_CELLS = st.one_of(
    st.integers(-99, 99).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def _csv_files(draw):
    """CSV files: mostly plain numbers, with odd cells, CRLF or lone-CR line
    ends, blank, whitespace-only and ``#`` lines, trailing commas, ragged
    rows, a header of another width, a header-only file, one column or row
    and a byte-order mark."""
    m = draw(st.sampled_from([1, 1, 2, 3]))
    n = draw(st.sampled_from([0, 1, 2, 3, 6, 6]))
    # Half the files are plain numbers, with at most blank lines in between.
    odd = draw(st.booleans())
    cell = st.one_of(_PLAIN_CELLS, _PLAIN_CELLS, st.sampled_from(_ODD_CELLS))
    cells = st.lists(cell if odd else _PLAIN_CELLS, min_size=m, max_size=m)
    extras = ["blank", "spaces", "comment", "trailing comma", "short", "long"]
    # Now and then the header has a column more or less than every row.
    h = draw(st.sampled_from([m] * 6 + [m + 1] + [max(m - 1, 1)]))
    lines = ["a,b,c,d"[: 2 * h - 1]]
    for _ in range(n):
        row = draw(cells)
        extra = draw(st.sampled_from(["none"] * 12 + (extras if odd else ["blank"])))
        if extra == "short":
            row = row[:-1]
        elif extra == "long":
            row = row + ["1"]
        lines.append(",".join(row) + ("," if extra == "trailing comma" else ""))
        if extra in ("blank", "spaces", "comment"):
            lines.append({"blank": "", "spaces": " \t ", "comment": "# note"}[extra])
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + end.join(lines) + (end if draw(st.booleans()) else "")


def _outcome(load, path):
    """The values (as bytes), shape and names ``load`` reads from ``path``,
    or its error class and message; and the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            d = load(path)
            result = (d.values.tobytes(), d.values.shape, d.variable_names)
        except DataError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(text=_csv_files())
def test_load_csv_matches_cell_by_cell_parse(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        got, caught = _outcome(load_csv, path)
        want, _ = _outcome(load_csv_cell_by_cell, path)
    assert caught == []
    assert got == want


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

    @pytest.mark.parametrize("value", [0.0, 1e-300, 0.1, -7.3, 1e20, 1e300])
    def test_standardize_rejects_constant_at_any_scale(self, value):
        x = np.random.default_rng(16).normal(size=(50, 2))
        x[:, 0] = value
        with pytest.raises(ConstantColumnError, match="^constant column\\(s\\): a$"):
            standardize(DataMatrix(x, ("a", "b")))

    def test_standardize_accepts_a_faint_column(self):
        # An sd of about 1e-13 is small in absolute terms, not relative to
        # the column's own values: the column varies.
        x = np.random.default_rng(0).normal(size=(50, 3)) * [1e-13, 1.0, 1.0]
        d = standardize(DataMatrix(x, ("a", "b", "c")))
        assert np.allclose(d.values.std(axis=0, ddof=1), 1.0)

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
