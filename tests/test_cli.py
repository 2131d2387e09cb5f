import contextlib
import io
import json
import logging
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spla
from spla import DataError, NoConvergenceError, SplaConfig, load_csv
from spla.cli import (
    EXIT_DATA,
    EXIT_GOLDEN,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

OECD_CSV = str(Path(spla.__file__).parent / "fixtures" / "oecd.csv")

# A warning would reach a user's stderr ahead of the one-line diagnostic, but
# capsys does not see it; as an error it fails the test instead.
pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture()
def exam_csv(exam_data, tmp_path):
    path = tmp_path / "exam.csv"
    lines = [",".join(exam_data.variable_names)]
    for row in exam_data.values:
        lines.append(",".join(f"{v:.10g}" for v in row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestAnalyze:
    def test_json_output_schema(self, exam_csv, capsys):
        rc = main([
            "analyze", exam_csv,
            "--method", "spca", "--grid", "2,5/5/5/2/2",
            "--order", "vec;mec;alg,ana,sta",
            "--format", "json",
        ])
        assert rc == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert set(d) == {
            "partition", "ordering", "ec", "shares",
            "partial_shares", "recommendations", "penalty_trace",
        }
        assert d["partition"] == [["vec"], ["mec"], ["alg", "ana", "sta"]]
        assert d["ec"][0] is None
        [rec] = d["recommendations"]
        assert list(rec) == [
            "block", "block_sv", "sv_flagged", "partial_share", "verified", "discard",
        ]
        assert rec["block"] == ["vec"]
        assert rec["sv_flagged"] is True
        assert rec["verified"] is rec["discard"] is True

    def test_table_output(self, exam_csv, capsys):
        rc = main([
            "analyze", exam_csv,
            "--method", "spca", "--grid", "2,5/5/5/2/2",
            "--order", "vec;mec;alg,ana,sta",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "{vec}" in out
        assert "Penalty trace:" in out
        assert "discard" in out

    def test_out_file(self, exam_csv, tmp_path, capsys):
        dest = tmp_path / "report.json"
        rc = main([
            "analyze", exam_csv, "--method", "spca",
            "--grid", "5/5/5/2/2", "--format", "json", "--out", str(dest),
        ])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""
        json.loads(dest.read_text())

    def test_deterministic(self, exam_csv, capsys):
        args = ["analyze", exam_csv, "--method", "spca",
                "--grid", "5/5/5/2/2", "--format", "json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("method, first", [
        ("pmd", "pmd budget 2.23606797749979: "), ("spca", "spca point 1 of 12: "),
    ])
    def test_verbose_prints_one_line_per_grid_point(self, exam_csv, capsys, method, first):
        args = ["analyze", exam_csv, "--method", method, "--format", "json"]
        assert main(args) == EXIT_OK
        plain = capsys.readouterr()
        assert plain.err == ""
        points = len(SplaConfig(method=method).resolved_grid(5))
        for _ in range(2):  # the handler leaves with the call: no line twice
            assert main([*args, "--verbose"]) == EXIT_OK
            verbose = capsys.readouterr()
            assert verbose.out == plain.out
            lines = verbose.err.splitlines()
            assert len(lines) == points and lines[0].startswith(first)
        log = logging.getLogger("spla")
        assert not log.handlers and log.level == logging.NOTSET

    def test_missing_file_is_data_error(self, capsys):
        rc = main(["analyze", "/no/such/file.csv"])
        assert rc == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_usage_errors(self, exam_csv, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["analyze"]) == EXIT_USAGE
        assert main(["analyze", exam_csv, "--grid", "1:2"]) == EXIT_USAGE
        assert main(["analyze", exam_csv, "--grid", ","]) == EXIT_USAGE
        assert main(
            ["analyze", exam_csv, "--order", "nope;mec"]
        ) == EXIT_USAGE
        assert main(["analyze", exam_csv, "--method", "nmf"]) == EXIT_USAGE


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["simulate", "rate", "--rho", "1.0"], EXIT_USAGE),
        (["simulate", "ec", "--n", "1"], EXIT_USAGE),
        (["analyze", OECD_CSV, "--grid", "0:1:3"], EXIT_USAGE),
        (["analyze", OECD_CSV, "--method", "spca", "--grid", "0.1/0.1"], EXIT_USAGE),
        (["analyze", OECD_CSV, "--c-ec", "1.5"], EXIT_USAGE),
        (["simulate", "ec", "--blocks", "99"], EXIT_USAGE),
        (["simulate", "ec", "--blocks", "0"], EXIT_USAGE),
        (["simulate", "rate", "--reps", "0"], EXIT_USAGE),
        (["simulate", "ec", "--reps", "0"], EXIT_USAGE),
        (["simulate", "ec", "--reps", "-1"], EXIT_USAGE),
        (["simulate", "wishart", "--reps", "0"], EXIT_USAGE),
        (["simulate", "wishart", "--reps", "-1"], EXIT_USAGE),
        (["analyze", OECD_CSV, "--method", "spca", "--grid", "inf"], EXIT_USAGE),
    ],
    ids=[
        "rho-1", "n-1", "grid-from-0", "short-penalty-vector", "c-ec-above-1",
        "block-above-design", "block-0", "reps-0", "ec-reps-0", "ec-reps-negative",
        "wishart-reps-0", "wishart-reps-negative", "spca-grid-inf",
    ],
)
def test_errors_end_in_exit_code_and_one_line(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["simulate", "ec", "--reps", "-1"], "usage error: reps=-1 must be at least 1"),
        (["analyze", OECD_CSV, "--method", "spca", "--grid", "nan"],
         "usage error: penalties must be finite"),
        (["analyze", OECD_CSV, "--method", "spca", "--grid", "0.1/0.1/0.1/0.1/0.1/inf"],
         "usage error: penalties must be finite"),
        (["simulate", "wishart", "--reps", "1", "--seed", "-1"],
         "usage error: --seed -1 must be nonnegative"),
        (["simulate", "rate", "--seed", "-5"],
         "usage error: --seed -5 must be nonnegative"),
        (["simulate", "ec", "--blocks", ","],
         "usage error: --blocks ',' is not a comma list of block numbers"),
        (["simulate", "ec", "--blocks", "2,x"],
         "usage error: --blocks '2,x' is not a comma list of block numbers"),
        (["simulate", "ec", "--n", "2", "--reps", "1"],
         "usage error: --n 2 must be at least 15, one more than the design's "
         "14 variables"),
        (["simulate", "rate", "--n", "3", "--reps", "1"],
         "usage error: --n 3 must be at least 15, one more than the design's "
         "14 variables"),
        (["analyze", OECD_CSV, "--grid", "2,x"],
         "usage error: --grid item 'x' is not a number"),
        (["analyze", OECD_CSV, "--method", "spca", "--grid", "5/x"],
         "usage error: --grid item 'x' is not a number"),
        (["analyze", OECD_CSV, "--grid", "1:2:x"],
         "usage error: --grid item 'x' is not a whole number of steps"),
        (["analyze", OECD_CSV, "--grid", "1:2:1000000000000000"],
         "usage error: --grid steps 1000000000000000 outside 1..1000"),
        (["analyze", OECD_CSV, "--grid=1:1e400:3"],
         "usage error: --grid end '1e400' is not finite"),
        (["analyze", OECD_CSV, "--method", "spca", "--grid=0:1e400:2"],
         "usage error: --grid end '1e400' is not finite"),
        (["analyze", OECD_CSV, "--grid=-inf:2:3"],
         "usage error: --grid end '-inf' is not finite"),
        (["analyze", OECD_CSV, "--grid=-1e308:1e308:3"],
         "usage error: --grid range -1e+308:1e+308 is wider than a float"),
        (["simulate", "ec", "--n", "99999999999999999999", "--reps", "1"],
         "usage error: --n 99999999999999999999 must be at most 100000"),
        (["simulate", "rate", "--n", "100001", "--reps", "1"],
         "usage error: --n 100001 must be at most 100000"),
        (["simulate", "ec", "--reps", "1000000000000", "--n", "50"],
         "usage error: --reps 1000000000000 must be at most 100000"),
        (["simulate", "rate", "--reps", "100001"],
         "usage error: --reps 100001 must be at most 100000"),
        (["simulate", "wishart", "--reps", "99999999999999999999"],
         "usage error: --reps 99999999999999999999 must be at most 100000"),
        (["analyze", OECD_CSV, "--order", ";"], "usage error: --order is empty"),
        # An empty value is refused like a blank one, not read as "not given".
        (["analyze", OECD_CSV, "--order", ""], "usage error: --order is empty"),
        (["analyze", OECD_CSV, "--grid", ""], "usage error: grid '' is empty"),
        (["analyze", OECD_CSV, "--method", "spca", "--grid="],
         "usage error: grid '' is empty"),
        (["simulate", "wishart", "--reps", "1", "--n", "20"],
         "usage error: unrecognized arguments: --n 20"),
        (["simulate", "ec", "--reps", "1", "--n", "20", "--c-ec", "0.7"],
         "usage error: unrecognized arguments: --c-ec 0.7"),
        (["simulate", "rate", "--reps", "1", "--n", "20", "--blocks", "2"],
         "usage error: unrecognized arguments: --blocks 2"),
        (["simulate", "--reps", "2", "ec"],
         "usage error: --reps comes before the experiment name; flags follow "
         "it, e.g. spla simulate ec --reps 2"),
        # "--flag=--" is refused as "--flag --" is, whatever the flag's type.
        (["simulate", "ec", "--blocks=--"],
         "usage error: argument --blocks: expected one argument"),
        (["simulate", "rate", "--c-ec=--"],
         "usage error: argument --c-ec: expected one argument"),
        (["analyze", OECD_CSV, "--grid=--"],
         "usage error: argument --grid: expected one argument"),
    ],
    ids=[
        "ec-reps-negative", "spca-grid-nan", "spca-vector-with-inf",
        "wishart-seed-negative", "rate-seed-negative", "ec-blocks-comma",
        "ec-blocks-not-a-number", "ec-n-2", "rate-n-3", "grid-item",
        "grid-vector-item", "grid-steps", "grid-steps-too-many",
        "grid-end-1e400", "spca-grid-end-1e400", "grid-end-minus-inf",
        "grid-range-overflows",
        "ec-n-too-large", "rate-n-over-max", "ec-reps-too-large",
        "rate-reps-over-max", "wishart-reps-too-large", "order-empty",
        "order-empty-string", "grid-empty-string", "spca-grid-empty-string",
        "wishart-takes-no-n", "ec-takes-no-c-ec", "rate-takes-no-blocks",
        "flag-before-experiment", "ec-blocks-double-dash",
        "rate-c-ec-double-dash", "grid-double-dash",
    ],
)
def test_invalid_values_are_named(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


def test_numerical_error_exits_3(monkeypatch, capsys):
    def no_convergence(*_):
        raise NoConvergenceError("iteration did not converge")

    monkeypatch.setattr("spla.cli.run_spla", no_convergence)
    assert main(["analyze", OECD_CSV]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == "numerical error: iteration did not converge\n"
    assert captured.out == ""


def test_near_collinear_sample_exits_3(tmp_path, capsys):
    # Column b is a plus 1.6e-6 of a draw: the covariance passes the
    # relative Cholesky floor, but the single-block fallback's U^T S U,
    # whose corrected variances are its pivots, does not.
    x = np.random.default_rng(0).normal(size=(50, 4))
    x[:, 1] = x[:, 0] + 1.6e-6 * x[:, 1]
    path = tmp_path / "collinear.csv"
    path.write_text("a,b,c,d\n" + "".join(",".join(map(repr, row.tolist())) + "\n"
                                          for row in x))
    assert main(["analyze", str(path)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == "numerical error: pivot 9.18046e-13 at index 1\n"
    assert captured.out == ""


def test_grid_step_count_is_bounded():
    from spla.cli import MAX_GRID_STEPS, _parse_grid

    assert len(_parse_grid(f"1:2:{MAX_GRID_STEPS}")) == MAX_GRID_STEPS
    with pytest.raises(ValueError, match="^--grid steps 0 outside 1..1000$"):
        _parse_grid("1:2:0")
    with pytest.raises(ValueError, match="^--grid steps 1001 outside 1..1000$"):
        _parse_grid(f"1:2:{MAX_GRID_STEPS + 1}")


def test_too_few_rows_is_named(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,7\n2,9,1\n")
    assert main(["analyze", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == (
        "data error: 3 rows for 3 variables: the sample covariance needs at "
        "least 4 rows\n"
    )
    assert captured.out == ""


def test_blank_header_cell_is_data_error(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text(",b\n1,2\n3,5\n4,4\n")
    with pytest.raises(DataError, match="^variable names must not be empty$"):
        load_csv(path)
    assert main(["analyze", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "data error: variable names must not be empty\n"


def test_byte_order_mark_keeps_the_first_name(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes("a,b\n1,1\n2,-1\n3,-1\n4,1\n".encode("utf-8-sig"))
    assert main(["analyze", str(path), "--order", "b;a", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["partition"] == [["b"], ["a"]]


@settings(max_examples=50, deadline=None)
@given(
    experiment=st.sampled_from(["ec", "rate", "wishart"]),
    n=st.integers(-3, 40),
    reps=st.integers(-1, 2),
    seed=st.integers(-3, 3),
    blocks=st.text(alphabet="012789,x -", max_size=4),
)
def test_simulate_argv_ends_in_a_documented_exit_code(
    experiment, n, reps, seed, blocks
):
    argv = ["simulate", experiment, "--n", str(n), "--reps", str(reps),
            "--seed", str(seed), f"--blocks={blocks}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert 0 <= code <= 4
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        assert err.getvalue() == ""
    else:
        assert len(err.getvalue().splitlines()) == 1 and out.getvalue() == ""


@pytest.mark.parametrize("flags", [[], ["--standardize"]])
def test_overflowing_covariance_is_one_data_error(tmp_path, capsys, flags):
    path = tmp_path / "big.csv"
    path.write_text("a,b\n1e200,1\n-2e200,3\n5e199,2\n0,5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", str(path), *flags]) == EXIT_DATA
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == "data error: sample covariance overflows in column(s) a\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    ("flags", "code"), [([], EXIT_DATA), (["--standardize"], EXIT_OK)]
)
def test_disparate_column_scales_need_standardize(tmp_path, capsys, flags, code):
    # Column variances 1e14 apart: the relative Cholesky floor takes the
    # small columns' pivots for zero, so the covariance is refused as it is
    # and analyzed once standardized.
    x = np.random.default_rng(0).normal(size=(50, 3)) * [1e7, 1.0, 1.0]
    path = tmp_path / "scales.csv"
    np.savetxt(path, x, delimiter=",", header="a,b,c", comments="")
    assert main(["analyze", str(path), *flags]) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert captured.err == "" and captured.out
    else:
        assert captured.out == ""
        assert captured.err == (
            "data error: covariance matrix is not positive definite: "
            "pivot 0.695273 at index 1\n"
        )


#: Cells that overflow, are not finite, or are not numbers.
_ODD_CELLS = ["1e150", "-1e200", "1.7e308", "nan", "inf", "x", "", " "]
_NUMBERS = st.one_of(st.integers(-50, 50).map(lambda v: repr(v / 7)),
                     st.floats(-10.0, 10.0).map(repr))


@st.composite
def _csv_texts(draw):
    """Small CSV files: mostly plain numbers, with constant columns, odd
    cells, duplicate or blank names, ragged rows and a byte-order mark."""
    m = draw(st.integers(1, 4))
    n = draw(st.sampled_from([8] * 4 + [5, 1, 0]))
    names = draw(st.sampled_from([list("abcd")] * 8 + [list("aacd"), list(" bcd")]))
    cols = []
    for _ in range(m):
        col = draw(st.lists(_NUMBERS, min_size=n, max_size=n))
        kind = draw(st.sampled_from(["plain"] * 6 + ["constant", "odd"]))
        if n and kind == "constant":
            col = col[:1] * n
        elif n and kind == "odd":
            col[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_ODD_CELLS))
        cols.append(col)
    rows = [",".join(r) for r in zip(*cols)]
    if rows and draw(st.sampled_from([False] * 9 + [True])):
        rows[-1] += ",1"
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join([",".join(names[:m]), *rows]) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    text=_csv_texts(),
    method=st.sampled_from(["pmd", "spca"]),
    grid=st.one_of(
        st.none(), st.none(),
        st.sampled_from(["2,x", "5/x", "1:2:x", "1:2", ",", "nan", "0.5/1/2/3"]),
        st.builds("{}:{}:{}".format, st.sampled_from([0.01, 1.0, 1.5]),
                  st.sampled_from([1.0, 2.0, 9.0]), st.integers(-1, 5)),
    ),
    order=st.one_of(st.none(), st.none(), st.sampled_from(["b;a", "b,a;c", "d;c;b,a"]),
                    st.text(alphabet="abcd,;", max_size=6)),
    c_ec=st.sampled_from(["0.6", "0.6", "0.9", "1.5"]),
    extra=st.sampled_from([[], ["--standardize"], ["--format", "json"]]),
)
def test_analyze_argv_ends_in_a_documented_exit_code(
    text, method, grid, order, c_ec, extra
):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8")
        argv = ["analyze", str(path), "--method", method, "--c-ec", c_ec, *extra]
        argv += [] if grid is None else [f"--grid={grid}"]
        argv += [] if order is None else [f"--order={order}"]
        out, err = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(argv)
    assert 0 <= code <= 4
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        assert err.getvalue() == ""
    else:
        assert len(err.getvalue().splitlines()) == 1 and out.getvalue() == ""


@pytest.mark.parametrize(
    ("cell", "where"),
    [("nan", "observation 2, column 'b': non-finite value nan"),
     ("-1e400", "observation 2, column 'b': non-finite value -inf")],
)
def test_non_finite_cell_is_named(tmp_path, capsys, cell, where):
    path = tmp_path / "nan.csv"
    path.write_text(f"a,b\n1,2\n3,{cell}\n5,7\n2,1\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {where}\n"


@pytest.mark.parametrize("order", ["vec;vec", "vec,vec", "vec;mec,vec"])
def test_variable_named_twice_in_order_is_usage_error(exam_csv, capsys, order):
    # A repeated name can never match a partition; it is refused, not
    # silently dropped for the default order.
    assert main(["analyze", exam_csv, "--grid", "2", "--order", order]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: variable 'vec' appears twice in --order\n"


def test_non_utf8_csv_is_data_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
    with pytest.raises(DataError, match="not UTF-8 text"):
        load_csv(path)
    assert main(["analyze", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and len(err.splitlines()) == 1


#: The cells ``reproduce oecd`` checks (14), and the numeric cells of
#: ``reproduce exam`` (9).
_OECD_CELLS = (
    ["partition {I/Y}{SCH}{POP}{RD,Y85,Y60}"]
    + [f"EC block {i}" for i in (2, 3, 4)]
    + [f"block SV {i}" for i in (1, 2, 3, 4)]
    + ["final CV"]
    + [f"partial share {i}" for i in (1, 2, 3, 4)]
    + ["no discards"]
)
_EXAM_NUMERIC = (
    [f"EC block {i}" for i in (2, 3)]
    + [f"block SV {i}" for i in (1, 2, 3)]
    + ["final CV"]
    + [f"partial share {i}" for i in (1, 2, 3)]
)


def _cells(out: str) -> list[tuple[str, str]]:
    """The label and verdict of each checked cell of ``reproduce``, in order."""
    return [
        (line[:-4].split(" computed ")[0].strip(), line[-4:])
        for line in out.splitlines()
        if line.startswith("  ") and line.endswith(("PASS", "FAIL"))
    ]


class TestReproduce:
    # Each test pins its fixture's cells in order, so that a table edit cannot
    # drop, reorder or silently turn green a cell.
    def test_oecd_passes(self, capsys):
        rc = main(["reproduce", "oecd"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.strip().endswith("RESULT: PASS")
        assert "FAIL" not in out.replace("RESULT: PASS", "")
        assert _cells(out) == [(label, "PASS") for label in _OECD_CELLS]

    def test_exam_is_golden_failure(self, capsys):
        # Partition and discard agree with the reference table, the numeric
        # cells do not (criterion 4); the command reports per-cell status and
        # exits 4.
        rc = main(["reproduce", "exam"])
        out = capsys.readouterr().out
        assert rc == EXIT_GOLDEN
        assert "partition {vec}{mec}{alg,ana,sta}" in out
        assert "{vec} discard verified" in out
        assert out.strip().endswith("RESULT: FAIL")
        assert _cells(out) == (
            [("partition {vec}{mec}{alg,ana,sta}", "PASS")]
            + [(label, "FAIL") for label in _EXAM_NUMERIC]
            + [("{vec} discard verified", "PASS")]
        )

    def test_synthetic8_passes(self, capsys):
        assert main(["reproduce", "synthetic8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        assert _cells(out) == [("two-block EC > 0.999", "PASS")]

    def test_synthetic10_passes(self, capsys):
        assert main(["reproduce", "synthetic10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        assert _cells(out) == [
            ("two-block EC in [0.985, 0.995]", "PASS"),
            ("forced {9,10} EC < 0.01", "PASS"),
        ]

    def test_unknown_fixture(self):
        assert main(["reproduce", "nope"]) == EXIT_USAGE


class TestSimulate:
    def test_ec_csv(self, capsys):
        rc = main([
            "simulate", "ec", "--n", "50", "--reps", "3",
            "--rho", "0.1", "--seed", "9",
        ])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rep,block,ec"
        assert len(lines) == 1 + 3 * 3  # header + reps x default blocks 2,4,6

    def test_ec_json_blocks_flag(self, capsys):
        rc = main([
            "simulate", "ec", "--n", "50", "--reps", "2",
            "--blocks", "2", "--seed", "9", "--format", "json",
        ])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(r["block"] == 2 and 0 < r["ec"] <= 1 for r in rows)

    def test_ec_block_outside_design_names_typed_number(self, capsys):
        assert main(["simulate", "ec", "--blocks", "2,99"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--blocks 99 outside 1..7" in err
        assert "98" not in err

    def test_ec_first_block_is_marker(self, capsys):
        argv = ["simulate", "ec", "--n", "50", "--reps", "2", "--blocks", "1,2"]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["ec"] is None for r in rows] == [True, False, True, False]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "0,1," and lines[3] == "1,1,"
        assert 0 < float(lines[2].split(",")[2]) <= 1

    def test_rate_row(self, capsys):
        rc = main([
            "simulate", "rate", "--n", "100", "--rho", "0.0",
            "--reps", "2", "--seed", "9", "--format", "json",
        ])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert set(rows[0]) == {"detector", "n", "rho", "c_ec", "reps", "rate"}

    def test_wishart(self, capsys):
        rc = main(["simulate", "wishart", "--reps", "3", "--seed", "9"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rep,blocks,ec"
        assert len(lines) == 4
