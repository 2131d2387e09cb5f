import csv
import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "pool_check", ROOT / "tools" / "pool_check.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _no_runs(src, name):
    raise AssertionError(f"ran pool {name!r}")


def test_unknown_workload_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert _tool().main(["pmd-scan", "no-such"]) == 2
    assert "unknown pool 'no-such'" in capsys.readouterr().err


def test_cli_pool_needs_against(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    monkeypatch.setattr(tool, "outputs", _no_runs)
    assert tool.main(["cli"]) == 2
    assert capsys.readouterr().err == (
        "pool 'cli' has no references; compare it with --against\n"
    )


def test_lists_the_first_difference_of_each_input(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import mismatch

    tool = _tool()

    refs = {"0": {"v": 0}, "1": {"v": 5}, "2": {"v": 4}, "3": {"v": 6}}
    (tmp_path / "fake.json").write_text(json.dumps(refs))
    monkeypatch.setattr(tool, "REFERENCES", tmp_path)

    def analyze(i):
        if i == 3:
            raise RuntimeError("exit 3")
        return 2 * i

    fake = SimpleNamespace(
        name="fake", pool=4, build=lambda i, work: i, analyze=analyze,
        canonical=lambda r: {"v": r},
    )
    assert tool.check(fake, mismatch, tool.analyses(fake)) == [
        "pool id 1: ./v: got 2, want 5",
        "pool id 3: RuntimeError: exit 3",
    ]


def test_describe_names_the_first_path_and_the_largest_relative_difference():
    describe = _tool().describe
    assert describe('{"v": [1.0, 2]}', '{"v": [1.0, 2]}') is None
    assert describe('{"a": 1.0, "b": [4.0, 2.0]}', '{"a": 1.0, "b": [5.0, 2.2]}') == (
        "./b[0]: 4.0 -> 5.0; max rel diff 0.2"
    )
    # A difference in structure has numbers that do not pair up.
    assert describe('{"a": [1]}', '{"a": [1, 2]}') == "./a: [1] -> [1, 2]; max rel diff n/a"
    # Equal numbers with different JSON text are not byte-identical.
    assert describe('{"a": -0.0}', '{"a": 0.0}') == "./a: -0.0 -> 0.0; max rel diff 0"
    # Numbers inside a string leaf are compared token by token.
    assert describe('{"note": "pivot 2e-15 at 3"}', '{"note": "pivot 3e-15 at 3"}') == (
        "./note: 'pivot 2e-15 at 3' -> 'pivot 3e-15 at 3'; max rel diff 0.333"
    )


def test_describe_compares_error_texts_by_line():
    describe = _tool().describe
    assert describe("error: RuntimeError: boom", '{"v": 2}') == (
        "line 1: 'error: RuntimeError: boom' -> '{\"v\": 2}'; max rel diff n/a"
    )
    assert describe("error: RuntimeError: exit 3", "error: RuntimeError: exit 4") == (
        "line 1: 'error: RuntimeError: exit 3' -> 'error: RuntimeError: exit 4'; "
        "max rel diff 0.25"
    )


def test_describe_names_the_first_line_and_the_largest_relative_difference():
    describe = _tool().describe
    assert describe("a 1.5\n", "a 1.5\n") is None
    old = "rep,ec\n0,0.25\n1,2.0\n--- exit 0\n"
    new = "rep,ec\n0,0.2500000000000001\n1,2.5\n--- exit 0\n"
    assert describe(old, new) == (
        "line 2: '0,0.25' -> '0,0.2500000000000001'; max rel diff 0.2"
    )
    assert describe("x 1\n", "x 1\ny\n") == "line 2: '<none>' -> 'y'; max rel diff 0"
    assert describe("x 1\n", "x 1 2\n").endswith("max rel diff n/a")


def test_against_lists_inputs_that_are_not_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    tool = _tool()
    # No references exist for the fake workload: --against must not read them.
    monkeypatch.setattr(tool, "REFERENCES", tmp_path / "none")
    monkeypatch.setitem(workloads.WORKLOADS, "fake", SimpleNamespace(name="fake"))
    calls = []

    def outputs(src, name):
        calls.append((src, name))
        if src == ROOT / "src":
            return ['{"v": 0}', '{"v": 1}', '{"v": 2}']
        return ['{"v": 0}', '{"v": 1.0}', "error: RuntimeError: boom"]

    monkeypatch.setattr(tool, "outputs", outputs)
    other = tmp_path / "other"
    (other / "src" / "spla").mkdir(parents=True)
    assert tool.main(["--against", str(other), "fake"]) == 1
    assert calls == [(ROOT / "src", "fake"), (other.resolve() / "src", "fake")]
    assert capsys.readouterr().out.splitlines() == [
        f"fake: 1 of 3 identical to {other}",
        "  pool id 1: ./v: 1.0 -> 1; max rel diff 0",
        "  pool id 2: line 1: 'error: RuntimeError: boom' -> '{\"v\": 2}'; "
        "max rel diff n/a",
    ]


def test_against_compares_kernels_lines_as_text(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    # Two digests whose digit runs pair up one for one, and two error texts
    # with one number each: none of them is a number to compare.
    old = ["1a" * 32 + "\n", "error: NoConvergenceError: in 300 iterations\n"]
    new = ["2a" * 32 + "\n", "error: NoConvergenceError: in 200 iterations\n"]
    monkeypatch.setattr(tool, "outputs",
                        lambda src, name: new if src == ROOT / "src" else old)
    other = tmp_path / "other"
    (other / "src" / "spla").mkdir(parents=True)
    assert tool.main(["--against", str(other), "kernels"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"kernels: 0 of 2 identical to {other}",
        f"  spca-oecd pool id 0: line 1: '{'1a' * 32}' -> '{'2a' * 32}'; "
        "max rel diff n/a",
        "  spca-oecd pool id 1: line 1: 'error: NoConvergenceError: in 300 iterations' "
        "-> 'error: NoConvergenceError: in 200 iterations'; max rel diff n/a",
    ]


def test_exit_status(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    assert tool.main(["--against", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"--against {tmp_path}: no src/spla there\n"

    # A checkout against itself: one real CLI case, byte-identical.
    monkeypatch.setattr(tool, "CLI_CASES", [["simulate", "ec", "--reps", "1", "--n", "30"]])
    assert tool.main(["--against", str(ROOT), "cli"]) == 0
    assert capsys.readouterr().out == f"cli: 1 of 1 identical to {ROOT}\n"

    # Outputs that differ in one case make the status 1.
    (tmp_path / "src" / "spla").mkdir(parents=True)
    csv = str(ROOT / "src" / "spla" / "fixtures" / "exam.csv")
    monkeypatch.setattr(tool, "CLI_CASES", [["analyze", csv], ["b"]])

    def outputs(src, name):
        new = src == ROOT / "src"
        return [f"a {1.0 + 1e-15 * new}\n", "b 2.0\n"]

    monkeypatch.setattr(tool, "outputs", outputs)
    assert tool.main(["--against", str(tmp_path), "cli"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"cli: 1 of 2 identical to {tmp_path}",
        "  analyze exam.csv: line 1: 'a 1.0' -> 'a 1.000000000000001'; "
        "max rel diff 1.11e-15",
    ]


def test_cli_csv_cases_read_their_files_by_relative_name(tmp_path, monkeypatch):
    import spla.data

    tool = _tool()
    cases = [case for case in tool.CLI_CASES if case[1] in tool.CLI_CSV]
    assert [case[1] for case in cases] == list(tool.CLI_CSV)
    # Of the files that load, the first two take the vectorised route of
    # load_csv and the other three the cell-by-cell route.
    loads = ("plain.csv", "two-line-header.csv", "quoted.csv", "spaces.csv",
             "plain.csv.gz")
    for name, at_once in zip(loads, (True, True, False, False, False)):
        path = tmp_path / name
        path.write_text(tool.CLI_CSV[name], encoding="utf-8")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            body = spla.data._body_at_once(path, fh, reader.line_num, 3)
        assert (body is not None) == at_once
    monkeypatch.setattr(tool, "CLI_CASES", cases)
    runs = dict(zip(tool.CLI_CSV, tool.outputs(ROOT / "src", "cli")))
    report, tail = runs["plain.csv"].split("--- stderr\n")
    assert tail == "--- exit 0\n"
    assert json.loads(report)["partition"] == [["a", "b", "c"]]
    assert all(runs[name] == runs["plain.csv"] for name in loads)
    for name, error in (
        ("bad-cell.csv", "row 5, column 'b': non-numeric value 'oops'"),
        ("ragged.csv", "row 8 has 2 fields, expected 3"),
        ("header-only.csv", "no data rows"),
        ("empty.csv", "empty file"),
        ("bom.csv", "empty file"),
    ):
        assert runs[name] == f"--- stderr\ndata error: {name}: {error}\n--- exit 2\n"
    # The block design's PMD budgets: all but the two sparsest detect the
    # single block, so their factors stop once the supports connect.
    report = json.loads(runs["blocks30.csv"].split("--- stderr\n")[0])
    assert [g["n_blocks"] for g in report["penalty_trace"]] == [1] * 29 + [15, 30]


def test_other_outputs_runs_the_other_package(tmp_path, monkeypatch):
    # A stand-in workloads module and package: each subprocess must import
    # the package under the given src/, whatever PYTHONPATH says.
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "workloads.py").write_text(
        "import os\n"
        "from types import SimpleNamespace\n"
        "import spla\n"
        "WORKLOADS = {'fake': SimpleNamespace(\n"
        "    name='fake', pool=2, build=lambda i, work: i,\n"
        "    analyze=lambda i: [spla.VALUE * i, os.environ['OPENBLAS_NUM_THREADS']],\n"
        "    canonical=lambda r: {'v': r})}\n"
    )
    package = tmp_path / "src" / "spla"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("VALUE = 7\n")
    (package / "cli.py").write_text(
        "import os, sys\n"
        "from spla import VALUE\n"
        "print(VALUE, os.environ['OMP_NUM_THREADS'], sys.argv[1:])\n"
        "sys.exit('bad')\n"
    )
    tool = _tool()
    monkeypatch.setattr(tool, "PERFBENCH", bench)
    monkeypatch.setattr(tool, "CLI_CASES", [["x", "y"]])
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert tool.outputs(tmp_path / "src", "fake") == [
        '{"v": [0, "1"]}', '{"v": [7, "1"]}',
    ]
    assert tool.outputs(tmp_path / "src", "cli") == [
        "7 1 ['x', 'y']\n--- stderr\nbad\n--- exit 1\n",
    ]


def test_kernels_pool_needs_against(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    monkeypatch.setattr(tool, "outputs", _no_runs)
    assert tool.main(["kernels"]) == 2
    assert capsys.readouterr().err == (
        "pool 'kernels' has no references; compare it with --against\n"
    )


def test_kernel_texts_hash_each_grid_point(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    from spla import data, pipeline, sparse_loadings

    tool = _tool()
    # One input of each benchmark pool, the four fixture covariances, the
    # eight block-diagonal ones and the two block design samples; then the
    # block inputs again for the PMD kernel.
    small = {name: SimpleNamespace(pool=1, build=workloads.WORKLOADS[name].build)
             for name in ("spca-oecd", "pmd-scan")}
    runs = list(tool.kernel_runs(small))
    blocks = [
        "block-diagonal 3+3", "block-diagonal 2+4", "block-diagonal 1+5",
        "block-diagonal 1+2+3", "block-diagonal 2+2+2", "block-diagonal 1+1+4",
        "block-diagonal 4+4+4+2", "block-diagonal 5+5+3+3",
        "block design M = 14", "block design M = 30",
    ]
    assert [label for label, _ in runs] == [
        "spca-oecd pool id 0", "oecd", "oecd --standardize", "exam",
        "exam --standardize", *blocks, "pmd-scan pool id 0",
        *(f"pmd {label}" for label in blocks),
    ]
    # The M = 30 design sample takes most of the pool's time; the M = 14
    # one runs the same code.
    monkeypatch.setattr(tool, "DESIGN_BLOCKS", (7,))
    texts = tool.kernel_texts(small)
    lines = [text.splitlines() for text in texts]
    # The PMD grid has M + 1 points: 7 at M = 6, then M = 14, 16 and 14.
    assert [len(x) for x in lines] == [12] * 14 + [15] + [7] * 6 + [15, 17, 15]
    assert all(re.fullmatch(r"[0-9a-f]{64}|error: \w+Error: .+", x)
               for text in lines for x in text)
    # The standardized OECD fixture: the four smallest penalties stall.
    oecd = data.sample_cov(data.standardize(data.load_csv(tool.FIXTURES / "oecd.csv")))
    grid = pipeline.SplaConfig(method="spca").resolved_grid(6)
    want = [
        f"error: {type(r).__name__}: {r}" if isinstance(r, Exception)
        else hashlib.sha256(r.tobytes()).hexdigest()
        for r in sparse_loadings.elastic_net_loadings(oecd.values, grid)
    ]
    assert lines[2] == want
    assert want[:4] == ["error: NoConvergenceError: elastic-net loadings did not "
                        "converge in 300 iterations"] * 4


@pytest.mark.parametrize("sizes", [(3, 3), (1, 2, 3), (1, 1, 4)])
def test_block_diagonal_inputs_have_exact_zeros_between_blocks(sizes):
    s = _tool().block_diagonal(sizes, 0)
    label = np.repeat(np.arange(len(sizes)), sizes)
    between = label[:, None] != label
    assert s.shape == (6, 6) and np.array_equal(s, s.T)
    assert np.all(s[between] == 0.0) and not np.any(np.signbit(s[between]))
    assert np.all(s[~between] != 0.0)
    assert np.linalg.eigvalsh(s).min() > 0
    # Exact zeros reach the loadings.
    from spla import SplaConfig, elastic_net_loadings

    got = elastic_net_loadings(s, SplaConfig(method="spca").resolved_grid(6))
    assert any(isinstance(r, np.ndarray) and np.count_nonzero(r) < r.size for r in got)
