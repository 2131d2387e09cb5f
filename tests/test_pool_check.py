import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "pool_check", ROOT / "tools" / "pool_check.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_unknown_workload_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert _tool().main(["pmd-scan", "no-such"]) == 2
    assert "unknown workload 'no-such'" in capsys.readouterr().err


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
    assert tool.check(fake, mismatch) == [
        "pool id 1: ./v: got 2, want 5",
        "pool id 3: RuntimeError: exit 3",
    ]


def test_describe_names_the_first_path_and_the_largest_relative_difference():
    describe = _tool().describe
    assert describe('{"v": [1.0, 2]}', '{"v": [1.0, 2]}') is None
    assert describe('{"a": 1.0, "b": [4.0, 2.0]}', '{"a": 1.0, "b": [5.0, 2.2]}') == (
        "./b[0]: 4.0 -> 5.0; max rel diff 0.2"
    )
    assert describe('{"a": [1]}', '{"a": [1, 2]}') == "./a: [1] -> [1, 2]; max rel diff 0"
    # Equal numbers with different JSON text are not byte-identical.
    assert describe('{"a": -0.0}', '{"a": 0.0}') == "./a: -0.0 -> 0.0; max rel diff 0"


def test_against_lists_inputs_that_are_not_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    tool = _tool()
    assert tool.main(["--against", str(tmp_path), "fake"]) == 2
    assert "no src/spla" in capsys.readouterr().err

    refs = {str(i): {"v": i} for i in range(3)}
    (tmp_path / "fake.json").write_text(json.dumps(refs))
    monkeypatch.setattr(tool, "REFERENCES", tmp_path)
    fake = SimpleNamespace(
        name="fake", pool=3, build=lambda i, work: i, analyze=lambda i: i,
        canonical=lambda r: {"v": r},
    )
    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake)
    calls = []

    def other_outputs(src, name):
        calls.append((src, name))
        return ['{"v": 0}', '{"v": 1.0}', "error: RuntimeError: exit 3"]

    monkeypatch.setattr(tool, "other_outputs", other_outputs)
    other = tmp_path / "other"
    (other / "src" / "spla").mkdir(parents=True)
    assert tool.main(["--against", str(other), "fake"]) == 1
    assert calls == [(other.resolve() / "src", "fake")]
    assert capsys.readouterr().out.splitlines() == [
        "fake: 3 of 3 match",
        f"fake: 1 of 3 identical to {other}",
        "  pool id 1: ./v: 1.0 -> 1; max rel diff 0",
        "  pool id 2: .: 'error: RuntimeError: exit 3' -> {'v': 2}; max rel diff 0",
    ]


def test_other_outputs_runs_the_other_package(tmp_path, monkeypatch):
    # A stand-in workloads module and package: the subprocess must import
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
    (tmp_path / "src" / "spla").mkdir(parents=True)
    (tmp_path / "src" / "spla" / "__init__.py").write_text("VALUE = 7\n")
    tool = _tool()
    monkeypatch.setattr(tool, "PERFBENCH", bench)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert tool.other_outputs(tmp_path / "src", "fake") == [
        '{"v": [0, "1"]}', '{"v": [7, "1"]}',
    ]
