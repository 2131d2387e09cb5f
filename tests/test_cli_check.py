import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "cli_check", ROOT / "tools" / "cli_check.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_describe_names_the_first_line_and_the_largest_relative_difference():
    describe = _tool().describe
    assert describe("a 1.5\n", "a 1.5\n") == "same"
    old = "rep,ec\n0,0.25\n1,2.0\n--- exit 0\n"
    new = "rep,ec\n0,0.2500000000000001\n1,2.5\n--- exit 0\n"
    assert describe(old, new) == (
        "line 2: '0,0.25' -> '0,0.2500000000000001'; max rel diff 0.2"
    )
    assert describe("x 1\n", "x 1\ny\n") == "line 2: '<none>' -> 'y'; max rel diff 0"
    assert describe("x 1\n", "x 1 2\n").endswith("max rel diff n/a")


def test_exit_status(tmp_path, monkeypatch, capsys):
    tool = _tool()
    assert tool.main([str(tmp_path)]) == 2
    assert "usage" in capsys.readouterr().err

    # A checkout against itself: one real CLI case, byte-identical.
    monkeypatch.setattr(tool, "CASES", [["simulate", "ec", "--reps", "1", "--n", "30"]])
    assert tool.main([str(ROOT)]) == 0
    assert capsys.readouterr().out == "simulate ec --reps 1 --n 30: same\n"

    # Outputs that differ in one case make the status 1.
    (tmp_path / "src" / "spla").mkdir(parents=True)
    monkeypatch.setattr(tool, "CASES", [["a"], ["b"]])

    def fake_run(src, case):
        new = src == ROOT / "src"
        return f"{case[0]} {1.0 + 1e-15 * new if case[0] == 'a' else 2.0}\n"

    monkeypatch.setattr(tool, "run", fake_run)
    assert tool.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a: line 1: 'a 1.0' -> 'a 1.000000000000001'; max rel diff 1.11e-15",
        "b: same",
    ]
