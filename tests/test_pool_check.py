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
