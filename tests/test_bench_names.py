"""The benchmark's per-layer metrics name functions the tracer can find.

``perfbench/spans.py`` wraps the functions each layer lists in ``__all__``
and reports ``layer.func.calls`` and ``layer.func.self_s`` only for those.
A metric in ``BENCHMARK.json`` that names anything else has no value, and
the harness fails on it when it assembles a traced run's metrics.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())

TRACED = sorted({
    m["name"].rsplit(".", 1)[0]
    for m in SPEC["per_layer"]
    if m["name"].endswith((".calls", ".self_s"))
})


def test_some_metrics_are_traced():
    assert "sparse_loadings.penalized_rank_one" in TRACED


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_an_exported_function(name):
    layer, func = name.split(".")
    mod = importlib.import_module(f"spla.{layer}")
    assert func in mod.__all__
    fn = getattr(mod, func)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
