"""The benchmark's per-layer metrics name functions the tracer can find.

``perfbench/spans.py`` wraps the functions each layer lists in ``__all__``
and reports ``layer.func.calls`` and ``layer.func.self_s`` only for those.
A metric in ``BENCHMARK.json`` that names anything else has no value, and
the harness fails on it when it assembles a traced run's metrics. A metric
that names a function the analysis bypasses reads 0, so the scan is traced
too.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

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


@pytest.mark.parametrize(
    ("method", "grid", "loadings"),
    [
        ("pmd", (2.0, 1.5), "sparse_loadings.sparse_loading_matrix"),
        # At smaller penalties the elastic net does not converge on this
        # covariance, and a grid point that ends there detects nothing.
        ("spca", (5.0,), "sparse_loadings.elastic_net_loadings"),
        ("spca", (5.0, 20.0, (5.0, 5.0, 5.0, 2.0, 2.0)),
         "sparse_loadings.elastic_net_loadings"),
    ],
)
def test_scan_calls_the_traced_routes(monkeypatch, exam_cov, method, grid, loadings):
    # Either route computes the whole grid's loadings with one call; every
    # grid point then detects its blocks through the public function. So
    # the metrics count both routes' work.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from spans import Tracer

    import spla.pipeline

    tracer = Tracer()
    tracer.install(0)
    try:
        spla.pipeline.structure_scan(
            exam_cov, spla.pipeline.SplaConfig(method=method, grid=grid)
        )
    finally:
        tracer.remove()
    calls = tracer.calls_in([0])
    assert calls[loadings] == 1
    assert calls["blocks.detect_blocks"] == len(grid)
    if method == "pmd":
        assert calls["sparse_loadings.penalized_rank_one"] >= 1
