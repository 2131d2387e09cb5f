"""Benchmark of the spla package: seeded workloads, checked outputs, metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pmd-scan --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
they are its per-layer metrics. The line before it is a JSON object with the
details of the run: environment, per-analysis wall and CPU times, the median
and tail analysis time, failures.

    python3 perfbench/run.py --record [--workload NAME]

writes the reference outputs of every pool input (``references/``). Record
them only from a commit whose outputs are known to be right.

The analysis timings are in reference seconds: wall time scaled by the speed
of the machine, measured while the analysis ran by a fixed kernel that does
not call the program (``speed.py``). The detail line also holds the wall
figures. ``setup_s`` is in wall seconds.

The benchmark measures the program under ``src/`` of the checkout it sits in,
and exits with status 2 when that is missing.
"""

from __future__ import annotations

import os

# One BLAS thread: one caller in one process, with no threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
OUT = HERE / "out"

#: The keys of ``workloads.WORKLOADS``, which imports spla and so cannot be
#: imported before the checkout's ``src/`` is on the path.
WORKLOAD_NAMES = ("pmd-scan", "spca-oecd", "eval-wide", "ingest-large")

#: Fresh interpreters started per run to time ``import spla``; the median is
#: reported.
SETUP_RUNS = 11
#: Wall seconds between two timings of the speed kernel during an analysis.
PROBE_PERIOD_S = 0.05
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
#: The pinned fixture configurations executed once per run, untimed.
REPRODUCE_FIXTURES = ("oecd", "exam")


@dataclass
class Analysis:
    pool_id: int
    wall: float
    cpu: float
    result: Any = None
    error: str | None = None
    canonical: Any = None
    #: Wall seconds the speed probe took inside ``wall``.
    probe_s: float = 0.0
    #: Reference seconds per wall second while the analysis ran.
    scale: float = 1.0

    @property
    def ref_s(self) -> float:
        """The analysis time in reference seconds."""
        return (self.wall - self.probe_s) * self.scale


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write the reference outputs instead of measuring")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload is None and not args.record:
        p.error("--workload is required")
    return args


def _import_program() -> str | None:
    """Import spla from this checkout's ``src/``; returns why that failed."""
    if not (SRC / "spla" / "__init__.py").is_file():
        return f"no spla package under {SRC}"
    sys.path.insert(0, str(SRC))
    import spla

    if Path(spla.__file__).resolve().parent != (SRC / "spla").resolve():
        return f"spla imported from {spla.__file__}, not from {SRC}"
    return None


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(modules: tuple[str, ...]) -> list[float]:
    """Seconds until ``import <modules>`` returns, each in a fresh interpreter.

    These are wall seconds: the speed kernel, timed just before and after each
    interpreter, does not follow the start-up time of a new process.
    """
    code = (
        "import time; t = time.perf_counter(); import "
        + ", ".join(modules)
        + "; t = time.perf_counter() - t; import spla; print(t, spla.__file__)"
    )
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), inherited])))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, path = proc.stdout.split()
        if Path(path).resolve().parent != (SRC / "spla").resolve():
            raise RuntimeError(f"set-up imported spla from {path}")
        times.append(float(seconds))
    return times


def reproduce_cells(work: Path) -> dict[str, dict[str, bool]]:
    """``{fixture: {cell label: passed}}`` from ``spla reproduce``."""
    from spla import cli

    cells = {}
    for fixture in REPRODUCE_FIXTURES:
        out = work / f"reproduce-{fixture}.txt"
        try:
            cli.main(["reproduce", fixture, "--out", str(out)])
            text = out.read_text(encoding="utf-8")
        except Exception as exc:  # a fixture run that breaks loses every cell
            print(f"perfbench: reproduce {fixture}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            text = ""
        found = {}
        for line in text.splitlines():
            words = line.split()
            if not line.startswith("  ") or not words or words[-1] not in ("PASS", "FAIL"):
                continue
            label = line[: line.rindex(words[-1])].split(" computed ")[0].strip()
            found[label] = words[-1] == "PASS"
        cells[fixture] = found
    return cells


def run_one(w, pool_id: int, x, probe=None) -> Analysis:
    """One timed analysis, with the speed ``probe`` running during it if one
    is given; an exception is recorded, not raised."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with probe or contextlib.nullcontext():
            result, error = w.analyze(x), None
    except Exception as exc:  # a failed analysis is counted, the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    a = Analysis(pool_id, wall, time.process_time() - c0, result, error)
    if probe is not None:
        a.probe_s, a.scale = probe.probe_s, probe.scale()
    return a


def check(w, a: Analysis, references: dict) -> None:
    """Compare ``a`` with its reference; sets ``a.error`` on a mismatch."""
    from workloads import mismatch

    if a.error is not None:
        return
    try:
        a.canonical = json.loads(json.dumps(w.canonical(a.result)))
    except Exception as exc:  # e.g. a nonzero exit status of the CLI
        a.error = f"{type(exc).__name__}: {exc}"
        return
    diff = mismatch(a.canonical, references[str(a.pool_id)])
    if diff is not None:
        a.error = f"output differs from reference at {diff}"
    a.result = None


def tail(walls: list[float]) -> dict | None:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(walls)
    if n < 2 * TAIL_BEYOND:
        return None
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = -(-pct * n // 100)  # nearest rank, ceil(pct * n / 100)
    return {"value_s": sorted(walls)[rank - 1], "percentile": pct, "samples": n}


def _loop(seconds: float, minimum: int, step) -> float:
    """Call ``step(j)`` for j = 0, 1, ... while the next step, taking the mean
    step time so far, should end within ``seconds``, and at least ``minimum``
    times; returns the wall time."""
    t0 = time.perf_counter()
    j = 0
    while True:
        elapsed = time.perf_counter() - t0
        if j >= max(minimum, 1) and elapsed * (j + 1) / j > seconds:
            return elapsed
        step(j)
        j += 1


def measure(w, ids, inputs, seconds, references) -> tuple[dict, list[Analysis], dict]:
    from speed import Probe

    analyses: list[Analysis] = []
    probe = Probe(PROBE_PERIOD_S)

    def step(j):
        k = j % len(inputs)
        analyses.append(run_one(w, ids[k], inputs[k], probe))

    wall = _loop(seconds, 1, step)
    for a in analyses:
        check(w, a, references)
    ok = sum(a.error is None for a in analyses)
    ref_s = [a.ref_s for a in analyses]
    metrics = {
        "analyses_per_s": ok / sum(ref_s),
        "analysis_p50_s": statistics.median(ref_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / len(analyses),
    }
    detail = {
        "loop_wall_s": wall,
        "wall_analyses_per_s": ok / wall,
        "wall_analysis_p50_s": statistics.median(a.wall for a in analyses),
        "analysis_tail_s": tail(ref_s),
        "failed_frac": 1.0 - ok / len(analyses),
        "ref_s": ref_s,
        "probe_s": [a.probe_s for a in analyses],
        "scale": [a.scale for a in analyses],
    }
    return metrics, analyses, detail


def measure_traced(w, ids, inputs, seconds, references, spans_path: Path):
    """Pairs of traced and untraced analyses of the same input.

    The order inside a pair alternates. Counts are taken over the first
    ``w.trace_count`` traced analyses, which a seed fixes, so they repeat
    exactly; self times are means over every traced analysis.
    """
    from spans import Tracer

    tracer = Tracer()
    traced: list[Analysis] = []
    untraced: list[Analysis] = []
    input_mb = 0.0

    def step(j):
        nonlocal input_mb
        k = j % len(inputs)
        for with_trace in ((True, False) if j % 2 == 0 else (False, True)):
            if not with_trace:
                untraced.append(run_one(w, ids[k], inputs[k]))
                continue
            tracer.install(j)
            try:
                traced.append(run_one(w, ids[k], inputs[k]))
            finally:
                tracer.remove()
            if isinstance(inputs[k], Path):
                input_mb += inputs[k].stat().st_size / 1e6

    _loop(seconds, w.trace_count, step)
    for a in traced + untraced:
        check(w, a, references)

    n = len(traced)
    counted = range(w.trace_count)
    calls = tracer.calls_in(counted)
    self_s = tracer.self_seconds()
    metrics: dict[str, float] = {}
    for name in tracer.functions:
        metrics[f"{name}.calls"] = calls[name] / w.trace_count
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    load_s = tracer.span_seconds("data.load_csv")
    metrics["data.load_csv.mb_per_s"] = input_mb / load_s if load_s > 0 else 0.0

    grid = [g for a in traced[: w.trace_count] if isinstance(a.canonical, dict)
            for g in a.canonical.get("penalty_trace", ())]
    metrics["pipeline.grid_points"] = len(grid) / w.trace_count
    metrics["pipeline.gate_pass_ratio"] = (
        sum(g["passed"] for g in grid) / len(grid) if grid else 0.0)
    metrics["pipeline.grid_point_errors"] = (
        sum(g["has_note"] for g in grid) / w.trace_count)

    traced_s = sum(a.wall for a in traced)
    untraced_s = sum(a.wall for a in untraced)
    metrics["trace.traced_analyses_per_s"] = n / traced_s
    metrics["trace.untraced_analyses_per_s"] = n / untraced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0

    with open(spans_path, "w", encoding="utf-8") as fh:
        t0 = min((s[1] for s in tracer.spans), default=0.0)
        for name, start, end, parent, analysis in tracer.spans:
            fh.write(json.dumps([name, start - t0, end - t0, parent, analysis]) + "\n")
    detail = {
        "wrappers_left": tracer.leftover_wrappers(),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, traced + untraced, detail


def record(names, work: Path) -> None:
    from workloads import WORKLOADS, rounded

    REFERENCES.mkdir(exist_ok=True)
    cells = reproduce_cells(work)
    passing = {fx: sorted(k for k, ok in c.items() if ok) for fx, c in cells.items()}
    (REFERENCES / "reproduce.json").write_text(json.dumps(passing, indent=1) + "\n")
    for name in names:
        w = WORKLOADS[name]
        outputs = {}
        for i in range(w.pool):
            x = w.build(i, work)
            outputs[str(i)] = rounded(json.loads(json.dumps(w.canonical(w.analyze(x)))))
            if isinstance(x, Path):
                x.unlink()
            print(f"{name} {i + 1}/{w.pool}", file=sys.stderr, flush=True)
        path = REFERENCES / f"{name}.json"
        path.write_text(json.dumps(outputs, separators=(",", ":")) + "\n")


def run(args, work: Path) -> dict:
    from workloads import WORKLOADS, run_pool_ids

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    references = json.loads((REFERENCES / f"{w.name}.json").read_text(encoding="utf-8"))
    want_cells = json.loads((REFERENCES / "reproduce.json").read_text(encoding="utf-8"))

    # Untimed: the pinned fixture configurations, set-up time, the inputs.
    cells = reproduce_cells(work)
    lost_cells = [f"{fx}: {label}" for fx, labels in want_cells.items()
                  for label in labels if not cells[fx].get(label, False)]
    setup_modules = ("spla", "spla.cli") if w.name == "ingest-large" else ("spla",)
    setup = measure_setup(setup_modules)
    ids = run_pool_ids(w, args.seed)
    inputs = [w.build(i, work) for i in ids]

    if args.trace:
        spans_path = OUT / f"spans-{w.name}-seed{args.seed}.jsonl"
        metrics, analyses, detail = measure_traced(
            w, ids, inputs, args.seconds, references, spans_path)
        wanted = spec["per_layer"]
        correct_extra = not detail["wrappers_left"]
    else:
        metrics, analyses, detail = measure(w, ids, inputs, args.seconds, references)
        metrics["setup_s"] = statistics.median(setup)
        wanted = spec["end_to_end"]
        correct_extra = True

    failures = [f"pool input {a.pool_id}: {a.error}" for a in analyses if a.error]
    for line in failures[:5] + [f"lost reproduce cell {c}" for c in lost_cells]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "setup_s_samples": setup, "setup_modules": list(setup_modules),
        "pool_ids": [a.pool_id for a in analyses],
        "wall_s": [a.wall for a in analyses], "cpu_s": [a.cpu for a in analyses],
        "reproduce_cells_lost": lost_cells, "failures": failures[:20], **detail,
    }))
    return {
        "correct": not failures and not lost_cells and correct_extra,
        "attempted": len(analyses),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    problem = _import_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.record:
            record([args.workload] if args.workload else WORKLOAD_NAMES, work)
            return 0
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
