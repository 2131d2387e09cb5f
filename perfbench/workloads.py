"""The benchmark's workloads: seeded inputs, one analysis each, canonical outputs.

Every workload draws its inputs from a fixed pool of ``pool`` inputs whose
reference outputs are stored in ``references/<name>.json``. The run's seed
picks which pool inputs it uses and in which order, so the same seed always
gives the same inputs and every input has a recorded reference. Inputs are
built with the generators of ``spla.simulate`` (or from the vendored OECD
fixture) before any timing starts.

An analysis is one call into the program. It is made through the module
attribute (``pipeline.structure_scan``, ``cli.main``, ...) at call time, so the
wrappers of the traced run see it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable

import numpy as np
from spla import blocks, cli, data, evaluation, pipeline, simulate, variance

#: Relative tolerance for numeric report values against the reference. The
#: compared values (EC, shares, partial shares, penalties) depend on the
#: detected partition and the covariance only, so a kernel or ordering change
#: that keeps the partitions moves them by rounding (about 1e-12), while a
#: changed partition or formula moves them by far more than this.
REL_TOL = 1e-6

#: Tag mixed into the seed that permutes the pool, so the pool permutation is
#: independent of the generators' own seeds.
_ORDER_TAG = 0x5B1A


@dataclass(frozen=True)
class Workload:
    name: str
    #: Distinct inputs with a recorded reference.
    pool: int
    #: Inputs one run builds before timing; the timed loop cycles over them.
    per_run: int
    #: Inputs are taken round-robin from this many strata of the pool
    #: (pool id modulo ``strata``), e.g. to cycle over the design's rho values.
    strata: int
    #: Traced analyses whose call counts the traced run reports.
    trace_count: int
    #: ``(pool id, work dir) -> input``, run before timing.
    build: Callable[[int, Path], Any]
    #: ``input -> raw result``; the timed call into the program.
    analyze: Callable[[Any], Any]
    #: ``raw result -> JSON-compatible value`` compared with the reference.
    canonical: Callable[[Any], Any]


def run_pool_ids(w: Workload, seed: int) -> list[int]:
    """Pool ids one run uses, in order: a seeded permutation of each stratum,
    interleaved so consecutive inputs walk through the strata."""
    rng = np.random.default_rng([_ORDER_TAG, seed])
    per = w.pool // w.strata
    columns = [rng.permutation(per) * w.strata + r for r in range(w.strata)]
    return [int(i) for i in np.column_stack(columns).ravel()[: w.per_run]]


def _report_value(d: dict) -> dict:
    """A report's JSON value with each trace note reduced to whether it is set.

    The note text is a diagnostic message; whether a grid point failed is the
    behaviour, and its wording may change.
    """
    d = dict(d)
    d["penalty_trace"] = [
        {**{k: v for k, v in g.items() if k != "note"}, "has_note": bool(g["note"])}
        for g in d["penalty_trace"]
    ]
    return d


# --- pmd-scan ---------------------------------------------------------------

PMD_RHOS = (0.0, 0.3, 0.6)
PMD_N = 1000
_PMD_SEED0 = 1_000_000


def _build_pmd(i: int, _work: Path):
    design = simulate.BlockDesign(rho=PMD_RHOS[i % len(PMD_RHOS)])
    return data.sample_cov(simulate.gen_block_sample(design, PMD_N, _PMD_SEED0 + i))


def _analyze_pmd(cov):
    return pipeline.structure_scan(cov)


# --- spca-oecd --------------------------------------------------------------

_SPCA_SEED0 = 2_000_000


def _oecd():
    path = resources.files("spla") / "fixtures" / "oecd.csv"
    with resources.as_file(path) as p:
        return data.load_csv(p)


def _build_spca(i: int, _work: Path):
    oecd = _oecd()
    rows = np.random.default_rng(_SPCA_SEED0 + i).integers(0, oecd.n_obs, oecd.n_obs)
    return data.DataMatrix(oecd.values[rows], oecd.variable_names)


def _analyze_spca(d):
    return pipeline.run_spla(d, pipeline.SplaConfig(method="spca", standardize=True))


# --- eval-wide --------------------------------------------------------------

EVAL_BLOCKS = 30
EVAL_RHO = 0.2
EVAL_N = 200
EVAL_TAU = 0.1
_EVAL_SEED0 = 3_000_000


def _eval_design():
    return simulate.BlockDesign(n_blocks=EVAL_BLOCKS, rho=EVAL_RHO)


def _build_eval(i: int, _work: Path):
    return simulate.gen_block_sample(_eval_design(), EVAL_N, _EVAL_SEED0 + i)


def _analyze_eval(d):
    """Stages 2-4 on the known partition, then the eigenvector detector."""
    p = _eval_design().true_partition()
    cov = data.sample_cov(d)
    entries, min_ec, passed = evaluation.evaluate_partition(cov, p)
    cv = variance.corrected_variances(cov, evaluation.weight_basis(p))
    shares = variance.variance_shares(cv, cov, p)
    partial = [variance.partial_trace_share(cov, b.variable_indices) for b in p.blocks]
    detected = blocks.pla_detect(cov, EVAL_TAU)
    return {
        "ec": [e.ec for e in entries],
        "min_ec": min_ec,
        "passed": passed,
        "per_loading_sv": shares.per_loading_sv.tolist(),
        "block_sv": shares.block_sv.tolist(),
        "block_cv": shares.block_cv.tolist(),
        "partial_shares": partial,
        "pla_detect": (
            None if detected is None
            else [list(b.variable_indices) for b in detected.blocks]
        ),
    }


# --- ingest-large -----------------------------------------------------------

INGEST_N = 100_000
INGEST_GRID = "3.7,2.0,1.4"
_INGEST_SEED0 = 4_000_000


def _build_ingest(i: int, work: Path) -> Path:
    """Write a seeded M = 14, N = 100,000 sample as CSV (about 13 MB)."""
    d = simulate.gen_block_sample(simulate.BlockDesign(), INGEST_N, _INGEST_SEED0 + i)
    path = work / f"ingest-{i}.csv"
    np.savetxt(path, d.values, fmt="%.6f", delimiter=",",
               header=",".join(d.variable_names), comments="")
    return path


def _analyze_ingest(path: Path):
    out = path.with_suffix(".json")
    rc = cli.main(["analyze", str(path), "--grid", INGEST_GRID,
                   "--format", "json", "--out", str(out)])
    return rc, out.read_text(encoding="utf-8")


def _canonical_ingest(result) -> dict:
    rc, text = result
    if rc != 0:
        raise RuntimeError(f"spla analyze exited with {rc}")
    return _report_value(json.loads(text))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pmd-scan",
            pool=48, per_run=48, strata=len(PMD_RHOS), trace_count=2,
            build=_build_pmd, analyze=_analyze_pmd,
            canonical=lambda r: _report_value(r.to_json_dict()),
        ),
        Workload(
            "spca-oecd",
            pool=64, per_run=64, strata=1, trace_count=4,
            build=_build_spca, analyze=_analyze_spca,
            canonical=lambda r: _report_value(r.to_json_dict()),
        ),
        Workload(
            "eval-wide",
            pool=128, per_run=128, strata=1, trace_count=16,
            build=_build_eval, analyze=_analyze_eval,
            canonical=lambda r: r,
        ),
        Workload(
            "ingest-large",
            pool=12, per_run=4, strata=1, trace_count=1,
            build=_build_ingest, analyze=_analyze_ingest,
            canonical=_canonical_ingest,
        ),
    )
}


def rounded(value):
    """``value`` with floats cut to 12 significant digits, for storage."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(v) for v in value]
    return value


def mismatch(got, want, path: str = ".") -> str | None:
    """First difference between a canonical output and its reference, or None.

    ``got`` is compared after a JSON round trip, as the reference was stored.
    Structure, integers, booleans, strings and None must match exactly;
    floats must agree to :data:`REL_TOL` relative (absolute below 1).
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: got {got!r}, want keys {sorted(want)}"
        for k in want:
            diff = mismatch(got[k], want[k], f"{path}/{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: got {got!r}, want {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = mismatch(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(want, float) and type(got) in (int, float):
        ok = abs(got - want) <= REL_TOL * max(1.0, abs(want))
    else:
        ok = type(got) is type(want) and got == want
    return None if ok else f"{path}: got {got!r}, want {want!r}"
