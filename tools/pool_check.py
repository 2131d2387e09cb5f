"""Check every pool input of the benchmark's workloads against its reference.

Run from anywhere in a checkout:

    python3 tools/pool_check.py [workload ...]

For each named workload (all of them by default) every pool input is built
with ``perfbench/workloads.py``, analyzed once, reduced to its canonical
output and compared with ``perfbench/references/<name>.json`` by
``workloads.mismatch``. One line ``name: k of n match`` is printed per
workload, then the first difference of each input that does not match. The
exit status is 0 when every input matches, 1 on any mismatch and 2 for an
unknown workload name.

Inputs written to disk (the ``ingest-large`` CSVs) go to a temporary
directory that is removed after each input; nothing under ``perfbench/`` is
written. This is the check a loading-side change runs on all four pools:
such a change keeps every output exactly when it keeps every grid point's
support pattern and error.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
REFERENCES = PERFBENCH / "references"


def check(w, mismatch) -> list[str]:
    """The first difference of each pool input of workload ``w`` that does
    not match its reference, as ``pool id <i>: <difference>``."""
    refs = json.loads((REFERENCES / f"{w.name}.json").read_text(encoding="utf-8"))
    diffs = []
    for i in range(w.pool):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                got = json.loads(json.dumps(w.canonical(w.analyze(w.build(i, Path(tmp))))))
                diff = mismatch(got, refs[str(i)])
            except Exception as exc:  # a failed analysis is a mismatch; go on
                diff = f"{type(exc).__name__}: {exc}"
        if diff is not None:
            diffs.append(f"pool id {i}: {diff}")
    return diffs


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    from workloads import WORKLOADS, mismatch

    unknown = [n for n in argv if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    ok = True
    for name in argv or list(WORKLOADS):
        w = WORKLOADS[name]
        diffs = check(w, mismatch)
        print(f"{name}: {w.pool - len(diffs)} of {w.pool} match", flush=True)
        for d in diffs:
            print(f"  {d}", flush=True)
        ok = ok and not diffs
    return 0 if ok else 1


if __name__ == "__main__":
    # One BLAS thread, as the benchmark runs (summation order can move last
    # bits); set before main imports numpy.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main(sys.argv[1:]))
