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

    python3 tools/pool_check.py --against OTHER_CHECKOUT [workload ...]

also runs every pool input against the other checkout's ``src/``, in one
subprocess per workload with one BLAS thread; both runs use this checkout's
``perfbench/workloads.py`` to build, analyze and reduce. A second line
``name: k of n identical to OTHER_CHECKOUT`` follows, then, for each input
whose canonical JSON text is not byte-identical, its first differing path
(other -> this) and the largest relative difference between the numbers of
the two outputs. This covers workloads whose references are stale. The exit
status is then 0 only when every input also is identical, and 2 when
``OTHER_CHECKOUT`` has no ``src/spla``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
REFERENCES = PERFBENCH / "references"

#: Prefix of an output text that records a failed analysis instead of JSON.
ERROR = "error: "


def outputs(w) -> list[str]:
    """The canonical JSON text of each pool input of workload ``w``, or
    ``error: <class>: <message>`` where its analysis raised."""
    texts = []
    for i in range(w.pool):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                texts.append(json.dumps(w.canonical(w.analyze(w.build(i, Path(tmp))))))
            except Exception as exc:  # a failed analysis is an output; go on
                texts.append(f"{ERROR}{type(exc).__name__}: {exc}")
    return texts


def check(w, mismatch, texts: list[str] | None = None) -> list[str]:
    """The first difference of each pool input of workload ``w`` that does
    not match its reference, as ``pool id <i>: <difference>``. ``texts`` are
    the inputs' :func:`outputs`, computed here when not given."""
    refs = json.loads((REFERENCES / f"{w.name}.json").read_text(encoding="utf-8"))
    diffs = []
    for i, text in enumerate(outputs(w) if texts is None else texts):
        if text.startswith(ERROR):
            diff = text[len(ERROR):]
        else:
            diff = mismatch(json.loads(text), refs[str(i)])
        if diff is not None:
            diffs.append(f"pool id {i}: {diff}")
    return diffs


def _leaves(a, b, path: str = "."):
    """``(path, a, b)`` for each leaf whose JSON text differs, in order; a
    difference in structure is one leaf at the path where it starts."""
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        for key in a:
            yield from _leaves(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaves(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield path, a, b


def describe(old: str, new: str) -> str | None:
    """None when two output texts are byte-identical; else the first
    differing path (old -> new) and the largest relative difference."""
    if old == new:
        return None
    values = [t if t.startswith(ERROR) else json.loads(t) for t in (old, new)]
    found = list(_leaves(*values))
    path, a, b = found[0] if found else (".", old, new)
    rel = max(
        (abs(x - y) / max(abs(x), abs(y)) for _, x, y in found
         if all(type(v) in (int, float) for v in (x, y)) and x != y),
        default=0.0,
    )
    return f"{path}: {a!r} -> {b!r}; max rel diff {rel:.3g}"


def other_outputs(src: Path, name: str) -> list[str]:
    """:func:`outputs` of workload ``name`` with the package under ``src``,
    in a subprocess with one BLAS thread."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "outputs.json"
        code = (
            "import json, sys\n"
            f"sys.path[:0] = {[str(src), str(PERFBENCH), str(ROOT / 'tools')]!r}\n"
            "import pool_check, workloads\n"
            f"texts = pool_check.outputs(workloads.WORKLOADS[{name!r}])\n"
            f"open({str(out)!r}, 'w', encoding='utf-8').write(json.dumps(texts))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp, check=True,
                       stdout=subprocess.DEVNULL)
        return json.loads(out.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Check every pool input.")
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--against", metavar="OTHER_CHECKOUT")
    args = parser.parse_args(argv)
    if args.against and not (Path(args.against) / "src" / "spla").is_dir():
        print(f"--against {args.against}: no src/spla there", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    from workloads import WORKLOADS, mismatch

    unknown = [n for n in args.workloads if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    ok = True
    for name in args.workloads or list(WORKLOADS):
        w = WORKLOADS[name]
        texts = outputs(w)
        diffs = check(w, mismatch, texts)
        print(f"{name}: {w.pool - len(diffs)} of {w.pool} match", flush=True)
        for d in diffs:
            print(f"  {d}", flush=True)
        ok = ok and not diffs
        if args.against:
            theirs = other_outputs(Path(args.against).resolve() / "src", name)
            changed = [
                f"pool id {i}: {diff}"
                for i, diff in enumerate(map(describe, theirs, texts)) if diff
            ]
            print(f"{name}: {w.pool - len(changed)} of {w.pool} identical to "
                  f"{args.against}", flush=True)
            for d in changed:
                print(f"  {d}", flush=True)
            ok = ok and not changed
    return 0 if ok else 1


if __name__ == "__main__":
    # One BLAS thread, as the benchmark runs (summation order can move last
    # bits); set before main imports numpy.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main(sys.argv[1:]))
