"""Compare the CLI output of this checkout with another checkout's.

Run from anywhere in a checkout:

    python3 tools/cli_check.py OTHER_CHECKOUT

Each case of ``CASES`` runs ``python3 -m spla.cli`` once against the other
checkout's ``src/`` and once against this one's, in a subprocess with one
BLAS thread. The input CSVs are this checkout's fixtures, so both runs see
the same argument list. Stdout, stderr and the exit code are compared: a
case prints ``same``, or its first differing line in each checkout and the
largest relative difference between the numeric tokens of the two outputs
(``n/a`` when their token counts differ). The exit status is 0 when every
case is byte-identical, 1 otherwise and 2 when ``OTHER_CHECKOUT`` has no
``src/spla``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "spla" / "fixtures"


def _cases() -> list[list[str]]:
    out = []
    for name in ("oecd", "exam"):
        csv = str(FIXTURES / f"{name}.csv")
        for flags in ([], ["--format", "json"], ["--standardize"],
                      ["--standardize", "--format", "json"],
                      ["--method", "spca", "--standardize", "--format", "json"]):
            out.append(["analyze", csv, *flags])
    # Full-precision paths through an explicit --order, which also pins the
    # within-block weight basis; in the second a block whose variables are
    # not in ascending order comes before other blocks.
    for order in ("vec;mec;alg,ana,sta", "sta,alg,ana;vec;mec"):
        out.append(["analyze", str(FIXTURES / "exam.csv"), "--method", "spca",
                    "--grid", "2,5/5/5/2/2", "--order", order, "--format", "json"])
    out += [["reproduce", f] for f in ("oecd", "exam", "synthetic8", "synthetic10")]
    out += [
        ["simulate", "rate", "--reps", "6", "--rho", "0.3", "--n", "200"],
        ["simulate", "rate", "--reps", "4", "--n", "150", "--seed", "3",
         "--format", "json"],
        ["simulate", "wishart", "--reps", "5"],
        ["simulate", "wishart", "--reps", "5", "--format", "json"],
        ["simulate", "ec", "--reps", "3", "--n", "50", "--seed", "9"],
        ["simulate", "ec", "--reps", "3", "--n", "50", "--seed", "9",
         "--blocks", "1,2", "--format", "json"],
        # Usage errors that must name the argument.
        ["simulate", "wishart", "--reps", "1", "--seed", "-1"],
        ["simulate", "rate", "--seed", "-5"],
        ["simulate", "ec", "--blocks", ","],
        ["simulate", "ec", "--n", "2", "--reps", "1"],
        ["simulate", "rate", "--n", "3", "--reps", "1"],
    ]
    out += [["analyze", str(FIXTURES / "exam.csv"), "--grid", grid]
            for grid in ("2,x", "5/x", "1:2:x")]
    return out


CASES = _cases()

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def run(src: Path, argv: list[str]) -> str:
    """Stdout, stderr and exit code of one CLI run, as one text."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "spla.cli", *argv], env=env, cwd=src,
        capture_output=True, text=True,
    )
    return f"{done.stdout}--- stderr\n{done.stderr}--- exit {done.returncode}\n"


def describe(old: str, new: str) -> str:
    """``same``, or the first differing line and the largest relative
    difference between numeric tokens."""
    if old == new:
        return "same"
    a, b = old.splitlines(), new.splitlines()
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    first = (f"line {i + 1}: {a[i] if i < len(a) else '<none>'!r} -> "
             f"{b[i] if i < len(b) else '<none>'!r}")
    na, nb = _NUMBER.findall(old), _NUMBER.findall(new)
    if len(na) != len(nb):
        return f"{first}; max rel diff n/a"
    rel = max(
        (abs(float(x) - float(y)) / max(abs(float(x)), abs(float(y)))
         for x, y in zip(na, nb) if float(x) != float(y)),
        default=0.0,
    )
    return f"{first}; max rel diff {rel:.3g}"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "spla").is_dir():
        print("usage: cli_check.py OTHER_CHECKOUT (a checkout with src/spla)",
              file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve() / "src"
    same = True
    for case in CASES:
        verdict = describe(run(other, case), run(ROOT / "src", case))
        label = " ".join(Path(a).name if a.endswith(".csv") else a for a in case)
        print(f"{label}: {verdict}", flush=True)
        same = same and verdict == "same"
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
