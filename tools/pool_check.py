"""Check the benchmark's pool inputs, and compare outputs with another checkout.

Run from anywhere in a checkout:

    python3 tools/pool_check.py [pool ...]

checks every input of the named workloads (all of them by default) against
``perfbench/references/<name>.json`` with ``workloads.mismatch``, and prints
``name: k of n match`` per workload, then each mismatch.

    python3 tools/pool_check.py --against OTHER_CHECKOUT [pool ...]

runs every input of the named pools (all workloads, ``cli`` and ``kernels``
by default) on both checkouts and checks only that the outputs are
byte-identical. The ``cli`` pool is ``CLI_CASES``, 62 ``spla.cli`` runs
whose output is stdout, stderr and exit code; they run in a directory that
holds the ``CLI_CSV`` files. The ``kernels`` pool is 126 runs of the
loading kernels alone (:func:`kernel_runs`): its output is one line per grid
point, the sha256 of the loadings' bytes or the error that ended the point,
so a bit-for-bit claim about a kernel needs this one command. It prints ``name:
k of n identical to OTHER_CHECKOUT`` per pool, then, for each input that
differs, its first differing JSON path or line (other -> this) and the
largest relative difference between the numbers there.

Every run is a subprocess with one BLAS thread and only the checkout's
``src/`` on ``PYTHONPATH``; both use this checkout's ``perfbench/`` and
fixtures, and nothing under ``perfbench/`` is written. The exit status is 0
when every input matches, 1 otherwise and 2 for an unknown pool, for ``cli``
or ``kernels`` without ``--against`` or for an ``OTHER_CHECKOUT`` without
``src/spla``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
REFERENCES = PERFBENCH / "references"
FIXTURES = ROOT / "src" / "spla" / "fixtures"

#: Prefix of an output text that records a failed analysis instead of JSON.
ERROR = "error: "

#: The pool of CLI invocations; it has no references.
CLI = "cli"

#: The pool of loading-kernel runs; it has no references either.
KERNELS = "kernels"

#: A small sample (M = 3, N = 10) as CSV text.
_SAMPLE = (
    "a,b,c\n-0.80,-1.54,-0.25\n0.42,1.16,0.11\n-0.55,-0.96,0.75\n1.63,1.20,-1.23\n"
    "-0.96,0.71,0.20\n-1.73,-1.11,-1.16\n-0.63,-0.77,-0.71\n0.55,0.28,-0.59\n"
    "0.41,0.91,-1.64\n-0.26,-0.94,-0.17\n"
)

#: One more character than the ``csv`` module reads in one field.
_WIDE = csv.field_size_limit() + 1


def _collinear() -> str:
    """A sample (M = 4, N = 50) whose column ``b`` is ``a`` plus 1.6e-6 of
    a normal draw, as CSV text with round-trip floats. Its covariance passes
    the Cholesky pivot floor, but a later factor does not: exit 3."""
    x = np.random.default_rng(0).normal(size=(50, 4))
    x[:, 1] = x[:, 0] + 1.6e-6 * x[:, 1]
    return "a,b,c,d\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in x)


def _faint() -> str:
    """A sample (M = 3, N = 50) whose column ``a`` is a normal draw times
    1e-13, as CSV text with round-trip floats. The column varies, so
    ``--standardize`` analyzes it; as it is, the Cholesky pivot floor
    refuses the covariance: exit 2."""
    x = np.random.default_rng(0).normal(size=(50, 3)) * [1e-13, 1.0, 1.0]
    return "a,b,c\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in x)


def _blocks30() -> str:
    """A ``BlockDesign(n_blocks=15, rho=0.3)`` sample (M = 30, N = 1000, not
    standardized) as CSV text with round-trip floats: fifteen pairs, each
    with its own latent factor of variance 10, a shared factor of weight
    ``sqrt(rho)`` and unit noise. On the default grid 29 of 31 budgets
    detect the single block, and their factors stop once the supports
    connect every variable."""
    rng, rho = np.random.default_rng(0), 0.3
    z = rng.normal(0.0, np.sqrt(10.0), size=(1000, 15))
    y = rng.normal(0.0, np.sqrt(10.0), size=(1000, 1))
    x = (np.sqrt(1.0 - rho) * np.repeat(z, 2, axis=1) + np.sqrt(rho) * y
         + rng.normal(size=(1000, 30)))
    header = ",".join(f"X{j}" for j in range(1, 31))
    return header + "\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in x)


#: CSV files of the ``cli`` pool by name. Each is written into the run's
#: working directory and passed by that relative name, so the file name in a
#: diagnostic reads the same on both checkouts. The first three load the
#: same values: ``plain.csv`` in one vectorised pass, the next two cell by
#: cell (``np.loadtxt`` refuses a quoted cell and a whitespace-only line).
#: The next five exit 2 with a row, column or file diagnostic; the last two
#: of them are a 0-byte file and one that holds only a UTF-8 byte-order mark.
#: Then a header field and a quoted cell (a valid number) longer than the
#: ``csv`` module reads, each a data error, a near-collinear sample, a
#: numerical error, a 30-variable block design and a sample with one faint
#: column.
CLI_CSV = {
    "plain.csv": _SAMPLE,
    "quoted.csv": _SAMPLE.replace("0.42", '"0.42"'),
    "spaces.csv": _SAMPLE.replace("\n0.55", "\n  \t\n0.55"),
    "bad-cell.csv": _SAMPLE.replace("1.20", "oops"),
    "ragged.csv": _SAMPLE.replace(",-0.71", ""),
    "header-only.csv": "a,b,c\n",
    "empty.csv": "",
    "bom.csv": "\ufeff",
    "wide-header.csv": "a" * _WIDE + _SAMPLE[1:],
    "wide-cell.csv": _SAMPLE.replace("0.42", '"0.42' + "0" * _WIDE + '"'),
    "collinear.csv": _collinear(),
    "blocks30.csv": _blocks30(),
    "faint.csv": _faint(),
}


def _cli_cases() -> list[list[str]]:
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
    # The elastic net's whole grid at once: two stalled points, a scalar and
    # a per-loading point that detect blocks; then a bad per-loading entry,
    # a usage error although the point before it is good.
    out.append(["analyze", str(FIXTURES / "exam.csv"), "--method", "spca",
                "--grid", "0.05,2,5/5/5/2/2,50", "--format", "json"])
    out.append(["analyze", str(FIXTURES / "exam.csv"), "--method", "spca",
                "--grid", "0.5,0.1/0.1"])
    # The unstandardized OECD covariance: every point of the default grid
    # converges with a variable that no loading reaches, so none detects blocks.
    out.append(["analyze", str(FIXTURES / "oecd.csv"), "--method", "spca",
                "--format", "json"])
    # The penalized decomposition checks its whole grid before any point, and
    # the first bad entry's message wins: a budget outside [1, sqrt(M)], then
    # a per-loading vector.
    out += [["analyze", str(FIXTURES / "exam.csv"), "--grid", grid]
            for grid in ("9,5/5", "2,5/5,9")]
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
        # An out-of-range gate is a usage error; it wins over a bad replicate count.
        ["simulate", "rate", "--reps", "0", "--c-ec", "2"],
        ["simulate", "rate", "--reps", "1", "--n", "20", "--c-ec", "0"],
        ["analyze", str(FIXTURES / "exam.csv"), "--c-ec", "1"],
    ]
    out += [["analyze", str(FIXTURES / "exam.csv"), "--grid", grid]
            for grid in ("2,x", "5/x", "1:2:x", "1:2:1000000000000000")]
    # A lo:hi:steps grid that parses.
    out.append(["analyze", str(FIXTURES / "exam.csv"), "--grid", "1.2:2.2:3",
                "--format", "json"])
    out.append(["simulate", "ec", "--n", "99999999999999999999", "--reps", "1"])
    out.append(["simulate", "ec", "--reps", "1000000000000", "--n", "50"])
    # The single-block fallback: no grid point passes the gate.
    out.append(["analyze", str(FIXTURES / "exam.csv"), "--grid", "1",
                "--c-ec", "0.99", "--format", "json"])
    # A flag the experiment does not read is a usage error.
    out += [["simulate", "wishart", "--reps", "1", "--n", "20"],
            ["simulate", "ec", "--reps", "1", "--n", "20", "--c-ec", "0.7"],
            ["simulate", "rate", "--reps", "1", "--n", "20", "--blocks", "2"]]
    # A flag before the experiment name is a usage error that says where it goes.
    out.append(["simulate", "--reps", "2", "ec"])
    out += [["analyze", name, "--format", "json"] for name in CLI_CSV]
    # A column of sd 1e-13 is not constant: standardized, it is analyzed.
    # The flag comes first, so each file is case[1] of one case only.
    out.append(["analyze", "--standardize", "faint.csv", "--format", "json"])
    # One DEBUG line per grid point on stderr, stdout as without the flag.
    out.append(["analyze", str(FIXTURES / "oecd.csv"), "--method", "spca",
                "--standardize", "--verbose"])
    return out


CLI_CASES = _cli_cases()

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def analyses(w) -> list[str]:
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


#: Block sizes of the exactly block-diagonal ``kernels`` inputs: six at
#: M = 6, then M = 14 and 16.
BLOCK_SIZES = ((3, 3), (2, 4), (1, 5), (1, 2, 3), (2, 2, 2), (1, 1, 4),
               (4, 4, 4, 2), (5, 5, 3, 3))

#: Block counts of the ``BlockDesign(rho=0.3)`` samples (N = 1000,
#: standardized) among the ``kernels`` inputs: M = 14 and 30.
DESIGN_BLOCKS = (7, 15)


def block_diagonal(sizes, seed: int) -> np.ndarray:
    """An exactly block-diagonal covariance with blocks of consecutive
    variables of the given sizes: a random positive definite ``x x^T + M I``
    whose entries between blocks are set to 0.0."""
    m = sum(sizes)
    x = np.random.default_rng(seed).normal(size=(m, m))
    s = x @ x.T + m * np.eye(m)
    label = np.repeat(np.arange(len(sizes)), sizes)
    s[label[:, None] != label] = 0.0
    return s


def kernel_runs(workloads):
    """``(label, run)`` of each ``kernels`` input, in order; ``run()`` gives
    the loading kernel's results on the default grid. The inputs are each
    ``spca-oecd`` pool covariance, the OECD and exam fixtures, raw and
    standardized, the :data:`BLOCK_SIZES` block-diagonal covariances
    (:func:`block_diagonal`, whose exact zeros reach ``S A`` and the
    loadings) and the :data:`DESIGN_BLOCKS` block design samples, wider
    than any other ``spca`` input, for ``elastic_net_loadings``; then each
    ``pmd-scan`` covariance for ``sparse_loading_matrix``, as the scan
    calls it."""
    from spla import data, pipeline, simulate, sparse_loadings

    def spca(s):
        grid = pipeline.SplaConfig(method="spca").resolved_grid(len(s))
        return sparse_loadings.elastic_net_loadings(s, grid)

    def pmd(cov):
        grid = pipeline.SplaConfig().resolved_grid(cov.n_vars)
        return sparse_loadings.sparse_loading_matrix(cov.values, grid)

    w = workloads["spca-oecd"]
    for i in range(w.pool):
        yield (f"spca-oecd pool id {i}",
               lambda i=i: spca(data.sample_cov(data.standardize(w.build(i, None))).values))
    for name in ("oecd", "exam"):
        d = data.load_csv(FIXTURES / f"{name}.csv")
        yield name, lambda d=d: spca(data.sample_cov(d).values)
        yield (f"{name} --standardize",
               lambda d=d: spca(data.sample_cov(data.standardize(d)).values))
    for seed, sizes in enumerate(BLOCK_SIZES):
        yield (f"block-diagonal {'+'.join(map(str, sizes))}",
               lambda s=block_diagonal(sizes, seed): spca(s))
    for n_blocks in DESIGN_BLOCKS:
        design = simulate.BlockDesign(n_blocks=n_blocks, rho=0.3)
        yield (f"block design M = {design.n_vars}",
               lambda d=design: spca(data.sample_cov(
                   simulate.gen_block_sample(d, 1000, 1)).values))
    w = workloads["pmd-scan"]
    for i in range(w.pool):
        yield f"pmd-scan pool id {i}", lambda i=i: pmd(w.build(i, None))


def _digest(result) -> str:
    if isinstance(result, Exception):
        return f"{ERROR}{type(result).__name__}: {result}"
    return hashlib.sha256(result.tobytes()).hexdigest()


def kernel_texts(workloads) -> list[str]:
    """The output text of each ``kernels`` input: per grid point, one line,
    the sha256 of the loadings' ``tobytes()`` or ``error: <class>:
    <message>``."""
    return ["".join(_digest(r) + "\n" for r in run()) for _, run in kernel_runs(workloads)]


def _python(src: Path, args: list[str], cwd: str) -> subprocess.CompletedProcess:
    """``python3 args`` in ``cwd`` with only ``src`` on ``PYTHONPATH`` and
    one BLAS thread (summation order can move last bits)."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def outputs(src: Path, name: str) -> list[str]:
    """The output text of each input of pool ``name`` with the package under
    ``src``: :func:`analyses` of a workload, :func:`kernel_texts`, or one
    CLI run per case as its stdout, stderr and exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        if name == CLI:
            for csv_name, text in CLI_CSV.items():
                (Path(tmp) / csv_name).write_text(text, encoding="utf-8")
            runs = [_python(src, ["-m", "spla.cli", *case], tmp) for case in CLI_CASES]
            return [f"{r.stdout}--- stderr\n{r.stderr}--- exit {r.returncode}\n"
                    for r in runs]
        code = (
            "import json, sys\n"
            f"sys.path[:0] = {[str(PERFBENCH), str(ROOT / 'tools')]!r}\n"
            "import pool_check, workloads\n"
            + ("print(json.dumps(pool_check.kernel_texts(workloads.WORKLOADS)))\n"
               if name == KERNELS else
               f"print(json.dumps(pool_check.analyses(workloads.WORKLOADS[{name!r}])))\n")
        )
        run = _python(src, ["-c", code], tmp)
    if run.returncode:
        raise RuntimeError(f"{name} with {src} exited {run.returncode}:\n{run.stderr}")
    return json.loads(run.stdout)


def check(w, mismatch, texts: list[str]) -> list[str]:
    """The first difference of each of workload ``w``'s output ``texts``
    that does not match its reference, as ``pool id <i>: <difference>``."""
    refs = json.loads((REFERENCES / f"{w.name}.json").read_text(encoding="utf-8"))
    diffs = []
    for i, text in enumerate(texts):
        diff = (text[len(ERROR):] if text.startswith(ERROR)
                else mismatch(json.loads(text), refs[str(i)]))
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


def _numbers(v) -> list[float] | None:
    """The numbers of a leaf: itself, or the numeric tokens of a text."""
    if type(v) in (int, float):
        return [v]
    return [float(t) for t in _NUMBER.findall(v)] if isinstance(v, str) else None


def describe(old: str, new: str) -> str | None:
    """None when two output texts are byte-identical. Otherwise the first
    differing JSON path, or line when either is not JSON (old -> new), and
    the largest relative difference between the numbers of the differing
    leaves or lines; ``n/a`` when their numbers do not pair up."""
    if old == new:
        return None
    try:
        found = list(_leaves(json.loads(old), json.loads(new)))
    except ValueError:
        lines = itertools.zip_longest(old.splitlines(), new.splitlines(),
                                      fillvalue="<none>")
        found = [(f"line {i}", a, b) for i, (a, b) in enumerate(lines, 1) if a != b]
    path, a, b = found[0] if found else (".", old, new)
    pairs = [(_numbers(x), _numbers(y)) for _, x, y in found]
    if any(x is None or y is None or len(x) != len(y) for x, y in pairs):
        return f"{path}: {a!r} -> {b!r}; max rel diff n/a"
    rel = max((abs(x - y) / max(abs(x), abs(y))
               for xs, ys in pairs for x, y in zip(xs, ys) if x != y), default=0.0)
    return f"{path}: {a!r} -> {b!r}; max rel diff {rel:.3g}"


def _label(name: str, i: int, workloads) -> str:
    if name == KERNELS:
        return next(itertools.islice(kernel_runs(workloads), i, None))[0]
    if name != CLI:
        return f"pool id {i}"
    return " ".join(Path(a).name if a.endswith(".csv") else a for a in CLI_CASES[i])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pools", nargs="*")
    parser.add_argument("--against", metavar="OTHER_CHECKOUT")
    args = parser.parse_args(argv)
    if args.against and not (Path(args.against) / "src" / "spla").is_dir():
        print(f"--against {args.against}: no src/spla there", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    from workloads import WORKLOADS, mismatch

    pools = [*WORKLOADS, CLI, KERNELS]
    names = args.pools or (pools if args.against else list(WORKLOADS))
    unknown = [n for n in names if n not in pools]
    if unknown:
        print(f"unknown pool {unknown[0]!r}; choose from {', '.join(pools)}",
              file=sys.stderr)
        return 2
    unchecked = [n for n in names if n in (CLI, KERNELS)]
    if unchecked and not args.against:
        print(f"pool {unchecked[0]!r} has no references; compare it with --against",
              file=sys.stderr)
        return 2
    ok = True
    for name in names:
        texts = outputs(ROOT / "src", name)
        if args.against:
            theirs = outputs(Path(args.against).resolve() / "src", name)
            diffs = [f"{_label(name, i, WORKLOADS)}: {d}"
                     for i, d in enumerate(map(describe, theirs, texts)) if d]
            verdict = f"identical to {args.against}"
        else:
            diffs, verdict = check(WORKLOADS[name], mismatch, texts), "match"
        print(f"{name}: {len(texts) - len(diffs)} of {len(texts)} {verdict}", flush=True)
        for d in diffs:
            print(f"  {d}", flush=True)
        ok = ok and not diffs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
