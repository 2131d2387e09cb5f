"""Command-line front end.

Three subcommands: ``analyze`` runs the full pipeline on a CSV dataset,
``reproduce`` runs pinned configurations against the vendored fixtures and
prints computed-versus-expected tables with per-cell pass/fail, ``simulate``
runs the Monte-Carlo experiments and writes CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error,
4 reproduction (golden) failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources

import numpy as np

from .data import DataError, load_csv, sample_cov
from .evaluation import DEFAULT_C_EC, evaluate_partition
from .matops import MatopsError
from .pipeline import SplaConfig, SplaReport, run_spla
from .blocks import Block, BlockPartition
from .simulate import (
    BlockDesign,
    ec_distribution,
    gen_spiked_sample,
    identification_rate,
    random_wishart_demo,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_GOLDEN = 4


#: Largest step count of ``--grid lo:hi:steps``; each step is one grid point.
MAX_GRID_STEPS = 1000

#: Largest ``simulate --n``; each replicate draws ``n`` rows at once.
MAX_SIM_N = 100_000

#: Largest ``simulate --reps``; ``ec`` holds every replicate's ECs at once.
MAX_SIM_REPS = 100_000


class _UsageError(ValueError):
    """Invalid command line; like any ``ValueError`` it exits with code 1."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises instead of calling ``sys.exit``."""

    def error(self, message):
        raise _UsageError(message)


def _grid_number(item: str, kind=float):
    """One number of ``--grid``; a bad one is a usage error that names it."""
    try:
        return kind(item)
    except ValueError:
        noun = "a whole number of steps" if kind is int else "a number"
        raise _UsageError(f"--grid item {item.strip()!r} is not {noun}") from None


def _parse_grid(spec: str) -> tuple:
    """Parse ``--grid``: ``lo:hi:steps`` or a comma list of penalties.

    A comma-list item may itself be a slash-separated per-loading penalty
    vector, e.g. ``2,5/5/5/2/2``.
    """
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise _UsageError(f"grid {spec!r} is not lo:hi:steps")
        lo, hi = _grid_number(parts[0]), _grid_number(parts[1])
        steps = _grid_number(parts[2], int)
        if not 1 <= steps <= MAX_GRID_STEPS:
            raise _UsageError(f"--grid steps {steps} outside 1..{MAX_GRID_STEPS}")
        for item, end in zip(parts, (lo, hi)):
            if not np.isfinite(end):
                raise _UsageError(f"--grid end {item.strip()!r} is not finite")
        if not np.isfinite(hi - lo):
            raise _UsageError(f"--grid range {lo:g}:{hi:g} is wider than a float")
        return tuple(np.linspace(lo, hi, steps))
    out = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "/" in item:
            out.append(tuple(_grid_number(v) for v in item.split("/")))
        else:
            out.append(_grid_number(item))
    if not out:
        raise _UsageError(f"grid {spec!r} is empty")
    return tuple(out)


def _parse_order(spec: str, names: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """Parse ``--order``: semicolon-separated blocks of comma-separated names,
    each named once."""
    index = {n: i for i, n in enumerate(names)}
    blocks, seen = [], set()
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        vars_ = []
        for name in part.split(","):
            name = name.strip()
            if name not in index:
                raise _UsageError(f"unknown variable {name!r} in --order")
            if name in seen:
                raise _UsageError(f"variable {name!r} appears twice in --order")
            seen.add(name)
            vars_.append(index[name])
        blocks.append(tuple(vars_))
    if not blocks:
        raise _UsageError("--order is empty")
    return tuple(blocks)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_table(report: SplaReport) -> str:
    """Human-readable rendering derived from the JSON value."""
    d = report.to_json_dict()
    lines = []
    lines.append("Blocks (evaluation order):")
    header = f"  {'block':<24}{'EC':>8}{'SV %':>10}{'CV %':>10}{'partial %':>11}"
    lines.append(header)
    for i, vars_ in enumerate(d["partition"]):
        ec = d["ec"][i]
        ec_s = "-" if ec is None else f"{ec:.2f}"
        lines.append(
            f"  {{{','.join(vars_)}}}".ljust(26)
            + f"{ec_s:>8}"
            + f"{d['shares']['block_sv'][i]:>10.2f}"
            + f"{d['shares']['block_cv'][i]:>10.2f}"
            + f"{d['partial_shares'][i]:>11.2f}"
        )
    if d["recommendations"]:
        lines.append("Discard recommendations:")
        for r in d["recommendations"]:
            verdict = "discard" if r["discard"] else "keep"
            lines.append(
                f"  {{{','.join(r['block'])}}}: SV {r['block_sv']:.2f}, "
                f"partial {r['partial_share']:.2f} -> {verdict}"
            )
    else:
        lines.append("Discard recommendations: none")
    lines.append("Penalty trace:")
    for g in d["penalty_trace"]:
        pen = g["penalty"]
        pen_s = (
            "/".join(f"{v:g}" for v in pen) if isinstance(pen, list) else f"{pen:g}"
        )
        blocks = "-" if g["n_blocks"] is None else str(g["n_blocks"])
        ec_s = "-" if g["min_ec"] is None else f"{g['min_ec']:.2f}"
        status = "pass" if g["passed"] else "fail"
        note = f"  ({g['note']})" if g["note"] else ""
        lines.append(f"  c={pen_s}: blocks={blocks} min_ec={ec_s} {status}{note}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    data = load_csv(args.csv)
    grid = _parse_grid(args.grid) if args.grid else ()
    order = _parse_order(args.order, data.variable_names) if args.order else None
    cfg = SplaConfig(
        method=args.method,
        grid=grid,
        c_ec=args.c_ec,
        block_order=order,
        standardize=args.standardize,
    )
    report = run_spla(data, cfg)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    else:
        _emit(_report_table(report), args.out)
    return EXIT_OK


def _check_flag(lines: list[str], failed: list[bool], label: str, ok: bool) -> None:
    failed.append(not ok)
    lines.append(f"  {label:<28} {'PASS' if ok else 'FAIL'}")


def _check(lines: list[str], failed: list[bool], label: str,
           computed: float, expected: float, tol: float) -> None:
    cell = (f"{label:<28} computed {computed:>9.4f}  expected {expected:>7.2f} "
            f"+/- {tol:<5g}")
    _check_flag(lines, failed, cell, abs(computed - expected) <= tol)


#: The paper's application tables, run on the vendored fixtures: the
#: ``SplaConfig`` fields and the evaluation order as an ``--order`` string,
#: then the printed EC of blocks 2.., block SV, final CV and partial shares,
#: and the blocks whose discard is verified (none: no recommendation at all).
_TABLES = {
    "oecd": {
        "config": dict(method="spca", standardize=True,
                       grid=((0.05, 0.05, 0.05, 0.02, 0.02, 0.02),)),
        "order": "I/Y;SCH;POP;RD,Y85,Y60",
        "ec": (0.96, 0.93, 0.84),
        "sv": (16.67, 16.04, 15.57, 40.26),
        "cv": 88.54,
        "partial": (10.23, 12.41, 12.94, 41.73),
        "discards": [],
    },
    "exam": {
        "config": dict(method="spca", grid=(2.0, (5.0, 5.0, 5.0, 2.0, 2.0))),
        "order": "vec;mec;alg,ana,sta",
        "ec": (0.74, 0.72),
        "sv": (13.21, 19.28, 38.98),
        "cv": 71.47,
        "partial": (7.45, 17.97, 46.49),
        "discards": [("vec",)],
    },
}


def _reproduce_table(name: str, lines, failed) -> None:
    want = _TABLES[name]
    with resources.as_file(resources.files("spla") / "fixtures" / f"{name}.csv") as p:
        data = load_csv(p)
    order = _parse_order(want["order"], data.variable_names)
    report = run_spla(data, SplaConfig(**want["config"], block_order=order))
    lines.append(f"{name.upper()} fixture:")
    blocks = "".join(f"{{{b}}}" for b in want["order"].split(";"))
    got = [b.variable_indices for b in report.partition.blocks]
    _check_flag(lines, failed, f"partition {blocks}", got == [tuple(sorted(b)) for b in order])
    for i, exp in enumerate(want["ec"], 1):
        _check(lines, failed, f"EC block {i + 1}", report.evaluations[i].ec, exp, 0.01)
    for i, exp in enumerate(want["sv"]):
        _check(lines, failed, f"block SV {i + 1}", report.shares.block_sv[i], exp, 0.05)
    _check(lines, failed, "final CV", report.shares.block_cv[-1], want["cv"], 0.05)
    for i, exp in enumerate(want["partial"]):
        _check(lines, failed, f"partial share {i + 1}", report.partial_shares[i], exp, 0.05)
    discards = [r.variables for r in report.recommendations if r.discard]
    if want["discards"]:
        label = "".join(f"{{{','.join(b)}}}" for b in want["discards"])
        _check_flag(lines, failed, f"{label} discard verified", discards == want["discards"])
    else:
        _check_flag(lines, failed, "no discards", not report.recommendations)


_SYNTH_SEED = 20240817
#: The paper's spiked designs (8 or 10 variables): for each check, the
#: consecutive block sizes of a partition, its label, the bound its last
#: block's EC must meet and the name printed with that EC.
_SYNTHETIC = {
    "synthetic8": (8, [
        ((4, 4), "two-block EC > 0.999", lambda ec: ec > 0.999, "min EC"),
    ]),
    "synthetic10": (10, [
        ((4, 6), "two-block EC in [0.985, 0.995]",
         lambda ec: 0.985 <= ec <= 0.995, "two-block min EC"),
        ((4, 4, 2), "forced {9,10} EC < 0.01",
         lambda ec: ec < 0.01, "forced three-block EC"),
    ]),
}


def _reproduce_synthetic(name: str, lines, failed) -> None:
    m, checks = _SYNTHETIC[name]
    cov = sample_cov(gen_spiked_sample(m == 10, 5000, _SYNTH_SEED))
    lines.append(f"Synthetic {m}-variable fixture:")
    for sizes, label, bound, shown in checks:
        ranges = [tuple(range(e - s, e)) for s, e in zip(sizes, np.cumsum(sizes))]
        entries, _, _ = evaluate_partition(
            cov, BlockPartition(tuple(Block(r, r) for r in ranges))
        )
        ec = entries[-1].ec
        _check_flag(lines, failed, label, bound(ec))
        lines.append(f"    ({shown} = {ec:.6f})")


def cmd_reproduce(args) -> int:
    lines: list[str] = []
    failed: list[bool] = []
    runner = _reproduce_table if args.fixture in _TABLES else _reproduce_synthetic
    runner(args.fixture, lines, failed)
    any_failed = any(failed)
    lines.append("RESULT: " + ("FAIL" if any_failed else "PASS"))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_GOLDEN if any_failed else EXIT_OK


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise _UsageError(f"--seed {args.seed} must be nonnegative")
    m = BlockDesign().n_vars
    if args.experiment != "wishart" and args.n <= m:
        raise _UsageError(
            f"--n {args.n} must be at least {m + 1}, one more than the "
            f"design's {m} variables"
        )
    if args.experiment != "wishart" and args.n > MAX_SIM_N:
        raise _UsageError(f"--n {args.n} must be at most {MAX_SIM_N}")
    if args.reps > MAX_SIM_REPS:
        raise _UsageError(f"--reps {args.reps} must be at most {MAX_SIM_REPS}")
    if args.experiment == "ec":
        design = BlockDesign(rho=args.rho)
        try:
            blocks = [int(b) for b in args.blocks.split(",")]
        except ValueError:
            raise _UsageError(
                f"--blocks {args.blocks!r} is not a comma list of block numbers"
            ) from None
        for b in blocks:
            if not 1 <= b <= design.n_blocks:
                raise _UsageError(f"--blocks {b} outside 1..{design.n_blocks}")
        ecs = ec_distribution(
            design, args.n, args.reps, [b - 1 for b in blocks], args.seed,
        )
        # Block 1 has nothing before it: its EC is a marker (null / empty).
        rows = [
            {"rep": r, "block": b, "ec": None if b == 1 else float(ecs[r, c])}
            for r in range(ecs.shape[0])
            for c, b in enumerate(blocks)
        ]
    elif args.experiment == "rate":
        design = BlockDesign()
        rows = identification_rate(
            design, [args.n], [args.rho], args.reps, args.c_ec, args.seed,
        )
    else:  # wishart
        results = random_wishart_demo(args.reps, args.seed)
        rows = [{"rep": i, "blocks": k, "ec": ec} for i, (k, ec) in enumerate(results)]
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        _emit(_rows_to_csv(rows), args.out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="spla", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a CSV dataset")
    pa.add_argument("csv", help="path to a CSV file (header row of names)")
    pa.add_argument("--standardize", action="store_true")
    pa.add_argument("--c-ec", type=float, default=DEFAULT_C_EC, dest="c_ec")
    pa.add_argument("--method", choices=["pmd", "spca"], default="pmd")
    pa.add_argument(
        "--grid",
        help="lo:hi:steps, or comma list of penalties "
        "(slash-separated for per-loading vectors, e.g. 2,5/5/5/2/2)",
    )
    pa.add_argument(
        "--order",
        help="evaluation order: semicolon-separated blocks of "
        "comma-separated variable names, e.g. 'vec;mec;alg,ana,sta'",
    )
    pa.add_argument("--format", choices=["table", "json"], default="table")
    pa.add_argument("--out")

    pr = sub.add_parser("reproduce", help="check a fixture against expected values")
    pr.add_argument("fixture", choices=[*_TABLES, *_SYNTHETIC])
    pr.add_argument("--out")

    # Each experiment takes only the flags it reads: ``shared`` are read by
    # all three, ``sampled`` by the two that draw from ``BlockDesign``.
    shared = _Parser(add_help=False)
    shared.add_argument("--reps", type=int, default=100)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--format", choices=["csv", "json"], default="csv")
    shared.add_argument("--out")
    sampled = _Parser(add_help=False)
    sampled.add_argument("--n", type=int, default=100)
    sampled.add_argument("--rho", type=float, default=0.0)

    ps = sub.add_parser("simulate", help="run a Monte-Carlo experiment")
    experiments = ps.add_subparsers(dest="experiment", required=True)
    pe = experiments.add_parser("ec", parents=[shared, sampled])
    pe.add_argument("--blocks", default="2,4,6", help="1-based block indices to evaluate")
    pt = experiments.add_parser("rate", parents=[shared, sampled])
    pt.add_argument("--c-ec", type=float, default=DEFAULT_C_EC, dest="c_ec")
    experiments.add_parser("wishart", parents=[shared])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        # argparse would read such a flag's value as the experiment name.
        flag = argv[1] if argv[:1] == ["simulate"] and len(argv) > 1 else ""
        if flag.startswith("-") and flag not in ("-h", "--help"):
            raise _UsageError(f"{flag} comes before the experiment name; flags "
                              "follow it, e.g. spla simulate ec --reps 2")
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "reproduce":
            return cmd_reproduce(args)
        return cmd_simulate(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MatopsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
