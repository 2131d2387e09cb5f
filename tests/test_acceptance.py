"""Acceptance gate: eight criteria, one pass/fail line each.

Each criterion records its line in ``RESULTS`` (printed in the terminal
summary by conftest) before asserting, so the verdict is visible even when a
criterion fails.
"""

import numpy as np
import pytest

from spla import (
    Block,
    BlockPartition,
    CovMatrix,
    DataMatrix,
    SplaConfig,
    block_ec,
    corrected_variances,
    ec_distribution,
    evaluate_partition,
    gen_spiked_sample,
    identification_rate,
    orthogonalize,
    partial_cov,
    partial_trace_share,
    run_spla,
    sample_cov,
    sparse_loading_matrix,
    variance_shares,
    weight_basis,
)
from spla.evaluation import DEFAULT_C_EC
from spla.matops import sym_eigen
from spla.simulate import BlockDesign

from conftest import RESULTS, random_spd
from oracles import block_ec_literal, corrected_variances_from_data

SEED = 20240817


def _record(n: int, desc: str, cells: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in cells)
    bad = ", ".join(label for label, flag in cells if not flag)
    suffix = "" if ok else f" [failing: {bad}]"
    RESULTS.append(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {desc}{suffix}")
    assert ok, f"criterion {n} failing cells: {bad}"


def _partition(idx, groups):
    return BlockPartition(tuple(Block(idx[n] for n in g) for g in groups))


class TestAcceptance:
    def test_criterion_1_oecd_structure(self, oecd_corr):
        idx = {n: i for i, n in enumerate(oecd_corr.variable_names)}
        cases = [
            ("2-block a", [("I/Y", "POP"), ("SCH", "RD", "Y85", "Y60")], 0.96),
            ("2-block b", [("I/Y", "POP", "SCH"), ("RD", "Y85", "Y60")], 0.84),
            ("3-block a", [("I/Y",), ("POP",), ("SCH", "RD", "Y85", "Y60")], 0.96),
            ("3-block b", [("RD",), ("Y85", "Y60"), ("I/Y", "SCH", "POP")], 0.53),
            ("4-block", [("I/Y",), ("POP",), ("SCH",), ("RD", "Y85", "Y60")], 0.84),
            ("5-block", [("I/Y",), ("POP",), ("SCH",), ("RD",), ("Y85", "Y60")], 0.45),
        ]
        cells = []
        for label, groups, expected in cases:
            _, min_ec, _ = evaluate_partition(oecd_corr, _partition(idx, groups))
            cells.append((f"{label} ({min_ec:.4f} vs {expected})",
                          abs(min_ec - expected) <= 0.02))
        _record(1, "min EC of six pinned partitions within 0.02", cells)

    def test_criterion_2_oecd_detail(self, oecd_corr):
        idx = {n: i for i, n in enumerate(oecd_corr.variable_names)}
        p = _partition(
            idx, [("I/Y",), ("SCH",), ("POP",), ("RD", "Y85", "Y60")]
        )
        entries, _, _ = evaluate_partition(oecd_corr, p)
        wb = weight_basis(
            p, within_block_order=(
                (idx["I/Y"],), (idx["SCH"],), (idx["POP"],),
                (idx["RD"], idx["Y85"], idx["Y60"]),
            ),
        )
        shares = variance_shares(corrected_variances(oecd_corr, wb), oecd_corr, p)
        cells = [("first block is the marker", entries[0].ec is None)]
        for e, exp in zip(entries[1:], [0.96, 0.93, 0.84]):
            cells.append((f"EC {e.ec:.4f} vs {exp}", abs(e.ec - exp) <= 0.01))
        for got, exp in zip(shares.block_sv, [16.67, 16.04, 15.57, 40.26]):
            cells.append((f"SV {got:.2f} vs {exp}", abs(got - exp) <= 0.05))
        cv = shares.block_cv[-1]
        cells.append((f"CV {cv:.2f} vs 88.54", abs(cv - 88.54) <= 0.05))
        _record(2, "4-block EC/SV/CV detail", cells)

    def test_criterion_3_oecd_partial_shares(self, oecd_corr):
        idx = {n: i for i, n in enumerate(oecd_corr.variable_names)}
        groups = [("I/Y",), ("SCH",), ("POP",), ("RD", "Y85", "Y60")]
        cells = []
        for g, exp in zip(groups, [10.23, 12.41, 12.94, 41.73]):
            got = partial_trace_share(oecd_corr, [idx[n] for n in g])
            cells.append((f"{'/'.join(g)} {got:.2f} vs {exp}",
                          abs(got - exp) <= 0.05))
        _record(3, "partial-covariance shares of the 4 blocks", cells)

    def test_criterion_4_exam(self, exam_data):
        idx = {n: i for i, n in enumerate(exam_data.variable_names)}
        cfg = SplaConfig(
            method="spca",
            grid=(2.0, (5.0, 5.0, 5.0, 2.0, 2.0)),
            block_order=(
                (idx["vec"],), (idx["mec"],),
                (idx["alg"], idx["ana"], idx["sta"]),
            ),
        )
        report = run_spla(exam_data, cfg)
        cells = [(
            "partition {vec}{mec}{alg,ana,sta} selected",
            report.block_names() == [("vec",), ("mec",), ("alg", "ana", "sta")],
        )]
        ecs = [e.ec for e in report.evaluations]
        for got, exp in zip(ecs[1:], [0.74, 0.72]):
            cells.append((f"EC {got:.4f} vs {exp}", abs(got - exp) <= 0.01))
        for got, exp in zip(report.shares.block_sv, [13.21, 19.28, 38.98]):
            cells.append((f"SV {got:.2f} vs {exp}", abs(got - exp) <= 0.05))
        cv = report.shares.block_cv[-1]
        cells.append((f"CV {cv:.2f} vs 71.47", abs(cv - 71.47) <= 0.05))
        for got, exp in zip(report.partial_shares, [7.45, 17.97, 46.49]):
            cells.append((f"partial {got:.2f} vs {exp}", abs(got - exp) <= 0.05))
        discards = [r.variables for r in report.recommendations if r.discard]
        cells.append(("{vec} discard recommended and verified",
                      discards == [("vec",)]))
        _record(4, "EXAM selection, detail and discard", cells)

    def test_criterion_5_synthetic(self):
        cells = []
        cov8 = sample_cov(gen_spiked_sample(False, 5000, SEED))
        p8 = BlockPartition((
            Block(range(4)),
            Block(range(4, 8)),
        ))
        _, ec8, _ = evaluate_partition(cov8, p8)
        cells.append((f"8-var two-block EC {ec8:.6f} > 0.999", ec8 > 0.999))
        cov10 = sample_cov(gen_spiked_sample(True, 5000, SEED))
        p2 = BlockPartition((
            Block(range(4)),
            Block(range(4, 10)),
        ))
        _, ec10, _ = evaluate_partition(cov10, p2)
        cells.append((f"10-var two-block EC {ec10:.6f} in [0.985, 0.995]",
                      0.985 <= ec10 <= 0.995))
        p3 = BlockPartition((
            Block(range(4)),
            Block(range(4, 8)),
            Block((8, 9)),
        ))
        entries, _, _ = evaluate_partition(cov10, p3)
        ec_last = entries[-1].ec
        cells.append((f"forced {{9,10}} EC {ec_last:.6f} < 0.01", ec_last < 0.01))
        _record(5, "synthetic spiked designs at N=5000", cells)

    def test_criterion_6_ec_calibration(self):
        cells = []
        medians = {}
        for rho in (0.1, 0.2, 0.6):
            out = ec_distribution(BlockDesign(rho=rho), 100, 100, [1, 3, 5], SEED)
            medians[rho] = np.median(out, axis=0)  # blocks 2, 4, 6
        for rho in (0.1, 0.2):
            m6 = medians[rho][2]
            cells.append((f"rho={rho}: block-6 median {m6:.4f} > 0.6", m6 > 0.6))
        m6 = medians[0.6][2]
        cells.append((f"rho=0.6: block-6 median {m6:.4f} < 0.6", m6 < 0.6))
        for rho, med in medians.items():
            ordered = med[0] >= med[1] >= med[2]
            cells.append((f"rho={rho}: medians ordered 2 >= 4 >= 6", ordered))
        _record(6, "EC medians across rho at N=100, 100 reps", cells)

    def test_criterion_7_identification_rate(self):
        cells = []
        design = BlockDesign()
        rows = identification_rate(
            design, [1000], [0.0, 0.3, 0.6, 0.9], reps=12,
            c_ec=DEFAULT_C_EC, seed=SEED,
        )
        rates = [r["rate"] for r in rows]
        cells.append((f"N=1000 rho=0 rate {rates[0]:.2f} >= 0.95",
                      rates[0] >= 0.95))
        inversions = sum(1 for a, b in zip(rates, rates[1:]) if b > a + 1e-12)
        cells.append((f"rates {rates} non-increasing in rho (<= 1 inversion)",
                      inversions <= 1))
        small = identification_rate(
            design, [100], [0.9], reps=20, c_ec=DEFAULT_C_EC, seed=SEED,
        )
        cells.append((f"N=100 rho=0.9 rate {small[0]['rate']:.2f} < 0.1",
                      small[0]["rate"] < 0.1))
        _record(7, "identification rates across (N, rho)", cells)

    def test_criterion_8_property_suites(self, oecd_corr, exam_cov):
        rng = np.random.default_rng(SEED)
        cells = []

        # (a) orthonormality of produced loading matrices.
        ok = True
        for _ in range(5):
            m = int(rng.integers(3, 6))
            x = rng.normal(size=(40, m))
            lm = orthogonalize(sparse_loading_matrix(x.T @ x, [1.5])[0])
            ok &= bool(np.max(np.abs(lm.T @ lm - np.eye(m))) < 1e-8)
        cells.append(("(a) U^T U = I within 1e-8", ok))

        # (b) EC in (0, 1] on 1000 random SPD matrices.
        ok = True
        for _ in range(1000):
            m = int(rng.integers(3, 7))
            cov = CovMatrix(random_spd(rng, m), tuple(f"v{i}" for i in range(m)))
            cut = int(rng.integers(1, m))
            p = BlockPartition((
                Block(range(cut)),
                Block(range(cut, m)),
            ))
            ec = block_ec(cov, p, 1).ec
            ok &= 0.0 < ec <= 1.0
        cells.append(("(b) EC in (0,1] on 1000 random SPD", ok))

        # (c) EC = 1 within 1e-10 on exact block-diagonal covariances.
        ok = True
        for _ in range(20):
            sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
            m = sum(sizes)
            values = np.zeros((m, m))
            blocks, pos = [], 0
            for s in sizes:
                values[pos:pos + s, pos:pos + s] = random_spd(rng, s)
                blocks.append(Block(range(pos, pos + s)))
                pos += s
            cov = CovMatrix(values, tuple(f"v{i}" for i in range(m)))
            entries, _, _ = evaluate_partition(cov, BlockPartition(tuple(blocks)))
            ok &= all(abs(e.ec - 1.0) < 1e-10 for e in entries[1:])
        cells.append(("(c) EC = 1 within 1e-10 on block-diagonal", ok))

        # (d) closed-form EC equals the literal replacement on fixtures.
        ok = True
        for cov in (oecd_corr, exam_cov):
            m = cov.n_vars
            cut = m // 2
            p = BlockPartition((
                Block(range(cut)),
                Block(range(cut, m)),
            ))
            for b in range(2):
                c1, c2 = block_ec(cov, p, b), block_ec_literal(cov, p, b)
                ok &= (c1.ec is None and c2.ec is None) or abs(c1.ec - c2.ec) < 1e-10
        cells.append(("(d) dual EC routes agree within 1e-10", ok))

        # (e) corrected-variance total bounded by the trace.
        ok = True
        for _ in range(20):
            m = int(rng.integers(2, 7))
            a = random_spd(rng, m)
            cov = CovMatrix(a, tuple(f"v{i}" for i in range(m)))
            q, _ = np.linalg.qr(rng.normal(size=(m, m)))
            total = float(np.sum(corrected_variances(cov, q).r_squared))
            ok &= total <= np.trace(a) + 1e-8
            _, vecs = sym_eigen(a)
            at_eig = float(
                np.sum(corrected_variances(cov, vecs).r_squared)
            )
            ok &= abs(at_eig - np.trace(a)) < 1e-8 * max(1.0, np.trace(a))
        cells.append(("(e) variance bound, equality at eigenvectors", ok))

        # (f) partial_cov equals the regression-residual covariance.
        ok = True
        for _ in range(20):
            m = int(rng.integers(4, 7))
            a = random_spd(rng, m)
            cov = CovMatrix(a, tuple(f"v{i}" for i in range(m)))
            d = sorted(rng.choice(m, size=int(rng.integers(1, m)),
                                  replace=False).tolist())
            k = [i for i in range(m) if i not in set(d)]
            beta = np.linalg.solve(a[np.ix_(k, k)], a[np.ix_(k, d)])
            oracle = a[np.ix_(d, d)] - a[np.ix_(d, k)] @ beta
            ok &= bool(np.max(np.abs(partial_cov(cov, d) - oracle)) < 1e-8)
        cells.append(("(f) partial_cov = regression residual within 1e-8", ok))

        # (g) Cholesky-on-Gram and data-QR paths agree.
        ok = True
        for _ in range(20):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(10, 80))
            x = rng.normal(size=(n, m))
            d = DataMatrix(x, tuple(f"v{i}" for i in range(m)))
            cov = sample_cov(d)
            q, _ = np.linalg.qr(rng.normal(size=(m, m)))
            c1 = corrected_variances(cov, q).r_squared
            c2 = corrected_variances_from_data(d, q).r_squared
            ok &= bool(np.max(np.abs(c1 - c2)) < 1e-8 * max(1.0, float(np.max(c1))))
        cells.append(("(g) Cholesky and QR variance paths agree", ok))

        _record(8, "property suites (a)-(g)", cells)
