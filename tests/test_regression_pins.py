"""Regression pins on the failing cells of acceptance criteria 1 and 4.

Those criteria fail against the paper's printed values (see the README), so
their own assertions cannot show drift. These tests pin the values the
package computes today, to the benchmark's relative tolerance of 1e-6, so a
change that moves a red cell is noticed. They pin the computation, not the
paper: the paper-pinned bounds stay in ``test_acceptance.py``.
"""

import pytest

from spla import Block, BlockPartition, SplaConfig, evaluate_partition, run_spla

REL = 1e-6


def test_criterion_1_two_block_a_min_ec(oecd_corr):
    idx = {n: i for i, n in enumerate(oecd_corr.variable_names)}
    first = tuple(sorted(idx[n] for n in ("I/Y", "POP")))
    rest = tuple(sorted(idx[n] for n in ("SCH", "RD", "Y85", "Y60")))
    p = BlockPartition((Block(first), Block(rest)))
    _, min_ec, _ = evaluate_partition(oecd_corr, p)
    assert min_ec == pytest.approx(0.9850907671053861, rel=REL)


def test_criterion_4_exam_cells(exam_data):
    idx = {n: i for i, n in enumerate(exam_data.variable_names)}
    cfg = SplaConfig(
        method="spca",
        grid=(2.0, (5.0, 5.0, 5.0, 2.0, 2.0)),
        block_order=(
            (idx["vec"],), (idx["mec"],), (idx["alg"], idx["ana"], idx["sta"]),
        ),
    )
    report = run_spla(exam_data, cfg)
    assert report.block_names() == [("vec",), ("mec",), ("alg", "ana", "sta")]
    assert [e.ec for e in report.evaluations[1:]] == pytest.approx(
        [0.6937427063292824, 0.6328188435227202], rel=REL
    )
    assert list(report.shares.block_sv) == pytest.approx(
        [15.576535941696049, 19.1166397516262, 38.0457451068014], rel=REL
    )
    assert report.shares.block_cv[-1] == pytest.approx(72.73892080012365, rel=REL)
    assert list(report.partial_shares) == pytest.approx(
        [8.64307089585418, 17.183409672037325, 41.247985243228314], rel=REL
    )
