import numpy as np
import pytest

import spla.evaluation
import spla.matops
import spla.variance
from spla import (
    Block,
    BlockPartition,
    CovMatrix,
    NotPositiveDefiniteError,
    block_ec,
    evaluate_partition,
    structure_scan,
    weight_basis,
)
from spla.blocks import ZERO_TOL, InconsistentPartitionError
from spla.pipeline import SplaConfig, _scan

from conftest import random_spd
from oracles import block_ec_literal, replace_with_weight


def _seq_partition(sizes) -> BlockPartition:
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(Block(range(pos, pos + s)))
        pos += s
    return BlockPartition(tuple(blocks))


def _random_partition(rng, m):
    """Random partition of 0..m-1 into 2-3 contiguous-after-shuffle blocks."""
    perm = rng.permutation(m)
    cut1 = int(rng.integers(1, m - 1))
    cut2 = int(rng.integers(cut1 + 1, m))
    groups = [perm[:cut1], perm[cut1:cut2], perm[cut2:]]
    return BlockPartition(tuple(Block(g) for g in groups if g.size))


class TestBlockEc:
    def test_first_block_is_marker(self):
        cov = CovMatrix(np.eye(4), tuple("abcd"))
        e = block_ec(cov, _seq_partition([2, 2]), 0)
        assert e.ec is None

    def test_exact_block_diagonal_gives_one(self):
        values = np.zeros((5, 5))
        values[:2, :2] = [[2.0, 0.7], [0.7, 1.5]]
        values[2:, 2:] = [[1.0, 0.3, 0.1], [0.3, 1.2, 0.2], [0.1, 0.2, 0.9]]
        cov = CovMatrix(values, tuple("abcde"))
        e = block_ec(cov, _seq_partition([2, 3]), 1)
        assert e.ec == pytest.approx(1.0, abs=1e-10)

    def test_in_unit_interval_random_spd(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            m = int(rng.integers(4, 8))
            cov = CovMatrix(random_spd(rng, m), tuple(f"v{i}" for i in range(m)))
            p = _random_partition(rng, m)
            for b in range(1, p.n_blocks):
                e = block_ec(cov, p, b)
                assert 0.0 < e.ec <= 1.0

    def test_hand_two_singletons(self):
        # EC of {b} after {a} with correlation r is exactly 1 - r^2.
        r = 0.6
        cov = CovMatrix(np.array([[1.0, r], [r, 1.0]]), ("a", "b"))
        e = block_ec(cov, _seq_partition([1, 1]), 1)
        assert e.ec == pytest.approx(1.0 - r**2, abs=1e-12)

    def test_dual_route_agreement(self, oecd_corr, exam_cov):
        rng = np.random.default_rng(52)
        cases = [
            (oecd_corr, _random_partition(rng, 6)),
            (exam_cov, _random_partition(rng, 5)),
        ]
        for _ in range(5):
            m = int(rng.integers(4, 7))
            cases.append(
                (CovMatrix(random_spd(rng, m), tuple(f"v{i}" for i in range(m))),
                 _random_partition(rng, m))
            )
        for cov, p in cases:
            for b in range(p.n_blocks):
                closed = block_ec(cov, p, b)
                literal = block_ec_literal(cov, p, b)
                if closed.ec is None:
                    assert literal.ec is None
                else:
                    assert literal.ec == pytest.approx(closed.ec, abs=1e-10)

    def test_oecd_table_ec(self, oecd_corr):
        names = oecd_corr.variable_names
        idx = {n: i for i, n in enumerate(names)}
        blocks = (
            Block((idx["I/Y"],)),
            Block((idx["SCH"],)),
            Block((idx["POP"],)),
            Block(tuple(sorted((idx["RD"], idx["Y85"], idx["Y60"])))),
        )
        p = BlockPartition(blocks)
        entries, min_ec, passes = evaluate_partition(oecd_corr, p)
        assert entries[0].ec is None
        got = [e.ec for e in entries[1:]]
        assert np.allclose(got, [0.96, 0.93, 0.84], atol=0.005)
        assert passes

    def test_block_index_validated(self, oecd_corr):
        with pytest.raises(InconsistentPartitionError):
            block_ec(oecd_corr, _seq_partition([3, 3]), 2)


class TestWeightBasis:
    def test_orthonormal_and_equal_weight_leads(self):
        p = _seq_partition([1, 2, 3])
        u = weight_basis(p)
        assert np.allclose(u.T @ u, np.eye(6), atol=1e-12)
        # Leading column of each block is the equal-weight vector.
        assert u[0, 0] == pytest.approx(1.0)
        assert np.allclose(u[1:3, 1], 1 / np.sqrt(2))
        assert np.allclose(u[3:, 3], 1 / np.sqrt(3))

    def test_block_diagonal_support(self):
        p = BlockPartition((Block((0, 2)), Block((1, 3))))
        wb = weight_basis(p)
        pat = np.abs(wb) > ZERO_TOL
        assert not pat[1, 0] and not pat[3, 1] and not pat[0, 2] and not pat[2, 3]

    def test_within_block_order_changes_completion(self):
        p = _seq_partition([3])
        a = weight_basis(p, within_block_order=((0, 1, 2),))
        b = weight_basis(p, within_block_order=((2, 1, 0),))
        # Equal-weight leading column is order-free ...
        assert np.allclose(a[:, 0], b[:, 0])
        # ... but the completing columns differ.
        assert not np.allclose(a[:, 1:], b[:, 1:])

    def test_within_block_order_validated(self):
        p = _seq_partition([2, 2])
        with pytest.raises(InconsistentPartitionError):
            weight_basis(p, within_block_order=((0, 1), (1, 2)))


class TestReplaceWithWeight:
    def test_preserves_orthonormality(self):
        rng = np.random.default_rng(53)
        p = _seq_partition([2, 3])
        u = np.zeros((5, 5))
        q1, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        u[:2, :2] = q1
        u[2:, 2:] = q2
        out = replace_with_weight(u, p, 1)
        assert np.allclose(out.T @ out, np.eye(5), atol=1e-10)
        assert np.allclose(out[2:, 2], 1 / np.sqrt(3))
        # Other block untouched.
        assert np.array_equal(out[:2, :2], q1)

    def test_invalid_block_index(self):
        p = _seq_partition([2, 2])
        with pytest.raises(InconsistentPartitionError):
            replace_with_weight(np.eye(4), p, 5)


class TestEvaluatePartition:
    def test_single_block_passes_vacuously(self, oecd_corr):
        p = _seq_partition([6])
        entries, min_ec, passes = evaluate_partition(oecd_corr, p)
        assert entries[0].ec is None
        assert min_ec == 1.0
        assert passes

    def test_gate_threshold(self):
        # Two strongly correlated singletons: EC = 1 - 0.81 = 0.19 < 0.6.
        cov = CovMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]), ("a", "b"))
        p = _seq_partition([1, 1])
        _, min_ec, passes = evaluate_partition(cov, p)
        assert min_ec == pytest.approx(0.19, abs=1e-12)
        assert not passes
        cv = spla.variance.corrected_variances(cov, weight_basis(p))
        assert spla.evaluation._block_ecs(cv, p, 0.1)[2]

    def test_gate_range_validated(self):
        # The gate is a field of the configuration, checked when it is made.
        for c_ec, shown in [(0.0, "0.0"), (1.0, "1.0"), (float("nan"), "nan")]:
            with pytest.raises(ValueError, match=rf"^c_ec={shown} outside \(0, 1\)$"):
                SplaConfig(c_ec=c_ec)

    def test_order_dependence(self, exam_cov):
        names = exam_cov.variable_names
        idx = {n: i for i, n in enumerate(names)}
        tri = tuple(sorted((idx["alg"], idx["ana"], idx["sta"])))
        blocks = {
            "vec": Block((idx["vec"],)),
            "mec": Block((idx["mec"],)),
            "tri": Block(tri),
        }

        def run(order):
            p = BlockPartition(tuple(blocks[k] for k in order))
            _, min_ec, passes = evaluate_partition(exam_cov, p)
            return min_ec, passes

        pinned, ok_pinned = run(("vec", "mec", "tri"))
        assert ok_pinned
        assert pinned == pytest.approx(0.6328, abs=0.005)
        # Placing {vec} last drops its EC below the gate.
        vec_last, ok_vec_last = run(("tri", "mec", "vec"))
        assert not ok_vec_last
        assert vec_last == pytest.approx(0.5549, abs=0.005)

    def test_one_factorization_per_partition(self, monkeypatch, exam_cov):
        calls = {"cholesky_upper": 0, "solve_spd": 0}

        def counting(name, real):
            def spy(*args):
                calls[name] += 1
                return real(*args)
            return spy

        # Wherever the library looks the kernels up.
        for mod in (spla.matops, spla.evaluation, spla.variance):
            for name in calls:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        for sizes in ([1, 4], [2, 1, 2], [1, 1, 1, 1, 1]):
            calls.update(cholesky_upper=0, solve_spd=0)
            entries, _, _ = evaluate_partition(exam_cov, _seq_partition(sizes))
            assert len(entries) == len(sizes)
            assert calls == {"cholesky_upper": 1, "solve_spd": 0}
        calls.update(cholesky_upper=0, solve_spd=0)
        evaluate_partition(exam_cov, _seq_partition([5]))
        assert calls == {"cholesky_upper": 0, "solve_spd": 0}


class TestNearSingularPair:
    """Two variables that are almost one: S = I - (1 - eps) h h^T."""

    @pytest.fixture
    def cov(self):
        h = np.zeros(4)
        h[0], h[1] = 1.0, -1.0
        h /= np.sqrt(2.0)
        return CovMatrix(np.eye(4) - (1.0 - 5e-13) * np.outer(h, h), tuple("abcd"))

    def test_pivot_under_the_floor_raises(self, cov):
        # The pair's completing weight column has variance 5e-13, under the
        # relative Cholesky floor, although the pair's own EC is well defined.
        p = BlockPartition(
            (Block((0, 1)), Block((2,)), Block((3,)))
        )
        for q in (p, BlockPartition(tuple(p.blocks[i] for i in (1, 0, 2)))):
            with pytest.raises(NotPositiveDefiniteError):
                evaluate_partition(cov, q)

    def test_structure_scan_reports_the_pivot(self, cov):
        # The same class and message as when the report's share accounting
        # was the first to factor this Gram matrix.
        with pytest.raises(
            NotPositiveDefiniteError, match=r"^pivot 5\.00\d*e-13 at index 1$"
        ):
            structure_scan(cov)

    def test_scan_records_the_pivot_per_grid_point(self, cov):
        # Grid points whose partition hits the floor are rejected with the
        # pivot as their note; the scan goes on to the sparser points.
        trace, best = _scan(cov, SplaConfig())
        assert [(g.partition, g.min_ec, g.passed) for g in trace] == [
            (None, None, False)
        ] * 5
        notes = [g.note for g in trace]
        assert notes[:3] == ["pivot 5.00249e-13 at index 1"] * 3
        assert notes[3:] == ["variable 0 has no incident loading"] * 2
        assert best is None
