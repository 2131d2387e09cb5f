"""Property-based suites (always on).

Random instances are derived from hypothesis-drawn seeds and sizes, so every
failure shrinks to a small reproducible seed.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spla import (
    Block,
    BlockPartition,
    CovMatrix,
    DataMatrix,
    block_ec,
    corrected_variances,
    elastic_net_loadings,
    evaluate_partition,
    orthogonalize,
    sample_cov,
    sparse_loading_matrix,
)
from spla.evaluation import DEFAULT_C_EC, _block_ecs, weight_basis
from spla.pipeline import SplaConfig
from spla.matops import NoConvergenceError, RankDeficientError, sym_eigen
from spla.sparse_loadings import ZERO_TOL

from conftest import random_spd
from oracles import (
    block_ec_literal,
    block_ec_regression,
    corrected_variances_from_data,
    elastic_net_loadings_percolumn,
    elastic_net_loadings_pointwise,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _random_blocks(rng, m):
    """Random ordered partition of 0..m-1 into >= 2 variable groups."""
    perm = rng.permutation(m)
    n_cuts = int(rng.integers(1, m - 1)) if m > 2 else 1
    cuts = sorted(rng.choice(np.arange(1, m), size=n_cuts, replace=False))
    groups = np.split(perm, cuts)
    return BlockPartition(tuple(Block(g) for g in groups))


class TestOrthonormality:
    """(a) U^T U = I within 1e-8 for every produced loading matrix."""

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, m=st.integers(3, 6), c=st.floats(1.0, 2.2))
    def test_pmd_loadings(self, seed, m, c):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, m))
        c = min(c, float(np.sqrt(m)))
        lm = orthogonalize(sparse_loading_matrix(x.T @ x, [c])[0])
        assert np.max(np.abs(lm.T @ lm - np.eye(m))) < 1e-8

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, m=st.integers(3, 5), l1=st.floats(0.0, 2.0))
    def test_elastic_net_loadings(self, seed, m, l1):
        rng = np.random.default_rng(seed)
        cov = CovMatrix(random_spd(rng, m), tuple(f"v{i}" for i in range(m)))
        raw, = elastic_net_loadings(cov.values, [l1])
        # Near-tied eigenvalues can make the alternation oscillate; an
        # explicit refusal is an accepted outcome — the property covers
        # matrices that are actually produced. Any other error fails.
        assume(not isinstance(raw, NoConvergenceError))
        if isinstance(raw, Exception):
            raise raw
        lm = orthogonalize(raw)
        assert np.max(np.abs(lm.T @ lm - np.eye(m))) < 1e-8


class TestEcRange:
    """(b) EC in (0, 1] on random SPD matrices (1000 instances total)."""

    def test_thousand_random_spd(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            m = int(rng.integers(3, 8))
            cov = CovMatrix(random_spd(rng, m), tuple(f"v{i}" for i in range(m)))
            p = _random_blocks(rng, m)
            for b in range(1, p.n_blocks):
                ec = block_ec(cov, p, b).ec
                assert 0.0 < ec <= 1.0


class TestExactBlockDiagonal:
    """(c) EC = 1 within 1e-10 on exact block-diagonal covariances."""

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4))
    def test_ec_is_one(self, seed, sizes):
        rng = np.random.default_rng(seed)
        m = sum(sizes)
        values = np.zeros((m, m))
        blocks, pos = [], 0
        for s in sizes:
            values[pos:pos + s, pos:pos + s] = random_spd(rng, s)
            blocks.append(Block(range(pos, pos + s)))
            pos += s
        cov = CovMatrix(values, tuple(f"v{i}" for i in range(m)))
        entries, min_ec, passes = evaluate_partition(
            cov, BlockPartition(tuple(blocks))
        )
        assert passes
        for e in entries[1:]:
            assert abs(e.ec - 1.0) < 1e-10


class TestDualEcRoutes:
    """(d) closed-form EC equals the literal replacement path within 1e-10."""

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, which=st.sampled_from(["oecd", "exam", "random"]))
    def test_routes_agree(self, seed, which, oecd_corr, exam_cov):
        rng = np.random.default_rng(seed)
        if which == "oecd":
            cov = oecd_corr
        elif which == "exam":
            cov = exam_cov
        else:
            m = int(rng.integers(3, 7))
            cov = CovMatrix(random_spd(rng, m), tuple(f"v{i}" for i in range(m)))
        p = _random_blocks(rng, cov.n_vars)
        for b in range(p.n_blocks):
            closed = block_ec(cov, p, b)
            literal = block_ec_literal(cov, p, b)
            if closed.ec is None:
                assert literal.ec is None
            else:
                assert abs(closed.ec - literal.ec) < 1e-10


class TestEcFromOneFactor:
    """evaluate_partition's one-factor ECs equal both oracles within 1e-10."""

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, m=st.integers(2, 8))
    def test_matches_regression_and_literal(self, seed, m):
        rng = np.random.default_rng(seed)
        scale = np.diag(rng.uniform(0.2, 5.0, size=m))
        cov = CovMatrix(scale @ random_spd(rng, m) @ scale,
                        tuple(f"v{i}" for i in range(m)))
        p = _random_blocks(rng, m)
        p = BlockPartition(tuple(p.blocks[i] for i in rng.permutation(p.n_blocks)))
        entries, _, _ = evaluate_partition(cov, p)
        assert entries[0].ec is None
        for b in range(1, p.n_blocks):
            for oracle in (block_ec_regression, block_ec_literal):
                assert abs(entries[b].ec - oracle(cov, p, b).ec) < 1e-10


class TestEcInAnyWithinBlockOrder:
    """EC read off a weight basis built over any within-block variable order
    equals EC in the ascending basis within a relative 1e-12: the columns
    before a block's equal-weight column span the same variables."""

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, m=st.integers(2, 8))
    def test_matches_ascending_basis(self, seed, m):
        rng = np.random.default_rng(seed)
        scale = np.diag(rng.uniform(0.2, 5.0, size=m))
        cov = CovMatrix(scale @ random_spd(rng, m) @ scale,
                        tuple(f"v{i}" for i in range(m)))
        p = _random_blocks(rng, m)
        p = BlockPartition(tuple(p.blocks[i] for i in rng.permutation(p.n_blocks)))
        within = tuple(
            tuple(int(i) for i in rng.permutation(b.variable_indices))
            for b in p.blocks
        )
        cv = corrected_variances(cov, weight_basis(p, within))
        entries, min_ec, passes = _block_ecs(cv, p, DEFAULT_C_EC)
        want, want_min, want_passes = evaluate_partition(cov, p)
        assert entries[0].ec is None and passes == want_passes
        assert min_ec == pytest.approx(want_min, rel=1e-12, abs=0)
        for got, ref in zip(entries[1:], want[1:], strict=True):
            assert got.ec == pytest.approx(ref.ec, rel=1e-12, abs=0)


class TestElasticNetVectorSweep:
    """The vector sweep equals scalar per-column coordinate descent.

    Each penalty stays under ``2 lambda_min(S) / sqrt(M)``. Then ``|S a|``
    has an entry above half the penalty for every unit ``a``, so no column
    of B is ever zero. A zero column makes ``S B`` rank deficient, and
    rounding then picks its column of the polar factor, in either route.
    """

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, m=st.integers(2, 8))
    def test_matches_percolumn_oracle(self, seed, m):
        rng = np.random.default_rng(seed)
        s = random_spd(rng, m)
        bound = 2.0 * np.linalg.eigvalsh(s)[0] / np.sqrt(m)
        # Distinct penalties, so that columns stop after different sweeps.
        l1 = bound * rng.uniform(0.0, 0.999, size=m)
        lib, = elastic_net_loadings(s, [l1])
        if isinstance(lib, Exception):
            lib = type(lib)
        try:
            oracle = elastic_net_loadings_percolumn(s, l1)
        except Exception as exc:
            oracle = type(exc)
        if isinstance(oracle, type):
            assert lib is oracle
        else:
            assert np.array_equal(
                np.abs(lib) > ZERO_TOL, np.abs(oracle) > ZERO_TOL
            )
            assert np.max(np.abs(lib - oracle)) < 1e-12


class TestElasticNetLockStep:
    """The lock step over a grid equals one grid point at a time.

    Penalties reach ``max diag(S)``, so zero columns, the knife-edge of a
    column that a penalty just zeroes, and stalled alternations all occur.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        m=st.integers(2, 8),
        kinds=st.lists(st.booleans(), min_size=1, max_size=6),
    )
    def test_matches_pointwise_oracle(self, seed, m, kinds):
        rng = np.random.default_rng(seed)
        s = random_spd(rng, m)
        top = float(np.max(np.diag(s)))
        # A scalar entry, or one penalty per loading; some at exactly 0.
        grid = [
            tuple(rng.uniform(0.0, top, size=m)) if per_loading
            else float(rng.choice([0.0, top, rng.uniform(0.0, top)]))
            for per_loading in kinds
        ]
        for got, entry in zip(elastic_net_loadings(s, grid), grid, strict=True):
            try:
                want = elastic_net_loadings_pointwise(s, entry)
            except (NoConvergenceError, RankDeficientError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
            else:
                assert isinstance(got, np.ndarray) and np.array_equal(got, want)

    @pytest.mark.parametrize("fixture", ["exam_cov", "oecd_corr"])
    def test_default_grid_on_the_fixtures(self, request, fixture):
        # Most of these points stall until EN_MAX_ITER, which random
        # matrices seldom do.
        s = request.getfixturevalue(fixture).values
        grid = SplaConfig(method="spca").resolved_grid(s.shape[0])
        got = elastic_net_loadings(s, grid)
        for g, entry in zip(got, grid, strict=True):
            try:
                want = elastic_net_loadings_pointwise(s, entry)
            except (NoConvergenceError, RankDeficientError) as exc:
                assert type(g) is type(exc) and str(g) == str(exc)
            else:
                assert np.array_equal(g, want)
        assert any(type(g) is NoConvergenceError for g in got)


class TestVarianceBound:
    """(e) sum of corrected variances <= trace, equality at eigenvectors."""

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, m=st.integers(2, 7))
    def test_bound_and_equality(self, seed, m):
        rng = np.random.default_rng(seed)
        a = random_spd(rng, m)
        cov = CovMatrix(a, tuple(f"v{i}" for i in range(m)))
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        total = float(np.sum(corrected_variances(cov, q).r_squared))
        assert total <= np.trace(a) + 1e-8
        _, vecs = sym_eigen(a)
        at_eig = float(np.sum(corrected_variances(cov, vecs).r_squared))
        assert abs(at_eig - np.trace(a)) < 1e-8 * max(1.0, np.trace(a))


class TestPartialCovOracle:
    """(f) partial_cov equals the regression-residual covariance within 1e-8."""

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, m=st.integers(4, 6))
    def test_regression_residual(self, seed, m):
        from spla import partial_cov

        rng = np.random.default_rng(seed)
        a = random_spd(rng, m)
        cov = CovMatrix(a, tuple(f"v{i}" for i in range(m)))
        d_size = int(rng.integers(1, m))
        d = sorted(rng.choice(m, size=d_size, replace=False).tolist())
        k = [i for i in range(m) if i not in set(d)]
        pc = partial_cov(cov, d)
        beta = np.linalg.solve(a[np.ix_(k, k)], a[np.ix_(k, d)])
        oracle = a[np.ix_(d, d)] - a[np.ix_(d, k)] @ beta
        assert np.max(np.abs(pc - oracle)) < 1e-8


class TestVariancePaths:
    """(g) Cholesky-on-Gram and data-QR corrected variances agree within 1e-8."""

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, m=st.integers(2, 6), n=st.integers(10, 80))
    def test_paths_agree(self, seed, m, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, m)) @ np.diag(rng.uniform(0.5, 2.0, size=m))
        d = DataMatrix(x, tuple(f"v{i}" for i in range(m)))
        cov = sample_cov(d)
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        c1 = corrected_variances(cov, q).r_squared
        c2 = corrected_variances_from_data(d, q).r_squared
        assert np.max(np.abs(c1 - c2)) < 1e-8 * max(1.0, float(np.max(c1)))
