"""Property-based suites (always on).

Random instances are derived from hypothesis-drawn seeds and sizes, so every
failure shrinks to a small reproducible seed.
"""

import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spla.sparse_loadings as sl
from spla import (
    Block,
    BlockDesign,
    BlockPartition,
    CovMatrix,
    DataMatrix,
    block_ec,
    corrected_variances,
    detect_blocks,
    elastic_net_loadings,
    evaluate_partition,
    gen_block_sample,
    orthogonalize,
    sample_cov,
    sparse_loading_matrix,
)
from spla.blocks import BlockError, NonSquareBlockError
from spla.evaluation import DEFAULT_C_EC, _block_ecs, weight_basis
from spla.pipeline import SplaConfig
from spla.matops import (
    MatopsError,
    NoConvergenceError,
    RankDeficientError,
    sym_eigen,
)
from spla.sparse_loadings import DETECT_TOL, ZERO_TOL

from conftest import random_spd
from oracles import (
    block_ec_literal,
    block_ec_regression,
    corrected_variances_from_data,
    elastic_net_loadings_percolumn,
    elastic_net_loadings_pointwise,
    full_deflation,
    supports_connect_after,
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


def _detected(result):
    """What detection reads of one budget's result at DETECT_TOL: the
    partition, or the class and message of the error that ends the point."""
    try:
        if isinstance(result, Exception):
            raise result
        return detect_blocks(result, DETECT_TOL)
    except (BlockError, MatopsError) as exc:
        return type(exc), str(exc)


class TestConnectedSupportsStop:
    """A PMD budget stops once its supports at DETECT_TOL connect every
    variable. Against the full deflation (``oracles.full_deflation``), its
    factors up to that one are the same to the bit, and it detects the same
    partition, or the same error class and message.

    One difference is known. Exact ties, as in a rank-deficient integer Gram
    matrix or in integer equicorrelated groups, can make a later factor of
    the full deflation the zero vector (no budget below ``sqrt(k)`` holds
    ``k`` tied largest ``|z|``), and then every factor after it, since
    deflating by zero changes nothing. Those columns leave the connected
    variables short of loadings, a non-square component; the library never
    runs them and detects the single block.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        m=st.integers(2, 15),
        kind=st.sampled_from(["wishart", "design", "integer"]),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    )
    def test_matches_the_full_deflation(self, seed, m, kind, fractions):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2 * m + 1))  # fewer rows than variables too
        if kind == "wishart":
            x = rng.normal(size=(n, m))
            s = x.T @ x
        elif kind == "design":
            design = BlockDesign(max(m // 2, 1), float(rng.uniform(0.0, 0.9)))
            s = sample_cov(gen_block_sample(design, 10 * n + 10, seed)).values
        else:  # exact ties and zero variances
            a = rng.integers(-2, 3, size=(n, m)).astype(float)
            s = a.T @ a
        m = s.shape[0]
        grid = [1.0 + f * (np.sqrt(m) - 1.0) for f in fractions]
        stopped = sparse_loading_matrix(s, grid)
        full = full_deflation(s, grid)
        for got, want in zip(stopped, full, strict=True):
            if isinstance(want, np.ndarray):
                k = supports_connect_after(want, DETECT_TOL) or m
                assert np.array_equal(got[:, :k], want[:, :k])
            if _detected(got) != _detected(want):  # the known difference
                assert _detected(got) == BlockPartition((Block(range(m)),))
                assert isinstance(want, np.ndarray) and not want[:, -1].any()

    def test_a_zero_factor_after_the_supports_connect(self):
        # One observation of six integer variables: a rank-one Gram matrix.
        # The first factor at c = sqrt(3) - 0.005 links all six. Its
        # deflated remainder has four tied largest |z|, more than c * c, so
        # the full deflation's five later factors are zero vectors.
        a = np.array([[2.0, -1.0, 1.0, -1.0, 2.0, 1.0]])
        c = float(np.sqrt(3)) - 0.005
        stopped, = sparse_loading_matrix(a.T @ a, [c])
        full, = full_deflation(a.T @ a, [c])
        assert np.array_equal(stopped[:, 0], full[:, 0])
        assert detect_blocks(stopped, DETECT_TOL) == BlockPartition((Block(range(6)),))
        assert _detected(full) == (
            NonSquareBlockError,
            "component with variables [0, 1, 2, 3, 4, 5] pairs 1 loadings",
        )
        assert not full[:, 1:].any()

    def test_real_blocks_never_stop(self, caplog):
        # Seven independent pairs at the pair budget: no support crosses a
        # pair, so every factor runs and the matrix is the full deflation's.
        s = sample_cov(gen_block_sample(BlockDesign(rho=0.0), 1000, 1)).values
        c = float(np.sqrt(2)) - 0.005
        caplog.set_level(logging.DEBUG, logger="spla")
        stopped, = sparse_loading_matrix(s, [c])
        assert caplog.records[0].getMessage().endswith(
            "14 of 14 factors run; supports never connected at tol 0.01"
        )
        assert np.array_equal(stopped, full_deflation(s, [c])[0])
        assert detect_blocks(stopped, DETECT_TOL).n_blocks == 7

    @pytest.mark.parametrize("tol", [1 / np.sqrt(5), 0.47])
    def test_tol_at_or_above_one_over_root_m_never_stops(self, tol, caplog, monkeypatch):
        # The supports connect after the fourth factor, but a unit column
        # need not have an entry above such a tol, so all five factors run.
        # 1/sqrt(5) squared times 5 rounds to below 1; the guard's band
        # keeps it from stopping.
        a = np.array([[0, -1, -1, -2, -2], [-2, -2, 2, 1, 2], [0, 1, 2, 1, 1],
                      [0, 0, 2, -1, 2], [1, -2, -1, 2, 0], [-2, 1, 1, 2, -2]])
        s = (a.T @ a).astype(float)
        monkeypatch.setattr(sl, "DETECT_TOL", tol)
        caplog.set_level(logging.DEBUG, logger="spla")
        stopped, = sparse_loading_matrix(s, [2.0])
        assert caplog.records[0].getMessage() == (
            "pmd budget 2.0: 5 of 5 factors run; supports connected after factor 4"
        )
        assert np.array_equal(stopped, full_deflation(s, [2.0])[0])


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
    On an exactly block-diagonal ``S``, exact zeros, signed ones included,
    reach ``S A`` and ``B``.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        m=st.integers(2, 8),
        block_diagonal=st.booleans(),
        kinds=st.lists(st.booleans(), min_size=1, max_size=6),
    )
    def test_matches_pointwise_oracle(self, seed, m, block_diagonal, kinds):
        rng = np.random.default_rng(seed)
        s = random_spd(rng, m)
        if block_diagonal:  # up to three blocks of consecutive variables
            label = np.sort(rng.integers(0, 3, size=m))
            s[label[:, None] != label] = 0.0
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
                assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()

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
                assert g.tobytes() == want.tobytes()
        assert any(type(g) is NoConvergenceError for g in got)

    @pytest.mark.parametrize("half", [0.0, 0.5])
    def test_copysign_step_equals_sign_times_max(self, half):
        # The coordinate step's two forms, on every kind of ``rho`` the lock
        # step can meet: -0.0 is the one where they differ, and the step
        # never sees it, since ``S A`` gets + 0.0 first.
        edge = [0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)]
        rho = np.array([0.0, *edge, *np.negative(edge), 1e-300, -1e-300, 1e300, -1e300])
        halves, zero = np.full_like(rho, half), np.zeros_like(rho)
        for d in (1.0 + 1e-6, 3.0):
            want = np.sign(rho) * np.maximum(np.abs(rho) - halves, 0.0) / d
            got = np.copysign(np.maximum(np.abs(rho) - halves, zero), rho) / np.array(d)
            assert got.tobytes() == want.tobytes()
        minus = np.array([-0.0])
        assert np.copysign(0.0, minus).tobytes() != (np.sign(minus) * 0.0).tobytes()
        assert (minus + 0.0).tobytes() == np.array([0.0]).tobytes()


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
