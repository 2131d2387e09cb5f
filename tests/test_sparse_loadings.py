import inspect
import logging
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spla.sparse_loadings as sl
from spla import (
    BlockDesign,
    DataMatrix,
    detect_blocks,
    elastic_net_loadings,
    orthogonalize,
    penalized_rank_one,
    sample_cov,
    sparse_loading_matrix,
    standardize,
    structure_scan,
)
from spla.blocks import ZERO_TOL
from spla.matops import _fix_signs, soft_threshold, svd, sym_eigen
from spla.pipeline import SplaConfig
from spla.simulate import gen_block_sample

from conftest import random_spd
from oracles import (
    elastic_net_loadings_pointwise,
    full_deflation,
    supports_connect_after,
    unit_within_budget_vectorized,
)


def _pseudo_sample(cov_values: np.ndarray) -> np.ndarray:
    lam, vecs = sym_eigen(cov_values)
    return np.sqrt(np.maximum(lam, 0.0))[:, None] * vecs.T


def _l1_of_unit(z: np.ndarray, delta: float) -> float:
    w = soft_threshold(z, delta)
    n2 = np.linalg.norm(w)
    return np.inf if n2 == 0.0 else float(np.sum(np.abs(w)) / n2)


def _bisection_loading(z: np.ndarray, c: float) -> np.ndarray:
    """Reference for ``_unit_within_budget``: 50 bisection steps for the
    smallest ``delta`` keeping the budget."""
    if _l1_of_unit(z, 0.0) <= c:
        delta = 0.0
    else:
        lo, delta = 0.0, float(np.max(np.abs(z)))
        for _ in range(50):
            mid = (lo + delta) / 2.0
            if _l1_of_unit(z, mid) <= c:
                delta = mid
            else:
                lo = mid
    w = soft_threshold(z, delta)
    n = np.linalg.norm(w)
    return w / n if n > 0 else w


def _sample_route(x: np.ndarray, c: float) -> np.ndarray:
    """Reference for :func:`sparse_loading_matrix`: the PMD on the sample
    side, unorthogonalized.

    Each factor starts at the leading right singular vector of the deflated
    ``x`` and alternates ``left <- unit(x v)``, ``v <- unit_within_budget(
    x^T left)``; deflation subtracts ``d left v^T`` and stops once
    ``||x_w|| <= 1e-12 ||x||``. A covariance enters as its square root
    (``_pseudo_sample``). The iteration policy is the library's; capped
    factors keep their last iterate.
    """
    m = x.shape[1]
    work, cols = x.copy(), []
    while len(cols) < m and np.linalg.norm(work) > 1e-12 * np.linalg.norm(x):
        loading = np.linalg.svd(work)[2][0]
        for _ in range(sl.PMD_MAX_ITER):
            new = sl._unit_within_budget(work.T @ sl._unit(work @ loading), c)
            done = np.linalg.norm(new - loading) < sl.PMD_CONV_TOL
            loading = new
            if done:
                break
        left = sl._unit(work @ loading)
        work = work - (left @ work @ loading) * np.outer(left, loading)
        cols.append(loading)
    if len(cols) < m:
        done = np.column_stack(cols) if cols else np.empty((m, 0))
        cols.extend(np.linalg.svd(done)[0][:, len(cols):].T)
    return _fix_signs(np.column_stack(cols))


def _assert_same_results(got: list, want: list):
    """Two kernels' result lists agree: the same loadings byte for byte, or
    the same error class and message."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert isinstance(g, np.ndarray) and g.tobytes() == w.tobytes()
        else:
            assert (type(g), str(g)) == (type(w), str(w))


@pytest.fixture()
def thresholds(monkeypatch):
    """The ``delta`` of every threshold search in ``sparse_loadings``."""
    deltas = []
    search = sl._threshold

    def recording(az, c):
        deltas.append(search(az, c))
        return deltas[-1]

    monkeypatch.setattr(sl, "_threshold", recording)
    return deltas


@st.composite
def _budget_cases(draw):
    """``(z, c)`` with ``c`` in ``(1, sqrt(M)]``. ``z`` lives on a grid of
    ``1 / levels``, so distinct ``|z|`` values are at least ``1e-6 * max|z|``
    apart; ``levels = 4`` draws exact ties on purpose.

    ``c`` within ``1e-8`` (relative) of the ratio at a knot puts the threshold
    within the bisection's resolution, ``2**-50 * max|z|``, of that knot; there
    its dyadic grid, not the budget, decides whether the coordinate at the knot
    is zero, so such draws are left out."""
    m = draw(st.integers(2, 12))
    levels = draw(st.sampled_from([4, 1000, 10**6]))
    ints = draw(st.lists(st.integers(-levels, levels), min_size=m, max_size=m))
    scale = draw(st.sampled_from([1.0, 0.37, 1e3]))
    z = np.array(ints, dtype=float) * (scale / levels)
    c = draw(st.floats(1.0, float(np.sqrt(m)), exclude_min=True))
    knots = [_l1_of_unit(z, a) for a in np.append(np.abs(z), 0.0)]
    assume(all(abs(r - c) > 1e-8 * c for r in knots if np.isfinite(r)))
    return z, c


@st.composite
def _kernel_cases(draw):
    """``(z, c)`` over M from 1 to 60 and ``c`` at 1, at ``sqrt(M)`` or
    between. ``z`` lives on an integer grid of ``levels`` steps times a scale
    from 1e-3 to 1e3: ``levels = 0`` is the zero vector, 1 and 3 draw exact
    ties. At M = 1 the zero vector has no second ``|z|`` for ``c = 1``; no
    alternation meets it (a nonzero 1 x 1 ``s`` maps a unit vector to a
    nonzero one), so it is left out."""
    m = draw(st.integers(1, 60))
    levels = draw(st.sampled_from([0, 1, 3, 1000, 10**6]))
    ints = draw(st.lists(st.integers(-levels, levels), min_size=m, max_size=m))
    scale = draw(st.floats(1e-3, 1e3))
    z = np.array(ints, dtype=float) * (scale / max(levels, 1))
    root_m = float(np.sqrt(m))
    c = draw(st.one_of(st.just(1.0), st.just(root_m), st.floats(1.0, root_m)))
    assume(m > 1 or z.any())
    return z, c


class TestScalarKnotScan:
    """The knot scan in Python floats against the vectorized one of
    ``tests/oracles.py``: the same answer to the bit, signed zeros included."""

    @staticmethod
    def _assert_same_bits(z, c):
        got = sl._unit_within_budget(z, c)
        with np.errstate(invalid="ignore"):  # the oracle's sqrt of a rounded < 0
            want = unit_within_budget_vectorized(z, c)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=500, deadline=None)
    @given(_kernel_cases())
    def test_matches_vectorized_oracle(self, case):
        self._assert_same_bits(*case)

    @pytest.mark.parametrize(
        ("z", "c"),
        [
            # g1 * g1 and np.float64(g1) ** 2 differ in the last bit here, and
            # so does the answer.
            ([-1.11, 0.52, -0.42, -0.07, 0.71, -0.58, -0.57], 2.0),
            # c is ||z||_1 / ||z||_2 with a sequential sum. numpy's pairwise
            # sum rounds one ulp higher, so the budget binds (threshold
            # 1.1e-16) where a sequential sum would give 0.
            (
                [-0.5, 0, 0, -0.4, 0.3, 0, -0.8, 0, 0, 0, -1.1, 0, 1.5, 0, -0.1,
                 0.5, 0, 0],
                2.3587679004578748,
            ),
        ],
        ids=["root-square", "pairwise-l1"],
    )
    def test_last_bit_cases(self, z, c):
        self._assert_same_bits(np.array(z, dtype=float), c)


class TestBudgetThreshold:
    @settings(max_examples=400, deadline=None)
    @given(_budget_cases())
    def test_matches_bisection(self, case):
        z, c = case
        got = sl._unit_within_budget(z, c)
        want = _bisection_loading(z, c)
        assert np.max(np.abs(got - want)) <= 1e-9
        assert np.array_equal(got == 0.0, want == 0.0)
        assert (not got.any()) == (not want.any())

    def test_c1_is_signed_basis_vector_or_zero(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            z = rng.normal(size=int(rng.integers(2, 15)))
            i = int(np.argmax(np.abs(z)))
            want = np.zeros_like(z)
            want[i] = np.sign(z[i])
            assert np.array_equal(sl._unit_within_budget(z, 1.0), want)
        tied = np.array([0.3, -2.0, 2.0, 1.0])
        assert not sl._unit_within_budget(tied, 1.0).any()

    @pytest.mark.parametrize(
        ("z", "c"),
        [
            # c is the knot ratio sqrt(2): rounding puts the root just below 0.
            ([-0.37, -1.48, -0.37], np.sqrt(2.0)),
            # c = sqrt(M) with all |z| equal: rounding makes r(0) > c and
            # k <= c^2 on the only piece, whose answer is its lower knot, 0.
            ([0.3, 0.3, -0.3, -0.3, -0.3], np.sqrt(5.0)),
        ],
    )
    def test_rounding_at_a_knot_stays_in_the_piece(self, z, c):
        z = np.array(z)
        got = sl._unit_within_budget(z, c)
        assert np.max(np.abs(got - _bisection_loading(z, c))) <= 1e-9
        assert np.all(got != 0.0)

    def test_threshold_is_the_smallest_within_budget(self, thresholds):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(200):
            m = int(rng.integers(3, 15))
            z = rng.normal(size=m)
            c = float(rng.uniform(1.0, np.sqrt(m)))
            w = sl._unit_within_budget(z, c)
            delta = thresholds[-1]
            if delta == 0.0:
                continue
            checked += 1
            assert np.sum(np.abs(w)) <= c * (1 + 1e-12)
            assert _l1_of_unit(z, delta * (1 - 1e-9)) > c
        assert checked > 100


class TestPenalizedRankOne:
    def test_loose_budget_is_leading_singular_vector(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(40, 5))
        s = x.T @ x
        loading = penalized_rank_one(s, np.sqrt(5))
        _, sv, vt = np.linalg.svd(x)
        lead = vt[0]
        assert np.allclose(np.abs(loading), np.abs(lead), atol=1e-6)
        assert loading @ s @ loading == pytest.approx(sv[0] ** 2, rel=1e-6)

    def test_c1_selects_max_variance_singleton(self):
        # Brute-force oracle: with budget 1 the loading must be a standard
        # basis vector; the optimum is the column maximizing ||x e_j||.
        rng = np.random.default_rng(22)
        x = rng.normal(size=(30, 4)) * [1.0, 3.0, 0.5, 2.0]
        s = x.T @ x
        loading = penalized_rank_one(s, 1.0)
        assert np.sum(np.abs(loading) > 1e-9) == 1
        best = np.argmax(np.linalg.norm(x, axis=0))
        assert np.argmax(np.abs(loading)) == best
        assert loading @ s @ loading == pytest.approx(
            np.linalg.norm(x[:, best]) ** 2, rel=1e-9
        )

    def test_l1_budget_respected(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(25, 6))
        for c in (1.0, 1.5, 2.0):
            loading = penalized_rank_one(x.T @ x, c)
            assert np.sum(np.abs(loading)) <= c + 1e-6
            assert np.linalg.norm(loading) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_budget(self):
        x = np.eye(3)
        for c in (0.5, 2.0):
            with pytest.raises(ValueError, match=r"^l1 bound c=.* outside \[1, sqrt\(3\)\]$"):
                penalized_rank_one(x, c)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="^s must be nonzero$"):
            penalized_rank_one(np.zeros((3, 3)), 1.5)
        # The loading matrix extracts no factor from it and returns the
        # basis of the complement, here the whole space.
        got = sparse_loading_matrix(np.zeros((3, 3)), [1.5])
        assert len(got) == 1 and np.array_equal(got[0], np.eye(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e300])
    def test_loading_is_scale_free(self, scale):
        # Unscaled, z = s v and its squares would fall into subnormals (a
        # loading off unit norm, or zero) or overflow.
        rng = np.random.default_rng(24)
        x = rng.normal(size=(20, 5))
        s = x.T @ x
        loading = penalized_rank_one(s * scale, 1.5)
        assert np.allclose(loading, penalized_rank_one(s, 1.5), rtol=0, atol=1e-12)
        assert np.linalg.norm(loading) == pytest.approx(1.0, abs=1e-12)

    def test_power_of_two_keeps_every_bit_on_a_block_design(self):
        # Run unscaled, the alternation gives c = 1.2 loadings of S and
        # 2**-200 S that differ by 1.8e-17.
        s = sample_cov(gen_block_sample(BlockDesign(rho=0), 300, 0)).values
        grid = (np.sqrt(14) - 0.005, 2.0, 1.5, 1.2)
        _assert_same_results(
            sparse_loading_matrix(s, grid), sparse_loading_matrix(np.ldexp(s, -200), grid)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just("spd"), st.integers(2, 8), st.integers(0, 2**32 - 1)),
            st.tuples(st.just("design"), st.integers(1, 5), st.integers(0, 2**32 - 1)),
        ),
        st.integers(-300, 300),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    )
    def test_power_of_two_keeps_every_bit(self, case, k, fractions):
        kind, size, seed = case
        if kind == "spd":
            s = random_spd(np.random.default_rng(seed), size)
        else:
            s = sample_cov(gen_block_sample(BlockDesign(n_blocks=size, rho=0.3), 60, seed)).values
        # 2**k s is exact: every nonzero entry stays a normal float.
        nonzero = np.abs(np.ldexp(s[s != 0], k))
        assume(np.all(nonzero >= np.finfo(float).tiny) and np.all(np.isfinite(nonzero)))
        grid = [1.0 + f * (np.sqrt(len(s)) - 1.0) for f in fractions]
        _assert_same_results(
            sparse_loading_matrix(s, grid), sparse_loading_matrix(np.ldexp(s, k), grid)
        )

    def test_one_threshold_per_alternation(self, thresholds):
        cov = sample_cov(gen_block_sample(BlockDesign(), 1000, 41))
        for c in (1.0, 1.409, 2.0, 3.0):
            thresholds.clear()
            penalized_rank_one(cov.values, c)
            assert 0 < len(thresholds) <= sl.PMD_MAX_ITER + 1

    def test_capped_alternation_keeps_its_last_iterate(self, monkeypatch):
        # Seven equal-variance pairs with a shared factor drift slowly at
        # the pair-budget knot; two alternations do not converge there.
        from spla.simulate import gen_block_sample_keyed

        s = gen_block_sample_keyed(BlockDesign(rho=0.2), 1000, 20240817, 0)
        cov = sample_cov(s).values
        settled = penalized_rank_one(cov, 1.409)
        monkeypatch.setattr(sl, "PMD_MAX_ITER", 2)
        loading = penalized_rank_one(cov, 1.409)
        assert np.linalg.norm(loading) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(loading - settled) > 1e-3

    def test_factors_run_until_the_supports_connect(self, monkeypatch, exam_cov):
        # The PMD factors go through the public function, so a wrapper of it
        # sees each one. The full deflation runs one per loading of the 5
        # variables; the library stops at DETECT_TOL, where the first
        # factor's support already connects them, and so does the scan.
        calls = []
        real = sl.penalized_rank_one

        def counted(s, c):
            calls.append(c)
            return real(s, c)

        monkeypatch.setattr(sl, "penalized_rank_one", counted)
        full_deflation(exam_cov.values, [2.0])
        assert calls == [2.0] * 5
        calls.clear()
        sparse_loading_matrix(exam_cov.values, [2.0])
        assert calls == [2.0]
        calls.clear()
        structure_scan(exam_cov, SplaConfig(grid=(2.0,)))
        assert calls == [2.0]


class TestSparseLoadingMatrix:
    def test_orthonormal_after_orthogonalize(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(50, 5))
        lm = orthogonalize(sparse_loading_matrix(x.T @ x, [1.6])[0])
        assert np.allclose(lm.T @ lm, np.eye(5), atol=1e-8)

    def test_sparsity_monotone_on_fixture(self, exam_data):
        # Total nonzero count is non-increasing as the budget c decreases.
        x = exam_data.values - exam_data.values.mean(axis=0)
        counts = []
        for c in np.linspace(np.sqrt(5), 1.0, 6):
            lm = sparse_loading_matrix(x.T @ x, [float(c)])[0]
            counts.append(int(np.sum(np.abs(lm) > ZERO_TOL)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_block_diagonal_input_recovers_blocks(self):
        # Exactly block-diagonal covariance: loadings never straddle blocks.
        cov = np.zeros((4, 4))
        cov[:2, :2] = [[2.0, 0.9], [0.9, 2.0]]
        cov[2:, 2:] = [[1.0, 0.4], [0.4, 1.0]]
        lm = sparse_loading_matrix(cov, [1.41])[0]
        pat = np.abs(lm) > ZERO_TOL
        for j in range(4):
            rows = set(np.nonzero(pat[:, j])[0])
            assert rows <= {0, 1} or rows <= {2, 3}


class TestCovarianceRoute:
    """The library's factors against the sample route's, up to the factor
    after which the supports at DETECT_TOL connect every variable, where
    the library stops."""

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.6])
    def test_matches_square_root_route(self, rho):
        cov = sample_cov(gen_block_sample(BlockDesign(rho=rho), 1000, 51))
        grid = [c for c in SplaConfig().resolved_grid(14) if c > 1.0]
        assert len(grid) == 14
        for c in grid:
            got = sparse_loading_matrix(cov.values, [c])[0]
            want = _sample_route(_pseudo_sample(cov.values), c)
            k = supports_connect_after(want, sl.DETECT_TOL) or 14
            assert np.array_equal(np.abs(got[:, :k]) > 1e-2,
                                  np.abs(want[:, :k]) > 1e-2), c
            assert np.max(np.abs(got[:, :k] - want[:, :k])) <= 1e-9, c
            assert detect_blocks(got, sl.DETECT_TOL) == detect_blocks(want, sl.DETECT_TOL)

    @pytest.mark.parametrize("c", [1.5, 2.0, np.sqrt(6.0)])
    def test_fewer_observations_than_variables(self, c):
        x = np.random.default_rng(52).normal(size=(3, 6))
        raw = sparse_loading_matrix(x.T @ x, [c])[0]
        u = orthogonalize(raw)
        assert np.allclose(u.T @ u, np.eye(6), atol=1e-8)
        want = _sample_route(x, c)
        k = min(supports_connect_after(want, sl.DETECT_TOL) or 3, 3)
        assert np.max(np.abs(raw[:, :k] - want[:, :k])) <= 1e-9

    @pytest.mark.parametrize("c", [2.0, np.sqrt(6.0)])
    def test_deflation_stops_once_the_row_space_is_spent(self, c):
        # Every unit vector of the row space of x has ||v||_1 <= sqrt(3) < c,
        # so three unthresholded factors exhaust x^T x. The rest must be a
        # basis of the complement, not loadings of the rounding residue. That
        # residue's trace has either sign, so ten samples are drawn.
        rng = np.random.default_rng(53)
        for _ in range(10):
            x = np.hstack([rng.normal(size=(3, 3)), np.zeros((3, 3))])
            u = sparse_loading_matrix(x.T @ x, [c])[0]
            assert np.allclose(u.T @ u, np.eye(6), atol=1e-8)
            assert not u[3:, :3].any()


class TestLoadingGrid:
    """The PMD route takes the whole grid in one call too: one result per
    budget, each the budget solved alone, errors returned."""

    @pytest.mark.parametrize("source", ["exam", "block"])
    def test_every_point_is_its_budget_alone(self, exam_cov, source):
        if source == "exam":
            s = exam_cov.values
        else:
            s = sample_cov(gen_block_sample(BlockDesign(rho=0.3), 1000, 51)).values
        grid = SplaConfig().resolved_grid(s.shape[0])
        assert len(grid) == (15 if source == "block" else 6)
        out = sparse_loading_matrix(s, grid)
        assert len(out) == len(grid)
        for got, c in zip(out, grid):
            assert isinstance(got, np.ndarray), c
            assert np.array_equal(got, sparse_loading_matrix(s, [c])[0]), c

    def test_error_is_returned_for_its_point_only(self, exam_cov, monkeypatch):
        grid = [2.0, 1.5, 1.2]
        want = sparse_loading_matrix(exam_cov.values, grid)
        real = sl.penalized_rank_one

        def failing(s, c):
            if c == 1.5:
                raise sl.NoConvergenceError("factor did not converge")
            return real(s, c)

        monkeypatch.setattr(sl, "penalized_rank_one", failing)
        got = sparse_loading_matrix(exam_cov.values, grid)
        assert len(got) == 3
        assert isinstance(got[1], sl.NoConvergenceError)
        assert str(got[1]) == "factor did not converge"
        for g, w in zip(got[::2], want[::2]):
            assert np.array_equal(g, w)

    def test_empty_grid(self, exam_cov):
        assert sparse_loading_matrix(exam_cov.values, []) == []

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([2.0, 9.0], "l1 bound c=9.0 outside [1, sqrt(5)]"),
            ([2.0, (1.5, 1.5)], "per-loading penalty vectors require method 'spca'"),
            # The first bad entry's message wins.
            ([9.0, (5.0, 5.0)], "l1 bound c=9.0 outside [1, sqrt(5)]"),
            ([2.0, (5.0, 5.0), 9.0], "per-loading penalty vectors require method 'spca'"),
        ],
    )
    def test_bad_entry_raises_before_any_point(
        self, exam_cov, monkeypatch, grid, message
    ):
        calls = []
        monkeypatch.setattr(sl, "penalized_rank_one", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sparse_loading_matrix(exam_cov.values, grid)
        assert calls == []


class TestElasticNet:
    def test_zero_penalty_recovers_eigenvectors(self, exam_cov):
        lm, = elastic_net_loadings(exam_cov.values, [0.0])
        _, vecs = sym_eigen(exam_cov.values)
        assert np.allclose(np.abs(lm), np.abs(vecs), atol=1e-6)

    def test_penalty_produces_zeros(self, exam_cov):
        lm, = elastic_net_loadings(exam_cov.values, [(5.0, 5.0, 5.0, 2.0, 2.0)])
        assert np.sum(np.abs(lm) <= ZERO_TOL) > 0

    def test_converged_iteration_takes_no_polar_factor(self, oecd_corr, monkeypatch):
        # With no penalty B converges in the first alternation, and the polar
        # factor of S B, which only a further alternation would read, is
        # never taken: neither through the package's svd nor numpy's.
        calls = []

        def counted(factor):
            def wrapper(a, *args, **kwargs):
                calls.append(a)
                return factor(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(sl, "svd", counted(svd))
        monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
        elastic_net_loadings(oecd_corr.values, [0.0, 0.0])
        assert calls == []

    def test_orthonormal_result(self, exam_cov):
        lm, = elastic_net_loadings(exam_cov.values, [(5.0, 5.0, 5.0, 2.0, 2.0)])
        lm = orthogonalize(lm)
        assert np.allclose(lm.T @ lm, np.eye(5), atol=1e-8)


class TestElasticNetGrid:
    """The whole grid in one call: one result per point, errors returned."""

    def test_errors_are_returned_per_point(self, exam_cov):
        # At 0.05 the alternation stalls on this covariance; at 5 it converges.
        grid = [0.05, 5.0, (5.0, 5.0, 5.0, 2.0, 2.0)]
        out = elastic_net_loadings(exam_cov.values, grid)
        assert len(out) == 3
        assert isinstance(out[0], sl.NoConvergenceError)
        assert str(out[0]) == (
            f"elastic-net loadings did not converge in {sl.EN_MAX_ITER} iterations"
        )
        for got, entry in zip(out[1:], grid[1:]):
            assert np.array_equal(got, elastic_net_loadings(exam_cov.values, [entry])[0])

    def test_zero_column_is_returned(self):
        # A penalty above 2 max|S A_j| zeroes every column in the first sweep.
        out = elastic_net_loadings(np.diag([2.0, 1.0]), [10.0, 0.0])
        assert isinstance(out[0], sl.RankDeficientError)
        assert str(out[0]) == "an elastic-net loading collapsed to zero"
        assert np.array_equal(np.abs(out[1]), np.eye(2))

    def test_empty_grid(self, exam_cov):
        assert elastic_net_loadings(exam_cov.values, []) == []

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((1.0, 1.0), "2 l1 penalties for k=5 loadings"),
            (-1.0, "penalties must be nonnegative"),
            (np.inf, "penalties must be finite"),
            (np.nan, "penalties must be finite"),
        ],
    )
    def test_bad_entry_raises_before_any_iteration(
        self, exam_cov, monkeypatch, bad, message
    ):
        # The start's eigendecomposition comes after the checks and before
        # the first sweep.
        starts = []
        monkeypatch.setattr(sl, "sym_eigen", lambda a: starts.append(a) or sym_eigen(a))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            elastic_net_loadings(exam_cov.values, [5.0, bad])
        assert starts == []

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_bootstrap_resamples_match_the_pointwise_oracle(self, oecd_data, seed):
        # Inputs drawn as the spca-oecd benchmark draws them. Each of these
        # grids has stalled, converged and collapsed points, and every point
        # is bit for bit the point solved alone.
        rows = np.random.default_rng(seed).integers(0, oecd_data.n_obs, oecd_data.n_obs)
        d = DataMatrix(oecd_data.values[rows], oecd_data.variable_names)
        s = sample_cov(standardize(d)).values
        grid = SplaConfig(method="spca").resolved_grid(s.shape[0])
        got = elastic_net_loadings(s, grid)
        for g, entry in zip(got, grid, strict=True):
            try:
                want = elastic_net_loadings_pointwise(s, entry)
            except sl.MatopsError as exc:
                assert type(g) is type(exc) and str(g) == str(exc)
            else:
                assert isinstance(g, np.ndarray) and np.array_equal(g, want)
        kinds = {type(g) for g in got}
        assert kinds == {sl.NoConvergenceError, np.ndarray, sl.RankDeficientError}

    def test_refused_svd_ends_only_its_point(self, exam_cov, monkeypatch, caplog):
        # LAPACK refusing one matrix fails a stacked SVD. Each matrix is then
        # factored alone, and only the refused point ends with the error.
        # Refusing the middle point shifts the last one in the compacted
        # stacks; refusing the last point of the same penalties in another
        # order shifts none. The survivors run alike in both: the same
        # loadings, byte for byte, and the same DEBUG record, whose stacked
        # sweep counts a wrong shift changes even where, as here, the
        # converged loadings do not depend on the starting B.
        grid = [8.0, 20.0, 50.0]  # each converges after tens of SVDs
        want = elastic_net_loadings(exam_cov.values, grid)
        caplog.set_level(logging.DEBUG, logger="spla")

        def run(grid, refused):
            alone = []

            def refusing(a):
                if a.ndim == 3:
                    raise sl.NoConvergenceError("stack refused")
                alone.append(a)
                if len(alone) == refused:  # that point of the first stack
                    raise sl.NoConvergenceError("SVD did not converge")
                return svd(a)

            monkeypatch.setattr(sl, "svd", refusing)
            caplog.clear()
            got = elastic_net_loadings(exam_cov.values, grid)
            # "spca point k of 3: <outer iterations, sweeps; ending>"
            return got, [r.getMessage().split(": ", 1)[1] for r in caplog.records]

        got, records = run(grid, 2)
        unshifted, unshifted_records = run([8.0, 50.0, 20.0], 3)
        assert isinstance(got[1], sl.NoConvergenceError)
        assert str(got[1]) == "SVD did not converge"
        assert records[1] == unshifted_records[2]
        assert records[1].endswith("; NoConvergenceError: SVD did not converge")
        for k, j in ((0, 0), (2, 1)):
            assert got[k].tobytes() == want[k].tobytes() == unshifted[j].tobytes()
            assert records[k] == unshifted_records[j]

    def test_converged_and_refused_points_retire_in_one_iteration(
        self, exam_cov, monkeypatch, caplog
    ):
        # Point 1 converges in the outer iteration in which the stacked SVD
        # of points 2 and 3 is refused and point 2's own SVD fails. Both
        # retire with their own result, and point 3 runs on as without the
        # refusal: point 2 would end three iterations later, each with fewer
        # sweeps than point 3's, so even the stacked sweep count is the same.
        grid = [50.0, 60.0, 20.0]
        caplog.set_level(logging.DEBUG, logger="spla")
        want = elastic_net_loadings(exam_cov.values, grid)
        # "spca point k of 3: <outer iterations, sweeps; ending>"
        want_records = [r.getMessage().split(": ", 1)[1] for r in caplog.records]
        ran = [int(r.split(" outer")[0]) for r in want_records]
        assert ran == [37, 40, 53]
        calls = []

        def refusing(a):
            calls.append(a.shape)
            if len(calls) == ran[0]:  # the stacked SVD of that iteration
                raise sl.NoConvergenceError("stack refused")
            if len(calls) == ran[0] + 1:  # then point 2's SVD alone
                raise sl.NoConvergenceError("SVD did not converge")
            return svd(a)

        monkeypatch.setattr(sl, "svd", refusing)
        caplog.clear()
        got = elastic_net_loadings(exam_cov.values, grid)
        records = [r.getMessage().split(": ", 1)[1] for r in caplog.records]
        # Point 1 left before the stack was factored; point 3 is alone after.
        assert calls[ran[0] - 1:ran[0] + 3] == [(2, 5, 5), (5, 5), (5, 5), (1, 5, 5)]
        assert got[0].tobytes() == want[0].tobytes()
        assert records[0] == want_records[0]
        assert isinstance(got[1], sl.NoConvergenceError)
        assert str(got[1]) == "SVD did not converge"
        assert records[1] == want_records[0].replace(
            "converged", "NoConvergenceError: SVD did not converge"
        )
        assert got[2].tobytes() == want[2].tobytes()
        assert records[2] == want_records[2]


class TestOrthogonalize:
    def test_projects_to_nearest_orthonormal(self):
        rng = np.random.default_rng(25)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        noisy = q + 1e-3 * rng.normal(size=(5, 5))
        lm = orthogonalize(noisy)
        assert np.allclose(lm.T @ lm, np.eye(5), atol=1e-10)
        # Columns may come back sign-normalized; compare up to column sign.
        signs = np.sign(np.sum(lm * q, axis=0))
        assert np.max(np.abs(lm * signs - q)) < 5e-3

    def test_already_orthonormal_unchanged(self):
        lm = orthogonalize(np.eye(4))
        assert np.allclose(lm, np.eye(4), atol=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(sl.RankDeficientError):
            orthogonalize([[1.0, 1.0], [1.0, 1.0]])


class TestLoadingMatrix:
    def test_support(self):
        u = np.eye(3)
        u[0, 1] = 1e-12
        assert list(np.flatnonzero(np.abs(u[:, 1]) > ZERO_TOL)) == [1]
        # detect_blocks owns the rule: at its default tolerance the 1e-12
        # entry bridges nothing.
        assert detect_blocks(u).n_blocks == 3

    def test_rejects_nonsquare(self):
        with pytest.raises(
            ValueError, match=r"^u must be a square matrix, got shape \(2, 3\)$"
        ):
            detect_blocks(np.ones((2, 3)))

    def test_rejects_nan(self):
        # A nan entry is no structural zero: |nan| > tol is false, which
        # would read it as one.
        u = np.eye(3)
        u[0, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            detect_blocks(u)


class TestShapes:
    """Each loading route names its matrix argument and shape when the
    argument is not a square matrix."""

    @pytest.mark.parametrize(
        "route, name, extra",
        [
            (penalized_rank_one, "s", (1.2,)),
            (sparse_loading_matrix, "s", ([1.2],)),
            (elastic_net_loadings, "s", ([1.0],)),
            (orthogonalize, "u", ()),
        ],
    )
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_rejects_non_square(self, route, name, extra, shape):
        with pytest.raises(
            ValueError,
            match=rf"^{name} must be a square matrix, got shape {re.escape(str(shape))}$",
        ):
            route(np.ones(shape), *extra)


def test_both_loading_routes_take_exactly_s_and_grid():
    # The contract README states: the Gram matrix and the grid, nothing else.
    for route in (sparse_loading_matrix, elastic_net_loadings):
        assert list(inspect.signature(route).parameters) == ["s", "grid"], route
