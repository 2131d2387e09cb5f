import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spla import (
    Block,
    BlockPartition,
    detect_blocks,
    pla_detect,
)
from spla.blocks import (
    ZERO_TOL,
    BlockError,
    InconsistentPartitionError,
    IsolatedVariableError,
    NonSquareBlockError,
)

from oracles import bipartite_components


def _pattern_matrix(pattern: list[str]) -> np.ndarray:
    """Rows of 'x'/'.' characters to a 0/1 loading matrix."""
    return np.array([[1.0 if ch == "x" else 0.0 for ch in row] for row in pattern])


class TestDetectBlocks:
    def test_identity_gives_singletons(self):
        p = detect_blocks(np.eye(4))
        assert p.n_blocks == 4
        assert [b.variable_indices for b in p.blocks] == [(0,), (1,), (2,), (3,)]

    def test_dense_column_gives_single_block(self):
        u = np.eye(4)
        u[:, 0] = 1.0
        p = detect_blocks(u)
        assert p.n_blocks == 1
        assert p.blocks[0].variable_indices == (0, 1, 2, 3)

    def test_two_block_pattern(self):
        u = _pattern_matrix([
            "xx..",
            "xx..",
            "..xx",
            "..xx",
        ])
        p = detect_blocks(u)
        assert [b.variable_indices for b in p.blocks] == [(0, 1), (2, 3)]

    def test_printed_oecd_pattern(self):
        # Variables (rows): I/Y, SCH, RD, POP, Y85, Y60; loadings (columns)
        # 3, 4, 2, 1, 5, 6 in display order -> natural column order 1..6.
        # Column 3 touches only I/Y, column 4 only SCH, column 2 only RD,
        # columns 1, 5, 6 touch POP, Y85, Y60.
        u = _pattern_matrix([
            "..x...",  # I/Y    -> loading 3
            "...x..",  # SCH    -> loading 4
            ".x....",  # RD     -> loading 2
            "x...xx",  # POP
            "x...xx",  # Y85
            "x...xx",  # Y60
        ])
        p = detect_blocks(u)
        assert [b.variable_indices for b in p.blocks] == [(0,), (1,), (2,), (3, 4, 5)]

    def test_non_square_component(self):
        u = _pattern_matrix([
            "xx.",
            "..x",
            "..x",
        ])
        with pytest.raises(NonSquareBlockError):
            detect_blocks(u)

    def test_isolated_variable(self):
        u = np.eye(3)
        u[1, 1] = 0.0
        u[0, 1] = 1.0
        with pytest.raises(IsolatedVariableError):
            detect_blocks(u)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        u = _pattern_matrix([
            "xx...",
            "xx...",
            "..x..",
            "...xx",
            "...xx",
        ])
        p0 = detect_blocks(u)
        rows = rng.permutation(5)
        cols = rng.permutation(5)
        p1 = detect_blocks(u[np.ix_(rows, cols)])
        relabeled = sorted(
            tuple(sorted(int(np.nonzero(rows == i)[0][0]) for i in b.variable_indices))
            for b in p0.blocks
        )
        got = sorted(b.variable_indices for b in p1.blocks)
        assert got == relabeled

    def test_cover_is_complete(self):
        u = _pattern_matrix(["x..", ".xx", ".xx"])
        p = detect_blocks(u)
        covered = sorted(i for b in p.blocks for i in b.variable_indices)
        assert covered == [0, 1, 2]


def _reference_detect_blocks(u: np.ndarray) -> BlockPartition:
    """Independent detector: depth-first search, then the same diagnostics."""
    pattern = np.abs(u) > ZERO_TOL
    lonely = np.nonzero(~pattern.any(axis=1))[0]
    if lonely.size:
        raise IsolatedVariableError(
            f"variable {int(lonely[0])} has no incident loading"
        )
    blocks = []
    for rows, cols in bipartite_components(pattern):
        if not cols and rows:
            raise IsolatedVariableError(f"variable {rows[0]} has no incident loading")
        if not rows and cols:
            raise NonSquareBlockError(f"loading {cols[0]} touches no variable")
        if len(rows) != len(cols):
            raise NonSquareBlockError(
                f"component with variables {rows} pairs {len(cols)} loadings"
            )
        blocks.append(Block(tuple(rows)))
    blocks.sort(key=lambda b: b.variable_indices[0])
    return BlockPartition(tuple(blocks))


def _outcome(detector, u: np.ndarray):
    """A detector's partition, or the class and message of its error."""
    try:
        return detector(u)
    except BlockError as exc:
        return type(exc), str(exc)


@st.composite
def _patterns(draw):
    """Boolean ``M x M`` patterns, M <= 10, of varied density, from a drawn
    seed. Adding a permutation makes every component square; taking one of
    its entries out again makes non-square components common."""
    m = draw(st.integers(min_value=1, max_value=10))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    kind = draw(st.sampled_from(["plain", "permutation", "permutation less one"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    pattern = rng.random((m, m)) < density
    if kind != "plain":
        perm = rng.permutation(m)
        pattern[np.arange(m), perm] = True
        if kind == "permutation less one":
            i = rng.integers(m)
            pattern[i, perm[i]] = False
    return pattern


class TestDetectBlocksOracle:
    @settings(max_examples=300, deadline=None)
    @given(_patterns())
    def test_matches_depth_first_reference(self, pattern):
        # The error chosen and its message reach the penalty trace's note.
        u = pattern.astype(float)
        assert _outcome(detect_blocks, u) == _outcome(_reference_detect_blocks, u)

    def test_tol_sets_the_support(self):
        u = np.eye(3)
        u[0, 1] = u[1, 0] = 0.005
        assert detect_blocks(u).n_blocks == 2
        assert detect_blocks(u, tol=0.01).n_blocks == 3


class TestPlaDetect:
    def test_oecd_tau_040(self, oecd_corr):
        p = pla_detect(oecd_corr, 0.40)
        names = oecd_corr.variable_names
        sets = sorted(tuple(sorted(names[i] for i in b.variable_indices)) for b in p.blocks)
        assert sets == [("I/Y", "POP", "SCH"), ("RD", "Y60", "Y85")]

    def test_oecd_tau_050(self, oecd_corr):
        p = pla_detect(oecd_corr, 0.50)
        names = oecd_corr.variable_names
        sets = sorted(tuple(sorted(names[i] for i in b.variable_indices)) for b in p.blocks)
        assert sets == [("I/Y", "POP", "SCH"), ("RD",), ("Y60", "Y85")]

    def test_absence_is_none(self):
        from spla import CovMatrix

        cov = CovMatrix(
            np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]]),
            ("a", "b", "c"),
        )
        # The eigenvectors are (1/2, 1/sqrt2, 1/2), (1/sqrt2, 0, -1/sqrt2) and
        # (1/2, -1/sqrt2, 1/2) up to sign. Below 1/2 every nonzero entry
        # survives and the pattern is one connected square block.
        p = pla_detect(cov, 0.4)
        assert p is not None
        assert [b.variable_indices for b in p.blocks] == [(0, 1, 2)]
        # Between 1/2 and 1/sqrt2 only the 1/sqrt2 entries survive: variable
        # "b" then carries two loadings alone, which no square block admits.
        assert pla_detect(cov, 0.6) is None

    @pytest.mark.parametrize("ulps", [0, 2, -2])
    def test_entry_at_tau_is_zeroed_whatever_its_rounding(self, monkeypatch, ulps):
        import spla.blocks
        from spla import CovMatrix

        cov = CovMatrix(
            np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]]),
            ("a", "b", "c"),
        )
        real = spla.blocks.sym_eigen

        def nudged(a):
            lam, vecs = real(a)
            # The exact 1/2 entries, moved |ulps| ulp away from (or toward) zero.
            at_half = np.abs(np.abs(vecs) - 0.5) < 1e-12
            mag = np.full(vecs.shape, 0.5)
            for _ in range(abs(ulps)):
                mag = np.nextafter(mag, np.inf if ulps > 0 else 0.0)
            return lam, np.where(at_half, np.sign(vecs) * mag, vecs)

        if ulps:
            monkeypatch.setattr(spla.blocks, "sym_eigen", nudged)
        # At tau = 1/2 only the 1/sqrt2 entries survive, as at tau = 0.6.
        assert pla_detect(cov, 0.5) is None

    def test_exact_block_diagonal_recovered(self):
        from spla import CovMatrix

        values = np.zeros((4, 4))
        values[:2, :2] = [[2.0, 0.8], [0.8, 1.5]]
        values[2:, 2:] = [[1.0, 0.3], [0.3, 1.2]]
        cov = CovMatrix(values, ("a", "b", "c", "d"))
        p = pla_detect(cov, 0.05)
        assert p is not None
        assert sorted(b.variable_indices for b in p.blocks) == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("tau", [1e-12, 0.1, 0.5])
    def test_matches_two_step_reference(self, oecd_corr, exam_cov, tau):
        # Reference: zero the entries at or below the band, then detect at
        # the default tolerance. At tau = 1e-12 that default is the bound:
        # the third covariance couples its variables by an eigenvector
        # entry of about 1e-10, which is above tau but a structural zero.
        from spla import CovMatrix
        from spla.matops import sym_eigen

        coupled = CovMatrix(np.array([[2.0, 1e-10], [1e-10, 1.0]]), ("a", "b"))
        for cov in (oecd_corr, exam_cov, coupled):
            vecs = sym_eigen(cov.values)[1]
            zeroed = np.where(np.abs(vecs) > tau * (1.0 + 1e-9), vecs, 0.0)
            try:
                want = detect_blocks(zeroed)
            except (NonSquareBlockError, IsolatedVariableError):
                want = None
            assert pla_detect(cov, tau) == want

    def test_tau_range_validated(self, oecd_corr):
        with pytest.raises(ValueError):
            pla_detect(oecd_corr, 0.0)
        with pytest.raises(ValueError):
            pla_detect(oecd_corr, 1.0)


class TestPartitionTypes:
    def test_disjoint_cover_enforced(self):
        with pytest.raises(InconsistentPartitionError):
            BlockPartition((Block((0, 1)), Block((1, 2))))

    def test_empty_block_rejected(self):
        with pytest.raises(BlockError, match=r"^a block needs at least one variable$"):
            BlockPartition((Block(()), Block((0, 1))))

    @pytest.mark.parametrize(
        ("indices", "bad"),
        [((1.7, 0.2), "1.7"), ((0, 1.0), "1.0"), (("0",), "0")],
        ids=["fractions", "integral-float", "string"],
    )
    def test_non_integral_index_rejected(self, indices, bad):
        msg = rf"^block variable index {bad} is not an integer$"
        with pytest.raises(BlockError, match=msg):
            Block(indices)

    def test_numpy_integers_are_indices(self):
        b = Block((np.int64(2), np.intp(0)))
        assert b.variable_indices == (0, 2)
        assert all(type(i) is int for i in b.variable_indices)
