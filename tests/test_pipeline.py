import logging
import re

import numpy as np
import pytest

import spla.evaluation
import spla.pipeline
import spla.variance
from spla import (
    CovMatrix,
    DataMatrix,
    SplaConfig,
    elastic_net_loadings,
    run_spla,
    structure_scan,
)
from spla.matops import cholesky_upper


def _names(report):
    return sorted(tuple(sorted(b)) for b in report.block_names())


EXAM_CFG = SplaConfig(
    method="spca",
    grid=(2.0, (5.0, 5.0, 5.0, 2.0, 2.0)),
    block_order=((1,), (0,), (2, 3, 4)),  # vec, mec, {alg, ana, sta}
)

OECD_CFG = SplaConfig(
    method="spca",
    grid=((0.05, 0.05, 0.05, 0.02, 0.02, 0.02),),
    standardize=True,
    block_order=((2,), (3,), (4,), (5, 1, 0)),  # I/Y, SCH, POP, {RD, Y85, Y60}
)


@pytest.fixture(scope="module")
def exam_report(exam_data):
    return run_spla(exam_data, EXAM_CFG)


@pytest.fixture(scope="module")
def oecd_report(oecd_data):
    return run_spla(oecd_data, OECD_CFG)


class TestRunSplaExam:
    @pytest.fixture()
    def report(self, exam_report):
        return exam_report

    def test_partition(self, report):
        assert _names(report) == [("alg", "ana", "sta"), ("mec",), ("vec",)]

    def test_evaluation_order_pinned(self, report):
        assert report.block_names() == [("vec",), ("mec",), ("alg", "ana", "sta")]
        assert report.evaluations[0].ec is None
        assert report.min_ec > 0.6

    def test_vec_discarded(self, report):
        discards = [r.variables for r in report.recommendations if r.discard]
        assert discards == [("vec",)]

    def test_shares_sum_to_cv(self, report):
        assert report.shares.block_cv[-1] == pytest.approx(
            float(np.sum(report.shares.block_sv)), abs=1e-9
        )

    def test_json_schema(self, report):
        d = report.to_json_dict()
        assert set(d) == {
            "partition", "ordering", "ec", "shares",
            "partial_shares", "recommendations", "penalty_trace",
        }
        assert d["ec"][0] is None
        assert set(d["shares"]) == {"per_loading_sv", "block_sv", "block_cv"}
        assert all(
            {"penalty", "n_blocks", "min_ec", "passed", "note"} == set(g)
            for g in d["penalty_trace"]
        )
        import json

        json.dumps(d)  # round-trippable without custom encoders


class TestRunSplaOecd:
    @pytest.fixture()
    def report(self, oecd_report):
        return oecd_report

    def test_partition(self, report):
        assert _names(report) == [
            ("I/Y",), ("POP",), ("RD", "Y60", "Y85"), ("SCH",),
        ]

    def test_ec_values(self, report):
        got = [e.ec for e in report.evaluations[1:]]
        assert np.allclose(got, [0.96, 0.93, 0.84], atol=0.005)

    def test_no_discards(self, report):
        assert not any(r.discard for r in report.recommendations)

    def test_partial_shares(self, report):
        assert np.allclose(
            report.partial_shares, [10.23, 12.41, 12.94, 41.73], atol=0.05
        )


class TestSelectionAndFallback:
    def test_fallback_single_block(self):
        # Strongly coupled pair: every split fails the gate, so the trivial
        # single-block partition is reported with the vacuous minimum.
        rng = np.random.default_rng(61)
        z = rng.normal(size=200)
        x = np.column_stack([z + 0.1 * rng.normal(size=200) for _ in range(2)])
        # Restrict the grid to budget 1 so the only candidate is the
        # (rejected) singleton split and the fallback path actually runs.
        report = run_spla(DataMatrix(x, ("a", "b")), SplaConfig(grid=(1.0,)))
        assert report.partition.n_blocks == 1
        assert report.min_ec == 1.0
        assert report.partial_shares == (100.0,)
        assert report.recommendations == ()
        assert not report.penalty_trace[0].passed

    def test_most_blocks_wins(self):
        # Exact two-block covariance: the default grid sees both the trivial
        # single block and the true two-block split; the split is chosen.
        values = np.zeros((4, 4))
        values[:2, :2] = [[2.0, 0.9], [0.9, 2.0]]
        values[2:, 2:] = [[1.5, 0.6], [0.6, 1.5]]
        cov = CovMatrix(values, ("a", "b", "c", "d"))
        report = structure_scan(cov)
        assert sorted(
            b.variable_indices for b in report.partition.blocks
        ) == [(0, 1), (2, 3)]
        assert report.min_ec > 0.99

    def test_penalty_trace_covers_grid(self, exam_data):
        report = run_spla(exam_data, EXAM_CFG)
        assert [g.penalty for g in report.penalty_trace] == [
            2.0, (5.0, 5.0, 5.0, 2.0, 2.0)
        ]

    @pytest.mark.parametrize(
        ("cfg", "after"),
        [
            (SplaConfig(), 0),
            (EXAM_CFG, 0),
            (SplaConfig(grid=(1.0,), c_ec=0.99), 1),  # nothing passes
        ],
        ids=["pmd", "order", "fallback"],
    )
    def test_one_gram_factor_per_partitioned_grid_point(
        self, exam_cov, monkeypatch, cfg, after
    ):
        # Each candidate's factor gives its EC and gate, and the chosen one's
        # also gives the report's shares: nothing is factored after the scan
        # but the single block that stands in when no candidate passes.
        calls, scanning = [], [True]

        def factor(a):
            calls.append(scanning[0])
            return cholesky_upper(a)

        def scan(*args):
            out = inner_scan(*args)
            scanning[0] = False
            return out

        assert not hasattr(spla.evaluation, "cholesky_upper")  # one owner
        monkeypatch.setattr(spla.variance, "cholesky_upper", factor)
        inner_scan = spla.pipeline._scan
        monkeypatch.setattr(spla.pipeline, "_scan", scan)
        report = structure_scan(exam_cov, cfg)
        partitioned = [g for g in report.penalty_trace if g.partition is not None]
        assert partitioned and any(g.passed for g in partitioned) == (not after)
        assert calls == [True] * len(partitioned) + [False] * after

    def test_default_order_is_descending_largest_eigenvalue(self):
        # Three exact pairs at r = 0.9, the middle one at twice the scale:
        # largest eigenvalues 1.9, 3.8 and 1.9. The tie goes to the pair
        # with the smaller first variable.
        pair = np.array([[1.0, 0.9], [0.9, 1.0]])
        s = np.kron(np.diag([1.0, 2.0, 1.0]), pair)
        report = structure_scan(CovMatrix(s, tuple("abcdef")), SplaConfig(grid=(2.0,)))
        assert [b.variable_indices for b in report.partition.blocks] == [
            (2, 3), (0, 1), (4, 5)
        ]

    def test_block_order_mismatch_falls_back(self, exam_data):
        cfg = SplaConfig(
            method="spca",
            grid=((5.0, 5.0, 5.0, 2.0, 2.0),),
            block_order=((0, 1), (2, 3, 4)),  # does not match detected blocks
        )
        report = run_spla(exam_data, cfg)
        # The mismatch is tolerated; the default (variance-ranked) order runs.
        assert report.partition.n_blocks >= 1


class TestConfigValidation:
    def test_unknown_method(self, exam_data):
        with pytest.raises(ValueError):
            run_spla(exam_data, SplaConfig(method="nmf", grid=(1.5,)))

    def test_method_is_checked_by_the_config(self):
        with pytest.raises(ValueError, match="^unknown method 'nmf'$"):
            SplaConfig(method="nmf")

    def test_vector_penalty_rejected_for_pmd(self, exam_data):
        with pytest.raises(ValueError):
            run_spla(exam_data, SplaConfig(method="pmd", grid=((1.5, 1.5),)))

    def test_default_pmd_grid_knots(self):
        grid = SplaConfig().resolved_grid(6)
        assert grid[0] == pytest.approx(np.sqrt(6))
        assert grid[-1] == 1.0
        assert all(a > b for a, b in zip(grid, grid[1:]))
        # One knot just under sqrt(k) for each block size k >= 2.
        for k in range(2, 7):
            assert any(abs(g - (np.sqrt(k) - 0.005)) < 1e-9 for g in grid)

    def test_empty_grid_error(self):
        # An empty grid resolves to a non-empty default for either method.
        for method in ("pmd", "spca"):
            for m in (1, 2, 14):
                assert len(SplaConfig(method=method).resolved_grid(m)) > 0


class TestCovarianceRoute:
    def test_run_spla_passes_the_covariance_itself(self, monkeypatch):
        import spla.pipeline

        covs, received = [], []
        sample_cov = spla.pipeline.sample_cov
        pmd = spla.pipeline.sparse_loading_matrix

        def cov_spy(d):
            covs.append(sample_cov(d))
            return covs[-1]

        def pmd_spy(s, grid):
            received.append(s)
            return pmd(s, grid)

        monkeypatch.setattr(spla.pipeline, "sample_cov", cov_spy)
        monkeypatch.setattr(spla.pipeline, "sparse_loading_matrix", pmd_spy)
        x = np.random.default_rng(5).normal(size=(500, 4))
        run_spla(DataMatrix(x, ("a", "b", "c", "d")), SplaConfig(grid=(1.5, 1.2)))
        assert len(covs) == 1 and len(received) == 1
        assert all(s is covs[0].values for s in received)

    @pytest.mark.filterwarnings("error")
    def test_scan_is_scale_free(self):
        # In tiny units the deflation must not stop early and report M
        # singletons; in huge units a deflated S that is not exactly
        # symmetric fails the absolute symmetry check of sym_eigen. Near
        # the ends of the float range the PMD alternation's squares would
        # underflow or overflow.
        from spla import BlockDesign, gen_block_sample, sample_cov

        s = sample_cov(gen_block_sample(BlockDesign(n_blocks=3, rho=0.3), 500, 7))
        cfg = SplaConfig(grid=(2.0, 1.409))

        def trace(r):
            return [
                (g.partition.n_blocks if g.partition else None, g.passed, g.note)
                for g in r.penalty_trace
            ]

        a = structure_scan(s, cfg)
        for scale in (1e-26, 1e26, 1e-160, 1e160):
            b = structure_scan(CovMatrix(s.values * scale, s.variable_names), cfg)
            assert _names(a) == _names(b), scale
            assert trace(a) == trace(b), scale


class TestSupportTolerance:
    @pytest.mark.parametrize(
        ("method", "grid", "pmd_tol", "want"),
        [
            ("pmd", (1.5,), 0.05, 0.05),
            ("spca", (0.05,), 0.05, 1e-9),  # exact zeros: ZERO_TOL only
        ],
    )
    def test_detect_blocks_gets_the_route_tolerance(
        self, monkeypatch, oecd_corr, method, grid, pmd_tol, want
    ):
        import spla.pipeline

        tols = []
        inner = spla.pipeline.detect_blocks

        def spy(u, tol):
            tols.append(tol)
            return inner(u, tol)

        monkeypatch.setattr(spla.pipeline, "detect_blocks", spy)
        monkeypatch.setattr(spla.pipeline, "DETECT_TOL", pmd_tol)
        structure_scan(oecd_corr, SplaConfig(method=method, grid=grid))
        assert tols == [want]


class TestBudgetLog:
    def test_one_debug_record_per_pmd_budget(self, caplog, exam_cov):
        # Nothing is installed on the "spla" logger: the records reach only
        # a handler the caller adds, here pytest's.
        assert not logging.getLogger("spla").handlers
        caplog.set_level(logging.DEBUG, logger="spla")
        structure_scan(exam_cov, SplaConfig(grid=(2.0, 1.0)))
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("spla", logging.DEBUG)
        ] * 2
        assert [r.getMessage() for r in caplog.records] == [
            "pmd budget 2.0: 1 of 5 factors run; supports connected after factor 1",
            "pmd budget 1.0: 5 of 5 factors run; supports never connected at tol 0.01",
        ]
        caplog.clear()
        structure_scan(exam_cov, SplaConfig(method="spca", grid=(0.5,)))
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [(
            "spla", logging.DEBUG,
            "spca point 1 of 1: 300 outer iterations, 1810 sweeps; NoConvergenceError: "
            "elastic-net loadings did not converge in 300 iterations",
        )]

    def test_one_debug_record_per_spca_point(self, caplog, oecd_corr):
        # The default grid stalls at its four smallest penalties.
        caplog.set_level(logging.DEBUG, logger="spla")
        grid = SplaConfig(method="spca").resolved_grid(oecd_corr.n_vars)
        results = elastic_net_loadings(oecd_corr.values, grid)
        found = [re.fullmatch(r"spca point (\d+) of 12: (\d+) outer iterations, "
                              r"(\d+) sweeps; (.*)", r.getMessage()).groups()
                 for r in caplog.records]
        assert [int(k) for k, *_ in found] == list(range(1, 13))
        assert [int(n) for _, n, _, _ in found].count(300) == 4
        assert [end for *_, end in found] == [
            "converged" if isinstance(r, np.ndarray) else f"{type(r).__name__}: {r}"
            for r in results
        ]
        # A point takes part in every stacked sweep until it ends.
        ran = {int(n): int(swept) for _, n, swept, _ in found}
        assert sorted(ran.values()) == [ran[n] for n in sorted(ran)]
        assert all(n <= swept <= 50 * n for n, swept in ran.items())
