import numpy as np
import pytest

import spla.simulate
from spla import (
    BlockDesign,
    SplaConfig,
    ec_distribution,
    gen_block_sample,
    gen_spiked_sample,
    identification_rate,
    random_wishart_demo,
    sample_cov,
)
from spla.evaluation import DEFAULT_C_EC
from spla.simulate import LATENT_VAR, NOISE_VAR, gen_block_sample_keyed

from oracles import population_correlation, population_cov


class TestBlockDesign:
    def test_population_cov_closed_form(self):
        d = BlockDesign(n_blocks=2, rho=0.3)
        cov = population_cov(d)
        v, w = LATENT_VAR, NOISE_VAR
        assert cov[0, 0] == v + w
        assert cov[0, 1] == v  # same block
        assert cov[0, 2] == pytest.approx(0.3 * v)  # across blocks
        assert np.allclose(cov, cov.T)

    def test_population_cov_matches_empirical(self):
        d = BlockDesign(n_blocks=3, rho=0.4)
        x = np.concatenate(
            [
                gen_block_sample_keyed(d, 5000, 99, r).values
                * 1.0  # already standardized; compare correlations
                for r in range(4)
            ]
        )
        emp = np.corrcoef(x, rowvar=False)
        pop = population_correlation(d)
        assert np.max(np.abs(emp - pop)) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockDesign(rho=1.0)
        with pytest.raises(ValueError):
            BlockDesign(rho=-0.1)
        with pytest.raises(ValueError):
            BlockDesign(n_blocks=0)

    def test_true_partition(self):
        p = BlockDesign(n_blocks=3).true_partition()
        assert [b.variable_indices for b in p.blocks] == [(0, 1), (2, 3), (4, 5)]


class TestGenerators:
    def test_seed_reproducibility(self):
        d = BlockDesign()
        a = gen_block_sample(d, 50, 7)
        b = gen_block_sample(d, 50, 7)
        c = gen_block_sample(d, 50, 8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_keyed_streams_independent(self):
        d = BlockDesign(rho=0.1)
        a = gen_block_sample_keyed(d, 50, 7, 0)
        b = gen_block_sample_keyed(d, 50, 7, 1)
        assert not np.array_equal(a.values, b.values)

    def test_standardized_output(self):
        s = gen_block_sample(BlockDesign(), 200, 11)
        assert np.allclose(s.values.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(s.values.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_spiked_sample_structure(self):
        s = gen_spiked_sample(False, 3000, 13)
        assert s.values.shape == (3000, 8)
        cov = sample_cov(s).values
        # Within-factor covariance ~ factor variance, across ~ 0.
        assert cov[0, 1] == pytest.approx(290.0, rel=0.15)
        assert cov[4, 5] == pytest.approx(300.0, rel=0.15)
        assert abs(cov[0, 5]) < 30.0
        t = gen_spiked_sample(True, 500, 13)
        assert t.values.shape == (500, 10)

    def test_spiked_needs_reasonable_n(self):
        with pytest.raises(ValueError):
            gen_block_sample(BlockDesign(), 1, 5)


class TestEcDistribution:
    def test_shape_and_first_block(self):
        d = BlockDesign(rho=0.1)
        out = ec_distribution(d, 100, 5, [0, 1, 3], seed=3)
        assert out.shape == (5, 3)
        assert np.all(out[:, 0] == 1.0)  # block 0 has nothing before it
        assert np.all((out > 0.0) & (out <= 1.0))

    def test_block_index_validated(self):
        with pytest.raises(
            ValueError, match=r"^block index 7 outside \[0, 7\) \(0-based\)$"
        ):
            ec_distribution(BlockDesign(), 50, 1, [7], 0)

    def test_ec_decreases_with_rho(self):
        meds = []
        for rho in (0.1, 0.6):
            out = ec_distribution(BlockDesign(rho=rho), 100, 30, [3], seed=3)
            meds.append(np.median(out))
        assert meds[0] > meds[1]

    def test_reproducible(self):
        d = BlockDesign(rho=0.2)
        a = ec_distribution(d, 80, 4, [1], seed=5)
        b = ec_distribution(d, 80, 4, [1], seed=5)
        assert np.array_equal(a, b)


class TestIdentificationRate:
    def test_independent_blocks_identified(self):
        rows = identification_rate(
            BlockDesign(), [300], [0.0], reps=5, c_ec=DEFAULT_C_EC, seed=17
        )
        assert len(rows) == 1
        row = rows[0]
        assert set(row) == {"detector", "n", "rho", "c_ec", "reps", "rate"}
        assert row["rate"] == 1.0

    def test_heavy_correlation_never_identified(self):
        rows = identification_rate(
            BlockDesign(), [100], [0.9], reps=5, c_ec=DEFAULT_C_EC, seed=17
        )
        assert rows[0]["rate"] == 0.0

    def test_keeps_caller_config(self, monkeypatch):
        import spla.simulate

        seen = []
        inner = spla.simulate.structure_scan

        def spy(cov, cfg):
            seen.append(cfg)
            return inner(cov, cfg)

        monkeypatch.setattr(spla.simulate, "structure_scan", spy)
        identification_rate(
            BlockDesign(n_blocks=2), [50], [0.0], reps=2,
            c_ec=0.7, seed=17,
        )
        assert seen == [SplaConfig(c_ec=0.7)] * 2

    def test_grid_of_cells(self):
        rows = identification_rate(
            BlockDesign(n_blocks=2), [50, 100], [0.0, 0.5],
            reps=2, c_ec=DEFAULT_C_EC, seed=17,
        )
        assert [(r["n"], r["rho"]) for r in rows] == [
            (50, 0.0), (50, 0.5), (100, 0.0), (100, 0.5),
        ]


class TestWishartDemo:
    def test_shape_and_ranges(self):
        out = random_wishart_demo(6, seed=23)
        assert len(out) == 6
        for k, ec in out:
            assert k in (1, 2, 3)
            assert 0.0 <= ec <= 1.0

    def test_reproducible(self):
        assert random_wishart_demo(4, seed=23) == random_wishart_demo(4, seed=23)

    def test_near_singular_draw_is_redrawn_from_the_next_stream(self, monkeypatch):
        # Rep 0's first draw is singular (rank one), so rep 0 comes from the
        # (seed, 0, 1) stream and rep 1, as ever, from (seed, 1, 0).
        real, keys = spla.simulate._rng, []

        class RankOne:
            def uniform(self, low, high, size):
                return np.full(size, 0.5)

        def rng(*key):
            keys.append(key)
            return RankOne() if key == (23, 0, 0) else real(*key)

        monkeypatch.setattr(spla.simulate, "_rng", rng)
        got = random_wishart_demo(2, seed=23)
        assert keys == [(23, 0, 0), (23, 0, 1), (23, 1, 0)]
        # The same reps when the (23, 0, 1) stream gives rep 0's first draw.
        monkeypatch.setattr(
            spla.simulate, "_rng",
            lambda *key: real(*((23, 0, 1) if key == (23, 0, 0) else key)),
        )
        assert got == random_wishart_demo(2, seed=23)
