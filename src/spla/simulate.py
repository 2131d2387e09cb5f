"""Random-sample generators and Monte-Carlo experiments.

All randomness flows through :class:`numpy.random.Generator` (PCG64) seeded
from explicit integer seeds. Replicates and grid cells derive their streams
from ``(seed, cell key, replicate index)`` tuples, so adding a cell or a
replicate never shifts the draws of another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blocks import Block, BlockPartition
from .data import CovMatrix, DataMatrix, sample_cov, standardize
from .evaluation import evaluate_partition
from .pipeline import SplaConfig, structure_scan

__all__ = [
    "BlockDesign",
    "gen_block_sample",
    "ec_distribution",
    "identification_rate",
    "random_wishart_demo",
    "gen_spiked_sample",
]

#: The design's fixed shape: variables per block, the variance of each
#: latent factor (block factor ``Z_i`` and shared spike ``Y``), and the
#: variance of each variable's own noise ``W``.
BLOCK_SIZE = 2
LATENT_VAR = 10.0
NOISE_VAR = 1.0


@dataclass(frozen=True)
class BlockDesign:
    """Paired-variable design with a shared spike.

    Variables come in ``n_blocks`` consecutive groups of ``BLOCK_SIZE``; each
    group shares a latent factor ``Z_i``, all variables share ``Y`` with
    weight ``sqrt(rho)``, and every variable has its own noise ``W``:
    ``X_j = sqrt(1 - rho) Z_i + sqrt(rho) Y + W``. ``rho`` is the approximate
    correlation between blocks.
    """

    n_blocks: int = 7
    rho: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho={self.rho} outside [0, 1)")
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks={self.n_blocks} must be at least 1")

    @property
    def n_vars(self) -> int:
        return self.n_blocks * BLOCK_SIZE

    def true_partition(self) -> BlockPartition:
        return BlockPartition(tuple(
            Block(range(i * BLOCK_SIZE, (i + 1) * BLOCK_SIZE))
            for i in range(self.n_blocks)
        ))


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _draw(design: BlockDesign, n: int, rng: np.random.Generator) -> DataMatrix:
    z = rng.normal(0.0, np.sqrt(LATENT_VAR), size=(n, design.n_blocks))
    y = rng.normal(0.0, np.sqrt(LATENT_VAR), size=n)
    w = rng.normal(0.0, np.sqrt(NOISE_VAR), size=(n, design.n_vars))
    x = (np.sqrt(1.0 - design.rho) * np.repeat(z, BLOCK_SIZE, axis=1)
         + np.sqrt(design.rho) * y[:, None] + w)
    names = tuple(f"X{j + 1}" for j in range(design.n_vars))
    return standardize(DataMatrix(x, names))


def gen_block_sample(design: BlockDesign, n: int, seed: int) -> DataMatrix:
    """Draw ``n`` observations from the design, then standardize."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _draw(design, n, _rng(seed))


def ec_distribution(
    design: BlockDesign,
    n: int,
    reps: int,
    blocks_to_eval,
    seed: int,
) -> np.ndarray:
    """EC of designated blocks under the known true partition, per replicate.

    ``blocks_to_eval`` holds 0-based block indices; blocks are evaluated in
    index order (block 0 first). Returns an array of shape
    ``(reps, len(blocks_to_eval))``. Block 0 has nothing before it: its column
    holds a placeholder 1.0, which ``spla simulate ec`` writes as the marker
    (``null`` in JSON, empty in CSV).
    """
    if reps < 1:
        raise ValueError(f"reps={reps} must be at least 1")
    blocks_to_eval = list(blocks_to_eval)
    for b in blocks_to_eval:
        if not 0 <= b < design.n_blocks:
            raise ValueError(
                f"block index {b} outside [0, {design.n_blocks}) (0-based)"
            )
    p = design.true_partition()
    out = np.empty((reps, len(blocks_to_eval)))
    for r in range(reps):
        cov = sample_cov(gen_block_sample_keyed(design, n, seed, r))
        entries, _, _ = evaluate_partition(cov, p)
        out[r] = [entries[b].ec if b > 0 else 1.0 for b in blocks_to_eval]
    return out


def gen_block_sample_keyed(
    design: BlockDesign, n: int, seed: int, rep: int
) -> DataMatrix:
    """Replicate-keyed variant of :func:`gen_block_sample`.

    The stream is keyed on ``(seed, rho, n, rep)``, so every ``(n, rho)``
    grid cell and every replicate owns an independent sub-stream.
    """
    return _draw(design, n, _rng(seed, round(design.rho * 1000), n, rep))


def identification_rate(
    design: BlockDesign,
    n_list,
    rho_list,
    reps: int,
    c_ec: float,
    seed: int,
) -> list[dict]:
    """Fraction of samples whose detected partition equals the truth.

    Every scan runs the default :class:`SplaConfig` with gate ``c_ec``.
    Returns one row per ``(n, rho)`` cell:
    ``{detector, n, rho, c_ec, reps, rate}``.
    """
    run_cfg = SplaConfig(c_ec=c_ec)
    if reps < 1:
        raise ValueError(f"reps={reps} must be at least 1")
    rows = []
    for n in n_list:
        for rho in rho_list:
            cell = replace(design, rho=rho)
            truth = [b.variable_indices for b in cell.true_partition().blocks]
            hits = 0
            for r in range(reps):
                sample = gen_block_sample_keyed(cell, n, seed, r)
                cov = sample_cov(sample)
                report = structure_scan(cov, run_cfg)
                got = sorted(
                    b.variable_indices for b in report.partition.blocks
                )
                if got == sorted(truth):
                    hits += 1
            rows.append({
                "detector": "spla",
                "n": int(n),
                "rho": float(rho),
                "c_ec": c_ec,
                "reps": int(reps),
                "rate": hits / reps,
            })
    return rows


def random_wishart_demo(reps: int, seed: int) -> list[tuple[int, float]]:
    """Block counts and ECs of random 3x3 Wishart-style correlation matrices.

    Each replicate draws ``A`` with independent U(0, 1) entries, forms
    ``S = A^T A``, converts it to a correlation matrix and structure-scans
    it. The recorded EC is the minimum EC of the chosen partition when a
    split was accepted; when the scan keeps a single block, it is the best
    minimum EC among the rejected multi-block candidates (the strength of
    the evidence for splitting, which is small by construction).
    """
    if reps < 1:
        raise ValueError(f"reps={reps} must be at least 1")
    out = []
    cfg = SplaConfig()
    r = 0
    draws = 0
    while r < reps:
        rng = _rng(seed, r, draws)
        a = rng.uniform(0.0, 1.0, size=(3, 3))
        s = a.T @ a
        d = np.sqrt(np.diag(s))
        if np.min(d) < 1e-6 or np.linalg.det(s) < 1e-10:
            draws += 1  # singular draw: redraw (measure zero)
            continue
        corr = s / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        cov = CovMatrix(corr, ("A", "B", "C"))
        report = structure_scan(cov, cfg)
        k = report.partition.n_blocks
        if k > 1:
            ec = report.min_ec
        else:
            candidates = [
                g.min_ec
                for g in report.penalty_trace
                if g.partition is not None and g.partition.n_blocks > 1
            ]
            ec = max(candidates) if candidates else 0.0
        out.append((k, float(ec)))
        r += 1
        draws = 0
    return out


def gen_spiked_sample(ten_vars: bool, n: int, seed: int) -> DataMatrix:
    """Spiked two-factor sample: 8 or 10 variables, not standardized.

    Variables 1-4 load on ``Z_1`` (variance 290), variables 5-8 on ``Z_2``
    (variance 300); the 10-variable extension adds two variables
    ``-0.3 Z_1 + 0.925 Z_2 + noise``. Per-variable noise is N(0, 1).
    """
    rng = _rng(seed, 10 if ten_vars else 8, n)
    z1 = rng.normal(0.0, np.sqrt(290.0), size=n)
    z2 = rng.normal(0.0, np.sqrt(300.0), size=n)
    m = 10 if ten_vars else 8
    theta = rng.normal(0.0, 1.0, size=(n, m))
    x = np.empty((n, m))
    x[:, :4] = z1[:, None] + theta[:, :4]
    x[:, 4:8] = z2[:, None] + theta[:, 4:8]
    x[:, 8:] = -0.3 * z1[:, None] + 0.925 * z2[:, None] + theta[:, 8:]
    names = tuple(f"X{j + 1}" for j in range(m))
    return DataMatrix(x, names)
