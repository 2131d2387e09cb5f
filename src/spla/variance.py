"""Explained-variance accounting.

The corrected variance of the i-th projected variable is the squared i-th
diagonal of the upper Cholesky factor of the Gram matrix ``U^T S U``: each
column's variance is corrected for every earlier column. It needs no data
matrix; for a sample it equals the squared diagonal of the QR factor ``R``
of the projected sample over ``N-1``, since ``R^T R = (N-1) U^T S U``. In
the weight basis of a partition the same record also gives each block's EC
(:func:`spla.evaluation.evaluate_partition`).

Partial covariance conditions one variable block on another by the regression
projection ``S_22 - S_21 S_11^-1 S_12``; its trace over the total variance is
the share a block retains once every other block is accounted for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition
from .data import CovMatrix
from .matops import cholesky_upper, solve_spd

__all__ = [
    "CorrectedVariances",
    "VarianceShares",
    "corrected_variances",
    "variance_shares",
    "partial_cov",
    "partial_trace_share",
]


@dataclass(frozen=True)
class CorrectedVariances:
    """Per-loading corrected and uncorrected (``u^T S u``) variances."""

    r_squared: np.ndarray
    uncorrected: np.ndarray

    def __post_init__(self):
        r2 = np.asarray(self.r_squared, dtype=float)
        object.__setattr__(self, "r_squared", r2)
        if np.any(r2 < 0):
            raise ValueError("corrected variances must be nonnegative")


@dataclass(frozen=True)
class VarianceShares:
    """SV per loading and per block, CV cumulative per block (percent)."""

    per_loading_sv: np.ndarray
    block_sv: np.ndarray
    block_cv: np.ndarray


def corrected_variances(cov: CovMatrix, u: np.ndarray) -> CorrectedVariances:
    """Both variances of ``u``'s columns, from the one factor of ``U^T S U``."""
    gram = u.T @ cov.values @ u
    gram = (gram + gram.T) / 2.0
    r = cholesky_upper(gram)
    return CorrectedVariances(np.diag(r) ** 2, np.diag(gram))


def variance_shares(
    cv: CorrectedVariances, cov: CovMatrix, p: BlockPartition
) -> VarianceShares:
    """Percent shares of total variance, per loading and per block.

    ``cv`` must correspond to loadings laid out in block order (all loadings
    of the first block first, and so on); block SV sums the block's positions,
    CV accumulates over blocks in order.
    """
    total = cov.trace()
    per = 100.0 * cv.r_squared / total
    if p.n_vars != per.size:
        raise ValueError("partition size does not match corrected variances")
    ends = np.cumsum([b.size for b in p.blocks], dtype=int)
    block_sv = np.array([np.sum(per[e - b.size:e]) for b, e in zip(p.blocks, ends)])
    return VarianceShares(per, block_sv, np.cumsum(block_sv))


def partial_cov(cov: CovMatrix, d_set) -> np.ndarray:
    """Partial covariance of the variables ``d_set`` given the complement.

    The symmetric ``|D| x |D|`` array ``S[D,D] - S[D,K] S[K,K]^-1 S[K,D]``,
    where ``K`` is every other variable and ``D`` is ascending. Each index
    must be an integer (``operator.index``) in ``[0, M)`` and appear once;
    the first that is not raises ``ValueError``.
    """
    m = cov.n_vars
    d: list[int] = []
    for i in d_set:
        try:
            j = operator.index(i)
        except TypeError:
            raise ValueError(f"variable index {i!r} is not an integer") from None
        if not 0 <= j < m:
            raise ValueError(f"variable index {j} outside [0, {m})")
        if j in d:
            raise ValueError(f"variable index {j} repeats")
        d.append(j)
    if not d or len(d) >= m:
        raise ValueError("d_set must be a proper nonempty subset of the variables")
    d.sort()
    k = [i for i in range(m) if i not in d]
    s = cov.values
    sdd = s[np.ix_(d, d)]
    sdk = s[np.ix_(d, k)]
    skk = s[np.ix_(k, k)]
    values = sdd - sdk @ solve_spd(skk, sdk.T)
    return (values + values.T) / 2.0


def partial_trace_share(cov: CovMatrix, d_set) -> float:
    """Percent of total variance retained by ``d_set`` after conditioning."""
    return 100.0 * float(np.trace(partial_cov(cov, d_set))) / cov.trace()
