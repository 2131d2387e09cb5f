"""The block evaluation criterion (EC).

A detected block is judged by replacing its leading loading with the
equal-weight vector ``w = D^{-1/2} * 1`` on the block and comparing the
block's corrected variance (regressing out all blocks ordered before it)
against its uncorrected variance, the quasi-eigenvalue ``w^T S w``. The
ratio lies in ``(0, 1]`` and is close to one exactly when the block is
genuinely separable from the blocks preceding it.

The first block in the evaluation ordering has nothing to be corrected
against, so its criterion is identically one and carries no information; it
is reported as a marker, never as the number 1.0.

EC is read off the record that also gives SV: the corrected and uncorrected
variances of the block-ordered weight basis ``W`` of :func:`weight_basis`,
from one factor of ``W^T S W`` (:func:`spla.variance.corrected_variances`).
It depends only on the covariance, the partition and the ordering — not on
the penalty that produced the loadings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition, InconsistentPartitionError
from .data import CovMatrix
from .variance import CorrectedVariances, corrected_variances

__all__ = [
    "BlockEvaluation",
    "weight_basis",
    "block_ec",
    "evaluate_partition",
]

#: Default gate threshold below which a detected structure is rejected.
DEFAULT_C_EC = 0.6


@dataclass(frozen=True)
class BlockEvaluation:
    """EC entry for one block: a number in ``(0, 1]`` or the first-block marker."""

    ec: float | None  # None <=> first-block marker


def _helmert(m: int) -> np.ndarray:
    """Orthonormal ``m x m`` basis whose first column is the equal-weight vector."""
    w = np.ones((m, m))
    if m > 1:
        sub = np.triu(np.ones((m - 1, m - 1)))
        np.fill_diagonal(sub, -np.arange(1, m))
        w[1:, 1:] = sub
    return w / np.linalg.norm(w, axis=0)


def weight_basis(
    p: BlockPartition,
    within_block_order: tuple[tuple[int, ...], ...] | None = None,
) -> np.ndarray:
    """Block-diagonal orthonormal basis, equal-weight column leading each block.

    Columns are laid out in the partition's block order, so corrected
    variances computed against this basis line up with block-ordered share
    accounting. The equal-weight column is order-free, but the completing
    columns — and hence the per-position variance split inside a block — are
    not; ``within_block_order`` pins the variable sequence each block's
    basis is built over (default: ascending variable index).
    """
    u = np.zeros((p.n_vars, p.n_vars))
    pos = 0
    for i, b in enumerate(p.blocks):
        if within_block_order is not None:
            rows = np.asarray(within_block_order[i])
            if tuple(sorted(rows)) != b.variable_indices:
                raise InconsistentPartitionError(
                    f"within-block order {tuple(rows)} does not match block "
                    f"{b.variable_indices}"
                )
        else:
            rows = np.asarray(b.variable_indices)
        u[np.ix_(rows, range(pos, pos + b.size))] = _helmert(b.size)
        pos += b.size
    return u


def _block_ecs(cv: CorrectedVariances, p: BlockPartition, c_ec: float):
    """:func:`evaluate_partition` read off the variances ``cv`` of a
    :func:`weight_basis` of ``p`` in any within-block order, gated at ``c_ec``."""
    ends = np.cumsum([b.size for b in p.blocks[:-1]], dtype=int)
    ecs = np.minimum(cv.r_squared[ends] / cv.uncorrected[ends], 1.0).tolist()
    min_ec = min(ecs, default=1.0)
    return [BlockEvaluation(e) for e in [None, *ecs]], min_ec, min_ec >= c_ec


def evaluate_partition(
    cov: CovMatrix, p: BlockPartition
) -> tuple[list[BlockEvaluation], float, bool]:
    """EC of every block under the partition's ordering, from one factor.

    ``G = W^T S W`` with ``W = weight_basis(p)`` is factored once as
    ``R^T R``. A block whose equal-weight column ``w`` sits at position
    ``k`` has EC ``min(r_kk**2 / G_kk, 1)``: the columns before ``k`` span
    exactly the preceding blocks' variables ``P``, so
    ``r_kk**2 = w^T (S[D,D] - S[D,P] S[P,P]^-1 S[P,D]) w``, and
    ``G_kk = w^T S[D,D] w``; a within-block order of ``W`` keeps that span.

    Returns ``(entries, min_ec, min_ec >= DEFAULT_C_EC)``; the first entry is
    the marker (``ec`` of ``None``). A single-block partition passes with
    ``min_ec = 1`` and nothing is factored. A pivot of ``G`` at or below the
    Cholesky floor raises :class:`~spla.matops.NotPositiveDefiniteError`.
    """
    if p.n_blocks == 1:
        return [BlockEvaluation(None)], 1.0, True
    return _block_ecs(corrected_variances(cov, weight_basis(p)), p, DEFAULT_C_EC)


def block_ec(cov: CovMatrix, p: BlockPartition, b: int) -> BlockEvaluation:
    """EC of block ``b`` given the blocks ordered before it.

    Entry ``b`` of :func:`evaluate_partition`, which factors once for every
    block of ``p``; call that directly to evaluate several blocks. For the
    first block the marker entry is returned.
    """
    if not 0 <= b < p.n_blocks:
        raise InconsistentPartitionError(f"no block {b} in partition")
    return evaluate_partition(cov, p)[0][b]
