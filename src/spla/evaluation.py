"""The block evaluation criterion (EC).

A detected block is judged by replacing its leading loading with the
equal-weight vector ``w = D^{-1/2} * 1`` on the block and comparing the
block's corrected variance (regressing out all blocks ordered before it)
against its uncorrected variance ``w^T S w``. The ratio lies in ``(0, 1]``
and is close to one exactly when the block is genuinely separable from the
blocks preceding it.

The first block in the evaluation ordering has nothing to be corrected
against, so its criterion is identically one and carries no information; it
is reported as a marker, never as the number 1.0.

Two computation routes exist and agree to near machine precision: the closed
form below (regression on the preceding blocks' variables) and the literal
loading-replacement route (:func:`block_ec_literal`), kept as a cross-check.
The closed form depends only on the covariance, the partition and the
ordering — not on the penalty that produced the loadings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .blocks import Block, BlockPartition, InconsistentPartitionError
from .data import CovMatrix
from .matops import cholesky_upper, solve_spd, sym_eigen
from .sparse_loadings import LoadingMatrix
from .variance import CorrectedVariances

__all__ = [
    "FIRST_BLOCK",
    "BlockEvaluation",
    "EcGate",
    "weight_basis",
    "replace_with_weight",
    "block_ec",
    "block_ec_literal",
    "evaluate_partition",
]

#: Marker reported for the first block in the evaluation ordering.
FIRST_BLOCK = "first-block"

#: Default gate threshold below which a detected structure is rejected.
DEFAULT_C_EC = 0.6


@dataclass(frozen=True)
class BlockEvaluation:
    """EC entry for one block: a number in ``(0, 1]`` or the first-block marker."""

    block_index: int
    ec: float | None  # None <=> first-block marker
    delta_star: int
    corrected_against: tuple[int, ...]

    @property
    def is_first(self) -> bool:
        return self.ec is None


@dataclass(frozen=True)
class EcGate:
    """Accept/reject threshold for the minimum EC of a partition."""

    c_ec: float = DEFAULT_C_EC

    def __post_init__(self):
        if not 0.0 < self.c_ec < 1.0:
            raise ValueError(f"c_ec={self.c_ec} outside (0, 1)")


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
) -> LoadingMatrix:
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
    return LoadingMatrix(u)


def replace_with_weight(
    u: LoadingMatrix, p: BlockPartition, b: int
) -> LoadingMatrix:
    """Replace block ``b``'s leading loading by the equal-weight vector.

    The block's other loadings are re-orthogonalized against the new leading
    loading inside the block subspace (projection onto its orthogonal
    complement, then Gram-Schmidt), so the full matrix stays orthonormal.
    Loadings of every other block are untouched.
    """
    if not 0 <= b < p.n_blocks:
        raise InconsistentPartitionError(f"no block {b} in partition")
    blk = p.blocks[b]
    rows = np.asarray(blk.variable_indices)
    cols = np.asarray(blk.loading_indices)
    sub = u.u[np.ix_(rows, cols)]
    if np.max(np.abs(sub)) == 0 and blk.size > 0:
        raise InconsistentPartitionError("block has an all-zero loading sub-matrix")
    d = blk.size
    # Gram-Schmidt against w over the old columns, then the standard basis
    # in case the old columns were degenerate.
    basis = [np.ones(d) / np.sqrt(d)]
    for v in itertools.chain(sub.T, np.eye(d)):
        if len(basis) >= d:
            break
        for q in basis:
            v = v - (q @ v) * q
        n = np.linalg.norm(v)
        if n >= 1e-12:
            basis.append(v / n)
    new_sub = np.column_stack(basis)
    out = u.u.copy()
    out[np.ix_(rows, cols)] = new_sub
    return LoadingMatrix(out)


def block_ec(cov: CovMatrix, p: BlockPartition, b: int) -> BlockEvaluation:
    """EC of block ``b`` given the blocks ordered before it (closed form).

    ``num = w^T (S[D,D] - S[D,P] S[P,P]^-1 S[P,D]) w`` and
    ``den = w^T S[D,D] w`` with ``P`` the union of the preceding blocks'
    variables and ``w`` the equal-weight vector on the block. For the first
    block the criterion is identically one and the marker entry is returned.
    """
    if not 0 <= b < p.n_blocks:
        raise InconsistentPartitionError(f"no block {b} in partition")
    blk = p.blocks[b]
    delta_star = min(blk.loading_indices)
    pre: list[int] = [i for j in range(b) for i in p.blocks[j].variable_indices]
    if not pre:
        return BlockEvaluation(b, None, delta_star, ())
    d = list(blk.variable_indices)
    s = cov.values
    w = np.ones(len(d)) / np.sqrt(len(d))
    sdd = s[np.ix_(d, d)]
    sdp = s[np.ix_(d, pre)]
    spp = s[np.ix_(pre, pre)]
    num = float(w @ (sdd - sdp @ solve_spd(spp, sdp.T)) @ w)
    den = float(w @ sdd @ w)
    ec = num / den
    # Guard the theoretical range against floating-point drift.
    ec = min(ec, 1.0)
    if ec <= 0:
        raise InconsistentPartitionError(
            "EC collapsed to zero: conditioning block explains the candidate exactly"
        )
    return BlockEvaluation(b, ec, delta_star, tuple(pre))


def _sequential_partition(p: BlockPartition) -> BlockPartition:
    """The same variable blocks with loadings renumbered in block order."""
    out, pos = [], 0
    for blk in p.blocks:
        out.append(Block(blk.variable_indices, tuple(range(pos, pos + blk.size))))
        pos += blk.size
    return BlockPartition(tuple(out))


def block_ec_literal(cov: CovMatrix, p: BlockPartition, b: int) -> BlockEvaluation:
    """EC of block ``b`` via the literal loading-replacement construction.

    Builds block-diagonal loadings in evaluation order (within-block columns
    are eigenvectors of the block's covariance), replaces the block's leading
    loading with the equal-weight vector, re-orthogonalizes, and takes the
    ratio of the corrected variance at that position to the quasi-eigenvalue
    ``w^T S w``. Independent cross-check for :func:`block_ec`.
    """
    blk = p.blocks[b]
    pos = sum(p.blocks[j].size for j in range(b))
    if pos == 0:
        return BlockEvaluation(b, None, min(blk.loading_indices), ())
    m = cov.n_vars
    u = np.zeros((m, m))
    q = 0
    for bb in p.blocks:
        rows = np.asarray(bb.variable_indices)
        sub = cov.values[np.ix_(rows, rows)]
        _, vecs = sym_eigen((sub + sub.T) / 2.0)
        u[np.ix_(rows, range(q, q + bb.size))] = vecs
        q += bb.size
    seq = _sequential_partition(p)
    replaced = replace_with_weight(LoadingMatrix(u), seq, b)
    gram = replaced.u.T @ cov.values @ replaced.u
    gram = (gram + gram.T) / 2.0
    r = cholesky_upper(gram)
    num = float(r[pos, pos] ** 2)
    wcol = replaced.u[:, pos]
    den = float(wcol @ cov.values @ wcol)
    pre = tuple(i for j in range(b) for i in p.blocks[j].variable_indices)
    return BlockEvaluation(b, min(num / den, 1.0), min(blk.loading_indices), pre)


def evaluate_partition(
    cov: CovMatrix, p: BlockPartition, gate: EcGate = EcGate()
) -> tuple[list[BlockEvaluation], float, bool]:
    """EC of every block under the partition's ordering.

    Returns ``(entries, min_ec, passes)``. The first block contributes the
    marker, not a number; a single-block partition passes vacuously with
    ``min_ec = 1``.
    """
    entries = [block_ec(cov, p, b) for b in range(p.n_blocks)]
    computed = [e.ec for e in entries if e.ec is not None]
    min_ec = min(computed) if computed else 1.0
    return entries, min_ec, min_ec >= gate.c_ec
