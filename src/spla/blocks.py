"""Block-structure detection from sparse loading patterns.

A loading matrix is a square ``M x M`` array, variables in rows and loadings
in columns. Two variables are adjacent when some loading is nonzero on
both; connected components of that variable graph are the blocks. The
pattern is valid when each component touches as many loadings as it has
variables, so a row/column permutation brings the loading matrix to
block-diagonal form. Detection checks that square rule once; a block is
then its variables alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data import CovMatrix
from .sparse_loadings import ZERO_TOL
from .matops import _components, sym_eigen

__all__ = [
    "BlockError",
    "NonSquareBlockError",
    "IsolatedVariableError",
    "InconsistentPartitionError",
    "Block",
    "BlockPartition",
    "detect_blocks",
    "pla_detect",
]


class BlockError(Exception):
    """Base class for block-structure errors."""


class NonSquareBlockError(BlockError):
    """A component touches more or fewer loadings than it has variables."""


class IsolatedVariableError(BlockError):
    """A variable has no incident loading in the support pattern."""


class InconsistentPartitionError(BlockError):
    """A partition does not match the loading matrix it is applied to."""


@dataclass(frozen=True)
class Block:
    """One block: its variable indices, at least one, kept in ascending
    order. An index must be an integer (``operator.index``: numpy integers
    pass, floats do not); anything else raises :class:`BlockError`."""

    variable_indices: tuple[int, ...]

    def __post_init__(self):
        indices = []
        for i in self.variable_indices:
            try:
                indices.append(operator.index(i))
            except TypeError:
                msg = f"block variable index {i} is not an integer"
                raise BlockError(msg) from None
        if not indices:
            raise BlockError("a block needs at least one variable")
        object.__setattr__(self, "variable_indices", tuple(sorted(indices)))

    @property
    def size(self) -> int:
        return len(self.variable_indices)


@dataclass(frozen=True)
class BlockPartition:
    """An ordered list of disjoint blocks covering all variables."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        var_all = [i for b in self.blocks for i in b.variable_indices]
        if sorted(var_all) != list(range(len(var_all))):
            raise InconsistentPartitionError(
                "blocks must disjointly cover all variable indices"
            )

    @property
    def n_vars(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def detect_blocks(u: np.ndarray, tol: float = ZERO_TOL) -> BlockPartition:
    """Partition the variables by the support pattern of the square loading
    matrix ``u`` (variables are rows, loadings columns).

    Entries with magnitude at or below ``tol`` are structural zeros. Blocks
    are the components of the variable graph (variables sharing a nonzero
    loading are adjacent), in ascending order of their smallest variable
    index; the order is data, not a commitment — evaluation routines take it
    as explicit input. Each component must touch as many loadings as it has
    variables (the square rule); the loadings are checked here and not kept.
    When several components are invalid, the one with the smallest variable
    reports; a loading without support leaves some component short.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"loading matrix must be square, got {u.shape}")
    pattern = np.abs(u) > tol
    # Diagnose isolated variables up front: the more specific error should
    # win over a non-square component elsewhere in the pattern.
    lonely = np.nonzero(~pattern.any(axis=1))[0]
    if lonely.size:
        raise IsolatedVariableError(
            f"variable {int(lonely[0])} has no incident loading"
        )
    blocks = []
    for comp in _components(pattern.astype(float) @ pattern.T > 0):
        rows, n_cols = comp.tolist(), int(pattern[comp].any(axis=0).sum())
        if len(rows) != n_cols:
            raise NonSquareBlockError(
                f"component with variables {rows} pairs {n_cols} loadings"
            )
        blocks.append(Block(tuple(rows)))
    return BlockPartition(tuple(blocks))


def pla_detect(cov: CovMatrix, tau: float) -> BlockPartition | None:
    """Hard-threshold block detector on the eigenvectors of ``cov``.

    The eigenvectors go to :func:`detect_blocks` with the tolerance
    ``tau * (1 + 1e-9)``, never below ``ZERO_TOL``. The band makes an entry
    within a relative 1e-9 of ``tau`` count as at ``tau``, so an entry whose
    exact value is ``tau`` is zeroed whichever way the eigensolver rounds
    it. Returns ``None`` when the pattern admits no square block structure —
    absence of structure is a valid result.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau={tau} outside (0, 1)")
    _, vecs = sym_eigen(cov.values)
    try:
        return detect_blocks(vecs, max(tau * (1.0 + 1e-9), ZERO_TOL))
    except (NonSquareBlockError, IsolatedVariableError):
        return None
