"""Sparse orthonormal loading matrices.

Two routes are provided: a penalized rank-one decomposition with an L1 bound
on the loading side (default), and an elastic-net formulation that penalizes
each loading individually. Both finish with a Procrustes orthogonalization so
the loading matrix is orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .matops import (
    NoConvergenceError,
    RankDeficientError,
    _fix_signs,
    soft_threshold,
    svd,
    sym_eigen,
)

if TYPE_CHECKING:  # pragma: no cover
    from .blocks import BlockPartition

__all__ = [
    "LoadingMatrix",
    "PenaltyConfig",
    "penalized_rank_one",
    "sparse_loading_matrix",
    "elastic_net_loadings",
    "orthogonalize",
]

#: Entries with magnitude at or below this are treated as structural zeros.
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class LoadingMatrix:
    """An ``M x M`` matrix whose columns are (sparse) loadings."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "u", u)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"loading matrix must be square, got {u.shape}")

    @property
    def n_vars(self) -> int:
        return self.u.shape[0]

    def support(self, j: int) -> np.ndarray:
        """Indices of the nonzero components of loading ``j``."""
        return np.nonzero(np.abs(self.u[:, j]) > ZERO_TOL)[0]

    def support_pattern(self) -> np.ndarray:
        """Boolean ``M x M`` mask of the nonzero pattern."""
        return np.abs(self.u) > ZERO_TOL


@dataclass(frozen=True)
class PenaltyConfig:
    """Configuration of the sparse-loading computation.

    ``l1_bound`` is the L1 budget ``c`` for the penalized decomposition and
    must lie in ``[1, sqrt(M)]``: below 1 no unit vector is feasible, above
    ``sqrt(M)`` the constraint is inactive. The elastic-net route takes its
    per-loading penalties and ridge weight as arguments and reads only the
    iteration settings from here.
    """

    l1_bound: float = 1.0
    max_iter: int = 500
    conv_tol: float = 1e-9
    #: With strict_convergence=False the rank-one alternation returns its
    #: final iterate instead of raising at max_iter. Capped factors do not
    #: oscillate: with near-tied block variances they keep one support and
    #: converge linearly but slowly. The support of the final iterate is
    #: settled; downstream gating judges it on its own merits.
    strict_convergence: bool = True

    def validated_bound(self, m: int) -> float:
        c = float(self.l1_bound)
        if not (1.0 <= c <= np.sqrt(m) + 1e-12):
            raise ValueError(f"l1 bound c={c} outside [1, sqrt({m})]")
        return c


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _unit_within_budget(z: np.ndarray, c: float) -> np.ndarray:
    """``unit(soft_threshold(z, delta))`` for the smallest ``delta >= 0`` with
    ``||unit(soft_threshold(z, delta))||_1 <= c``; the zero vector if none.

    Between sorted ``|z|`` values (knots) the same ``k`` coordinates survive,
    and the L1/L2 ratio, which falls as ``delta`` grows, meets ``c`` at a root
    of a quadratic. ``delta`` is that root on the first piece whose lower knot
    breaks the budget (Duchi et al., ICML 2008). At ``c = 1`` it is the second
    largest ``|z|``: ``+-e_i`` for a strict maximum, zero for a tie.
    """
    a = -np.sort(-np.abs(z))
    norm = np.linalg.norm(z)
    if norm > 0 and np.sum(np.abs(z)) / norm <= c:
        delta = 0.0
    elif c == 1.0:  # the root is a[1]; taken as is, the answer is one-sparse
        delta = a[1]
    else:
        g = a[0] - a  # shifted by the maximum, near ties do not cancel
        knot = np.append(g[1:], a[0])  # each piece's lower knot, shifted
        k = np.arange(1, a.size + 1)
        g1, g2 = np.cumsum(g), np.cumsum(g * g)
        # ||w||_1 > c ||w||_2 at the lower knot; at the last one, r(0) > c
        above = k * knot - g1 > c * np.sqrt(k * knot * knot - 2 * knot * g1 + g2)
        j = int(np.argmax(np.append(above[:-1], True)))
        kj = j + 1
        delta = a[kj] if kj < a.size else 0.0
        if kj > c * c:  # otherwise only by rounding: the root is the lower knot
            mean, var = g1[j] / kj, max(g2[j] - g1[j] ** 2 / kj, 0.0)
            root = a[0] - mean - c * np.sqrt(var / (kj * (kj - c * c)))
            delta = min(max(root, delta), a[j])
    return _unit(soft_threshold(z, delta))


def _rank_one(s: np.ndarray, c: float, cfg: PenaltyConfig) -> np.ndarray:
    """Loading of the penalized rank-one factor of the Gram matrix ``s``.

    From the leading eigenvector of ``s``, alternates ``loading <-
    _unit_within_budget(s @ loading, c)``. For ``s = x^T x`` this is the PMD
    of ``x`` (Witten, Tibshirani & Hastie 2009): its left factor
    ``unit(x @ loading)`` only rescales ``s @ loading``.
    """
    loading = sym_eigen(s)[1][:, 0]
    for _ in range(cfg.max_iter):
        new = _unit_within_budget(s @ loading, c)
        if np.linalg.norm(new - loading) < cfg.conv_tol:
            return new
        loading = new
    if cfg.strict_convergence:
        raise NoConvergenceError(
            f"penalized rank-one factor did not converge in "
            f"{cfg.max_iter} iterations"
        )
    return loading


def _pmd(s: np.ndarray, c: float, cfg: PenaltyConfig) -> LoadingMatrix:
    """All ``M`` sparse loadings of the Gram matrix ``s``, not orthogonalized.

    After each factor ``s`` becomes ``(I - v v^T) s (I - v v^T)``, the Gram
    matrix of the deflated sample ``x (I - v v^T)`` (projection deflation,
    Mackey, NIPS 2008). Once its trace is at most ``1e-12`` of the original,
    the rest is an orthonormal basis of the complement.
    """
    m = s.shape[0]
    total = np.trace(s)
    cols = []
    while len(cols) < m and np.trace(s) > 1e-12 * total:
        v = _rank_one(s, c, cfg)
        cols.append(v)
        p = np.eye(m) - np.outer(v, v)
        s = p @ s @ p
        # Exactly symmetric: the symmetry check of sym_eigen is absolute.
        s = (s + s.T) / 2.0
    if len(cols) < m:
        cols.extend(_complement_basis(np.column_stack(cols) if cols else None, m).T)
    return LoadingMatrix(_fix_signs(np.column_stack(cols)))


def penalized_rank_one(
    x: np.ndarray, c: float, cfg: PenaltyConfig = PenaltyConfig()
) -> tuple[np.ndarray, np.ndarray, float]:
    """Single sparse factor of ``x``: ``(left, loading, d)``.

    ``loading`` is the penalized rank-one loading of ``x^T x`` (deterministic:
    it starts at the leading eigenvector), ``d = ||x @ loading||`` and
    ``left = unit(x @ loading)``.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("x must be nonzero")
    c = replace(cfg, l1_bound=c).validated_bound(x.shape[1])
    loading = _rank_one(x.T @ x, c, cfg)
    fit = x @ loading
    return _unit(fit), loading, float(np.linalg.norm(fit))


def sparse_loading_matrix(
    x: np.ndarray,
    cfg: PenaltyConfig,
    orthogonalize_result: bool = True,
) -> LoadingMatrix:
    """All ``M`` sparse loadings of ``x`` by deflation.

    ``x`` is the centered sample or any matrix with the same Gram matrix
    ``x^T x``, on which the loadings are computed. Columns are ordered by
    extraction (descending factor weight). With ``orthogonalize_result=False``
    the raw deflation output is returned, preserving the exact zero pattern
    for block detection; callers then re-orthogonalize block-wise once a
    partition is known.
    """
    x = np.asarray(x, dtype=float)
    lm = _pmd(x.T @ x, cfg.validated_bound(x.shape[1]), cfg)
    return orthogonalize(lm) if orthogonalize_result else lm


def _complement_basis(u: Optional[np.ndarray], m: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``span(u)``."""
    if u is None:
        return np.eye(m)
    q, _, _ = svd(u)
    # Columns of q span the column space; complete via projection of identity.
    proj = np.eye(m) - q @ q.T
    uu, ss, _ = svd(proj)
    keep = ss > 1e-10
    return uu[:, keep][:, : m - u.shape[1]]


def elastic_net_loadings(
    cov,
    per_loading_l1,
    ridge: float,
    k: int,
    cfg: PenaltyConfig = PenaltyConfig(),
    orthogonalize_result: bool = True,
) -> LoadingMatrix:
    """Elastic-net sparse loadings of a covariance matrix.

    Alternates: for fixed orthonormal ``A`` (M x k), each column ``B_j``
    minimizes ``b^T (S + ridge I) b - 2 A_j^T S b + l1_j ||b||_1``
    (coordinate descent); then ``A`` is set to the polar factor of ``S B``.
    The remaining ``M - k`` loadings are completed with eigenvectors of ``S``
    projected onto the orthogonal complement.
    """
    s = np.asarray(getattr(cov, "values", cov), dtype=float)
    m = s.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside [1, {m}]")
    l1 = np.asarray(per_loading_l1, dtype=float)
    if l1.size == 1:
        l1 = np.full(k, float(l1.reshape(-1)[0]))
    if l1.size != k:
        raise ValueError(f"{l1.size} l1 penalties for k={k} loadings")
    if np.any(l1 < 0) or ridge < 0:
        raise ValueError("penalties must be nonnegative")

    _lam, vecs = sym_eigen(s)
    a = vecs[:, :k]
    gram = s + ridge * np.eye(m)
    half = l1 / 2.0
    b = a.copy()
    for _ in range(cfg.max_iter):
        b_old = b.copy()
        target = s @ a  # columns: S A_j
        # The k lasso problems share ``gram``, so coordinate i of every
        # column is one vector step (Friedman, Hastie & Tibshirani 2010).
        # A column leaves ``active`` after the sweep that moves it by less
        # than conv_tol, and stays at that iterate; at most 50 sweeps.
        active = np.ones(k, dtype=bool)
        for _ in range(50):
            b_prev = b.copy()
            for i in range(m):
                rho = target[i] - gram[i] @ b + gram[i, i] * b[i]
                np.copyto(b[i], soft_threshold(rho, half) / gram[i, i], where=active)
            active &= np.linalg.norm(b - b_prev, axis=0) >= cfg.conv_tol
            if not active.any():
                break
        sb = s @ b
        uu, ss_, vv = svd(sb)
        a = uu @ vv.T
        if np.linalg.norm(b - b_old) < cfg.conv_tol:
            break
    else:
        raise NoConvergenceError(
            f"elastic-net loadings did not converge in {cfg.max_iter} iterations"
        )

    norms = np.linalg.norm(b, axis=0)
    if np.any(norms <= 1e-12):
        raise RankDeficientError("an elastic-net loading collapsed to zero")
    b = b / norms
    if k < m:
        rest = _complement_basis(b, m)
        # Order the completion by explained variance within the complement.
        proj = rest.T @ s @ rest
        lam, w = sym_eigen((proj + proj.T) / 2.0)
        rest = rest @ w
        u = np.column_stack([b, rest])
    else:
        u = b
    u = _fix_signs(u)
    return orthogonalize(u) if orthogonalize_result else LoadingMatrix(u)


def orthogonalize(
    u, partition_hint: "Optional[BlockPartition]" = None
) -> LoadingMatrix:
    """Nearest orthonormal matrix via Procrustes (SVD with unit singular values).

    With ``partition_hint`` the replacement runs block-by-block on the diagonal
    sub-matrices, so zeros outside the blocks are preserved exactly.
    """
    u = np.asarray(getattr(u, "u", u), dtype=float)
    if u.shape[0] != u.shape[1]:
        raise ValueError("loading matrix must be square")
    out = np.zeros_like(u)
    if partition_hint is None:
        blocks = [(np.arange(u.shape[0]), np.arange(u.shape[1]))]
    else:
        blocks = [
            (np.asarray(b.variable_indices), np.asarray(b.loading_indices))
            for b in partition_hint.blocks
        ]
    for rows, colidx in blocks:
        sub = u[np.ix_(rows, colidx)]
        uu, ss, vv = svd(sub)
        if np.min(ss) < 1e-10:
            raise RankDeficientError(
                f"singular value {np.min(ss):g} below 1e-10 during orthogonalization"
            )
        out[np.ix_(rows, colidx)] = uu @ vv.T
    return LoadingMatrix(_fix_signs(out))
