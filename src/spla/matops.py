"""Dense linear-algebra kernels used throughout the package.

All routines operate on plain ``numpy.ndarray`` values (row-major, float64)
and are pure functions: no shared mutable state, safe for concurrent callers.
Each factorization is a thin wrapper over LAPACK through :mod:`numpy.linalg`
that adds the package's conventions: the error classes below, eigenvalues
in descending order with a stable tie-break, eigenvectors supported on one
connected component of the matrix's nonzero pattern with a nonnegative
largest-magnitude component, and a relative Cholesky pivot floor.

Tolerances are module-level constants; no routine takes one as an argument.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MatopsError",
    "NonSymmetricError",
    "NotPositiveDefiniteError",
    "NoConvergenceError",
    "RankDeficientError",
    "sym_eigen",
    "cholesky_upper",
    "svd",
    "soft_threshold",
    "solve_spd",
]

#: Largest ``|a_ij - a_ji|`` that :func:`sym_eigen` accepts as symmetric.
SYM_TOL = 1e-8
#: Relative pivot floor below which a matrix is declared not positive definite.
CHOLESKY_PIVOT_RTOL = 1e-12


class MatopsError(Exception):
    """Base class for numerical kernel failures."""


class NonSymmetricError(MatopsError):
    """A routine requiring a symmetric matrix received an asymmetric one."""


class NotPositiveDefiniteError(MatopsError):
    """A pivot collapsed: the matrix is not positive definite."""


class NoConvergenceError(MatopsError):
    """An iterative scheme hit its iteration cap before converging."""


class RankDeficientError(MatopsError):
    """A matrix required to have full rank is (numerically) rank deficient."""


def _as_matrix(a, stacked: bool = False) -> np.ndarray:
    """``a`` as a finite float matrix or, if ``stacked``, also a stack of
    matrices (``G x M x N``)."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in ((2, 3) if stacked else (2,)) or 0 in a.shape[-2:]:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Copy of ``u`` with each column's largest-magnitude component nonnegative."""
    u = np.array(u, dtype=float)
    cols = np.arange(u.shape[1])
    u[:, u[np.argmax(np.abs(u), axis=0), cols] < 0] *= -1.0
    return u


def _components(adjacency) -> list[np.ndarray]:
    """Connected components of the graph with a symmetric boolean adjacency.

    Each component is a sorted index array, and the list is ordered by each
    component's smallest index.
    """
    n = adjacency.shape[0]
    # Transitive closure (path lengths double per step); a component is
    # named by its smallest index, the first in its row.
    reach = np.asarray(adjacency, dtype=bool) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(float) @ reach) > 0
    firsts = np.unique(np.argmax(reach, axis=1))
    return [np.flatnonzero(reach[i]) for i in firsts]


def sym_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``a = V diag(lam) V^T`` of a symmetric matrix.

    LAPACK (:func:`numpy.linalg.eigh`) runs once per connected component of
    the exact nonzero pattern of ``a``, so every eigenvector is supported on
    a single component even when eigenvalues are shared across components
    (a plain ``eigh`` may mix such a degenerate eigenspace across blocks).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order. A component's eigenvalues, in descending order, take
    its variable indices in ascending order as slots, and ties are broken by
    slot (stable sort); for a diagonal matrix the slot is the column index.
    Each eigenvector column has a nonnegative largest-magnitude component so
    the decomposition is deterministic. A LAPACK convergence failure is
    reported as :class:`NoConvergenceError`.
    """
    a = _as_matrix(a)
    m = a.shape[0]
    if a.shape[1] != m:
        raise NonSymmetricError("matrix is not square")
    asym = np.max(np.abs(a - a.T)) if m > 1 else 0.0
    if asym > SYM_TOL:
        raise NonSymmetricError(
            f"max |a_ij - a_ji| = {asym:g} exceeds tol {SYM_TOL:g}"
        )

    w = (a + a.T) / 2.0
    lam = np.empty(m)
    v = np.zeros((m, m))
    for comp in _components(w != 0.0):
        try:
            sub_lam, sub_v = np.linalg.eigh(w[np.ix_(comp, comp)])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise NoConvergenceError(str(exc)) from exc
        lam[comp] = sub_lam[::-1]
        v[np.ix_(comp, comp)] = sub_v[:, ::-1]
    order = np.argsort(-lam, kind="stable")
    return lam[order], _fix_signs(v[:, order])


def cholesky_upper(a) -> np.ndarray:
    """Upper-triangular ``R`` with ``R^T R = a`` and positive diagonal.

    LAPACK (:func:`numpy.linalg.cholesky`) computes the factor. Raises
    :class:`NotPositiveDefiniteError` when LAPACK rejects ``a`` or when a
    pivot ``r_ii**2`` falls at or below
    ``CHOLESKY_PIVOT_RTOL * max(diag(a))``.
    """
    a = _as_matrix(a)
    m = a.shape[0]
    if a.shape[1] != m:
        raise NonSymmetricError("matrix is not square")
    try:
        r = np.linalg.cholesky(a).T
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    floor = CHOLESKY_PIVOT_RTOL * max(np.max(np.abs(a.diagonal())), 1e-300)
    pivots = r.diagonal() ** 2
    low = np.flatnonzero(pivots <= floor)
    if low.size:
        i = int(low[0])
        raise NotPositiveDefiniteError(f"pivot {pivots[i]:g} at index {i}")
    return r


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a = U diag(s) V^T``.

    Returns numpy's ``(U, s, V^T)``, singular values in descending order.
    ``a`` may be a stack of matrices (``G x M x N``); each is factored
    alone, by the same LAPACK call as a single matrix, and the factors are
    stacked alike. Delegates to LAPACK; a LAPACK convergence failure, of
    any matrix of a stack, is reported as :class:`NoConvergenceError`.
    """
    a = _as_matrix(a, stacked=True)
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NoConvergenceError(str(exc)) from exc


def soft_threshold(v, delta) -> np.ndarray:
    """Component-wise ``sign(v_i) * max(|v_i| - delta_i, 0)``.

    ``delta`` is a scalar or an array that broadcasts against ``v``, e.g.
    one threshold per column.
    """
    if np.any(np.asarray(delta) < 0):
        raise ValueError("delta must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - delta, 0.0)


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive-definite ``a``.

    Factors ``a = R^T R`` with :func:`cholesky_upper` (so an indefinite ``a``
    raises :class:`NotPositiveDefiniteError`), then solves ``R^T y = b`` and
    ``R x = y`` with :func:`numpy.linalg.solve`; no inverse is formed.
    """
    r = cholesky_upper(a)
    return np.linalg.solve(r, np.linalg.solve(r.T, np.asarray(b, dtype=float)))
