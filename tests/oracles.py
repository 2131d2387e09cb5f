"""Independent computation routes kept as test oracles.

The library computes EC and corrected variances from one Cholesky factor of
the Gram matrix in the weight basis. The routes here reach the same numbers
another way and exist only to check it:

- :func:`block_ec_regression` regresses the block on the preceding blocks'
  variables (one SPD solve per block);
- :func:`block_ec_literal` builds block-diagonal loadings, replaces the
  block's leading loading with the equal-weight vector
  (:func:`replace_with_weight`) and factors the full Gram matrix;
- :func:`corrected_variances_from_data` QR-decomposes the projected sample.

:func:`elastic_net_loadings_percolumn` checks the library's elastic net,
which updates coordinate ``i`` of all columns in one vector step, against
scalar coordinate descent on one column at a time.
:func:`elastic_net_loadings_pointwise` is that vector step for one grid
point at a time, as the library ran it before it solved the whole grid in
lock step.

:func:`full_deflation` is the PMD route without its stop: every budget
deflates until its trace is spent, where the library stops once the
supports at ``DETECT_TOL`` connect every variable
(:func:`supports_connect_after` finds that factor in its output).

:func:`unit_within_budget_vectorized` is the PMD route's threshold search
with the knot scan done in whole-array steps; the library scans the knots
one at a time in Python floats and stops at the first that breaks the
budget.

:func:`load_csv_cell_by_cell` is the loader as it was before the body was
parsed in one vectorised pass: one ``float()`` per cell.

:func:`population_cov` and :func:`population_correlation` give a
:class:`~spla.simulate.BlockDesign`'s covariance in closed form, a check on
the generator's draws.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

import spla.sparse_loadings as sl
from spla import BlockEvaluation, BlockPartition
from spla.blocks import InconsistentPartitionError
from spla.data import CovMatrix, DataError, DataMatrix
from spla.matops import (
    MatopsError,
    NoConvergenceError,
    RankDeficientError,
    _fix_signs,
    _square,
    cholesky_upper,
    soft_threshold,
    solve_spd,
    svd,
    sym_eigen,
)
from spla.simulate import BLOCK_SIZE, LATENT_VAR, NOISE_VAR, BlockDesign
from spla.variance import CorrectedVariances


def block_ec_regression(cov: CovMatrix, p: BlockPartition, b: int) -> BlockEvaluation:
    """EC of block ``b`` by regression on the blocks ordered before it.

    ``num = w^T (S[D,D] - S[D,P] S[P,P]^-1 S[P,D]) w`` and
    ``den = w^T S[D,D] w`` with ``P`` the union of the preceding blocks'
    variables and ``w`` the equal-weight vector on the block. For the first
    block the marker entry is returned.
    """
    if not 0 <= b < p.n_blocks:
        raise InconsistentPartitionError(f"no block {b} in partition")
    pre = [i for j in range(b) for i in p.blocks[j].variable_indices]
    if not pre:
        return BlockEvaluation(None)
    d = list(p.blocks[b].variable_indices)
    s = cov.values
    w = np.ones(len(d)) / np.sqrt(len(d))
    sdd = s[np.ix_(d, d)]
    sdp = s[np.ix_(d, pre)]
    spp = s[np.ix_(pre, pre)]
    num = float(w @ (sdd - sdp @ solve_spd(spp, sdp.T)) @ w)
    den = float(w @ sdd @ w)
    return BlockEvaluation(min(num / den, 1.0))


def replace_with_weight(
    u: np.ndarray, p: BlockPartition, b: int
) -> np.ndarray:
    """Replace block ``b``'s leading loading by the equal-weight vector.

    The block's loadings are the columns of ``u`` with support on its rows,
    as many as it has variables. Its other loadings are re-orthogonalized
    against the new leading loading inside the block subspace (projection
    onto its orthogonal complement, then Gram-Schmidt), so the full matrix
    stays orthonormal. Loadings of every other block are untouched.
    """
    if not 0 <= b < p.n_blocks:
        raise InconsistentPartitionError(f"no block {b} in partition")
    blk = p.blocks[b]
    rows = np.asarray(blk.variable_indices)
    cols = np.flatnonzero(np.any(u[rows] != 0, axis=0))
    if cols.size != blk.size:
        raise InconsistentPartitionError(
            f"block {b} touches {cols.size} loadings, not {blk.size}"
        )
    sub = u[np.ix_(rows, cols)]
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
    out = u.copy()
    out[np.ix_(rows, cols)] = np.column_stack(basis)
    return out


def block_ec_literal(cov: CovMatrix, p: BlockPartition, b: int) -> BlockEvaluation:
    """EC of block ``b`` via the literal loading-replacement construction.

    Builds block-diagonal loadings in evaluation order (within-block columns
    are eigenvectors of the block's covariance), replaces the block's leading
    loading with the equal-weight vector, re-orthogonalizes, and takes the
    ratio of the corrected variance at that position to the quasi-eigenvalue
    ``w^T S w``.
    """
    pos = sum(p.blocks[j].size for j in range(b))
    if pos == 0:
        return BlockEvaluation(None)
    m = cov.n_vars
    u = np.zeros((m, m))
    q = 0
    for bb in p.blocks:
        rows = np.asarray(bb.variable_indices)
        sub = cov.values[np.ix_(rows, rows)]
        _, vecs = sym_eigen((sub + sub.T) / 2.0)
        u[np.ix_(rows, range(q, q + bb.size))] = vecs
        q += bb.size
    replaced = replace_with_weight(u, p, b)
    gram = replaced.T @ cov.values @ replaced
    gram = (gram + gram.T) / 2.0
    r = cholesky_upper(gram)
    num = float(r[pos, pos] ** 2)
    wcol = replaced[:, pos]
    den = float(wcol @ cov.values @ wcol)
    return BlockEvaluation(min(num / den, 1.0))


def corrected_variances_from_data(d: DataMatrix, u: np.ndarray) -> CorrectedVariances:
    """Corrected variances via the QR decomposition of the projected sample.

    ``R^T R = (N-1) U^T S U`` for the QR factor ``R`` of the centred,
    projected sample, so only ``|diag R|`` is needed; the uncorrected
    variances are the projected columns' sums of squares over ``N-1``.
    """
    x = d.values - d.values.mean(axis=0)
    y = x @ u
    r = np.linalg.qr(y, mode="r")
    return CorrectedVariances(
        np.diag(r) ** 2 / (d.n_obs - 1), np.sum(y**2, axis=0) / (d.n_obs - 1)
    )


def elastic_net_loadings_percolumn(s, per_loading_l1) -> np.ndarray:
    """:func:`spla.elastic_net_loadings` by scalar coordinate descent.

    Each column ``B_j`` runs its own sweeps, one coordinate at a time, until
    a sweep moves it by less than ``EN_CONV_TOL``, at most ``EN_MAX_SWEEPS``
    times. The outer alternation and the iteration policy are the library's.
    Arguments are taken as valid: ``per_loading_l1`` holds one or ``M``
    nonnegative penalties.
    """
    s = np.asarray(s, dtype=float)
    m = s.shape[0]
    l1 = np.broadcast_to(np.asarray(per_loading_l1, dtype=float).ravel(), (m,))
    _lam, a = sym_eigen(s)
    gram = s + sl.RIDGE * np.eye(m)
    b = a.copy()
    for _ in range(sl.EN_MAX_ITER):
        b_old = b.copy()
        target = s @ a
        for j in range(m):
            beta = b[:, j].copy()
            for _ in range(sl.EN_MAX_SWEEPS):
                beta_prev = beta.copy()
                for i in range(m):
                    rho = target[i, j] - gram[i] @ beta + gram[i, i] * beta[i]
                    beta[i] = float(soft_threshold(rho, l1[j] / 2.0)) / gram[i, i]
                if np.linalg.norm(beta - beta_prev) < sl.EN_CONV_TOL:
                    break
            b[:, j] = beta
        uu, _, vt = svd(s @ b)
        a = uu @ vt
        if np.linalg.norm(b - b_old) < sl.EN_CONV_TOL:
            break
    else:
        raise NoConvergenceError(
            f"elastic-net loadings did not converge in {sl.EN_MAX_ITER} iterations"
        )

    norms = np.linalg.norm(b, axis=0)
    if np.any(norms <= 1e-12):
        raise RankDeficientError("an elastic-net loading collapsed to zero")
    return _fix_signs(b / norms)


def elastic_net_loadings_pointwise(s: np.ndarray, per_loading_l1) -> np.ndarray:
    """All ``M`` elastic-net sparse loadings of a covariance matrix, not
    orthogonalized.

    Alternates: for fixed orthonormal ``A`` (M x M), each column ``B_j``
    minimizes ``b^T (S + RIDGE I) b - 2 A_j^T S b + l1_j ||b||_1``
    (coordinate descent); then ``A`` is set to the polar factor of ``S B``.
    ``per_loading_l1`` holds one penalty for every loading or ``M`` of them.
    """
    s = _square(s, "s")
    m = s.shape[0]
    l1 = np.asarray(per_loading_l1, dtype=float)
    if l1.size == 1:
        l1 = np.full(m, float(l1.reshape(-1)[0]))
    if l1.size != m:
        raise ValueError(f"{l1.size} l1 penalties for k={m} loadings")
    if np.any(l1 < 0):
        raise ValueError("penalties must be nonnegative")
    if not np.all(np.isfinite(l1)):
        raise ValueError("penalties must be finite")

    a = sym_eigen(s)[1]
    gram = s + sl.RIDGE * np.eye(m)
    half = l1 / 2.0
    b = a.copy()
    for _ in range(sl.EN_MAX_ITER):
        b_old = b.copy()
        target = s @ a  # columns: S A_j
        # The M lasso problems share ``gram``, so coordinate i of every
        # column is one vector step (Friedman, Hastie & Tibshirani 2010).
        # A column leaves ``active`` after the sweep that moves it by less
        # than EN_CONV_TOL, and stays at that iterate; at most EN_MAX_SWEEPS.
        active = np.ones(m, dtype=bool)
        for _ in range(sl.EN_MAX_SWEEPS):
            b_prev = b.copy()
            for i in range(m):
                rho = target[i] - gram[i] @ b + gram[i, i] * b[i]
                np.copyto(b[i], soft_threshold(rho, half) / gram[i, i], where=active)
            active &= np.linalg.norm(b - b_prev, axis=0) >= sl.EN_CONV_TOL
            if not active.any():
                break
        if np.linalg.norm(b - b_old) < sl.EN_CONV_TOL:
            break
        uu, _, vt = svd(s @ b)
        a = uu @ vt
    else:
        raise NoConvergenceError(
            f"elastic-net loadings did not converge in {sl.EN_MAX_ITER} iterations"
        )

    norms = np.linalg.norm(b, axis=0)
    if np.any(norms <= 1e-12):
        raise RankDeficientError("an elastic-net loading collapsed to zero")
    return _fix_signs(b / norms)


def full_deflation(s: np.ndarray, grid) -> list:
    """:func:`spla.sparse_loading_matrix` without its stop: every budget runs
    a factor per variable, until the deflated trace is spent, whether or not
    the supports have connected.

    Each factor is ``sparse_loadings.penalized_rank_one`` of the deflated
    ``s``, looked up at call time, so a test that wraps it sees every
    factor. This is the library's loop as it ran before every budget
    stopped at ``DETECT_TOL``, so the factors before the stop are the same
    to the bit.
    """
    s = _square(s, "s")
    m = s.shape[0]
    budgets = []
    for c in grid:
        if not np.isscalar(c):
            raise ValueError("per-loading penalty vectors require method 'spca'")
        budgets.append(sl._l1_budget(c, m))
    total = np.trace(s)
    results: list = []
    for c in budgets:
        work, cols = s, []
        try:
            while len(cols) < m and np.trace(work) > 1e-12 * total:
                v = sl.penalized_rank_one(work, c)
                cols.append(v)
                p = np.eye(m) - np.outer(v, v)
                work = p @ work @ p
                # Exactly symmetric: the symmetry check of sym_eigen is absolute.
                work = (work + work.T) / 2.0
        except MatopsError as exc:
            results.append(exc)
        else:
            # Of the full SVD's left singular vectors, those past the k
            # columns span the complement (all of them, the identity, at k = 0).
            done = np.column_stack(cols) if cols else np.empty((m, 0))
            rest = np.linalg.svd(done)[0][:, len(cols):].T if len(cols) < m else []
            results.append(_fix_signs(np.column_stack([*cols, *rest])))
    return results


def supports_connect_after(u: np.ndarray, tol: float) -> int | None:
    """The least ``k`` such that the supports ``|u[:, j]| > tol`` of the
    first ``k`` columns of ``u`` connect every variable, or None if they
    never do. Each support merges the groups of the variables it holds
    under the smallest label among them."""
    label = np.arange(u.shape[0])
    for k, column in enumerate(u.T, 1):
        held = label[np.abs(column) > tol]
        if held.size:
            label[np.isin(label, held)] = held.min()
        if np.all(label == label[0]):
            return k
    return None


def unit_within_budget_vectorized(z: np.ndarray, c: float) -> np.ndarray:
    """``sparse_loadings._unit_within_budget`` with the knot scan as whole
    array steps: every knot's budget test is computed, then the first piece
    that breaks it is taken.

    ``unit(soft_threshold(z, delta))`` for the smallest ``delta >= 0`` with
    ``||unit(soft_threshold(z, delta))||_1 <= c``; the zero vector if none.
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
    w = soft_threshold(z, delta)
    n = np.linalg.norm(w)
    return w / n if n > 0 else w


def load_csv_cell_by_cell(path) -> DataMatrix:
    """:func:`spla.load_csv` with every body cell read by its own ``float()``
    call after ``csv.reader``; same values and the same diagnostics."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            names = [h.strip() for h in header]
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(names):
                    raise DataError(
                        f"{path}: row {lineno} has {len(row)} fields, "
                        f"expected {len(names)}"
                    )
                parsed = []
                for col, cell in zip(names, row):
                    cell = cell.strip()
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}: row {lineno}, column {col!r}: "
                            f"non-numeric value {cell!r}"
                        ) from None
                rows.append(parsed)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return DataMatrix(np.array(rows, dtype=float), tuple(names))


def population_cov(design: BlockDesign) -> np.ndarray:
    """Closed-form covariance of the design's ``X`` (before standardization)."""
    m = design.n_vars
    cov = np.full((m, m), design.rho * LATENT_VAR)
    for i in range(design.n_blocks):
        sl = slice(i * BLOCK_SIZE, (i + 1) * BLOCK_SIZE)
        cov[sl, sl] = LATENT_VAR  # block factor plus shared spike
    np.fill_diagonal(cov, LATENT_VAR + NOISE_VAR)
    return cov


def population_correlation(design: BlockDesign) -> np.ndarray:
    cov = population_cov(design)
    d = 1.0 / np.sqrt(np.diag(cov))
    return d[:, None] * cov * d[None, :]
