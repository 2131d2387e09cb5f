"""Sparse loading matrices of a covariance matrix.

Two routes are provided: a penalized rank-one decomposition with an L1 bound
on the loading side (default), and an elastic-net formulation that penalizes
each loading individually. Both take the covariance (Gram) matrix ``S`` and
a penalty grid, and return one result per grid point: the raw loadings as a
plain ``M x M`` array, whose zero pattern block detection reads (the
analysis reads nothing else of them), or the numerical error that ended the
point. Each factor of the first is :func:`penalized_rank_one` of the
deflated covariance, whose every alternation finds its exact L1 threshold by
a scan over the sorted ``|z|`` in scalar arithmetic that stops at the first
value breaking the budget; the second runs its points in lock step.
A budget of the first route stops once its factors' supports at
:data:`DETECT_TOL` connect every variable. Each budget writes one DEBUG
record to the ``"spla"`` logger: the factors run and the factor after which
the supports connected; each elastic-net point writes one too: its outer
iterations, the stacked sweeps it took part in and how it ended. The
elastic net keeps its loadings coordinate-major, so that each coordinate's
values over every column of every point are one contiguous row, while each
point's products read a strided view and keep their bits. Its coordinate
step soft-thresholds with ``copysign`` in place of ``sign`` times the
magnitude, on a target with no -0.0, the one input where the two differ,
and takes its diagonal operands as 0-d arrays. :func:`orthogonalize` gives
the nearest orthonormal matrix to a whole loading matrix. Each route has
one iteration policy, the module constants below.
"""

from __future__ import annotations

import math

import numpy as np

from .matops import (
    MatopsError,
    NoConvergenceError,
    RankDeficientError,
    _components,
    _fix_signs,
    _square,
    svd,
    sym_eigen,
)

__all__ = [
    "penalized_rank_one",
    "sparse_loading_matrix",
    "elastic_net_loadings",
    "orthogonalize",
]

#: PMD route: support tolerance of the stop and of block detection. Deflation
#: leaves sub-percent residue on otherwise-zero components; a genuine one this
#: small has a negligible variance share, so dropping it only cuts bridges.
DETECT_TOL = 1e-2

#: PMD route: alternations per factor, and the step below which a factor has
#: converged. A capped factor keeps its last iterate: with near-tied block
#: variances it keeps one support and converges linearly but slowly, and
#: downstream gating judges that support on its own merits.
PMD_MAX_ITER = 200
PMD_CONV_TOL = 1e-7

#: Elastic-net route: outer alternations, coordinate sweeps per alternation,
#: the convergence step of both, and the ridge weight.
EN_MAX_ITER = 300
EN_MAX_SWEEPS = 50
EN_CONV_TOL = 1e-4
RIDGE = 1e-6


def _l1_budget(c, m: int) -> float:
    """The L1 budget ``c`` as a float, checked to lie in ``[1, sqrt(M)]``:
    below 1 no unit vector is feasible, above ``sqrt(M)`` the bound is
    inactive."""
    c = float(c)
    if not (1.0 <= c <= np.sqrt(m) + 1e-12):
        raise ValueError(f"l1 bound c={c} outside [1, sqrt({m})]")
    return c


def _unit(v: np.ndarray) -> np.ndarray:
    n = math.sqrt(v.dot(v))  # np.linalg.norm's own formula for a 1-d float
    return v / n if n > 0 else v


def _threshold(az: np.ndarray, c: float) -> float:
    """The smallest ``delta >= 0`` with ``||unit(soft_threshold(z, delta))||_1
    <= c``, from ``az = |z|``; one that leaves only zeros if none does.

    Between sorted ``|z|`` values (knots) the same ``k`` coordinates survive,
    and the L1/L2 ratio, which falls as ``delta`` grows, meets ``c`` at a root
    of a quadratic. ``delta`` is that root on the first piece whose lower knot
    breaks the budget (Duchi et al., ICML 2008); the scan stops there. At
    ``c = 1`` it is the second largest ``|z|``.

    The scan runs in Python floats: on an M-vector this costs less than
    numpy's per-call dispatch. Every operation is the one the vectorized
    scan (kept in ``tests/oracles.py``) does, in its order, so the result
    is the same to the bit.
    """
    # ||z||_2 to the bit (a square drops the sign), and numpy's pairwise
    # sum for ||z||_1, whose rounding a Python sum would not keep.
    norm = math.sqrt(az.dot(az))
    if norm > 0 and az.sum() / norm <= c:
        return 0.0
    a = sorted(az.tolist(), reverse=True)
    if c == 1.0:  # the root is a[1]; taken as is, the answer is one-sparse
        return a[1]
    top, n = a[0], len(a)
    # Shifted by the maximum, near ties do not cancel. After k terms, g1 and
    # g2 are the prefix sums of top - a and of its square.
    g1 = g2 = 0.0
    for k, x in enumerate(a, 1):
        g = top - x
        g1 += g
        g2 += g * g
        if k == n:  # at the last piece r(0) > c
            break
        knot = top - a[k]  # this piece's lower knot, shifted
        # ||w||_1 > c ||w||_2 at the lower knot; not where rounding makes the
        # radicand negative (numpy's nan compares false)
        r = k * knot * knot - 2 * knot * g1 + g2
        if r >= 0 and k * knot - g1 > c * math.sqrt(r):
            break
    delta = a[k] if k < n else 0.0
    if k > c * c:  # otherwise only by rounding: the root is the lower knot
        # np.float64's power, not g1 * g1: the two differ in the last bit.
        mean, var = g1 / k, max(g2 - np.float64(g1) ** 2 / k, 0.0)
        root = top - mean - c * math.sqrt(var / (k * (k - c * c)))
        delta = min(max(root, delta), a[k - 1])
    return delta


def _unit_within_budget(z: np.ndarray, c: float) -> np.ndarray:
    """``unit(soft_threshold(z, delta))`` for the smallest ``delta >= 0``
    with ``||unit(soft_threshold(z, delta))||_1 <= c`` (:func:`_threshold`);
    the zero vector if none. At ``c = 1`` the answer is ``+-e_i`` for a
    strict maximum of ``|z|`` and zero for a tie.
    """
    az = np.abs(z)
    # soft_threshold's arithmetic without its check: delta is never negative
    return _unit(np.sign(z) * np.maximum(az - _threshold(az, c), 0.0))


def penalized_rank_one(s: np.ndarray, c: float) -> np.ndarray:
    """Loading of the penalized rank-one factor of the Gram matrix ``s``.

    From the leading eigenvector of ``s``, alternates ``loading <-
    _unit_within_budget(s @ loading, c)``. For ``s = x^T x`` this is the PMD
    of ``x`` (Witten, Tibshirani & Hastie 2009): its left factor
    ``unit(x @ loading)`` only rescales ``s @ loading``. After
    ``PMD_MAX_ITER`` alternations the last iterate is returned.

    The loading does not depend on the scale of ``s``. An ``s`` whose
    largest entry lies outside ``[2**-400, 2**400]`` is first scaled by a
    power of two, exactly, into ``[0.5, 1)``, so that no square in the
    alternation underflows or overflows.
    """
    s = _square(s, "s")
    peak = np.max(np.abs(s), initial=0.0)
    if peak == 0:
        raise ValueError("s must be nonzero")
    if not 2.0**-400 <= peak <= 2.0**400:
        s = np.ldexp(s, -np.frexp(peak)[1])
    c = _l1_budget(c, s.shape[0])
    loading = sym_eigen(s)[1][:, 0]
    for _ in range(PMD_MAX_ITER):
        new = _unit_within_budget(s @ loading, c)
        step = new - loading
        if math.sqrt(step.dot(step)) < PMD_CONV_TOL:
            return new
        loading = new
    return loading


def sparse_loading_matrix(s: np.ndarray, grid) -> list:
    """All ``M`` sparse loadings of the Gram matrix ``s``, not orthogonalized,
    at each L1 budget of ``grid``: one result per budget, in grid order, the
    ``M x M`` loadings or the :class:`MatopsError` that ended it (returned).
    Every budget is checked first; the first bad one raises ``ValueError``.

    Columns are ordered by extraction (descending factor weight); the raw
    deflation output keeps the exact zero pattern for block detection. Each
    factor is :func:`penalized_rank_one` of ``s``, after which ``s`` becomes
    ``(I - v v^T) s (I - v v^T)``, the Gram matrix of the deflated sample
    ``x (I - v v^T)`` (projection deflation, Mackey, NIPS 2008). Once its
    trace is at most ``1e-12`` of the original, the rest is an orthonormal
    basis of the complement.

    A budget also stops once the supports ``|v| > DETECT_TOL`` of its
    factors connect every variable: the partition is then the single block
    whatever the later factors are. Each completing column is a unit vector,
    so it has an entry of at least ``1/sqrt(M)``, above the tolerance, and
    detection still reads the single block. The guard, read at each call,
    is ``DETECT_TOL**2 * M < 1 - 1e-9``: within rounding of ``1/sqrt(M)``,
    no budget stops.
    """
    # Imported here, not at the top: it would add about 5 ms to ``import spla``.
    import logging

    s = _square(s, "s")
    m = s.shape[0]
    budgets = []
    for c in grid:
        if not np.isscalar(c):
            raise ValueError("per-loading penalty vectors require method 'spca'")
        budgets.append(_l1_budget(c, m))
    total = np.trace(s)
    tol = DETECT_TOL
    results: list = []
    for c in budgets:
        work, cols, joined = s, [], 0
        try:
            while len(cols) < m and np.trace(work) > 1e-12 * total:
                v = penalized_rank_one(work, c)
                cols.append(v)
                support = np.abs(np.column_stack(cols)) > tol  # as detection reads it
                if not joined and len(_components(support)) == 1:
                    joined = len(cols)
                    if tol * tol * m < 1 - 1e-9:  # completing columns pass tol
                        break
                p = np.eye(m) - np.outer(v, v)
                work = p @ work @ p
                # Exactly symmetric, as penalized_rank_one's products read
                # it: without this step their bits move.
                work = (work + work.T) / 2.0
        except MatopsError as exc:
            results.append(exc)
        else:
            # Of the full SVD's left singular vectors, those past the k
            # columns span the complement (all of them, the identity, at k = 0).
            done = np.column_stack(cols) if cols else np.empty((m, 0))
            rest = np.linalg.svd(done)[0][:, len(cols):].T if len(cols) < m else []
            results.append(_fix_signs(np.column_stack([*cols, *rest])))
        logging.getLogger("spla").debug(
            "pmd budget %r: %d of %d factors run; supports %s", c, len(cols), m,
            f"connected after factor {joined}" if joined
            else f"never connected at tol {tol!r}",
        )
    return results


def _penalties(entry, m: int) -> np.ndarray:
    """The ``M`` penalties of one grid entry: one for every loading or ``M``
    of them, each finite and nonnegative."""
    l1 = np.asarray(entry, dtype=float)
    if l1.size == 1:
        l1 = np.full(m, float(l1.reshape(-1)[0]))
    if l1.size != m:
        raise ValueError(f"{l1.size} l1 penalties for k={m} loadings")
    if np.any(l1 < 0):
        raise ValueError("penalties must be nonnegative")
    if not np.all(np.isfinite(l1)):
        raise ValueError("penalties must be finite")
    return l1


def _polar_factors(sb: np.ndarray) -> tuple[np.ndarray, dict]:
    """Polar factor ``U V^T`` of each matrix of the stack ``sb``, and the
    error of each matrix whose SVD LAPACK refused, by stack index."""
    try:
        uu, _, vt = svd(sb)
        return uu @ vt, {}
    except NoConvergenceError:
        pass
    # One refusal fails the whole stack: factor each matrix alone, so that
    # only the refused one ends with the error.
    out, failed = np.zeros_like(sb), {}
    for k, one in enumerate(sb):
        try:
            uu, _, vt = svd(one)
        except NoConvergenceError as exc:
            failed[k] = exc
        else:
            out[k] = uu @ vt
    return out, failed


def _unit_columns(b: np.ndarray):
    """``b`` with unit columns and fixed signs, or the error of a zero column."""
    norms = np.linalg.norm(b, axis=0)
    if np.any(norms <= 1e-12):
        return RankDeficientError("an elastic-net loading collapsed to zero")
    return _fix_signs(b / norms)


def elastic_net_loadings(s: np.ndarray, grid) -> list:
    """All ``M`` elastic-net sparse loadings of a covariance matrix at every
    point of a penalty grid, not orthogonalized.

    At each point, alternates: for fixed orthonormal ``A`` (M x M), each
    column ``B_j`` minimizes ``b^T (S + RIDGE I) b - 2 A_j^T S b + l1_j
    ||b||_1`` (coordinate descent); then ``A`` is set to the polar factor of
    ``S B``. A grid entry is one penalty for every loading or a sequence of
    ``M`` of them. Returns one result per grid point, in grid order: the
    ``M x M`` loadings, or the :class:`NoConvergenceError` or
    :class:`RankDeficientError` that ended the point, returned, not raised.
    A bad penalty raises ``ValueError`` before any point is iterated. Each
    point's result is, byte for byte, the one it gets alone, and each point
    writes one DEBUG record to the ``"spla"`` logger.
    """
    # Imported here, not at the top: it would add about 5 ms to ``import spla``.
    import logging

    s = _square(s, "s")
    m = s.shape[0]
    half = np.array([_penalties(entry, m) for entry in grid]).reshape(-1, m) / 2.0
    results: list = [None] * len(half)

    a0 = sym_eigen(s)[1]
    gram = s + RIDGE * np.eye(m)
    diag = gram.diagonal()
    # The points share ``gram``, so they run in lock step (Friedman, Hastie
    # & Tibshirani 2010): coordinate i of every column of every running
    # point is one array step. The loadings are kept coordinate-major: row
    # ``bt[i]`` of ``bt`` (M x G x M) is coordinate i of every column of
    # every point, contiguous, and the G x M x M stack is only the view
    # ``b = bt.transpose(1, 0, 2)``. ``g @ b`` and ``s @ b`` read that view,
    # so each point is its own BLAS product of the same operands in the same
    # order (the stride between its rows changes no bit), and the step's
    # ``d * b_i`` and masked write act on the contiguous row. The step is
    # soft_threshold's ``sign(rho) * max(|rho| - half, 0)`` without the
    # check (every penalty is checked above), as ``copysign(max(...), rho)``,
    # one ufunc fewer. The two differ only at ``rho = -0.0``, which sign
    # maps to +0.0; ``rho = (t - g @ b) + d * b_i`` is -0.0 only if ``t``
    # is, and the target gets + 0.0 so that it never is. A sweep's column
    # movement (summed over axis 0 of ``bt``, one coordinate after another)
    # and an alternation's step are np.linalg.norm's own sums. Each step
    # costs numpy's per-call dispatch more than its arithmetic, so its
    # operands are contiguous rows, a preallocated zero and 0-d arrays for
    # the diagonal, which numpy dispatches faster than Python floats; the
    # row views are made again only when the stacks shrink. ``point`` maps
    # a stack index to its grid index; a point leaves the stacks when its
    # alternation converges or fails.
    point = np.arange(len(half))
    a = np.repeat(a0[None], len(half), axis=0)
    bt = np.repeat(a0[:, None], len(half), axis=1)
    b = bt.transpose(1, 0, 2)  # point k's loadings are b[k]; rebound with bt
    ran = [EN_MAX_ITER] * len(half)  # outer iterations of each point
    swept = [0]  # stacked sweeps run by the end of each outer iteration
    size = 0  # the stack size the buffers below were made for
    for it in range(1, EN_MAX_ITER + 1):
        if not point.size:  # an empty grid, or every point failed its SVD
            break
        if point.size != size:  # the first iteration, or the stacks shrank
            size = point.size
            target = np.empty((m, size, m))
            zero = np.zeros_like(half)
            active = np.empty((size, m), dtype=bool)
            rows = [(target[i], gram[i], diag[i, ...], bt[i]) for i in range(m)]
        bt_old = bt.copy()
        # target[i, k]: row i of S A for point k; + 0.0 turns -0.0 into +0.0
        np.add((s @ a).transpose(1, 0, 2), 0.0, out=target)
        # A column leaves ``active`` after the sweep that moves it by less
        # than EN_CONV_TOL, and stays at that iterate; at most EN_MAX_SWEEPS.
        active.fill(True)
        for sweeps in range(1, EN_MAX_SWEEPS + 1):
            bt_prev = bt.copy()
            for t_i, g_i, d_i, b_i in rows:
                rho = t_i - g_i @ b + d_i * b_i
                step = np.copysign(np.maximum(np.abs(rho) - half, zero), rho) / d_i
                np.copyto(b_i, step, where=active)
            d = bt - bt_prev
            active &= np.sqrt(np.add.reduce(d * d, axis=0)) >= EN_CONV_TOL
            if not np.count_nonzero(active):
                break
        swept.append(swept[-1] + sweeps)
        f = (bt - bt_old).transpose(1, 0, 2).reshape(point.size, -1)
        done = np.sqrt(f[:, None, :] @ f[:, :, None]).reshape(-1) < EN_CONV_TOL
        if np.count_nonzero(done):
            for k in np.flatnonzero(done):
                results[point[k]] = _unit_columns(b[k])
                ran[point[k]] = it
            point, half = point[~done], half[~done]
            bt = np.ascontiguousarray(bt[:, ~done])
            b = bt.transpose(1, 0, 2)
            if not point.size:
                break
        a, failed = _polar_factors(s @ b)
        if failed:
            for k, exc in failed.items():
                results[point[k]] = exc
                ran[point[k]] = it
            keep = np.isin(np.arange(point.size), list(failed), invert=True)
            point, a, half = point[keep], a[keep], half[keep]
            bt = np.ascontiguousarray(bt[:, keep])
            b = bt.transpose(1, 0, 2)
    for k in point:
        results[k] = NoConvergenceError(
            f"elastic-net loadings did not converge in {EN_MAX_ITER} iterations"
        )
    log = logging.getLogger("spla")
    for k, (res, n) in enumerate(zip(results, ran)):
        log.debug(
            "spca point %d of %d: %d outer iterations, %d sweeps; %s", k + 1,
            len(results), n, swept[n],
            "converged" if isinstance(res, np.ndarray) else f"{type(res).__name__}: {res}",
        )
    return results


def orthogonalize(u: np.ndarray) -> np.ndarray:
    """Nearest orthonormal matrix to the whole of ``u`` via Procrustes (SVD
    with unit singular values)."""
    u = _square(u, "u")
    uu, ss, vt = svd(u)
    if np.min(ss) < 1e-10:
        raise RankDeficientError(
            f"singular value {np.min(ss):g} below 1e-10 during orthogonalization"
        )
    return _fix_signs(uu @ vt)
