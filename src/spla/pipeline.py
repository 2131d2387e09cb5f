"""End-to-end analysis: sparsity sweep, structure selection, discards.

The four stages are: (1) compute sparse loadings over a penalty grid,
(2) detect the block structure at each grid point and gate it on the minimum
evaluation criterion, (3) rank the retained blocks by explained variance and
flag low-share blocks as discard candidates, (4) verify each candidate
against the partial covariance before recommending a discard.

On the ``'pmd'`` route detection reads the loadings at ``DETECT_TOL``, where
each budget stops once its supports connect every variable.

The whole grid is scanned and the partition with the most blocks among those
passing the gate is selected (ties broken by larger minimum EC) — the EC is
not guaranteed monotone across grid points, so early stopping is avoided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    ZERO_TOL,
    Block,
    BlockError,
    BlockPartition,
    detect_blocks,
)
from .data import CovMatrix, DataMatrix, sample_cov, standardize
from .evaluation import (
    DEFAULT_C_EC,
    BlockEvaluation,
    _block_ecs,
    weight_basis,
)
from .matops import MatopsError
from .sparse_loadings import (
    DETECT_TOL,
    elastic_net_loadings,
    sparse_loading_matrix,
)
from .variance import (
    VarianceShares,
    corrected_variances,
    partial_trace_share,
    variance_shares,
)

__all__ = [
    "SplaConfig",
    "GridPoint",
    "DiscardRecommendation",
    "SplaReport",
    "run_spla",
    "structure_scan",
]


#: A block whose SV share (percent) falls below this fraction of the
#: per-variable average share ``100 / M`` is a discard candidate, confirmed
#: only when its partial-trace share is also below that bound.
DISCARD_MARGIN = 0.8


@dataclass(frozen=True)
class SplaConfig:
    """Configuration of a full analysis run.

    ``grid`` holds penalty values scanned from least to most sparse: L1
    budgets ``c`` for the penalized decomposition (``method='pmd'``) or
    L1 penalties for the elastic net (``method='spca'``). An elastic-net
    grid entry may also be a tuple of per-loading penalties (one per
    loading). An empty grid means "derive a default from the data
    dimension". The default elastic-net grid, 12 points from ``1e-3`` to
    ``10``, is in the covariance's own units: when variances lie many orders
    apart (the unstandardized OECD data, where ``Y85`` has a variance of
    about 2.5e7), every point can leave some variable with no incident
    loading, and the report falls back to one block; standardize, or give
    the grid. A detected structure passes the gate when its minimum EC is
    at least ``c_ec``, in ``(0, 1)``. ``block_order`` optionally pins the
    evaluation order as a tuple of variable-index tuples. ``standardize`` is
    read by :func:`run_spla` alone, which then analyzes the correlation
    matrix; :func:`structure_scan` uses its covariance as given.
    """

    method: str = "pmd"
    grid: tuple[float | tuple[float, ...], ...] = ()
    c_ec: float = DEFAULT_C_EC
    block_order: tuple[tuple[int, ...], ...] | None = None
    standardize: bool = False

    def __post_init__(self):
        if not 0.0 < self.c_ec < 1.0:
            raise ValueError(f"c_ec={self.c_ec} outside (0, 1)")
        if self.method not in ("pmd", "spca"):
            raise ValueError(f"unknown method {self.method!r}")

    def resolved_grid(self, m: int) -> tuple[float | tuple[float, ...], ...]:
        if self.grid:
            return self.grid
        if self.method == "pmd":
            # Least to most sparse: budgets just under sqrt(k) for every
            # candidate block size k (the L1 norm of an equal-weight loading
            # on k variables is sqrt(k), so these are the natural knots
            # where a k-variable block becomes expressible), plus the two
            # endpoints (the same point at M = 1, kept once).
            knots = [np.sqrt(m)] + [
                np.sqrt(k) - 0.005 for k in range(m, 1, -1)
            ] + [1.0]
            return tuple(dict.fromkeys(float(c) for c in knots))
        # Elastic net: increasing per-loading L1 penalty.
        return tuple(np.geomspace(1e-3, 10.0, 12))


@dataclass(frozen=True)
class GridPoint:
    """One penalty-trace entry."""

    penalty: float | tuple[float, ...]
    partition: BlockPartition | None
    min_ec: float | None
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class DiscardRecommendation:
    """One block that step 3 flagged (its SV share is below the bound) and
    step 4's verdict on it: ``discard`` when its partial share is below the
    bound too. Only flagged blocks get a recommendation."""

    variables: tuple[str, ...]
    block_sv: float
    partial_share: float
    discard: bool


@dataclass(frozen=True)
class SplaReport:
    """Everything a run produces, immutable and safe to share: the blocks in
    evaluation order, their EC, the SV/CV shares, the partial shares, the
    discard recommendations and the penalty trace. Loadings enter only
    through the blocks of their support, so none are kept."""

    variable_names: tuple[str, ...]
    partition: BlockPartition
    evaluations: tuple[BlockEvaluation, ...]
    min_ec: float
    shares: VarianceShares
    partial_shares: tuple[float, ...]
    recommendations: tuple[DiscardRecommendation, ...]
    penalty_trace: tuple[GridPoint, ...]

    def block_names(self) -> list[tuple[str, ...]]:
        return [
            tuple(self.variable_names[i] for i in b.variable_indices)
            for b in self.partition.blocks
        ]

    def to_json_dict(self) -> dict:
        """Schema-stable report value (the table renderer derives from this)."""
        return {
            "partition": [list(b) for b in self.block_names()],
            "ordering": [list(b.variable_indices) for b in self.partition.blocks],
            "ec": [e.ec for e in self.evaluations],
            "shares": {
                "per_loading_sv": self.shares.per_loading_sv.tolist(),
                "block_sv": self.shares.block_sv.tolist(),
                "block_cv": self.shares.block_cv.tolist(),
            },
            "partial_shares": list(self.partial_shares),
            "recommendations": [
                {
                    "block": list(r.variables),
                    "block_sv": r.block_sv,
                    "sv_flagged": True,
                    "partial_share": r.partial_share,
                    "verified": r.discard,
                    "discard": r.discard,
                }
                for r in self.recommendations
            ],
            "penalty_trace": [
                {
                    "penalty": (
                        list(g.penalty)
                        if isinstance(g.penalty, tuple)
                        else float(g.penalty)
                    ),
                    "n_blocks": g.partition.n_blocks if g.partition else None,
                    "min_ec": g.min_ec,
                    "passed": g.passed,
                    "note": g.note,
                }
                for g in self.penalty_trace
            ],
        }


def _ordered(cov: CovMatrix, detected: BlockPartition, order: tuple | None):
    """``detected`` in evaluation order, and its within-block order: an
    explicit ``order`` of exactly the detected blocks pins both; otherwise
    blocks go by descending largest eigenvalue of their covariance, from
    :func:`numpy.linalg.eigvalsh` (ties by ascending first variable),
    variables ascending within (``None``)."""
    if order is not None:
        want = [tuple(sorted(b)) for b in order]
        if sorted(want) == sorted(b.variable_indices for b in detected.blocks):
            return BlockPartition(tuple(Block(w) for w in want)), order

    def key(b: Block):
        rows = np.ix_(b.variable_indices, b.variable_indices)
        return -np.linalg.eigvalsh(cov.values[rows])[-1], b.variable_indices[0]

    return BlockPartition(tuple(sorted(detected.blocks, key=key))), None


def _evaluated(cov: CovMatrix, cfg: SplaConfig, detected: BlockPartition):
    """``detected`` in evaluation order, the variances of its weight basis,
    the EC entries, the minimum EC and the gate verdict. The basis is
    factored once: that factor gives the EC, the gate verdict and, if the
    partition is chosen, its shares."""
    ordered, within = _ordered(cov, detected, cfg.block_order)
    cv = corrected_variances(cov, weight_basis(ordered, within))
    return (ordered, cv, *_block_ecs(cv, ordered, cfg.c_ec))


def _scan(cov: CovMatrix, cfg: SplaConfig):
    """Stages 1-2 over the whole grid: loadings, detection and the EC gate.
    Returns the penalty trace and the best passing partition as
    :func:`_evaluated` gives it, or ``None`` when nothing passed.

    Both routes read only the covariance ``S``: the penalized decomposition
    and its deflation run on ``S`` itself, so the loadings are those of the
    sample and the cost does not depend on the number of observations.
    """
    grid = cfg.resolved_grid(cov.n_vars)
    # DETECT_TOL on the PMD route only: the elastic net produces exact zeros.
    if cfg.method == "pmd":
        results, tol = sparse_loading_matrix(cov.values, grid), DETECT_TOL
    else:
        results, tol = elastic_net_loadings(cov.values, grid), ZERO_TOL
    trace: list[GridPoint] = []
    best = None
    for penalty, loadings in zip(grid, results):
        try:
            if isinstance(loadings, MatopsError):
                raise loadings
            detected = detect_blocks(loadings, tol)
            found = _evaluated(cov, cfg, detected)
        except (BlockError, MatopsError) as exc:
            trace.append(GridPoint(penalty, None, None, False, str(exc)))
            continue
        ordered, _, _, min_ec, passed = found
        trace.append(GridPoint(penalty, ordered, min_ec, passed, ""))
        key = (ordered.n_blocks, min_ec)
        if passed and (best is None or key > (best[0].n_blocks, best[3])):
            best = found
    return trace, best


def _report(cov: CovMatrix, choice, trace) -> SplaReport:
    chosen, cv, entries, min_ec, _ = choice
    names = cov.variable_names
    # Share accounting in the evaluation (weight) basis the scan factored.
    shares = variance_shares(cv, cov, chosen)
    partial, recs = (100.0,), ()
    if chosen.n_blocks > 1:
        partial = tuple(
            partial_trace_share(cov, b.variable_indices) for b in chosen.blocks
        )
        # Step 3 flags a block whose SV share is below the bound; step 4
        # verifies the flag against its partial share.
        bound = DISCARD_MARGIN * (100.0 / cov.n_vars)
        recs = tuple(
            DiscardRecommendation(
                tuple(names[j] for j in b.variable_indices), sv, share,
                share < bound,
            )
            for b, sv, share in zip(chosen.blocks, shares.block_sv.tolist(), partial)
            if sv < bound
        )

    return SplaReport(
        tuple(names),
        chosen,
        tuple(entries),
        min_ec,
        shares,
        partial,
        recs,
        tuple(trace),
    )


def run_spla(d: DataMatrix, cfg: SplaConfig = SplaConfig()) -> SplaReport:
    """Full analysis of a dataset (all four stages) via its sample covariance."""
    return structure_scan(sample_cov(standardize(d) if cfg.standardize else d), cfg)


def structure_scan(cov: CovMatrix, cfg: SplaConfig = SplaConfig()) -> SplaReport:
    """Full analysis (all four stages) driven by a covariance matrix directly.

    ``cov`` is used as given: ``cfg.standardize`` is not read here, so pass a
    correlation matrix to analyze standardized variables.
    """
    trace, best = _scan(cov, cfg)
    if best is None:  # nothing passed the gate: the trivial single block
        best = _evaluated(cov, cfg, BlockPartition((Block(range(cov.n_vars)),)))
    return _report(cov, best, trace)
