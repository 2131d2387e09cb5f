"""Sparse principal loading analysis.

Sparse loadings of a sample covariance matrix, block-diagonal structure
detection, a block evaluation criterion, explained-variance accounting with
partial-covariance verification, and variable-selection recommendations.
"""

from .blocks import (
    Block,
    BlockPartition,
    detect_blocks,
    pla_detect,
)
from .data import (
    ConstantColumnError,
    CovMatrix,
    DataError,
    DataMatrix,
    load_csv,
    sample_cov,
    standardize,
)
from .evaluation import (
    BlockEvaluation,
    block_ec,
    evaluate_partition,
    weight_basis,
)
from .matops import (
    NoConvergenceError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    RankDeficientError,
)
from .pipeline import (
    DiscardRecommendation,
    GridPoint,
    SplaConfig,
    SplaReport,
    run_spla,
    structure_scan,
)
from .simulate import (
    BlockDesign,
    ec_distribution,
    gen_block_sample,
    gen_spiked_sample,
    identification_rate,
    random_wishart_demo,
)
from .sparse_loadings import (
    elastic_net_loadings,
    orthogonalize,
    penalized_rank_one,
    sparse_loading_matrix,
)
from .variance import (
    CorrectedVariances,
    VarianceShares,
    corrected_variances,
    partial_cov,
    partial_trace_share,
    variance_shares,
)

__version__ = "0.1.0"
