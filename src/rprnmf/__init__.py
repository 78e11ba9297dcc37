"""Non-negative matrix factorisation under relative pairwise distance constraints.

The solvers factorise V (N x M, non-negative) into W (N x K) and H (K x M)
with multiplicative updates while penalising violated triplet constraints of
the form dis(q, r) < dis(q, s) over rows of W or columns of H.
"""

__version__ = "0.1.0"

from .constraints import (
    ConstraintSet,
    ConstraintTriple,
    Measure,
    Target,
    constraints_to_label_matrix,
    constraints_to_weight_matrix,
    csr,
    generate_chain_constraints,
    generate_chain_plan,
    read_constraints,
    write_constraints,
)
from .exceptions import RprNmfError
from .matrix import (
    EPS,
    DenseMatrix,
    MaskMatrix,
    frobenius_sq_diff,
    matrix_divergence,
)
from .metrics import (
    ClusterAssignment,
    clustering_accuracy,
    f1_score,
    kmeans,
    md,
    msl,
    nmi,
    rmse,
)
from .solver import (
    FactorisationReport,
    SolverConfig,
    div_penalty_value,
    euc_penalty_value,
    masked_update_terms,
    objective,
    run,
)

__all__ = [
    "EPS",
    "ClusterAssignment",
    "ConstraintSet",
    "ConstraintTriple",
    "DenseMatrix",
    "FactorisationReport",
    "MaskMatrix",
    "Measure",
    "RprNmfError",
    "SolverConfig",
    "Target",
    "clustering_accuracy",
    "constraints_to_label_matrix",
    "constraints_to_weight_matrix",
    "csr",
    "div_penalty_value",
    "euc_penalty_value",
    "f1_score",
    "frobenius_sq_diff",
    "generate_chain_constraints",
    "generate_chain_plan",
    "kmeans",
    "masked_update_terms",
    "matrix_divergence",
    "md",
    "msl",
    "nmi",
    "objective",
    "read_constraints",
    "rmse",
    "run",
    "write_constraints",
]
