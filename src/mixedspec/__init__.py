"""Spectra of blend matrices of mixed graphs, with verified bounds.

A mixed graph carries undirected edges and directed arcs. Its blend matrix
is alpha * D + (1 - alpha) * H, where D is the degree-diagonal matrix of the
underlying graph and H is the complex Hermitian adjacency matrix whose arc
entries are a fixed unit-modulus number beta (omega = (1 + i sqrt 3)/2 by
default). This package builds those matrices, computes their spectra with
two independent eigensolvers, and checks a catalog of eigenvalue, spread and
trace-norm bounds against the results.
"""

from .bounds import (
    BoundKind,
    BoundTarget,
    Status,
)
from .eig import (
    Spectrum,
    SpectrumStack,
    VerificationError,
    eigenvalues,
    oracle_eigenvalues,
)
from .graphs import (
    GraphFormatError,
    GraphStats,
    MixedGraph,
    graph_stats,
    parse_graph,
    random_mixed_graph,
    serialize_graph,
    zagreb_lower_bound,
)
from .harness import (
    BoundReport,
    CheckedBound,
    SuiteSummary,
    SweepConfig,
    ViolationRecord,
    randomized_suite,
    run_trial,
    sweep_alpha,
    verify_all,
)
from .matrices import (
    BetaParam,
    HermitianStack,
    a_alpha_stack,
    expected_traces,
    omega_constant,
)

__version__ = "0.1.0"

__all__ = [
    "BetaParam",
    "BoundKind",
    "BoundReport",
    "BoundTarget",
    "CheckedBound",
    "GraphFormatError",
    "GraphStats",
    "HermitianStack",
    "MixedGraph",
    "Spectrum",
    "SpectrumStack",
    "Status",
    "SuiteSummary",
    "SweepConfig",
    "VerificationError",
    "ViolationRecord",
    "a_alpha_stack",
    "eigenvalues",
    "expected_traces",
    "graph_stats",
    "omega_constant",
    "oracle_eigenvalues",
    "parse_graph",
    "randomized_suite",
    "random_mixed_graph",
    "run_trial",
    "serialize_graph",
    "sweep_alpha",
    "verify_all",
    "zagreb_lower_bound",
]
