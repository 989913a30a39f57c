"""Structure-preserving model order reduction for second-order systems.

The package reduces systems of the form ``M q'' + D q' + K q = F u,
y = G q`` by tracking dominant controllability/observability subspaces of
the discretized model with recursive low-rank SVD updates, then projecting
the quintuplet onto the resulting biorthogonal pair.  The reduced model is
again a second-order system by construction.

Main entry points
-----------------
- :class:`~morso.systems.SecondOrderSystem`, :func:`~morso.systems.linearize`
- :func:`~morso.discretize.discretize`, :func:`~morso.discretize.inverse_discretize`
- :func:`~morso.recursion.run_recursion` (``srlrg`` / ``srlrh``)
- :func:`~morso.projection.build_projection`, :func:`~morso.projection.reduce_model`
- :func:`~morso.metrics.frequency_response`, :func:`~morso.metrics.rre`
- :func:`~morso.oracle.dense_balanced_truncation` (reference method)
"""

from .bench import (
    BenchmarkSpec,
    RunConfig,
    generate_msd_chain,
    load_matrix_market,
    write_benchmark,
)
from .discretize import (
    DEFAULT_SCHEME,
    Scheme,
    consistency_error,
    default_step,
    discretize,
    inverse_discretize,
)
from .errors import MorsoError, MorsoWarning
from .metrics import (
    FrequencyGrid,
    FrequencyResponse,
    default_grid,
    error_response,
    frequency_response,
    rre,
)
from .oracle import (
    GramianPair,
    dense_balanced_truncation,
    stein_gramians,
    subspace_angles,
)
from .projection import (
    ProjectionPair,
    StructureReport,
    build_projection,
    reduce_model,
    verify_structure_conditions,
)
from .recursion import (
    RecursionConfig,
    RecursionDiagnostics,
    assemble_controllability,
    assemble_observability,
    run_recursion,
    srlrg_step,
    srlrh_step,
)
from .systems import (
    FirstOrderSystem,
    SecondOrderSystem,
    StabilityReport,
    linearize,
    stability_report,
    transfer,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SecondOrderSystem",
    "FirstOrderSystem",
    "StabilityReport",
    "linearize",
    "transfer",
    "stability_report",
    "Scheme",
    "DEFAULT_SCHEME",
    "discretize",
    "inverse_discretize",
    "consistency_error",
    "default_step",
    "RecursionConfig",
    "RecursionDiagnostics",
    "assemble_controllability",
    "assemble_observability",
    "srlrg_step",
    "srlrh_step",
    "run_recursion",
    "ProjectionPair",
    "StructureReport",
    "build_projection",
    "reduce_model",
    "verify_structure_conditions",
    "GramianPair",
    "stein_gramians",
    "dense_balanced_truncation",
    "subspace_angles",
    "FrequencyGrid",
    "FrequencyResponse",
    "default_grid",
    "frequency_response",
    "error_response",
    "rre",
    "BenchmarkSpec",
    "RunConfig",
    "load_matrix_market",
    "generate_msd_chain",
    "write_benchmark",
    "MorsoError",
    "MorsoWarning",
]
