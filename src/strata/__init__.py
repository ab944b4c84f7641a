"""Stratification combinatorics, gap-topology tests, and formal solvers
for degenerate matrix-family normal forms.

Submodules:

* ``partitions``: double partitions (Segre symbols), counting and conjugation.
* ``bundles``: matrix-bundle strata, closure order, Hasse diagrams,
  classification of constant matrices.
* ``subspaces``: gap metric on the disjoint union of Grassmannians.
* ``families``: holomorphic matrix families, kernel-sheaf values, and the
  three-condition holomorphic Jordanizability test.
* ``darboux``: order-by-order solver and oracle for the generalized
  Darboux-Egoroff system.
* ``gauge``: framed connections, formal gauge simplification, residual and
  integrability reports, boundedness estimates along coalescence paths.
* ``appendix``: executable verifiers for three rank-2 deformation models.
* ``schemas``: JSON encoding and decoding for every document type.
* ``cli``: the ``strata`` command-line front end.
"""

from .appendix import (
    Classification2x2,
    CurveReport,
    MalgrangeReport,
    MonomialFamily,
    axis_curves,
    classify_2x2,
    malgrange_pfaffian_residual,
    nonversal_curve,
    rational_c_families,
)
from .bundles import (
    BundleDescriptor,
    ClassificationResult,
    HasseDiagram,
    classify_matrix,
    classify_matrix_detailed,
    closure_leq,
    codimension,
    describe,
    elementary_moves,
    hasse_diagram,
)
from .darboux import (
    DEJet,
    DEProblem,
    DEResidualReport,
    de_closed_form_n2,
    de_oracle_solve,
    de_residual,
    de_solve_jet,
)
from .errors import (
    CoalescencePathError,
    ExactnessError,
    GenericityError,
    NotInvertibleError,
    OracleError,
    ResonanceError,
    ShapeError,
    StrataError,
    ValidationError,
)
from .families import (
    JordanizabilityReport,
    MatrixFamily,
    default_paths,
    jordanizability_report,
    kernel_sheaf_limit,
    kernel_sheaf_value_1d,
    limit_along_path,
    segre_at_eigenvalue,
)
from .gauge import (
    DvWitnessReport,
    FramedConnection,
    GaugeResidualReport,
    GaugeSeries,
    HolconReport,
    IntegrabilityReport,
    build_connection,
    connection_from_de,
    dv_witness,
    formal_simplify,
    gauge_residual,
    holcon_check,
    integrability_residual,
)
from .partitions import (
    Partition,
    SegreSymbol,
    conjugate_symbol,
    count_double_partitions_sigma,
    count_fold_partitions,
    enumerate_double_partitions,
    enumerate_partitions,
    forgetful,
    mu_string,
)
from .polynomials import Poly, poly_from_terms
from .scalars import ComplexRational
from .series import SeriesMatrix, SeriesRing, TruncatedSeries
from .subspaces import (
    Subspace,
    gap_distance,
    generalized_eigenspace,
    intertwiner_dimension,
    kernel_subspace,
    sum_subspace,
)

__version__ = "0.1.0"

__all__ = [
    "Classification2x2",
    "CurveReport",
    "MalgrangeReport",
    "MonomialFamily",
    "axis_curves",
    "classify_2x2",
    "malgrange_pfaffian_residual",
    "nonversal_curve",
    "rational_c_families",
    "BundleDescriptor",
    "ClassificationResult",
    "HasseDiagram",
    "classify_matrix",
    "classify_matrix_detailed",
    "closure_leq",
    "codimension",
    "describe",
    "elementary_moves",
    "hasse_diagram",
    "DEJet",
    "DEProblem",
    "DEResidualReport",
    "de_closed_form_n2",
    "de_oracle_solve",
    "de_residual",
    "de_solve_jet",
    "CoalescencePathError",
    "ExactnessError",
    "GenericityError",
    "NotInvertibleError",
    "OracleError",
    "ResonanceError",
    "ShapeError",
    "StrataError",
    "ValidationError",
    "JordanizabilityReport",
    "MatrixFamily",
    "default_paths",
    "jordanizability_report",
    "kernel_sheaf_limit",
    "kernel_sheaf_value_1d",
    "limit_along_path",
    "segre_at_eigenvalue",
    "DvWitnessReport",
    "FramedConnection",
    "GaugeResidualReport",
    "GaugeSeries",
    "HolconReport",
    "IntegrabilityReport",
    "build_connection",
    "connection_from_de",
    "dv_witness",
    "formal_simplify",
    "gauge_residual",
    "holcon_check",
    "integrability_residual",
    "Partition",
    "SegreSymbol",
    "conjugate_symbol",
    "count_double_partitions_sigma",
    "count_fold_partitions",
    "enumerate_double_partitions",
    "enumerate_partitions",
    "forgetful",
    "mu_string",
    "Poly",
    "poly_from_terms",
    "ComplexRational",
    "SeriesMatrix",
    "SeriesRing",
    "TruncatedSeries",
    "Subspace",
    "gap_distance",
    "generalized_eigenspace",
    "intertwiner_dimension",
    "kernel_subspace",
    "sum_subspace",
    "__version__",
]
