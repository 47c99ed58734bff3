"""Banded Toeplitz minors as skew Schur polynomials.

Exact sparse polynomial arithmetic, tableau and Jacobi-Trudi engines for
skew Schur polynomials, the minor determinant correspondence and its
linear recurrence, Widom-style numeric evaluation, and eigenvalue
limit-set scans for banded symbols.
"""

from .polyring import (
    MultiPoly,
    elementary_symmetric,
    expand_elementary,
)
from .recurrence import (
    RecurrenceReport,
    char_coeffs,
    recurrence_residual,
    verify_recurrence,
)
from .schur import (
    PolyMatrix,
    jacobi_trudi_matrix,
    schur_jacobi_trudi,
    symbolic_det,
)
from .shapes import (
    MinorSpec,
    Partition,
    SkewShape,
    min_k,
    parse_partition,
    shape_from_minor,
    surviving,
)
from .spectra import (
    ComparisonResult,
    GridSpec,
    LimitSetReport,
    finite_section_spectrum,
    limit_set_scan,
    poly_roots,
    spectrum_vs_limitset,
)
from .tableaux import (
    InsertionSequence,
    InsertionStep,
    Tableau,
    enumerate_ssyt,
    extension_sequences,
    insert_sequence,
    insertion_step,
    schur_by_tableaux,
)
from .toeplitz import (
    BandedSymbol,
    build_minor_numeric,
    build_minor_symbolic,
    det_numeric,
    format_complex,
    minor_det_symbolic,
    parse_complex,
    verify_minor_schur,
)
from .widom import (
    SEPARATION,
    check_separated,
    hall_schur_eval,
    widom_modified,
    widom_original,
)

__version__ = "0.1.0"

__all__ = [
    "BandedSymbol",
    "ComparisonResult",
    "GridSpec",
    "InsertionSequence",
    "InsertionStep",
    "LimitSetReport",
    "MinorSpec",
    "MultiPoly",
    "Partition",
    "PolyMatrix",
    "RecurrenceReport",
    "SEPARATION",
    "SkewShape",
    "Tableau",
    "build_minor_numeric",
    "build_minor_symbolic",
    "char_coeffs",
    "check_separated",
    "det_numeric",
    "elementary_symmetric",
    "enumerate_ssyt",
    "expand_elementary",
    "extension_sequences",
    "finite_section_spectrum",
    "format_complex",
    "hall_schur_eval",
    "insert_sequence",
    "insertion_step",
    "jacobi_trudi_matrix",
    "limit_set_scan",
    "min_k",
    "minor_det_symbolic",
    "parse_complex",
    "parse_partition",
    "poly_roots",
    "recurrence_residual",
    "schur_by_tableaux",
    "schur_jacobi_trudi",
    "shape_from_minor",
    "spectrum_vs_limitset",
    "surviving",
    "symbolic_det",
    "verify_minor_schur",
    "verify_recurrence",
    "widom_modified",
    "widom_original",
    "__version__",
]
