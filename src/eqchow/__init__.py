"""Integral equivariant Chow ring presentations for quadric stacks.

Exact symbolic machinery: sparse integer polynomials with a weighted grading,
symmetric-function rewriting into Chern classes, torus-localization
pushforwards, per-degree integer-lattice ideal arithmetic, and the pipelines
assembling them into ring presentations.
"""

__version__ = "0.1.0"

from .ideal import (
    DegreeBoundTooLow,
    GradedIdeal,
    IntegerLattice,
    NotHomogeneous,
    compare_up_to,
    monomials_of_degree,
)
from .localization import (
    InternalInconsistency,
    RepeatedRoots,
    closed_form_pushforward,
    fundamental_class,
    tangent_weights,
    veronese_point_map,
    veronese_pushforward,
)
from .pipeline import (
    RingPresentation,
    VerificationFailure,
    alpha_family,
    chern_series_divide,
    default_degree_bound,
    m01,
    orthogonal,
    projective_bundle,
    excise_veronese,
    reduced_quadrics,
    replay_provenance,
    torsor_quotient,
)
from .poly import (
    NotDivisible,
    Polynomial,
    StructuredFraction,
    exact_divide,
    parse_polynomial,
    sum_fractions,
    var,
)
from .symfunc import (
    NotSymmetric,
    RepRoots,
    UnsupportedModule,
    build_roots,
    chern_polynomial,
    e_top,
    is_symmetric,
    symmetric_to_chern,
    total_chern_poly,
)

__all__ = [
    "DegreeBoundTooLow",
    "GradedIdeal",
    "IntegerLattice",
    "InternalInconsistency",
    "NotDivisible",
    "NotHomogeneous",
    "NotSymmetric",
    "Polynomial",
    "RepRoots",
    "RepeatedRoots",
    "RingPresentation",
    "StructuredFraction",
    "UnsupportedModule",
    "VerificationFailure",
    "alpha_family",
    "build_roots",
    "chern_polynomial",
    "chern_series_divide",
    "closed_form_pushforward",
    "compare_up_to",
    "default_degree_bound",
    "e_top",
    "exact_divide",
    "excise_veronese",
    "fundamental_class",
    "is_symmetric",
    "m01",
    "monomials_of_degree",
    "orthogonal",
    "parse_polynomial",
    "projective_bundle",
    "reduced_quadrics",
    "replay_provenance",
    "sum_fractions",
    "symmetric_to_chern",
    "tangent_weights",
    "torsor_quotient",
    "total_chern_poly",
    "var",
    "veronese_point_map",
    "veronese_pushforward",
]
