"""Exact weighted polar decompositions of simple polytopes and weighted
lattice-point counting.

The pipeline: describe a polytope by facet inequalities, polarize its
tangent cones with a generic vector, and the signed sum of cone weights
reproduces the polytope's weighted characteristic function at every
point.  For regular integral polytopes the same identity, read on
lattice generating functions, evaluates weighted lattice counts and
per-point multiplicities exactly.  Everything is exact: Python ints
where the values are integers, Fractions elsewhere.
"""

from .latticegen import (
    BrionReport,
    ChiReport,
    HypothesisError,
    MultiplicityReport,
    PoleError,
    brion_check,
    brion_sum,
    chi_y_check,
    chi_y_lattice_sum,
    chi_y_vertex_sum,
    codim_census,
    codim_sums,
    coefficient_extract,
    cone_series_check,
    format_census,
    format_lattice_sum,
    lattice_points,
    lattice_rows,
    multiplicity,
    multiplicity_check,
    vertex_genfun,
    weighted_count,
    weighted_count_y,
    weighted_sum_poly,
)
from .laurent import LaurentPoly, RationalFunction
from .polarize import (
    PolarizationError,
    PolarizedCone,
    crossing_pair,
    find_polarizing,
    is_polarizing,
    polarize_cones,
    wall_directions,
)
from .polytope import (
    HalfSpace,
    NonSimpleError,
    Polytope,
    PolytopeError,
    PolytopeFormatError,
    RedundantFacetError,
    UnboundedError,
    Vertex,
    dilated_simplex,
    from_dict,
    from_file,
    hypercube,
    interval,
    prism,
    trapezoid,
)
from .series import (
    TruncatedSeries,
    hirzebruch_series,
    lhat_series,
    qy_series,
    qy_series_cleared,
    todd_series,
    verify_identities,
)
from .svgfig import render_svg
from .weights import (
    CheckResult,
    WeightParam,
    check_decomposition,
    check_decomposition_at,
    cone_face_counts,
    cone_weight_y,
    polytope_weight_y,
    sample_points,
    signed_cone_sum_y,
)
from .ypoly import YFrac, YPoly

__version__ = "0.1.0"
