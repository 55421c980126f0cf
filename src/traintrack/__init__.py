"""Exact combinatorial toolkit for self maps of marked graphs.

The package takes a homotopy equivalence of a marked graph (given by its
edge images), verifies the structural properties of a completely split
relative train track representative, disintegrates it into almost invariant
subgraphs with an admissible integer lattice of exponent tuples, and
analyses which maps realize the maximal lattice rank.
"""

from .paths import MarkedGraph, Path, inverse, base_name
from .maps import (
    GraphMap,
    Stratum,
    Filtration,
    filtration,
    classify_strata,
    compose,
    restrict,
    transition_matrix,
    direction_map,
)
from .nielsen import (
    NielsenCatalog,
    NielsenEntry,
    Axis,
    QEFamily,
    build_catalog,
    is_nielsen_path,
    axes,
    complete_split,
)
from .ct import CTReport, check_ct
from .freegroup import (
    pi1_basis,
    pi1_images,
    abelianization,
    is_IA,
    homology_class,
)
from .disintegrate import (
    AlmostInvariantPartition,
    AdmissibilityRelation,
    AdmissibleLattice,
    Disintegration,
    disintegrate,
    build_fa,
    verify_commute,
)
from .coords import (
    CoordinateSystem,
    CoordinateVector,
    RankReport,
    coordinate_system,
    evaluate,
    rank_report,
)
from .maxrank import (
    FPSWitness,
    RankAudit,
    MaxRankReport,
    TwistFamily,
    find_invariant_forest,
    valid_orders,
    stage_ranks,
    detect_fps,
    rank_audit,
    classify_max_rank,
    gen_type_e,
    gen_type_c,
    split_twist_vertex,
)
from .cli import MapDocument, parse_document, document_from_map, document_text
from .errors import (
    TrainTrackError,
    MalformedPath,
    EndpointMismatch,
    NotCompletelySplit,
    LViolation,
    InconsistentFiltration,
    AdmissibilityError,
    FaRefused,
    InputError,
    InvariantForestError,
)

__all__ = [
    # graphs and paths
    "MarkedGraph",
    "Path",
    "inverse",
    "base_name",
    # maps and filtrations
    "GraphMap",
    "Stratum",
    "Filtration",
    "filtration",
    "classify_strata",
    "compose",
    "restrict",
    "transition_matrix",
    "direction_map",
    # Nielsen paths, axes, splittings
    "NielsenCatalog",
    "NielsenEntry",
    "Axis",
    "QEFamily",
    "build_catalog",
    "is_nielsen_path",
    "axes",
    "complete_split",
    # structural verification
    "CTReport",
    "check_ct",
    # fundamental group
    "pi1_basis",
    "pi1_images",
    "abelianization",
    "is_IA",
    "homology_class",
    # disintegration
    "AlmostInvariantPartition",
    "AdmissibilityRelation",
    "AdmissibleLattice",
    "Disintegration",
    "disintegrate",
    "build_fa",
    "verify_commute",
    # coordinates and rank
    "CoordinateSystem",
    "CoordinateVector",
    "RankReport",
    "coordinate_system",
    "evaluate",
    "rank_report",
    # maximal-rank analysis
    "FPSWitness",
    "RankAudit",
    "MaxRankReport",
    "TwistFamily",
    "find_invariant_forest",
    "valid_orders",
    "stage_ranks",
    "detect_fps",
    "rank_audit",
    "classify_max_rank",
    "gen_type_e",
    "gen_type_c",
    "split_twist_vertex",
    # documents
    "MapDocument",
    "parse_document",
    "document_from_map",
    "document_text",
    # errors
    "TrainTrackError",
    "MalformedPath",
    "EndpointMismatch",
    "NotCompletelySplit",
    "LViolation",
    "InconsistentFiltration",
    "AdmissibilityError",
    "FaRefused",
    "InputError",
    "InvariantForestError",
]

__version__ = "0.1.0"
