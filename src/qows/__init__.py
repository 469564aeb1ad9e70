"""Quasigroup string transformations, candidate one-way functions built on
them, lookup-table inversion attacks, and the order-4 fractal census.
"""
from .budget import resolve_budget
from .classification import (
    PUBLISHED_FRACTAL,
    PUBLISHED_FRACTAL_COUNT,
    CensusReport,
    ClassifySettings,
    ClassLabel,
    PeriodPoint,
    census_order4,
    classify,
    isomorphism_classes,
    leader_strings,
    minimal_period,
    period_profile,
    permutation_search,
)
from .core import (
    AlgebraicProfile,
    Quasigroup,
    algebraic_probe,
    enumerate_order4,
    from_index,
    lex_index,
    random_latin,
    validate,
)
from .errors import (
    BudgetExceeded,
    ColNotPermutation,
    EmptyString,
    EntryOutOfRange,
    FormatError,
    IndexLeaderOutOfRange,
    LengthMismatch,
    NotSquare,
    OrderMismatch,
    OrderNotSupported,
    QowsError,
    RowNotPermutation,
    SymbolOutOfRange,
)
from .inversion import (
    AlgebraicStructureWarning,
    AttackTrace,
    PreimageHistogram,
    attack_r1,
    attack_r2,
    brute_preimages,
    preimage_histogram,
)
from .io_formats import (
    decode_image,
    palette,
    parse_leaders,
    parse_quasigroup,
    parse_string,
    render_iterations,
    serialize_attack_trace,
    serialize_census_json,
    serialize_census_report,
    serialize_histogram,
    serialize_leaders,
    serialize_quasigroup,
    serialize_string,
)
from .transforms import (
    Const,
    Index,
    OwfSpec,
    apply_leader_sequence,
    e_inverse,
    e_transform,
    pack_string,
    r1,
    r2,
    r_n,
    resolve_leaders,
    transformation_rows,
    unpack_string,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicProfile", "AlgebraicStructureWarning", "AttackTrace",
    "BudgetExceeded", "CensusReport", "ClassLabel", "ClassifySettings",
    "ColNotPermutation", "Const", "EmptyString", "EntryOutOfRange",
    "FormatError", "Index", "IndexLeaderOutOfRange", "LengthMismatch",
    "NotSquare", "OrderMismatch", "OrderNotSupported", "OwfSpec",
    "PeriodPoint", "PreimageHistogram", "PUBLISHED_FRACTAL",
    "PUBLISHED_FRACTAL_COUNT", "QowsError", "Quasigroup",
    "RowNotPermutation", "SymbolOutOfRange", "algebraic_probe",
    "apply_leader_sequence", "attack_r1", "attack_r2", "brute_preimages",
    "census_order4", "classify", "decode_image", "e_inverse", "e_transform",
    "enumerate_order4", "from_index", "isomorphism_classes",
    "leader_strings", "lex_index",
    "minimal_period", "pack_string", "palette", "parse_leaders",
    "parse_quasigroup", "parse_string", "period_profile",
    "permutation_search", "preimage_histogram", "r1", "r2", "r_n",
    "random_latin", "render_iterations", "resolve_budget",
    "resolve_leaders", "serialize_attack_trace", "serialize_census_json",
    "serialize_census_report", "serialize_histogram", "serialize_leaders",
    "serialize_quasigroup", "serialize_string", "transformation_rows",
    "unpack_string", "validate", "__version__",
]
