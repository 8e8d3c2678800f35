"""twistscope: L-polynomials of hyperelliptic Jacobians over Q and
local quadratic-twist diagnostics at scanned primes."""

__version__ = "0.1.0"

from .algebra import (
    FieldSpec,
    PolyModP,
    build_extension,
    kronecker,
    legendre,
)
from .curvecount import (
    BadReduction,
    CurveModel,
    LPolynomial,
    affine_char_sum,
    canonical_label,
    curve_from_coeffs,
    frobenius_trace,
    log_derivative_counts,
    lpoly,
    lpoly_from_counts,
    point_count,
    reduce_curve,
    validate_weil,
)
from .errors import (
    BadReductionError,
    BudgetExceededError,
    InconsistentCountsError,
    NotGaloisConsistentError,
    NotSquarefreeError,
    RamifiedPrimeError,
    TwistscopeError,
)
from .splitfield import (
    NumberFieldSpec,
    SplitCase,
    SplitProfile,
    case_classify,
    cyclotomic_residue_degree,
    default_fields,
    lemma62_check,
    residue_degree_galois,
    split_profile,
    split_profiles,
    verify_trace_vanishing,
)
from .twistlab import (
    CharSearchResult,
    ScanRecord,
    ScanReport,
    SignMatch,
    TwistCharacter,
    character_search,
    enumerate_characters,
    even_coeff_invariant,
    local_twist_sign,
    moment_stats,
    scan_pair,
    trace_sign_match,
    z20_statistic,
)
