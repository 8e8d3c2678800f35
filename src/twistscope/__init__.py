"""twistscope: L-polynomials of hyperelliptic Jacobians over Q and
local quadratic-twist diagnostics at scanned primes.

The names below are served lazily (PEP 562): ``twistscope.X`` imports X's
module on first use, so importing one submodule, such as the command-line
interface, loads no other.
"""

__version__ = "0.1.0"

# module -> the names it exports through the package
_MODULES = {
    "algebra": "FieldSpec PolyModP build_extension kronecker legendre",
    "curvecount": (
        "BadReduction CurveModel LPolynomial affine_char_sum canonical_label curve_from_coeffs"
        " frobenius_trace log_derivative_counts lpoly lpoly_from_counts point_count"
        " reduce_curve validate_weil"
    ),
    "errors": (
        "BadReductionError BudgetExceededError InconsistentCountsError NotGaloisConsistentError"
        " RamifiedPrimeError TwistscopeError"
    ),
    "splitfield": (
        "NumberFieldSpec SplitCase SplitProfile case_classify cyclotomic_residue_degree"
        " default_fields lemma62_check residue_degree_galois split_profile split_profiles"
        " verify_trace_vanishing"
    ),
    "twistlab": (
        "CharSearchResult ScanRecord ScanReport SignMatch TwistCharacter character_search"
        " enumerate_characters even_coeff_invariant local_twist_sign moment_stats scan_pair"
        " trace_sign_match z20_statistic"
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
