"""The package's public surface: lazy re-exports and the value classes."""

import importlib
import pickle

import pytest

import twistscope
from twistscope import curvecount, splitfield
from twistscope.algebra import FieldSpec, PolyModP, odd_primes
from twistscope.cache import LPolyCache, _Entry
from twistscope.curvecount import BadReduction, LPolynomial, curve_from_coeffs, poly_discriminant
from twistscope.splitfield import (
    Lemma62Violation,
    NumberFieldSpec,
    SplitCase,
    SplitProfile,
    TraceVanishing,
    default_fields,
    split_profiles,
)
from twistscope.twistlab import (
    CharSearchResult,
    ScanRecord,
    ScanReport,
    SignMatch,
    TwistCharacter,
    character_search,
    enumerate_characters,
    scan_pair,
)
from twistscope.verify import CriterionResult, _Context

from test_cli import run_python

# every name the package exported when it imported its modules eagerly, by
# defining module; NotSquarefreeError, which nothing raised, is gone since
EXPORTED = {
    "algebra": "FieldSpec PolyModP build_extension kronecker legendre",
    "curvecount": "BadReduction CurveModel LPolynomial affine_char_sum canonical_label "
    "curve_from_coeffs frobenius_trace log_derivative_counts lpoly lpoly_from_counts "
    "point_count reduce_curve validate_weil",
    "errors": "BadReductionError BudgetExceededError InconsistentCountsError "
    "NotGaloisConsistentError RamifiedPrimeError TwistscopeError",
    "splitfield": "NumberFieldSpec SplitCase SplitProfile case_classify cyclotomic_residue_degree "
    "default_fields lemma62_check residue_degree_galois split_profile split_profiles "
    "verify_trace_vanishing",
    "twistlab": "CharSearchResult ScanRecord ScanReport SignMatch TwistCharacter character_search "
    "enumerate_characters even_coeff_invariant local_twist_sign moment_stats scan_pair "
    "trace_sign_match z20_statistic",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


class TestLazyPackage:
    @pytest.mark.parametrize("module,name", NAMES)
    def test_every_exported_name_imports(self, module, name):
        namespace = {}
        exec(f"from twistscope import {name}", namespace)
        defining = importlib.import_module(f"twistscope.{module}")
        assert namespace[name] is getattr(defining, name)
        assert name in dir(twistscope)

    def test_version_and_unknown_names(self):
        assert twistscope.__version__ == "0.1.0"
        for name in ("NotSquarefreeError", "no_such_name"):
            with pytest.raises(AttributeError, match=name):
                getattr(twistscope, name)
            with pytest.raises(ImportError):
                exec(f"from twistscope import {name}", {})

    def test_importing_the_cli_loads_no_other_module(self):
        done = run_python(
            "-c", "import sys, twistscope.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('twistscope'))))",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["twistscope", "twistscope.cli"]


def _curve():
    return curve_from_coeffs((0, -1, 0, 0, 0, 1))


def _lpoly(a1=0):
    return LPolynomial(3, 1, (1, a1, 3))


# (make a value, make an unequal value of the class, frozen); each call makes a fresh object
VALUES = {
    "PolyModP": (lambda: PolyModP(5, (6, 0, 10)), lambda: PolyModP(5, (2,)), True),
    "FieldSpec": (lambda: FieldSpec(5, 2, PolyModP(5, (2, 0, 1))), lambda: FieldSpec(5, 1), True),
    "CurveModel": (_curve, lambda: curve_from_coeffs((0, 4, 0, 0, 0, 1)), True),
    "BadReduction": (lambda: BadReduction("x^5 - x", 3), lambda: BadReduction("x^5 - x", 5), True),
    "LPolynomial": (_lpoly, lambda: _lpoly(1), True),
    "_Entry": (lambda: _Entry(_curve(), 3, [4], None), lambda: _Entry(_curve(), 3, [4], _lpoly()), False),
    "NumberFieldSpec": (
        lambda: NumberFieldSpec("i", "base", (1, 0, 1), 2, True),
        lambda: NumberFieldSpec("i", "base", (1, 0, 1), 2, True, "Q(i)"),
        True,
    ),
    "SplitProfile": (
        lambda: SplitProfile(3, 1, 1, 2, SplitCase.I),
        lambda: SplitProfile(3, 2, 2, 4, SplitCase.II),
        True,
    ),
    "TraceVanishing": (lambda: TraceVanishing(True, 0, 0), lambda: TraceVanishing(False, 2, 0), True),
    "Lemma62Violation": (lambda: Lemma62Violation(_lpoly()), lambda: Lemma62Violation(_lpoly(1)), True),
    "TwistCharacter": (lambda: TwistCharacter(-3), lambda: TwistCharacter(5), True),
    "ScanRecord": (
        lambda: ScanRecord(3, "bad-reduction"),
        lambda: ScanRecord(3, "ok", 0, 0, None, None, SignMatch.BOTH),
        True,
    ),
    "ScanReport": (
        lambda: ScanReport("x^5 - x", "x^5 + 4x", 3, 13, "traces", 2, [ScanRecord(3, "bad-reduction")]),
        lambda: ScanReport("x^5 - x", "x^5 + 4x", 3, 13, "traces", 2),
        False,
    ),
    "CharSearchResult": (
        lambda: CharSearchResult(False, (), ((1, 3),), (3,)),
        lambda: CharSearchResult(True, (TwistCharacter(1),), (), (3,)),
        True,
    ),
    "CriterionResult": (
        lambda: CriterionResult(1, "traces", True, "ok"),
        lambda: CriterionResult(1, "traces", False, "ok"),
        False,
    ),
    "_Context": (lambda: _Context(budget=10, cache=None), lambda: _Context(budget=20, cache=None), False),
}


class TestValueClasses:
    def test_sixteen_classes_none_a_dataclass(self):
        assert len(VALUES) == 16
        for name, (make, _, _) in VALUES.items():
            cls = type(make())
            assert cls.__name__ == name and not hasattr(cls, "__dataclass_fields__")

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_equality_hash_immutability_pickle(self, name):
        make, make_other, frozen = VALUES[name]
        value = make()
        assert value == make() and not value != make()
        assert value != make_other()
        field = value._fields[0] if isinstance(value, tuple) else value.__slots__[0]
        if frozen:
            assert hash(value) == hash(make())
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
            with pytest.raises(AttributeError):
                delattr(value, field)
        else:
            with pytest.raises(TypeError):
                hash(value)
            setattr(value, field, 0)
            assert getattr(value, field) == 0
            value = make()
        assert pickle.loads(pickle.dumps(value)) == value

    def test_defaults_and_normal_forms(self):
        assert PolyModP(5, (6, 0, 10, 0, 0)).coeffs == (1,)
        assert FieldSpec(5, 1).modulus is None
        assert NumberFieldSpec("i", "base", (1, 0, 1), 2, True).provenance == ""
        assert ScanRecord(3, "bad-reduction").verdict is None
        assert CharSearchResult(False, (), (), ()).finite_evidence is True
        assert ScanReport("a", "b", 3, 5, "full", 1).records == []
        assert ScanReport("a", "b", 3, 5, "full", 1).records is not ScanReport("a", "b", 3, 5, "full", 1).records
        assert CriterionResult(1, "t", True, "d").elapsed == 0.0
        assert repr(_lpoly()) == "LPolynomial(p=3, g=1, coeffs=(1, 0, 3))"

    def test_pool_unit_and_lpolynomial_pickle(self):
        # units and L-polynomials are values: they survive pickling, as what crosses processes must
        unit = (_curve(), 7, 2)
        back = pickle.loads(pickle.dumps(unit))
        assert back == unit and back[0].genus == 2 and hash(back[0]) == hash(unit[0])
        L = _lpoly()
        assert pickle.loads(pickle.dumps(L)) == L
        assert pickle.loads(pickle.dumps(L)).sign_flipped() == L.sign_flipped()


class TestNoModuleState:
    """Curves and fields keep their discriminants, and no module keeps a memo between calls."""

    @pytest.mark.parametrize("module", ["algebra", "curvecount", "splitfield", "twistlab", "cache", "helpers"])
    def test_no_function_is_memoised(self, module):
        names = vars(importlib.import_module(f"twistscope.{module}"))
        methods = {f"{cls}.{k}": v for cls, c in names.items() if isinstance(c, type) for k, v in vars(c).items()}
        memos = [name for name, obj in {**names, **methods}.items() if hasattr(obj, "cache_info")]
        assert memos == []

    def test_helpers_keep_nothing_between_requests(self):
        # helpers live for one request: no class, and no module-level set, dict or list
        names = vars(importlib.import_module("twistscope.helpers"))
        kept = [name for name, obj in names.items()
                if isinstance(obj, (set, dict, list, type)) and not name.startswith("__")]
        assert kept == []

    def test_disc_is_kept_and_pickled(self):
        curve = _curve()
        field = NumberFieldSpec("i", "base", (1, 0, 1), 2, True)
        assert curve.disc == poly_discriminant(curve.f_coeffs) == -256  # roots 0, ±1, ±i
        assert field.disc == poly_discriminant(field.defining_poly) == -4
        back = pickle.loads(pickle.dumps((curve, 7, 2)))
        assert back[0].disc == curve.disc and back == (curve, 7, 2)
        assert pickle.loads(pickle.dumps(field)).disc == field.disc
        assert repr(curve).endswith(", genus=2, disc=-256)")

    def test_no_discriminant_is_recomputed(self, tmp_path, monkeypatch, genus2_pair):
        fields = default_fields()  # curves and fields are built before the spy
        real, calls = poly_discriminant, []

        def spy(coeffs):
            calls.append(coeffs)
            return real(coeffs)

        monkeypatch.setattr(curvecount, "poly_discriminant", spy)
        monkeypatch.setattr(splitfield, "poly_discriminant", spy)
        cache = LPolyCache(tmp_path)
        scan_pair(*genus2_pair, 3, 200, cache=cache)
        character_search(*genus2_pair, enumerate_characters(set(), True, True), odd_primes(3, 100), cache=cache)
        assert len(list(split_profiles(fields, odd_primes(3, 1000)))) == 167
        assert calls == []
