import random

import pytest

from oracles import squarefree_mod
from twistscope.algebra import odd_primes
from twistscope.curvecount import curve_from_coeffs
from twistscope.errors import (
    BadReductionError,
    NotGaloisConsistentError,
    RamifiedPrimeError,
)
from twistscope.splitfield import (
    Lemma62Violation,
    NumberFieldSpec,
    SplitCase,
    SplitProfile,
    case_classify,
    cyclotomic_residue_degree,
    default_fields,
    is_guarded,
    lemma62_check,
    parse_field_config,
    residue_degree_galois,
    split_profile,
    split_profiles,
    verify_trace_vanishing,
)


@pytest.fixture(scope="module")
def fields():
    return default_fields()


@pytest.fixture(scope="module")
def base_field(fields):
    return next(f for f in fields.values() if f.role == "base")


class TestConfig:
    def test_builtin_loads(self, fields):
        assert len(fields) == 3
        roles = sorted(f.role for f in fields.values())
        assert roles == ["base", "cover-a", "cover-b"]
        degrees = sorted(f.degree for f in fields.values())
        assert degrees == [4, 8, 8]
        assert [p for p in [2, *odd_primes(3, 1000)] if is_guarded(fields, p)] == [2, 3]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_field_config("no header\n")
        with pytest.raises(ValueError):
            parse_field_config("twistscope-fields 99\n")
        with pytest.raises(ValueError):
            parse_field_config("twistscope-fields 1\nfield x\nrole base\n")  # no end

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            NumberFieldSpec("x", "base", (1, 0, 2), 2, True)

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            NumberFieldSpec("x", "base", (1, 2, 1), 2, True)


class TestResidueDegree:
    @pytest.mark.parametrize("p,want", [(17, 1), (3, 2), (5, 2), (7, 2), (41, 1)])
    def test_base_field_examples(self, base_field, p, want):
        assert residue_degree_galois(base_field, p) == want

    def test_guarded_prime_rejected(self, fields):
        cover_a = next(f for f in fields.values() if f.role == "cover-a")
        with pytest.raises(RamifiedPrimeError):
            residue_degree_galois(cover_a, 3)
        with pytest.raises(RamifiedPrimeError):
            residue_degree_galois(cover_a, 2)

    def test_mixed_degrees_flagged(self):
        # x^3 - 2 factors as (linear)(quadratic) mod 5: not Galois
        fake = NumberFieldSpec("fake", "base", (-2, 0, 0, 1), 3, True)
        with pytest.raises(NotGaloisConsistentError, match="^field fake: .* unequal degrees mod 5"):
            residue_degree_galois(fake, 5)

    def test_not_galois_flag_rejected(self, base_field):
        bent = NumberFieldSpec("bent", "base", base_field.defining_poly, 4, False)
        with pytest.raises(ValueError):
            residue_degree_galois(bent, 5)

    def test_cyclotomic_identification_to_1e4(self, base_field):
        # the base field is the 8th cyclotomic field: residue degree at p
        # equals the order of p mod 8
        for p in odd_primes(3, 10_000):
            assert residue_degree_galois(base_field, p) == cyclotomic_residue_degree(8, p)

    def test_cover_b_cyclotomic_identification_to_1e4(self, fields):
        # cover-b is the 16th cyclotomic field (x^8 + 1): residue degree at p
        # equals the order of p mod 16
        cover_b = next(f for f in fields.values() if f.role == "cover-b")
        for p in odd_primes(3, 10_000):
            assert residue_degree_galois(cover_b, p) == cyclotomic_residue_degree(16, p)

    def test_galois_consistency_all_fields_to_1000(self, fields):
        for f in fields.values():
            for p in odd_primes(3, 1000):
                if is_guarded(fields, p):
                    continue
                assert residue_degree_galois(f, p) >= 1  # raises on mixed degrees


class TestGuard:
    def test_shipped_fields_guarded_exactly_where_ddf_refuses(self, fields):
        for f in fields.values():
            for p in odd_primes(3, 1000):
                assert is_guarded({f.name: f}, p) == (not squarefree_mod(f.defining_poly, p)), (f.name, p)

    def test_random_polynomials_guarded_exactly_where_ddf_refuses(self):
        rng = random.Random(5)
        refused = 0
        for _ in range(60):
            degree = rng.randint(2, 8)
            poly = tuple(rng.randint(-4, 4) for _ in range(degree)) + (1,)
            try:
                field = NumberFieldSpec("r", "base", poly, degree, True)
            except ValueError:  # a repeated root over Q
                continue
            for p in odd_primes(3, 60):
                guarded = is_guarded({"r": field}, p)
                assert guarded == (not squarefree_mod(poly, p)), (poly, p)
                refused += guarded
        assert refused > 20


class TestCyclotomic:
    @pytest.mark.parametrize("n,p,want", [(16, 3, 4), (16, 5, 4), (8, 17, 1), (8, 7, 2)])
    def test_examples(self, n, p, want):
        assert cyclotomic_residue_degree(n, p) == want

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            cyclotomic_residue_degree(16, 2)


class TestCaseClassify:
    @pytest.mark.parametrize(
        "triple,want",
        [
            ((1, 2, 1), SplitCase.I),
            ((2, 4, 2), SplitCase.II),
            ((1, 4, 4), SplitCase.VIOLATION),
            ((2, 2, 2), SplitCase.II),
            ((4, 4, 4), SplitCase.III),
            ((1, 1, 1), SplitCase.I),
            ((3, 3, 3), SplitCase.VIOLATION),
            ((2, 2, 8), SplitCase.VIOLATION),
        ],
    )
    def test_table(self, triple, want):
        assert case_classify(*triple) is want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            case_classify(0, 1, 1)


class TestSplitProfile:
    def test_first_profiles(self, fields):
        prof5 = split_profile(fields, 5)
        assert (prof5.r, prof5.s, prof5.s_prime, prof5.case) == (2, 4, 4, SplitCase.II)
        prof17 = split_profile(fields, 17)
        assert (prof17.r, prof17.s, prof17.s_prime, prof17.case) == (1, 2, 1, SplitCase.I)

    def test_no_violations_to_1000(self, fields):
        freq = {c: 0 for c in SplitCase}
        for p in odd_primes(3, 1000):
            if is_guarded(fields, p):
                continue
            freq[split_profile(fields, p).case] += 1
        assert freq[SplitCase.VIOLATION] == 0
        assert freq[SplitCase.III] == 0  # unreachable: the base group has exponent 2
        assert freq[SplitCase.I] + freq[SplitCase.II] == 166

    def test_one_pass_matches_one_prime_case(self, fields):
        # blocks of x^p and a pass per field give what each prime alone gives
        primes = odd_primes(3, 1500)
        got = list(split_profiles(fields, primes))
        assert [p for p, _ in got] == primes
        for p, profile in got:
            assert profile == (None if is_guarded(fields, p) else split_profile(fields, p))

    def test_guarded_prime_rejected(self, fields):
        assert list(split_profiles(fields, [3])) == [(3, None)]
        with pytest.raises(RamifiedPrimeError):
            split_profile(fields, 3)

    def test_lazy_up_to_the_first_mixed_prime(self, fields):
        # x^3 - 2 is not Galois: mixed degrees (1, 2) at 5, equal (3) at 7;
        # everything yielded before the failure stands
        fake = NumberFieldSpec("fake", "cover-a", (-2, 0, 0, 1), 3, True)
        config = {f.name: f for f in fields.values() if f.role != "cover-a"} | {"fake": fake}
        profiles = split_profiles(config, odd_primes(3, 50))
        assert next(profiles) == (3, None)
        with pytest.raises(NotGaloisConsistentError, match="^field fake: .* mod 5"):
            next(profiles)


class TestTraceVanishing:
    def test_case_ii_at_3(self, genus2_pair):
        # the profile at 3 is known from the field tower even though the
        # cover-a polynomial cannot certify it (3 is an index divisor there)
        profile = SplitProfile(3, 2, 2, 4, SplitCase.II)
        out = verify_trace_vanishing(*genus2_pair, 3, profile)
        assert out.ok and out.a == 0 and out.a_prime == 0

    def test_case_ii_at_5(self, genus2_pair, fields):
        profile = split_profile(fields, 5)
        out = verify_trace_vanishing(*genus2_pair, 5, profile)
        assert out.ok

    def test_case_i_rejected(self, genus2_pair, fields):
        profile = split_profile(fields, 17)
        with pytest.raises(ValueError):
            verify_trace_vanishing(*genus2_pair, 17, profile)

    def test_counterexample_carries_traces(self, fields):
        # a pair with nonvanishing trace at a case-ii prime is reported,
        # not raised: use a curve with a_5 != 0
        curve = curve_from_coeffs((1, 1, 0, 1))  # x^3 + x + 1, a_5 = -3
        profile = split_profile(fields, 5)
        out = verify_trace_vanishing(curve, curve, 5, profile)
        assert not out.ok and out.a == out.a_prime != 0


class TestLemma62Check:
    def test_wrong_congruence_class(self):
        with pytest.raises(ValueError):
            lemma62_check(1, 17)

    @pytest.mark.parametrize("p,want", [(3, 18), (5, 50), (11, 242), (13, 338)])
    def test_s_values_c1(self, p, want):
        assert lemma62_check(1, p) == want

    def test_c16_matches_c1_at_5(self):
        assert lemma62_check(16, 5) == lemma62_check(1, 5) == 50

    def test_bad_reduction(self):
        with pytest.raises(BadReductionError):
            lemma62_check(3, 3)

    def test_zero_c_rejected(self):
        with pytest.raises(ValueError):
            lemma62_check(0, 3)

    def test_violation_type_importable(self):
        # the violation branch cannot be produced by a correct kernel;
        # just pin the reporting type's shape
        v = Lemma62Violation(lpoly=None)
        assert v.lpoly is None
