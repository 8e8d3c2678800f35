import random

import pytest

import oracles
from twistscope.algebra import build_extension, odd_primes
from twistscope.curvecount import (
    BadReduction,
    CountVector,
    CurveModel,
    LPolynomial,
    affine_char_sum,
    canonical_label,
    curve_from_coeffs,
    frobenius_trace,
    log_derivative_counts,
    lpoly,
    lpoly_from_counts,
    odd_bad_primes,
    point_count,
    poly_discriminant,
    reduce_curve,
    validate_weil,
)
from twistscope.errors import (
    BadReductionError,
    BudgetExceededError,
    InconsistentCountsError,
)


class TestCurveModel:
    def test_valid(self, genus2_pair):
        a, _ = genus2_pair
        assert a.genus == 2 and a.f_coeffs == (0, -1, 0, 0, 0, 1)

    def test_rejects_even_degree(self):
        with pytest.raises(ValueError):
            CurveModel("bad", (1, 0, 0, 0, 1), 2)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            CurveModel("bad", (0, 1, 0, 2), 1)

    def test_rejects_repeated_root(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2
        with pytest.raises(ValueError):
            CurveModel("bad", (2, -3, 0, 1), 1)

    def test_label_formatting(self):
        assert canonical_label((0, -1, 0, 0, 0, 1)) == "x^5 - x"
        assert canonical_label((0, 16, 0, 0, 0, 0, 0, 0, 0, 1)) == "x^9 + 16x"
        assert canonical_label((7, -2, 0, 1)) == "x^3 - 2x + 7"


class TestDiscriminant:
    @pytest.mark.parametrize(
        "coeffs,want",
        [
            ((0, -1, 0, 1), 4),  # x^3 - x: -4a^3 - 27b^2 with a=-1, b=0
            ((1, 0, 1), -4),  # x^2 + 1
            ((2, 1, 0, 1), -4 - 27 * 4),  # x^3 + x + 2
            ((3, 0, 0, 1), -243),  # x^3 + 3: -27 b^2
        ],
    )
    def test_known_values(self, coeffs, want):
        assert poly_discriminant(coeffs) == want

    def test_bad_primes_of_reference_curves(self, genus2_pair, genus4_pair):
        for curve in (*genus2_pair, *genus4_pair):
            assert odd_bad_primes(curve) == set()

    def test_bad_primes_detect_odd_factor(self):
        assert odd_bad_primes(curve_from_coeffs((3, 0, 0, 1))) == {3}

    def test_bad_primes_match_reduction(self):
        # disc mod p = 0 exactly at bad reduction, for a few crafted curves
        for coeffs in [(3, 0, 0, 1), (2, 1, 0, 1), (0, -1, 0, 0, 0, 1), (5, 1, 3, 0, 0, 1)]:
            curve = curve_from_coeffs(coeffs)
            disc = poly_discriminant(coeffs)
            for p in odd_primes(3, 60):
                bad = isinstance(reduce_curve(curve, p), BadReduction)
                assert bad == (disc % p == 0)


class TestReduceCurve:
    def test_good_reduction_example(self, genus2_pair):
        fbar = reduce_curve(genus2_pair[0], 3)
        assert fbar.coeffs == (0, 2, 0, 0, 0, 1)  # x^5 + 2x mod 3

    def test_p2_excluded(self, genus2_pair):
        with pytest.raises(ValueError):
            reduce_curve(genus2_pair[0], 2)

    def test_bad_reduction_value(self):
        curve = curve_from_coeffs((3, 0, 0, 1))  # x^3 + 3, disc -3^5
        out = reduce_curve(curve, 3)
        assert isinstance(out, BadReduction) and out.p == 3

    def test_genus1_good_at_5(self, genus1_curve):
        assert not isinstance(reduce_curve(genus1_curve, 5), BadReduction)


class TestAffineCharSum:
    def test_identity_map_sums_to_zero(self):
        from twistscope.algebra import PolyModP

        for p in (5, 7, 11):
            for i in (1, 2):
                # chi is balanced on F_q, so f = x gives a zero sum
                assert affine_char_sum(PolyModP(p, (0, 1)), build_extension(p, i)) == 0

    @pytest.mark.parametrize(
        "coeffs,p,i,want",
        [
            ((0, 2, 0, 0, 0, 1), 3, 1, 0),  # x^5 + 2x over F_3
            ((0, 1, 0, 0, 0, 0, 0, 0, 0, 1), 3, 1, 0),  # x^9 + x over F_3
        ],
    )
    def test_reference_values(self, coeffs, p, i, want):
        from twistscope.algebra import PolyModP

        assert affine_char_sum(PolyModP(p, coeffs), build_extension(p, i)) == want

    def test_methods_agree(self):
        rng = random.Random(11)
        from twistscope.algebra import PolyModP

        for p, i in [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (11, 1), (13, 1)]:
            for _ in range(3):
                deg = rng.choice([3, 5, 7])
                coeffs = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
                fbar = PolyModP(p, coeffs)
                spec = build_extension(p, i)
                assert affine_char_sum(fbar, spec, "table") == affine_char_sum(
                    fbar, spec, "powmod"
                )

    def test_rejects_mismatched_characteristic(self):
        from twistscope.algebra import PolyModP

        with pytest.raises(ValueError):
            affine_char_sum(PolyModP(3, (0, 1)), build_extension(5, 1))


class TestPointCount:
    @pytest.mark.parametrize(
        "curve_coeffs,p,i,want",
        [
            ((0, -1, 0, 0, 0, 1), 3, 1, 4),
            ((0, 1, 0, 0, 0, 0, 0, 0, 0, 1), 3, 1, 4),
            ((0, 1, 0, 0, 0, 0, 0, 0, 0, 1), 3, 2, 10),
        ],
    )
    def test_reference_values(self, curve_coeffs, p, i, want):
        assert point_count(curve_from_coeffs(curve_coeffs), p, i) == want

    def test_matches_enumeration_oracle(self, genus2_pair, genus1_curve):
        for curve in (*genus2_pair, genus1_curve):
            for p in odd_primes(3, 13):
                for i in (1, 2):
                    assert point_count(curve, p, i) == oracles.count_points(
                        curve.f_coeffs, p, i
                    )

    def test_high_degree_kernel_matches_oracle(self, genus4_pair):
        # exercises the full norm chain (i = 3, 4) against trial enumeration
        for p in (3, 5):
            for i in (3, 4):
                assert point_count(genus4_pair[0], p, i) == oracles.count_points(
                    genus4_pair[0].f_coeffs, p, i
                )

    def test_bad_reduction_raises(self):
        with pytest.raises(BadReductionError):
            point_count(curve_from_coeffs((3, 0, 0, 1)), 3, 1)

    def test_one_point_at_infinity_convention(self, genus2_pair):
        # N_1 - (affine solutions) == 1 for every odd-degree model
        curve = genus2_pair[0]
        for p in odd_primes(3, 13):
            affine = 0
            for x in range(p):
                fx = sum(c * pow(x, k, p) for k, c in enumerate(curve.f_coeffs)) % p
                affine += sum(1 for y in range(p) if y * y % p == fx)
            assert point_count(curve, p, 1) == affine + 1


class TestLPolyAssembly:
    def test_zero_trace(self):
        L = lpoly_from_counts(CountVector("t", 7, (8,)), 7, 1)
        assert L.coeffs == (1, 0, 7)

    def test_single_newton_step(self):
        L = lpoly_from_counts(CountVector("t", 5, (9,)), 5, 1)
        assert L.coeffs == (1, 3, 5)

    def test_all_power_sums_zero(self):
        L = lpoly_from_counts(CountVector("t", 5, (6, 26)), 5, 2)
        assert L.coeffs == (1, 0, 0, 0, 25)

    def test_non_integral_newton_rejected(self):
        # N_1 = p+1-1, N_2 = p^2+1-1: s = (1,1) forces e_2 = 0 exactly, so
        # tweak N_2 to make e_2 half-integral
        with pytest.raises(InconsistentCountsError):
            lpoly_from_counts(CountVector("t", 5, (5, 24)), 5, 2)

    def test_count_outside_weil_bound_rejected(self):
        with pytest.raises(InconsistentCountsError):
            lpoly_from_counts(CountVector("t", 5, (16,)), 5, 1)

    def test_matches_series_oracle(self, genus2_pair):
        for curve in genus2_pair:
            for p in odd_primes(3, 11):
                assert lpoly(curve, p).coeffs == oracles.lpoly_by_series(
                    curve.f_coeffs, p, curve.genus, depth=curve.genus
                )

    def test_full_depth_series_needs_no_functional_equation(self, genus2_pair):
        # independent check of the functional-equation completion: the
        # 2g-count series must reproduce the g-count assembly exactly
        curve = genus2_pair[0]
        for p in (3, 5, 7):
            assert lpoly(curve, p).coeffs == oracles.lpoly_by_series(
                curve.f_coeffs, p, curve.genus, depth=2 * curve.genus
            )


class TestLpoly:
    def test_genus4_shape_at_3(self, genus4_pair):
        assert lpoly(genus4_pair[0], 3).coeffs == (1, 0, 0, 0, 18, 0, 0, 0, 81)

    def test_genus2_at_3(self, genus2_pair):
        La = lpoly(genus2_pair[0], 3)
        Lb = lpoly(genus2_pair[1], 3)
        assert La.coeffs == (1, 0, -2, 0, 9)
        assert Lb.coeffs == (1, 0, 2, 0, 9)

    def test_bad_prime(self):
        with pytest.raises(BadReductionError):
            lpoly(curve_from_coeffs((3, 0, 0, 1)), 3)

    def test_budget_refusal_reports_requirement(self, genus4_pair):
        with pytest.raises(BudgetExceededError) as exc:
            lpoly(genus4_pair[0], 47, budget=1000)
        assert exc.value.required == sum(47**i for i in range(1, 5))

    def test_every_lpoly_passes_weil(self, genus2_pair, genus1_curve):
        for curve in (*genus2_pair, genus1_curve):
            for p in odd_primes(3, 30):
                assert validate_weil(lpoly(curve, p)) == []


class TestTrace:
    def test_reference_traces_at_17(self, genus4_pair):
        assert frobenius_trace(genus4_pair[0], 17) == -8
        assert frobenius_trace(genus4_pair[1], 17) == 8

    def test_zero_trace_at_3(self, genus4_pair):
        assert frobenius_trace(genus4_pair[0], 3) == 0

    def test_equals_negated_t_coefficient(self, genus2_pair):
        for p in odd_primes(3, 20):
            L = lpoly(genus2_pair[1], p)
            assert frobenius_trace(genus2_pair[1], p) == -L.coeffs[1] == L.trace


class TestValidateWeil:
    def test_accepts_good(self):
        assert validate_weil(LPolynomial(5, 1, (1, 3, 5))) == []

    def test_trace_bound(self):
        out = validate_weil(LPolynomial(5, 1, (1, 7, 5)))
        assert any("bound" in v for v in out)

    def test_functional_equation(self):
        p = 7
        good = LPolynomial(p, 2, (1, 1, 1, p, p * p))
        assert validate_weil(good) == []
        mutated = LPolynomial(p, 2, (1, 1, 1, p + 1, p * p))
        assert any("functional" in v for v in validate_weil(mutated))


class TestLogDerivativeCounts:
    def test_zero_trace(self):
        assert log_derivative_counts(LPolynomial(7, 1, (1, 0, 7)), 1) == [8]

    def test_worked_example(self):
        # s_1 = -3, s_2 = s_1*(-3) - 2*5 = -1, so N = (9, 27)
        assert log_derivative_counts(LPolynomial(5, 1, (1, 3, 5)), 2) == [9, 27]

    def test_roundtrip_inverse(self, genus2_pair, genus1_curve):
        for curve in (*genus2_pair, genus1_curve):
            g = curve.genus
            for p in odd_primes(3, 13):
                counts = [point_count(curve, p, i) for i in range(1, g + 1)]
                L = lpoly_from_counts(CountVector(curve.label, p, tuple(counts)), p, g)
                assert log_derivative_counts(L, g) == counts

    def test_predicts_higher_counts(self, genus2_pair):
        # N_i for g < i <= 2g from L must match direct enumeration
        for curve in genus2_pair:
            for p in odd_primes(3, 7):
                L = lpoly(curve, p)
                predicted = log_derivative_counts(L, 4)
                direct = [oracles.count_points(curve.f_coeffs, p, i) for i in range(1, 5)]
                assert predicted == direct

    def test_range_validation(self):
        with pytest.raises(ValueError):
            log_derivative_counts(LPolynomial(5, 1, (1, 0, 5)), 3)
