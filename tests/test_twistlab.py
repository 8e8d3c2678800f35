from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistscope.algebra import kronecker, odd_primes
from twistscope.cache import LPolyCache
from twistscope.curvecount import LPolynomial, curve_from_coeffs, lpoly
from twistscope.twistlab import (
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


def L(p, g, coeffs):
    return LPolynomial(p, g, tuple(coeffs))


class TestLocalTwistSign:
    def test_plus_with_odd_part(self):
        a = L(5, 1, (1, 3, 5))
        assert local_twist_sign(a, a) is SignMatch.PLUS

    def test_minus(self):
        assert local_twist_sign(L(5, 1, (1, -1, 5)), L(5, 1, (1, 1, 5))) is SignMatch.MINUS

    def test_both_when_odd_part_vanishes(self):
        a = L(5, 1, (1, 0, 5))
        assert local_twist_sign(a, a) is SignMatch.BOTH

    def test_none(self):
        assert local_twist_sign(L(5, 1, (1, 1, 5)), L(5, 1, (1, 2, 5))) is SignMatch.NONE

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            local_twist_sign(L(5, 1, (1, 0, 5)), L(7, 1, (1, 0, 7)))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([5, 7, 11]), st.data())
    def test_symmetric_and_self_consistent(self, p, data):
        import math

        bound = math.isqrt(4 * p)
        a = data.draw(st.integers(-bound, bound))
        b = data.draw(st.integers(-bound, bound))
        La, Lb = L(p, 1, (1, -a, p)), L(p, 1, (1, -b, p))
        assert local_twist_sign(La, La) in (SignMatch.PLUS, SignMatch.BOTH)
        assert local_twist_sign(La, Lb) == local_twist_sign(Lb, La)


class TestTraceSignMatch:
    @pytest.mark.parametrize(
        "a,b,want",
        [
            (-8, 8, SignMatch.MINUS),
            (0, 0, SignMatch.BOTH),
            (3, 5, SignMatch.NONE),
            (4, 4, SignMatch.PLUS),
        ],
    )
    def test_values(self, a, b, want):
        assert trace_sign_match(a, b) is want


class TestEvenCoeffInvariant:
    def test_sign_flip_true(self):
        a = L(5, 2, (1, 2, 3, 10, 25))
        assert even_coeff_invariant(a, a.sign_flipped(), SignMatch.MINUS)

    def test_identity_true(self):
        a = L(5, 2, (1, 2, 3, 10, 25))
        assert even_coeff_invariant(a, a, SignMatch.PLUS)

    def test_rejects_none_verdict(self):
        a = L(5, 2, (1, 2, 3, 10, 25))
        with pytest.raises(ValueError):
            even_coeff_invariant(a, a, SignMatch.NONE)


class TestScanPair:
    def test_genus2_traces_no_none(self, genus2_pair):
        report = scan_pair(*genus2_pair, 3, 50, depth="traces")
        assert [r.p for r in report.records] == odd_primes(3, 50)
        assert all(r.status == "ok" for r in report.records)
        assert report.verdict_counts()[SignMatch.NONE] == 0

    def test_genus2_full_none_at_3(self, genus2_pair):
        report = scan_pair(*genus2_pair, 3, 3, depth="full")
        assert report.records[0].verdict is SignMatch.NONE
        assert report.none_fraction() == Fraction(1, 1)

    def test_self_scan_never_none(self, genus2_pair):
        report = scan_pair(genus2_pair[0], genus2_pair[0], 3, 30, depth="traces")
        assert all(r.verdict in (SignMatch.PLUS, SignMatch.BOTH) for r in report.good_records)

    def test_bad_prime_recorded_as_skip(self):
        curve = curve_from_coeffs((3, 1, 0, 1))  # disc = -4 - 243 = -247 = -13*19
        report = scan_pair(curve, curve, 3, 20, depth="traces")
        by_p = {r.p: r for r in report.records}
        assert by_p[13].status == "bad-reduction"
        assert by_p[19].status == "bad-reduction"
        assert by_p[3].status == "ok"
        assert len(report.records) == len(odd_primes(3, 20))

    def test_budget_exceeded_recorded_per_prime(self, genus4_pair):
        report = scan_pair(*genus4_pair, 3, 7, depth="full", budget=100)
        assert [r.status for r in report.records] == [
            "budget-exceeded",  # 3: needs 120
            "budget-exceeded",
            "budget-exceeded",
        ]

    def test_budget_applies_to_traces(self, genus2_pair):
        # a trace costs p field evaluations; above the budget it is a skip record
        report = scan_pair(*genus2_pair, 3, 200, depth="traces", budget=100)
        by_p = {r.p: r.status for r in report.records}
        assert [by_p[p] for p in odd_primes(3, 100)] == ["ok"] * len(odd_primes(3, 100))
        assert [by_p[p] for p in odd_primes(101, 200)] == ["budget-exceeded"] * 21

    def test_full_implies_trace_verdict(self, genus2_pair):
        report = scan_pair(*genus2_pair, 3, 20, depth="full")
        for r in report.good_records:
            if r.verdict is not SignMatch.NONE:
                assert trace_sign_match(r.a, r.a_prime) is not SignMatch.NONE

    def test_rejects_bad_args(self, genus2_pair, genus4_pair):
        with pytest.raises(ValueError):
            scan_pair(*genus2_pair, 2, 10)
        with pytest.raises(ValueError):
            scan_pair(*genus2_pair, 3, 10, depth="weird")
        with pytest.raises(ValueError):
            scan_pair(genus2_pair[0], genus4_pair[0], 3, 10)

    def test_parallel_matches_serial(self, genus2_pair):
        serial = scan_pair(*genus2_pair, 3, 30, depth="traces")
        with LPolyCache("", enabled=False, jobs=2) as cache:
            parallel = scan_pair(*genus2_pair, 3, 30, depth="traces", cache=cache)
        assert serial.to_text() == parallel.to_text()

    def test_scan_counts_all_primes_in_one_batch(self, genus4_pair, monkeypatch):
        # the workers share the units of every prime, not one prime at a time
        batches = []
        run = LPolyCache._run

        def spy(self, units):
            batches.append(sorted({p for _, p, _ in units}))
            return run(self, units)

        monkeypatch.setattr(LPolyCache, "_run", spy)
        with LPolyCache("", enabled=False, jobs=2) as cache:
            parallel = scan_pair(*genus4_pair, 3, 13, depth="full", budget=10**5, cache=cache)
        assert batches == [[3, 5, 7, 11, 13]]
        assert parallel.to_text() == scan_pair(*genus4_pair, 3, 13, depth="full").to_text()


class TestReportSerialization:
    def test_roundtrip_traces(self, genus2_pair):
        report = scan_pair(*genus2_pair, 3, 30, depth="traces")
        back = ScanReport.from_text(report.to_text())
        assert back.to_text() == report.to_text()
        assert back.records == report.records

    def test_roundtrip_full(self, genus2_pair):
        report = scan_pair(*genus2_pair, 3, 10, depth="full")
        back = ScanReport.from_text(report.to_text())
        assert back.records == report.records

    def test_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            ScanReport.from_text("something else\n")

    def test_deterministic_bytes(self, genus2_pair):
        a = scan_pair(*genus2_pair, 3, 30, depth="traces").to_text()
        b = scan_pair(*genus2_pair, 3, 30, depth="traces").to_text()
        assert a == b


class TestEnumerateCharacters:
    def test_dyadic_four(self):
        out = enumerate_characters(set(), include_2=True, include_sign=True)
        assert [c.d for c in out] == [1, -1, 2, -2]

    def test_trivial_only(self):
        assert [c.d for c in enumerate_characters(set())] == [1]

    def test_with_support_and_sign(self):
        out = enumerate_characters({3}, include_sign=True)
        assert [c.d for c in out] == [1, -1, 3, -3]

    def test_counts(self):
        out = enumerate_characters({3, 5}, include_2=True, include_sign=True)
        assert len(out) == 16
        assert len({c.d for c in out}) == 16

    def test_rejects_non_prime_support(self):
        with pytest.raises(ValueError):
            enumerate_characters({9})
        with pytest.raises(ValueError):
            enumerate_characters({2})

    def test_character_squarefree_validation(self):
        with pytest.raises(ValueError):
            TwistCharacter(4)
        with pytest.raises(ValueError):
            TwistCharacter(0)
        assert TwistCharacter(-6).value_at(5) == kronecker(-6, 5)


class TestCharacterSearch:
    def test_self_pair_certifies_trivial(self, genus1_curve):
        result = character_search(
            genus1_curve, genus1_curve, [TwistCharacter(1)], odd_primes(3, 20)
        )
        assert result.certified and [c.d for c in result.survivors] == [1]
        assert result.finite_evidence

    def test_genus2_pair_refuted_at_3(self, genus2_pair):
        chars = enumerate_characters(set(), include_2=True, include_sign=True)
        result = character_search(*genus2_pair, chars, odd_primes(3, 100))
        assert not result.certified
        assert dict(result.witnesses) == {1: 3, -1: 3, 2: 3, -2: 3}
        # early exit: nothing beyond the witness prime was computed
        assert result.primes_checked == (3,)

    def test_true_twist_pair_certified(self, genus1_curve):
        # x^3 - 4x is the twist of x^3 - x by 2; the curve has zero trace at
        # p = 3 mod 4, so d = -2 explains every prime as well
        twisted = curve_from_coeffs((0, -4, 0, 1))
        chars = enumerate_characters(set(), include_2=True, include_sign=True)
        result = character_search(genus1_curve, twisted, chars, odd_primes(3, 60))
        assert result.certified
        assert [c.d for c in result.survivors] == [2, -2]
        # consistency: the certified character predicts every trace relation
        for p in result.primes_checked:
            eps = kronecker(2, p)
            a = lpoly(genus1_curve, p).trace
            b = lpoly(twisted, p).trace
            verdict = trace_sign_match(a, b)
            want = SignMatch.PLUS if eps == 1 else SignMatch.MINUS
            assert verdict in (want, SignMatch.BOTH)

    def test_ramified_prime_skipped_for_candidate(self, genus1_curve):
        # kronecker(3, 3) = 0: p = 3 yields no information about d = 3
        result = character_search(
            genus1_curve, genus1_curve, [TwistCharacter(3)], [3]
        )
        assert result.certified and result.primes_checked == (3,)

    def test_rejects_empty_candidates(self, genus1_curve):
        with pytest.raises(ValueError):
            character_search(genus1_curve, genus1_curve, [], [3])

    def test_rejects_bad_prime(self, genus1_curve):
        bad_curve = curve_from_coeffs((3, 0, 0, 1))
        with pytest.raises(ValueError):
            character_search(bad_curve, bad_curve, [TwistCharacter(1)], [3])


class TestStatistics:
    def test_z20_all_zero_middle(self, genus4_pair):
        # restricted to p = 3, 5 mod 8 every L-polynomial is quartic-shaped,
        # so the T^2 coefficient always vanishes; p = 7 breaks the pattern
        report = scan_pair(*genus4_pair, 3, 13, depth="full")
        filtered = ScanReport(
            report.label_a,
            report.label_b,
            report.pmin,
            report.pmax,
            "full",
            report.genus,
            [r for r in report.records if r.p % 8 in (3, 5)],
        )
        assert z20_statistic(filtered) == Fraction(1, 1)
        assert z20_statistic(report) == Fraction(4, 5)

    def test_z20_nonzero_middle(self, genus2_pair):
        report = scan_pair(*genus2_pair, 3, 3, depth="full")
        assert z20_statistic(report) == Fraction(0, 1)  # T^2 coefficient is -2

    def test_z20_rejects_traces_depth(self, genus2_pair):
        report = scan_pair(*genus2_pair, 3, 10, depth="traces")
        with pytest.raises(ValueError):
            z20_statistic(report)

    def test_trivial_moment_is_one(self, genus2_pair):
        report = scan_pair(*genus2_pair, 3, 20, depth="full")
        rows = moment_stats(report, [(0, 0)])
        assert rows[0]["mean_a"] == 1.0 and rows[0]["mean_b"] == 1.0

    def test_even_weight_agree_per_prime(self, genus2_pair):
        # a'_j = eps^j a_j exactly on matched records, so even monomials in
        # the integer coefficients agree before any normalization
        report = scan_pair(*genus2_pair, 3, 30, depth="full")
        for r in report.good_records:
            if r.verdict is SignMatch.NONE:
                continue  # the pair is unmatched at p = 3
            if r.verdict is SignMatch.NONE:
                continue
            assert r.lpoly_a.coeffs[1] ** 2 == r.lpoly_b.coeffs[1] ** 2
            assert r.lpoly_a.coeffs[2] == r.lpoly_b.coeffs[2]

    def test_squared_trace_moments_equal(self, genus2_pair):
        report = scan_pair(*genus2_pair, 5, 30, depth="full")
        rows = moment_stats(report, [(2, 0)])
        assert rows[0]["abs_diff"] == 0.0

    def test_moment_validation(self, genus2_pair):
        report = scan_pair(*genus2_pair, 3, 10, depth="full")
        with pytest.raises(ValueError):
            moment_stats(report, [(1, 2, 3)])
