import math
import random
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twistscope import kernels
from twistscope.algebra import (
    FieldSpec,
    PolyModP,
    _powmod,
    _sum_period,
    build_extension,
    is_irreducible,
    odd_primes,
    prime_divisors,
)
from twistscope.cache import UNCACHED
from twistscope.curvecount import (
    BadReduction,
    CurveModel,
    LPolynomial,
    _char_sum,
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

    def test_bad_primes_refuse_an_undecidable_cofactor(self):
        # disc(x^5 + 1000003x + 1) leaves a cofactor near 5.0e30 after trial
        # division, past the range is_prime decides
        with pytest.raises(ValueError, match="pass the bad-prime support explicitly"):
            odd_bad_primes(curve_from_coeffs((1, 1000003, 0, 0, 0, 1)))

    def test_reduction_matches_gcd_oracle(self):
        # bad reduction exactly where gcd(f, f') mod p is not constant, for
        # crafted and random squarefree curves of genus 1-4 and every odd p <= 200
        rng = random.Random(7)
        crafted = [(3, 0, 0, 1), (2, 1, 0, 1), (0, -1, 0, 0, 0, 1), (5, 1, 3, 0, 0, 1)]
        randoms = [
            tuple(rng.randint(-6, 6) for _ in range(2 * g + 1)) + (1,)
            for g in (1, 2, 3, 4)
            for _ in range(10)
        ]
        bad_seen = 0
        for coeffs in crafted + randoms:
            if not oracles.squarefree_mod(coeffs, 10**9 + 7):  # repeated root over Q
                continue
            curve = curve_from_coeffs(coeffs)
            for p in odd_primes(3, 200):
                bad = isinstance(reduce_curve(curve, p), BadReduction)
                assert bad == (not oracles.squarefree_mod(coeffs, p)), (coeffs, p)
                bad_seen += bad
        assert bad_seen > 20


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

    def test_kernels_agree_with_oracle(self):
        rng = random.Random(11)
        for p, i in [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (11, 1), (13, 1)]:
            spec = build_extension(p, i)
            for _ in range(3):
                deg = rng.choice([3, 5, 7])
                coeffs = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
                got = p**i + 1 + affine_char_sum(PolyModP(p, coeffs), spec)
                assert got == oracles.count_points(coeffs, p, i), (coeffs, p, i)

    def test_rejects_mismatched_characteristic(self):
        from twistscope.algebra import PolyModP

        with pytest.raises(ValueError):
            affine_char_sum(PolyModP(3, (0, 1)), build_extension(5, 1))

    def test_chi_table_marks_the_squares(self):
        chi = kernels._chi_table(13)
        squares = {x * x % 13 for x in range(1, 13)}
        assert chi.tolist() == [0] + [1 if v in squares else -1 for v in range(1, 13)]


# f over Z, ascending: sparse and dense models of genus 2, 3 and 4.  Each has
# f(0) != 0 and a nonzero coefficient that vanishes mod 3, 5 or 7.
KERNEL_POLYS = [
    (2, 15, 0, 0, 0, 1),  # x^5 + 15x + 2
    (6, 5, 4, 3, 2, 1),  # x^5 + 2x^4 + 3x^3 + 4x^2 + 5x + 6
    (4, 0, 0, 21, 0, 0, 0, 1),  # x^7 + 21x^3 + 4
    (1, 7, -1, 5, 3, -2, 1, 1),
    (1, 35, 0, 0, 0, 0, 0, 0, 0, 1),  # x^9 + 35x + 1
    (3, 1, 4, 1, 5, 9, 2, 6, 5, 1),
]
KERNEL_FIELDS = [(p, i) for p in (3, 5, 7) for i in (2, 3, 4)]


class TestLogTableKernel:
    @pytest.mark.parametrize("p,i", KERNEL_FIELDS)
    def test_matches_enumeration_oracle(self, p, i):
        assert p**i <= kernels._TABLE_MAX_ORDER  # the log-table path
        spec = build_extension(p, i)
        for f in KERNEL_POLYS:
            got = p**i + 1 + affine_char_sum(PolyModP(p, f), spec)
            assert got == oracles.count_points(f, p, i), (f, p, i)

    def test_norm_kernel_above_the_cap(self, monkeypatch):
        # no workload reaches the norm kernel; a lowered cap routes these
        # fields through it, and the sums must not move
        want = {
            (p, i, f): affine_char_sum(PolyModP(p, f), build_extension(p, i))
            for p, i in KERNEL_FIELDS
            for f in KERNEL_POLYS
        }

        def no_tables(coeffs, p, i):
            raise AssertionError("log tables used above the cap")

        monkeypatch.setattr(kernels, "_TABLE_MAX_ORDER", 8)
        monkeypatch.setattr(kernels, "_char_sum_logs", no_tables)
        for (p, i, f), s in want.items():
            assert affine_char_sum(PolyModP(p, f), build_extension(p, i)) == s, (f, p, i)

    @pytest.mark.parametrize("p,i", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3)])
    def test_exp_log_inverse_bijections(self, p, i):
        # the tables live on their own field F_p[x]/(h), h the primitive
        # modulus, in the coordinates y -> (L(y), L(ty), ..., L(t^(i-1) y)),
        # L(y) = coordinate 0 of y; build_extension's modulus plays no part
        spec = FieldSpec(p, i, PolyModP(p, (*kernels._primitive_modulus(p, i), 1)))
        q = spec.order
        exp, log = kernels._exp_log_tables(p, i)
        assert exp.dtype == log.dtype == np.int32
        assert sorted(exp.tolist()) == list(range(1, q))  # exp: Z/(q-1) -> F_q^*, onto
        assert (log[exp] == np.arange(q - 1)).all()
        assert (exp[log[1:]] == np.arange(1, q)).all()
        assert log[0] == -1

        t = oracles.element(spec, [0, 1])
        t_pows = [t**j for j in range(i)]

        def code(y):
            return sum((tj * y).coeffs[0] * p**j for j, tj in enumerate(t_pows))

        y = oracles.one(spec)
        for k in range(q - 1):  # exp[k] is t^k, so exp[k + 1] = exp[k] * t
            assert exp[k] == code(y), k
            y = y * t
        assert y == oracles.one(spec)
        assert [code(oracles.element(spec, [c])) for c in range(p)] == list(range(p))

    def test_table_ranges_fit_their_dtypes(self):
        # logs are int32 in [0, q - 1); the recurrence sums i products below
        # p^2, under i*p^2 <= 2q, in int32; a term's exponent e*k, with e
        # reduced mod q - 1, plus a log stays below q^2 in int64
        cap = kernels._TABLE_MAX_ORDER
        assert 2 * cap <= np.iinfo(np.int32).max
        for p in odd_primes(3, math.isqrt(cap)):
            for i in range(2, 23):
                if p**i <= cap:
                    assert i * (p - 1) ** 2 <= 2 * p**i, (p, i)
        assert cap * cap <= np.iinfo(np.int64).max

    def test_largest_table_field_of_degree_2(self):
        # p = 2887 is the largest prime with p^2 <= the cap, where the
        # recurrence's int32 sums come closest to overflow; the build's own
        # permutation check runs, and a few codes are recomputed from t^n
        p = 2887
        assert p**2 <= kernels._TABLE_MAX_ORDER < 2897**2  # 2897: the next prime
        h = [*kernels._primitive_modulus(p, 2), 1]
        exp, _ = kernels._exp_log_tables(p, 2)

        def coord0(n):
            return (_powmod([0, 1], n, h, p) or [0])[0]

        for k in (0, 1, 2, 12345, p**2 - 3, p**2 - 2):
            assert exp[k] == coord0(k) + coord0(k + 1) * p, k

    def test_non_primitive_modulus_is_an_arithmetic_error(self, monkeypatch):
        # x^2 + 1 is irreducible mod 3 but t^4 = 1: the powers of t cover
        # 4 of the 8 units, and the permutation check must see it
        assert is_irreducible(PolyModP(3, (1, 0, 1)))
        monkeypatch.setattr(kernels, "_primitive_modulus", lambda p, i: (1, 0))
        with pytest.raises(ArithmeticError, match="modulus not primitive"):
            kernels._field_tables(3, 2)

    def test_genus4_count_at_47(self, genus4_pair):
        assert point_count(genus4_pair[0], 47, 4) == 4862010

    def test_point_count_builds_no_modulus(self, monkeypatch):
        # every kernel reads only p and i: the extension-field kernels find
        # their own primitive modulus, so no count builds a FieldSpec or
        # tests a modulus for irreducibility, over log tables or, with the
        # cap lowered, through the norm kernel
        f = KERNEL_POLYS[4]  # x^9 + 35x + 1
        want = [oracles.count_points(f, 7, i) for i in (1, 2, 3, 4)]

        def refuse(*args):
            raise AssertionError("a count built a modulus")

        monkeypatch.setattr("twistscope.algebra.build_extension", refuse)
        monkeypatch.setattr("twistscope.algebra.is_irreducible", refuse)
        assert not hasattr(kernels, "build_extension")  # no name the patches above miss
        assert [point_count(curve_from_coeffs(f), 7, i) for i in (1, 2, 3, 4)] == want

        def no_tables(coeffs, p, i):
            raise AssertionError("log tables used above the cap")

        monkeypatch.setattr(kernels, "_TABLE_MAX_ORDER", 8)
        monkeypatch.setattr(kernels, "_char_sum_logs", no_tables)
        assert [point_count(curve_from_coeffs(f), 7, i) for i in (1, 2, 3, 4)] == want

    def test_point_count_through_the_norm_kernel(self, monkeypatch):
        # a lowered cap sends these fields to the norm kernel, which counts
        # over the log tables' primitive modulus; the counts must not move
        curve = curve_from_coeffs(KERNEL_POLYS[4])
        want = [point_count(curve, 7, i) for i in (1, 2, 3, 4)]

        def no_tables(coeffs, p, i):
            raise AssertionError("log tables used above the cap")

        monkeypatch.setattr(kernels, "_TABLE_MAX_ORDER", 8)
        monkeypatch.setattr(kernels, "_char_sum_logs", no_tables)
        assert [point_count(curve, 7, i) for i in (1, 2, 3, 4)] == want


def translate(f, a):
    """Coefficients of f(x + a), ascending."""
    return tuple(sum(c * math.comb(e, k) * a ** (e - k) for e, c in enumerate(f) if e >= k)
                 for k in range(len(f)))


# x^9 + x and x^9 + 16x moved to x + 1: dense, with f(0) != 0 mod 7, so no
# sum cancels and every unit reaches a kernel
TRANSLATED_PAIR = [translate((0, c, 0, 0, 0, 0, 0, 0, 0, 1), 1) for c in (1, 16)]
# (curve of the translated pair, i) in an interleaved order: every field
# F_{7^i} comes back after another field's unit
PAIR_FIELD_ORDER = [(0, 3), (1, 2), (0, 4), (1, 3), (0, 2), (1, 4)]


class TestOneKernelCallPerField:
    """char_sums counts every f of a field in one kernel call, over tables that live for that call."""

    @staticmethod
    def units():
        return [(TRANSLATED_PAIR[c], 7, i, _sum_period(TRANSLATED_PAIR[c], 7, i)) for c, i in PAIR_FIELD_ORDER]

    @staticmethod
    def assert_counts(units, got):
        for k, (f, p, i, _) in enumerate(units):
            assert p**i + 1 + got[k] == oracles.count_points(f, p, i), (f, p, i)

    def test_each_field_is_built_once_per_call(self, monkeypatch):
        real, built = kernels._field_tables, []

        def spy(p, i):
            built.append((p, i))
            return real(p, i)

        monkeypatch.setattr(kernels, "_field_tables", spy)
        units = self.units()
        got = dict(kernels.char_sums(units))
        assert built == [(7, 3), (7, 2), (7, 4)]  # in order of first appearance
        self.assert_counts(units, got)

    def test_an_identical_second_call_builds_again(self, monkeypatch, genus4_pair):
        real, built = kernels._exp_log_tables, []

        def spy(p, i):
            built.append((p, i))
            return real(p, i)

        monkeypatch.setattr(kernels, "_exp_log_tables", spy)
        units = [(f.f_coeffs, 7, 4, _sum_period(f.f_coeffs, 7, 4)) for f in genus4_pair]
        first = list(kernels.char_sums(units))
        assert list(kernels.char_sums(units)) == first
        assert built == [(7, 4), (7, 4)]  # nothing outlived the first call

    def test_tables_are_unreachable_once_the_call_returns(self, monkeypatch):
        real, refs = kernels._field_tables, []

        def spy(p, i):
            tables = real(p, i)
            refs.extend(weakref.ref(t) for t in tables)
            return tables

        monkeypatch.setattr(kernels, "_field_tables", spy)
        list(kernels.char_sums(self.units()))
        assert len(refs) == 6
        assert all(ref() is None for ref in refs)

    def test_norm_kernel_searches_each_modulus_once(self, monkeypatch):
        real, searched = kernels._primitive_modulus, []

        def spy(p, i):
            searched.append((p, i))
            return real(p, i)

        monkeypatch.setattr(kernels, "_TABLE_MAX_ORDER", 8)
        monkeypatch.setattr(kernels, "_field_tables", never)
        monkeypatch.setattr(kernels, "_primitive_modulus", spy)
        units = self.units()
        got = dict(kernels.char_sums(units))
        assert searched == [(7, 3), (7, 2), (7, 4)]
        self.assert_counts(units, got)


def first_primitive_modulus(p, i):
    """Oracle: the first monic h in base-p counter order whose root has order q - 1."""
    q = p**i
    for high_first in product(range(p), repeat=i):
        low = high_first[::-1]  # (h_0, ..., h_(i-1)), h_0 running fastest
        if oracles.naive_factor_degrees(low + (1,), p) != [i]:
            continue
        spec = FieldSpec(p, i, PolyModP(p, low + (1,)))
        t = y = oracles.element(spec, [0, 1])
        order = 1
        while y != oracles.one(spec):
            y, order = y * t, order + 1
        if order == q - 1:
            return low
    raise AssertionError("no primitive modulus")


class TestPrimitiveModulus:
    @pytest.mark.parametrize("p,i", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (3, 4)])
    def test_first_in_counter_order(self, p, i):
        h = kernels._primitive_modulus(p, i)
        assert h == first_primitive_modulus(p, i)
        assert kernels._primitive_modulus(p, i) == h  # deterministic

    @pytest.mark.parametrize(
        "p,i", [(p, i) for p in (3, 5, 7, 11, 13, 17, 19, 23) for i in (2, 3, 4)]
        + [(47, 4), (53, 4), (2027, 2), (3, 12), (3, 14)],
    )
    def test_irreducible_and_t_primitive(self, p, i):
        # every field of a genus-4 scan to 23, and the extremes of the cap;
        # t's order is checked by polynomial powers, not by matrices
        low = kernels._primitive_modulus(p, i)
        assert is_irreducible(PolyModP(p, (*low, 1)))
        h, q = [*low, 1], p**i
        assert _powmod([0, 1], q - 1, h, p) == [1]
        for r in prime_divisors(q - 1):
            assert _powmod([0, 1], (q - 1) // r, h, p) != [1], r


def symmetry(f, q):
    """(d, rD mod 2) of the x^r h(x^d) rule for f over F_q."""
    support = [e for e, c in enumerate(f) if c]
    d = math.gcd(q - 1, *(e - support[0] for e in support))
    return d, support[0] * ((q - 1) // d) % 2


class TestLogSumSymmetry:
    @pytest.mark.parametrize(
        "f,p,i,d,odd",
        [
            ((0, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7, 2, 8, 0),  # x^9 + x: d > 1, rD even
            ((0, 1, 0, 0, 0, 0, 0, 0, 0, 1), 3, 3, 2, 1),  # d even, rD odd: only x = 0
            ((0, 1, 0, 1), 3, 3, 2, 1),  # x^3 + x
            ((0, 1, 0, 2, 0, 0, 0, 1), 7, 3, 2, 1),  # x^7 + 2x^3 + x
            ((1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 7, 2, 3, 0),  # x^9 + 1: r = 0
            ((3, 0, 0, 0, 0, 0, 0, 0, 2), 5, 2, 8, 0),  # 2x^8 + 3: r = 0
            ((0, 0, 0, 0, 0, 1), 3, 2, 8, 1),  # x^5: a monomial, rD odd
            ((0, 0, 0, 0, 3), 5, 2, 24, 0),  # 3x^4
            ((2,), 3, 3, 26, 0),  # a constant
            ((3, 1, 4, 1, 5, 9, 2, 6, 5, 1), 5, 2, 1, 0),  # dense
            ((3, 1, 4, 1, 5, 9, 2, 6, 5, 1), 3, 4, 1, 0),
        ],
    )
    def test_cases_match_enumeration_oracle(self, f, p, i, d, odd):
        assert symmetry(f, p**i) == (d, odd)
        got = p**i + 1 + affine_char_sum(PolyModP(p, f), build_extension(p, i))
        assert got == oracles.count_points(f, p, i)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(p, i) for p in (3, 5, 7, 11, 13) for i in (2, 3, 4) if p**i <= 625]),
        st.integers(0, 3),
        st.integers(1, 12),
        st.lists(st.integers(0, 12), min_size=1, max_size=3),
    )
    def test_structured_f_matches_enumeration_oracle(self, field, r, s, h):
        # f = x^r h(x^s) with h monic of degree 1..3
        p, i = field
        f = [0] * (r + s * len(h) + 1)
        for j, c in enumerate([*h, 1]):
            f[r + s * j] = c
        got = p**i + 1 + affine_char_sum(PolyModP(p, tuple(f)), build_extension(p, i))
        assert got == oracles.count_points(f, p, i)


# sparse f with f(0) = 0: the paper's binomial curves, and x^7 + x^3 (r = 3)
SPARSE_POLYS = [
    (0, -1, 0, 0, 0, 1),  # x^5 - x
    (0, 4, 0, 0, 0, 1),  # x^5 + 4x
    (0, 3, 0, 0, 0, 0, 0, 1),  # x^7 + 3x
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 1),  # x^9 + x
    (0, 0, 0, 1, 0, 0, 0, 1),  # x^7 + x^3
]
RULE_FIELDS = [(p, i) for p in (3, 5, 7, 11, 13) for i in (1, 2, 3)]


def cancels(f, p, i):
    """Oracle for ``_sum_period`` giving None: f mod p has f(0) = 0 and an odd rD under ``symmetry``."""
    f = [c % p for c in f]
    return f[0] == 0 and any(f) and symmetry(f, p**i)[1] == 1


class TestCancellationRule:
    """The direct path's ``_char_sum`` gives 0, before any kernel, for the sums that cancel, and only for them."""

    def test_sparse_f_on_both_sides_of_the_rule(self, monkeypatch):
        # at i = 1, 2 and 3 the rule settles some units and leaves others to
        # the kernels, first the log tables, then with the cap at 8 the norm kernel
        units = [(f, p, i) for p, i in RULE_FIELDS for f in SPARSE_POLYS]
        for i in (1, 2, 3):
            assert {cancels(f, p, j) for f, p, j in units if j == i} == {True, False}, i
        want = [oracles.count_points(f, p, i) for f, p, i in units]
        for cap in (kernels._TABLE_MAX_ORDER, 8):
            monkeypatch.setattr(kernels, "_TABLE_MAX_ORDER", cap)
            for k, (f, p, i) in enumerate(units):
                assert (_sum_period(f, p, i) is None) == cancels(f, p, i), (f, p, i)
                assert p**i + 1 + _char_sum(f, p, i) == want[k], (f, p, i, cap)

    def test_settled_units_reach_no_kernel(self, monkeypatch):
        # x^5 + 7x^2 + x is x^5 + x mod 7, which cancels at i = 1 and 3; read
        # over Z, its exponents 1, 2 and 5 give d = 1 and would not
        f = (0, 1, 7, 0, 0, 1)
        assert symmetry(f, 7) == (1, 0) and symmetry(f, 7**3) == (1, 0)
        for name in ("_horner", "_field_tables", "_primitive_modulus"):
            monkeypatch.setattr(kernels, name, never)
        curve = curve_from_coeffs(f)
        assert [point_count(curve, 7, 1), point_count(curve, 7, 3)] == [7 + 1, 7**3 + 1]
        assert oracles.count_points(f, 7, 1) == 7 + 1
        assert oracles.count_points(f, 7, 3) == 7**3 + 1

    @pytest.mark.parametrize(
        "f",
        [(1, -1, 0, 0, 0, 1),  # x^5 - x + 1: f(0) != 0 mod every p
         KERNEL_POLYS[4],  # x^9 + 35x + 1
         (0, 5, 4, 3, 2, 1),  # dense with f(0) = 0: d = 1 mod every p
         TRANSLATED_PAIR[0]],  # (x + 1)^9 + x + 1
    )
    def test_no_cancellation_off_the_rule(self, f):
        for p, i in RULE_FIELDS:
            assert _sum_period(f, p, i) is not None and not cancels(f, p, i), (p, i)
        units = [(f, p, i, _sum_period(f, p, i)) for p, i in RULE_FIELDS if p**i <= 343]
        for k, s in kernels.char_sums(units):
            _, p, i, _ = units[k]
            assert p**i + 1 + s == oracles.count_points(f, p, i), (p, i)

    def test_log_kernel_refuses_a_sum_that_cancels(self, monkeypatch):
        # x^9 + x over F_9 has d = 8 and r (q - 1)/d = 1: handed that d, with
        # the rule bypassed, the log kernel must not return a guess
        with pytest.raises(ArithmeticError, match="kernel bug"):
            list(kernels.char_sums([((0, 1, 0, 0, 0, 0, 0, 0, 0, 1), 3, 2, 8)]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(p, i) for p in (3, 5, 7, 11, 13) for i in (1, 2, 3) if p**i <= 1331]),
        st.integers(1, 3),
        st.integers(1, 6),
        st.lists(st.integers(-20, 20), min_size=1, max_size=3),
    )
    def test_a_sum_the_rule_settles_is_zero(self, field, r, s, u):
        # f = x^r u(x^s), u monic, with coefficients that may vanish mod p
        p, i = field
        f = [0] * (r + s * len(u) + 1)
        for j, c in enumerate([*u, 1]):
            f[r + s * j] = c
        assert (_sum_period(f, p, i) is None) == cancels(f, p, i)
        if cancels(f, p, i):
            assert oracles.count_points(f, p, i) == p**i + 1


# the largest prime below MAX_FIELD_CHAR = 2^25, where int64 headroom is tightest.
# EDGE_P^4 is beyond the q < 2^62 that the primitive-modulus search serves, so
# these fields take build_extension's modulus; i = 3 is left out, since
# p = 2 mod 3 makes build_extension scan ~p reducible x^3 + a
EDGE_P = 33554393


def check_norm_matrices(spec):
    """The norm kernel's constants for spec's modulus match the oracle's powers of t and x^p."""
    p, i = spec.p, spec.degree
    red, frob = kernels._norm_matrices(spec.modulus.coeffs[:-1], p)
    t = oracles.element(spec, [0, 1])
    for j, row in enumerate(red.tolist()):
        assert tuple(row) == (t ** (i + j)).coeffs
    rng = random.Random(i)
    for _ in range(3):
        x = oracles.element(spec, [rng.randrange(p) for _ in range(i)])
        got = frob @ np.array(x.coeffs, dtype=np.int64) % p
        assert tuple(got.tolist()) == (x**p).coeffs


class TestNormKernelHeadroom:
    @pytest.mark.parametrize("i", [2, 4])
    def test_batch_mul_matches_field_elements(self, i):
        spec = build_extension(EDGE_P, i)
        red, _ = kernels._norm_matrices(spec.modulus.coeffs[:-1], EDGE_P)
        rng = np.random.default_rng(i)
        top = np.full((1, i), EDGE_P - 1, dtype=np.int64)
        rand = rng.integers(0, EDGE_P, size=(6, i), dtype=np.int64)
        a = np.vstack((top, top, rand[:3], rand[3:]))
        b = np.vstack((top, rand[:1], top.repeat(3, axis=0), rand[:3]))
        got = kernels._batch_mul(a, b, red, EDGE_P)
        for x, y, xy in zip(a.tolist(), b.tolist(), got.tolist()):
            assert tuple(xy) == (oracles.element(spec, x) * oracles.element(spec, y)).coeffs

    @pytest.mark.parametrize("i", [2, 4])
    def test_norm_matrices_match_field_powers(self, i):
        check_norm_matrices(build_extension(EDGE_P, i))

    def test_largest_field_the_guard_admits(self):
        # 3^39 < 2^62 <= 3^40, so F_{3^39} is the norm kernel's largest i
        p, i = 3, 39
        assert p**i < 1 << 62 <= p ** (i + 1)
        low = kernels._primitive_modulus(p, i)
        spec = FieldSpec(p, i, PolyModP(p, (*low, 1)))
        check_norm_matrices(spec)
        red, _ = kernels._norm_matrices(low, p)
        rng = np.random.default_rng(i)
        top = np.full((1, i), p - 1, dtype=np.int64)
        a = np.vstack((top, rng.integers(0, p, size=(5, i), dtype=np.int64)))
        b = np.vstack((top, top, rng.integers(0, p, size=(4, i), dtype=np.int64)))
        got = kernels._batch_mul(a, b, red, p)
        for x, y, xy in zip(a.tolist(), b.tolist(), got.tolist()):
            assert tuple(xy) == (oracles.element(spec, x) * oracles.element(spec, y)).coeffs

    def test_guard_refuses_before_the_modulus_search(self, monkeypatch):
        monkeypatch.setattr(kernels, "_primitive_modulus", never)
        with pytest.raises(ValueError, match="exceeds the int64 enumeration range"):
            point_count(curve_from_coeffs((0, -1, 0, 0, 0, 1)), 3, 40)

    @pytest.mark.parametrize("p,i", [(2897, 2), (211, 3), (59, 4)])
    def test_norm_matrices_of_the_primitive_modulus(self, p, i):
        # the fields the norm kernel serves first: 2897 is the least p with
        # p^2 above the table cap, 211 and 59 for i = 3 and 4
        assert p**i > kernels._TABLE_MAX_ORDER
        check_norm_matrices(FieldSpec(p, i, PolyModP(p, (*kernels._primitive_modulus(p, i), 1))))


def random_poly(rng, degree, dense, big):
    """f over Z of the given degree, dense or with three terms, with coefficients
    of either sign up to 9 or up to 2^70; the leading one is random too."""
    size = 2**70 if big else 9
    support = range(degree + 1) if dense else [*rng.sample(range(degree), 2), degree]
    coeffs = [0] * (degree + 1)
    for e in support:
        coeffs[e] = rng.randint(-size, size) or 1
    return tuple(coeffs)


def never(*args):
    raise AssertionError("a value of f was computed")


class TestPrimeFieldKernel:
    @staticmethod
    def sums(pairs):
        # as the planner does: a sum that cancels is 0, and the others go to one char_sums call
        units = [(f, p, 1, _sum_period(f, p, 1)) for f, p in pairs]
        counted = [k for k, unit in enumerate(units) if unit[3] is not None]
        out = list(kernels.char_sums([units[k] for k in counted]))
        assert sorted(k for k, _ in out) == list(range(len(counted)))  # each asked pair, once
        return {**dict.fromkeys(range(len(pairs)), 0), **{counted[j]: s for j, s in out}}

    def test_random_polys_across_blocks(self, monkeypatch):
        # with 64-element chunks, the primes below 64 take one chunk and the
        # larger ones several; some (f, p) pairs are not asked
        monkeypatch.setattr(kernels, "_BLOCK", 64)
        rng = random.Random(2024)
        polys = [random_poly(rng, rng.randint(3, 15), dense, big)
                 for dense in (True, False) for big in (True, False) for _ in range(3)]
        pairs = [(f, p) for f in polys for p in odd_primes(3, 150) if rng.random() < 0.6]
        rng.shuffle(pairs)
        got = self.sums(pairs)
        for k, (f, p) in enumerate(pairs):
            assert got[k] == oracles.count_points(f, p, 1) - p - 1, (f, p)

    def test_primes_around_the_block_size(self, genus2_pair):
        # the two primes below _BLOCK take one chunk each, the two above it
        # two chunks each, and 3 and 5 a short chunk each
        below = odd_primes(kernels._BLOCK - 100, kernels._BLOCK)[-2:]
        above = odd_primes(kernels._BLOCK, kernels._BLOCK + 100)[:2]
        primes = [*above, *below, 5, 3]
        entries = UNCACHED.resolve([(curve, p, 1) for p in primes for curve in genus2_pair], 10**5)
        for entry in entries:
            assert entry.counts == [oracles.count_points(entry.curve.f_coeffs, entry.p, 1)], entry
        assert point_count(genus2_pair[1], above[0], 1) == entries[1].counts[0]

    def test_headroom_at_the_largest_prime(self):
        # (x + a)^15 + b permutes F_p when gcd(15, p - 1) = 1, so its sum is 0;
        # expanded, its coefficients are dense and reach 2^1060
        p = EDGE_P
        assert math.gcd(15, p - 1) == 1
        a, b = 2**70 + 12345, -(2**69) - 7
        f = [math.comb(15, k) * a ** (15 - k) for k in range(16)]
        f[0] += b
        x = np.arange(p - kernels._BLOCK, p, dtype=np.int64)  # the largest products
        want = []
        for v in x.tolist():
            acc = 0
            for c in reversed(f):
                acc = (acc * v + c) % p
            want.append(acc)
        assert kernels._horner(tuple(c % p for c in f), x, p).tolist() == want
        assert self.sums([(tuple(f), p)]) == {0: 0}

    # sparse f with their period d at p = 1 mod 48: f = x^r u(x^d) with r (p-1)/d
    # even; x^8 + 3x^4 + 5 has f(0) != 0, so x = 0 adds chi(5)
    PERIODS = [((0, 1, 0, 1), 2),  # x^3 + x
               ((0, 4, 0, 0, 0, 1), 4),  # x^5 + 4x
               ((0, 3, 0, 0, 0, 0, 0, 1), 6),  # x^7 + 3x
               ((0, 1, 0, 0, 0, 0, 0, 0, 0, 1), 8),  # x^9 + x
               ((5, 0, 0, 0, 3, 0, 0, 0, 1), 4)]  # x^8 + 3x^4 + 5

    @pytest.mark.parametrize("block", [64, kernels._BLOCK])
    def test_period_walk_matches_enumeration_and_the_full_walk(self, monkeypatch, block):
        # 97 and 193 take one chunk of g^k, or two at _BLOCK = 64; 8161 and
        # 8209 lie on either side of the default _BLOCK, and at 16417 the
        # period (p - 1)/2 of x^3 + x spans two default chunks
        monkeypatch.setattr(kernels, "_BLOCK", block)
        for p in (97, 193, 8161, 8209, 16417):
            assert (p - 1) % 48 == 0
            polys = [(tuple(c % p for c in f), d) for f, d in self.PERIODS]
            assert [_sum_period(f, p, 1) for f, _ in self.PERIODS] == [d for _, d in self.PERIODS]
            walked = kernels._prime_sums(polys, p)
            assert walked == kernels._prime_sums([(f, 1) for f, _ in polys], p), p
            assert walked == [oracles.count_points(f, p, 1) - p - 1 for f, _ in self.PERIODS], p

    def test_period_walk_at_the_largest_prime(self):
        # EDGE_P = 1 mod 8: x^5 + 4x has d = 4, and its 8,388,598 powers of g
        # give the sum of the walk over all of F_p
        p = EDGE_P
        f = (0, 4, 0, 0, 0, 1)
        assert _sum_period(f, p, 1) == 4
        assert kernels._prime_sums([(f, 4)], p) == kernels._prime_sums([(f, 1)], p)

    def test_bad_prime_in_a_batch_raises_before_counting(self, monkeypatch):
        good, bad = curve_from_coeffs((0, -1, 0, 0, 0, 1)), curve_from_coeffs((3, 0, 0, 0, 0, 1))
        monkeypatch.setattr(kernels, "_horner", never)  # x^5 + 3 is bad at 3 and 5
        with pytest.raises(BadReductionError) as exc:
            UNCACHED.resolve([(good, 7, 1), (good, 11, 1), (bad, 7, 1), (bad, 5, 1)], budget=100)
        assert (exc.value.label, exc.value.p) == (bad.label, 5)

    def test_characteristic_cap_is_checked_before_counting(self, monkeypatch):
        monkeypatch.setattr(kernels, "_horner", never)
        with pytest.raises(ValueError, match="exceeds the supported cap"):
            next(kernels.char_sums([((1, 1, 0, 1), 7, 1, 1), ((1, 1, 0, 1), 33554467, 1, 1)]))


class TestUnitCounts:
    def test_each_prime_is_checked_once(self, genus2_pair, monkeypatch):
        # p is tested where it enters: one Miller-Rabin test per request at
        # one prime (_served), none in resolve, whose callers hand it sieved
        # primes, and none in char_sums
        import twistscope.algebra

        tested = []

        def spy(n):
            tested.append(n)
            return real(n)

        real = twistscope.algebra.is_prime
        monkeypatch.setattr(twistscope.algebra, "is_prime", spy)
        for p in (7, 3, 5):
            counts = UNCACHED.counts(list(genus2_pair), p, 4, 10**4)
            assert counts == [[oracles.count_points(c.f_coeffs, p, i) for i in range(1, 5)] for c in genus2_pair]
        assert tested == [7, 3, 5]
        entries = UNCACHED.resolve([(curve, p, 4) for p in (7, 3, 5) for curve in genus2_pair], 10**4)
        assert tested == [7, 3, 5]
        for entry in entries:
            want = [oracles.count_points(entry.curve.f_coeffs, entry.p, i) for i in range(1, 5)]
            assert entry.counts == want, (entry.curve.label, entry.p)
        units = [(c.f_coeffs, p, i, _sum_period(c.f_coeffs, p, i)) for p in (7, 3, 5) for i in (4, 1, 3, 2)
                 for c in genus2_pair]
        counted = [unit for unit in units if unit[3] is not None]
        assert len(dict(kernels.char_sums(counted))) == len(counted)
        assert tested == [7, 3, 5]

    @pytest.mark.parametrize(
        "unit,error",
        [(((3, 0, 0, 0, 0, 1), 5, 2), BadReductionError),  # x^5 + 3 is bad at 5
         (((0, -1, 0, 0, 0, 1), 33554467, 2), ValueError)],  # the least prime above 2^25
    )
    def test_bad_unit_raises_before_any_kernel(self, monkeypatch, unit, error):
        # the degree-1 units of the request come first, and must not run
        for name in ("_horner", "_field_tables", "_char_sum_norm"):
            monkeypatch.setattr(kernels, name, never)
        good = curve_from_coeffs((0, -1, 0, 0, 0, 1))
        coeffs, p, i = unit
        with pytest.raises(error):
            UNCACHED.resolve([(good, 7, 2), (curve_from_coeffs(coeffs), p, i)], budget=p**3)


def test_point_count_rejects_characteristic_above_cap(monkeypatch):
    monkeypatch.setattr(kernels, "_horner", never)
    # 33554467 is the least prime above MAX_FIELD_CHAR = 2^25
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        point_count(curve_from_coeffs((1, -1, 0, 1)), 33554467, 1)


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
        # the log-table kernel at i = 3, 4 against trial enumeration; the norm
        # kernel is covered by TestLogTableKernel::test_norm_kernel_above_the_cap
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
        L = lpoly_from_counts((8,), 7, 1, "t")
        assert L.coeffs == (1, 0, 7)

    def test_single_newton_step(self):
        L = lpoly_from_counts((9,), 5, 1, "t")
        assert L.coeffs == (1, 3, 5)

    def test_all_power_sums_zero(self):
        L = lpoly_from_counts((6, 26), 5, 2, "t")
        assert L.coeffs == (1, 0, 0, 0, 25)

    def test_non_integral_newton_rejected(self):
        # N_1 = p+1-1, N_2 = p^2+1-1: s = (1,1) forces e_2 = 0 exactly, so
        # tweak N_2 to make e_2 half-integral
        with pytest.raises(InconsistentCountsError):
            lpoly_from_counts((5, 24), 5, 2, "t")

    def test_count_outside_weil_bound_rejected(self):
        with pytest.raises(InconsistentCountsError):
            lpoly_from_counts((16,), 5, 1, "t")

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
                L = lpoly_from_counts(counts, p, g, curve.label)
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
