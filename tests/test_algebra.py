import functools
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    element,
    elements,
    monic_polys,
    naive_factor_degrees,
    one,
    poly_mul,
    quad_char,
    squarefree_mod,
    zero,
)
import twistscope
from twistscope.algebra import (
    FieldSpec,
    PolyModP,
    build_extension,
    equal_factor_degrees,
    is_irreducible,
    is_prime,
    kronecker,
    legendre,
    odd_primes,
    prime_divisors,
)
from twistscope.algebra import _XP_BLOCK, _divmod, _equal_degrees, _gcd, _lifted_xp, _powmod, _trim
from twistscope.errors import NotGaloisConsistentError
from twistscope.splitfield import cyclotomic_residue_degree, default_fields, is_guarded


class TestLegendre:
    @pytest.mark.parametrize("a,p,want", [(1, 3, 1), (2, 3, -1), (0, 5, 0), (4, 7, 1), (-1, 7, -1)])
    def test_values(self, a, p, want):
        assert legendre(a, p) == want

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_rejects_non_odd_primes(self, p):
        with pytest.raises(ValueError):
            legendre(1, p)

    def test_multiplicative_exhaustive(self):
        # exact multiplicativity for all residues coprime to p, p <= 50
        for p in odd_primes(3, 50):
            for a in range(1, p):
                for b in range(1, p):
                    assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)

    def test_counts_residues(self):
        for p in odd_primes(3, 60):
            assert sum(1 for a in range(1, p) if legendre(a, p) == 1) == (p - 1) // 2


class TestKronecker:
    @pytest.mark.parametrize("d,n,want", [(1, 15, 1), (2, 17, 1), (-1, 3, -1), (3, 35, 1), (-2, 9, 1)])
    def test_values(self, d, n, want):
        assert kronecker(d, n) == want

    def test_rejects_zero_d(self):
        with pytest.raises(ValueError):
            kronecker(0, 15)

    @pytest.mark.parametrize("n", [-3, 0, 4, 10])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            kronecker(3, n)

    def test_agrees_with_legendre_at_primes(self):
        for p in odd_primes(3, 60):
            for d in range(-20, 21):
                if d == 0 or d % p == 0:
                    continue
                assert kronecker(d, p) == legendre(d, p)

    @given(
        st.integers(min_value=-30, max_value=30).filter(lambda d: d != 0),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=25),
    )
    def test_multiplicative_in_n(self, d, i, j):
        n1, n2 = 2 * i + 1, 2 * j + 1
        assert kronecker(d, n1 * n2) == kronecker(d, n1) * kronecker(d, n2)


class TestPolyModP:
    def test_canonical_form(self):
        h = PolyModP(5, (6, 0, 10, 0, 0))
        assert h.coeffs == (1,)
        assert PolyModP(5, ()).coeffs == ()

    def test_divmod(self):
        # (x^2 - 1) = (x - 1)(x + 1) mod 5, by the helper every division uses
        q, r = _divmod([4, 0, 1], [4, 1], 5)
        assert r == [] and q == [1, 1]

    def test_gcd_examples(self):
        assert _gcd([4, 0, 1], [4, 1], 5) == [4, 1]  # x^2-1, x-1
        assert _gcd([3, 0, 2], [3, 3], 5) == [1, 1]  # 2(x^2-1), 3(x+1): monic x+1
        assert _gcd([], [], 5) == []

    def test_powmod_examples(self):
        m = [1, 0, 1]  # x^2 + 1 mod 3
        assert _powmod([0, 1], 1, m, 3) == [0, 1]
        assert _powmod([0, 1], 4, m, 3) == [1]  # x^2 = -1, so x^4 = 1


def factor_degree(coeffs, p):
    """equal_factor_degrees at one prime."""
    [degree] = equal_factor_degrees(coeffs, [p])
    return degree


class TestDDF:
    @pytest.mark.parametrize(
        "p,coeffs,want",
        [
            (5, (1, 0, 1), [1]),  # x^2+1 splits mod 5
            (3, (1, 0, 1), [2]),  # x^2+1 inert mod 3
            (3, (1, 0, 0, 0, 1), [2]),  # x^4+1 -> two quadratics mod 3
            (17, (1, 0, 0, 0, 1), [1]),  # x^4+1 splits mod 17
        ],
    )
    def test_examples(self, p, coeffs, want):
        assert list(equal_factor_degrees(coeffs, [p])) == want

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            factor_degree((1, 2), 5)

    def test_rejects_bad_primes(self):
        for primes in ([9], [2], [7, 5]):
            with pytest.raises(ValueError):
                list(equal_factor_degrees((1, 0, 1), primes))

    @pytest.mark.parametrize(
        "p,factors",
        [
            (3, [(0, 1), (1, 0, 1)]),  # x (x^2+1): lcm 2 divides no divisor of degree 3
            (3, [(1, 0, 1), (1, 2, 0, 1)]),  # quadratic times cubic: lcm 6 exceeds degree 5
            # from here the lcm f divides deg h, so x^(p^f) = x and only the
            # trace (p > deg h) or the gcd (p <= deg h) sees the mix
            (5, [(2, 1), (2, 0, 1), (1, 1, 0, 1)]),  # degrees 1, 2, 3: lcm 6 = degree 6
            (11, [(0, 1), (1, 1), (1, 0, 1)]),  # degrees 1, 1, 2
            (11, [(0, 1), (1, 0, 1), (1, 0, 4, 1)]),  # degrees 1, 2, 3
            (13, [(11, 0, 1), (8, 0, 1), (11, 0, 0, 0, 1)]),  # x^2 - 2, x^2 - 5, x^4 - 2
            (13, [(0, 1), (1, 1), (2, 1), (11, 0, 0, 1)]),  # degrees 1, 1, 1, 3
            (3, [(0, 1), (1, 1), (1, 0, 1)]),  # degrees 1, 1, 2
            (5, [(3, 0, 1), (2, 0, 1), (3, 0, 0, 0, 1)]),  # x^2 - 2, x^2 - 3, x^4 - 2
            # the trace of Frobenius is 1 + 1 + 1 = 0 mod 3 here: only the gcd sees it
            (3, [(0, 1), (1, 1), (2, 1), (2, 2, 0, 1)]),
        ],
    )
    def test_mixed_degrees_raise(self, p, factors):
        h = functools.reduce(lambda a, b: poly_mul(a, b, p), factors)
        assert len(set(naive_factor_degrees(h, p))) > 1 and squarefree_mod(h, p)
        with pytest.raises(NotGaloisConsistentError, match="unequal degrees"):
            factor_degree(h, p)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 5]), st.data())
    def test_degrees_match_trial_division(self, p, data):
        # degree 10 checks Frobenius matrices larger than the shipped fields' (8 x 8)
        deg = data.draw(st.integers(min_value=1, max_value=10))
        low = data.draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg))
        h = tuple(low) + (1,)
        if not squarefree_mod(h, p):
            return
        want = set(naive_factor_degrees(h, p))
        if len(want) == 1:
            assert factor_degree(h, p) == want.pop()
        else:
            with pytest.raises(NotGaloisConsistentError):
                factor_degree(h, p)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 5]), st.data())
    def test_equal_degree_products(self, p, data):
        # products of distinct irreducibles of one degree d, degree d*k <= 10
        d = data.draw(st.integers(min_value=1, max_value=5 if p == 3 else 4))
        irreducibles = monic_irreducibles(d, p)
        k = data.draw(st.integers(min_value=1, max_value=min(10 // d, len(irreducibles))))
        chosen = data.draw(st.lists(st.sampled_from(irreducibles), min_size=k, max_size=k, unique=True))
        h = functools.reduce(lambda a, b: poly_mul(a, b, p), chosen)
        assert factor_degree(h, p) == d


@functools.lru_cache(maxsize=None)
def monic_irreducibles(d, p):
    return [g for g in monic_polys(d, p) if naive_factor_degrees(g, p) == [d]]


def lifted_xp(h, primes):
    """x^p mod (h, p) for each prime, read off the lifted X of each block."""
    out = []
    for lo in range(0, len(primes), _XP_BLOCK):
        block = primes[lo : lo + _XP_BLOCK]
        M = math.prod(block)
        X = _lifted_xp([c % M for c in h], block, M)
        out += [_trim([c % p for c in X]) for p in block]
    return out


class TestXpBlocks:
    """The lifted x^p of each block, reduced mod each prime, against one powmod per prime."""

    @staticmethod
    def per_prime(h, primes):
        return [_powmod([0, 1], p, [c % p for c in h], p) for p in primes]

    def test_shipped_fields_to_1e4(self):
        fields = default_fields()
        primes = [p for p in odd_primes(3, 10_000) if not is_guarded(fields, p)]
        for f in fields.values():
            assert lifted_xp(f.defining_poly, primes) == self.per_prime(f.defining_poly, primes), f.name

    def test_random_polynomials(self):
        rng = random.Random(11)
        pool = odd_primes(3, 3000)
        lengths = [1, _XP_BLOCK - 1, _XP_BLOCK, _XP_BLOCK + 1, 2 * _XP_BLOCK + 5]
        for trial in range(40):
            deg = rng.randint(2, 10)
            h = tuple(rng.randint(-10**6, 10**6) for _ in range(deg)) + (1,)
            n = lengths[trial % len(lengths)]
            # the first trials start at 3, below deg h, where x^p needs no reduction
            primes = pool[:n] if trial < len(lengths) else sorted(rng.sample(pool, n))
            assert lifted_xp(h, primes) == self.per_prime(h, primes), (h, primes)

    def test_lazy(self):
        # a block is computed when its first prime is reached, not before
        class FirstBlockOnly(list):
            def __getitem__(self, key):
                if isinstance(key, slice) and key.start:
                    raise AssertionError("a later block was computed")
                return super().__getitem__(key)

        degrees = _equal_degrees((1, 0, 1), FirstBlockOnly(odd_primes(3, 10**4)))
        first = [next(degrees) for _ in range(_XP_BLOCK)]
        assert first[:3] == [2, 1, 2]  # x^2 + 1 is inert at 3 and 7, split at 5
        with pytest.raises(AssertionError, match="later block"):
            next(degrees)


def crt_poly(residues):
    """The monic integer polynomial congruent to each (p, monic h_p) of equal degree."""
    M = math.prod(p for p, _ in residues)
    out = [0] * len(residues[0][1])
    for p, hp in residues:
        unit = M // p * pow(M // p, -1, p)
        out = [c + a * unit for c, a in zip(out, hp)]
    return tuple(c % M for c in out)


class TestLiftedDegrees:
    """Prescribed factor degrees mod p, through the trace rule (p > deg h) and the gcd (p <= deg h)."""

    @staticmethod
    def product(p, degrees, data):
        # distinct monic irreducibles, so the product is squarefree mod p
        factors = []
        for d in sorted(set(degrees)):
            k = degrees.count(d)
            factors += data.draw(
                st.lists(st.sampled_from(monic_irreducibles(d, p)), min_size=k, max_size=k, unique=True)
            )
        return functools.reduce(lambda a, b: poly_mul(a, b, p), factors)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([11, 13, 3, 5]), st.data())
    def test_one_degree(self, p, data):
        # deg h <= 10 < p for 11 and 13; p = 3 and 5 reach deg h >= p
        d = data.draw(st.integers(1, 3 if p > 5 else 4))
        k = data.draw(st.integers(1, min(10 // d, len(monic_irreducibles(d, p)))))
        h = self.product(p, [d] * k, data)
        assert factor_degree(h, p) == d

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([11, 13, 3, 5]), st.data())
    def test_mixed_degrees(self, p, data):
        pair = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
        more = data.draw(st.lists(st.sampled_from(pair), max_size=(10 - sum(pair)) // max(pair)))
        degrees = pair + more  # deg h <= 10
        if any(degrees.count(d) > len(monic_irreducibles(d, p)) for d in pair):
            return  # not enough distinct irreducibles of that degree mod p
        h = self.product(p, degrees, data)
        with pytest.raises(NotGaloisConsistentError, match=f"unequal degrees mod {p}$"):
            factor_degree(h, p)

    def test_several_primes_in_one_block(self):
        # one integer h with equal degrees 2 at 11, mixed degrees at 13 and
        # equal degrees 4 at 17: the block yields 2, then raises at 13
        h11 = poly_mul(monic_irreducibles(2, 11)[0], monic_irreducibles(2, 11)[1], 11)
        h13 = poly_mul(monic_irreducibles(1, 13)[0], monic_irreducibles(3, 13)[0], 13)
        h17 = (3, 0, 0, 0, 1)  # x^4 + 3 is irreducible mod 17
        h = crt_poly([(11, h11), (13, h13), (17, h17)])
        assert list(equal_factor_degrees(h, [11, 17])) == [2, 4]
        degrees = equal_factor_degrees(h, [11, 13, 17])
        assert next(degrees) == 2
        with pytest.raises(NotGaloisConsistentError, match="mod 13$"):
            next(degrees)

    @pytest.mark.parametrize("length", [1, _XP_BLOCK - 1, _XP_BLOCK, _XP_BLOCK + 1])
    def test_mixed_prime_mid_block_yields_every_earlier_degree(self, length):
        # h = x^4 + 1 mod every prime but q, where h = (x - 1)(x - 2)(x^2 - c):
        # the degrees before q are the orders of p mod 8
        primes = odd_primes(3, 1000)[:length]
        for q in sorted({primes[length // 2], primes[-1]}):
            c = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) == q - 1)
            target = poly_mul(poly_mul((q - 1, 1), (q - 2, 1), q), (-c % q, 0, 1), q)
            h = crt_poly([(p, target if p == q else (1, 0, 0, 0, 1)) for p in primes])
            got = []
            with pytest.raises(NotGaloisConsistentError, match=f"mod {q}$"):
                for f in equal_factor_degrees(h, primes):
                    got.append(f)
            assert got == [cyclotomic_residue_degree(8, p) for p in primes[: primes.index(q)]]


class TestExtensions:
    def test_prime_field(self):
        spec = build_extension(3, 1)
        assert spec.modulus is None and spec.order == 3

    @pytest.mark.parametrize("p,i,want", [(3, 2, (1, 0, 1)), (5, 2, (2, 0, 1))])
    def test_scan_examples(self, p, i, want):
        assert build_extension(p, i).modulus.coeffs == want

    def test_deterministic(self):
        a = build_extension(7, 3)
        b = build_extension(7, 3)
        assert a is not b and a.modulus.coeffs == b.modulus.coeffs  # built twice, not memoised

    def test_modulus_is_irreducible(self):
        for p, i in [(3, 4), (7, 2), (11, 2), (3, 8)]:
            assert is_irreducible(build_extension(p, i).modulus)

    @pytest.mark.parametrize("p,max_deg", [(3, 6), (5, 4), (7, 3)])
    def test_irreducible_matches_trial_division(self, p, max_deg):
        # every monic polynomial of each degree, including degree-5 ones
        # with no linear factor (only the x^(p^n) = x check rejects those)
        for deg in range(1, max_deg + 1):
            for low in itertools.product(range(p), repeat=deg):
                h = low + (1,)
                assert is_irreducible(PolyModP(p, h)) == (naive_factor_degrees(h, p) == [deg]), h

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            FieldSpec(5, 2, PolyModP(5, (4, 0, 1)))  # x^2 - 1

    def test_element_arithmetic(self):
        spec = build_extension(3, 2)  # F_9 = F_3[t]/(t^2+1)
        t = element(spec, [0, 1])
        assert (t * t).coeffs == (2, 0)  # t^2 = -1
        assert (t**8).coeffs == (1, 0)


class TestQuadChar:
    def test_zero_and_one(self):
        spec = build_extension(3, 2)
        assert quad_char(zero(spec)) == 0
        assert quad_char(one(spec)) == 1

    def test_generator_is_nonsquare(self):
        spec = build_extension(3, 2)
        gens = [e for e in elements(spec) if not e.is_zero and _order(e, 8) == 8]
        assert gens and all(quad_char(g) == -1 for g in gens)

    @pytest.mark.parametrize("p,i", [(3, 1), (7, 1), (3, 2), (5, 2), (11, 2), (3, 4)])
    def test_exhaustive_square_agreement(self, p, i):
        # chi(e) = +1 exactly on the nonzero squares, checked by squaring all of F_q
        spec = build_extension(p, i)
        squares = {(e * e).coeffs for e in elements(spec) if not e.is_zero}
        for e in elements(spec):
            want = 0 if e.is_zero else (1 if e.coeffs in squares else -1)
            assert quad_char(e) == want


def _order(e, group_order):
    for d in range(1, group_order + 1):
        if group_order % d == 0 and (e**d) == one(e.spec):
            return d
    return group_order


class TestPrimes:
    def test_is_prime_small(self):
        assert [n for n in range(2, 40) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_is_prime_large(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31 - 3)
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7

    def test_is_prime_agrees_with_a_sieve(self):
        # below psi_4 = 3215031751 only the bases 2, 3, 5, 7 run
        hi = 2 * 10**5
        assert [n for n in range(hi) if is_prime(n)] == [2, *odd_primes(3, hi - 1)]

    @pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751])
    def test_is_prime_strong_pseudoprimes(self, n):
        # psi_1..psi_4, the least strong pseudoprimes to the first k prime
        # bases; psi_4 is where the four bases alone would err, so it gets all 13
        assert not is_prime(n)

    def test_is_prime_psi12_is_composite(self):
        # psi_12 is a strong pseudoprime to the bases 2..37; base 41 exposes it
        assert not is_prime(318665857834031151167461)
        assert 318665857834031151167461 == 399165290221 * 798330580441

    def test_is_prime_refuses_from_psi13(self):
        # psi_13 fools the bases 2..41 as well, so is_prime does not answer there
        assert is_prime(3317044064679887385961981 - 2) is False  # divisible by 17
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(3317044064679887385961981)

    def test_odd_primes_range(self):
        assert odd_primes(3, 30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert odd_primes(10, 12) == [11]
        assert len(odd_primes(3, 1000)) == 167

    def test_random_against_factoring(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(2, 10**6)
            naive = all(n % d for d in range(2, int(n**0.5) + 1))
            assert is_prime(n) == naive

    def test_prime_divisors(self):
        assert prime_divisors(1) == []
        assert prime_divisors(2) == [2]
        assert prime_divisors(360) == [2, 3, 5]
        assert prime_divisors(47**4 - 1) == [2, 3, 5, 13, 17, 23]
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randrange(1, 5000)
            assert prime_divisors(n) == [d for d in range(2, n + 1) if n % d == 0 and is_prime(d)]
        assert prime_divisors(3**39 - 1) == [2, 13, 313, 6553, 7333, 797161]
        assert prime_divisors(3 * 5**40) == [3, 5]  # 5^40 is above psi_13: division goes on

    def test_prime_cofactor_ends_trial_division(self):
        # trial division up to sqrt(2^61 - 1) would take minutes
        code = (
            "from twistscope.algebra import prime_divisors\n"
            "from twistscope.twistlab import TwistCharacter\n"
            "assert prime_divisors(3 * (2**61 - 1)) == [3, 2**61 - 1]\n"
            "assert TwistCharacter(-(2**61 - 1)).d == -(2**61 - 1)\n"
        )
        src = str(Path(twistscope.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=10)
