"""Exact arithmetic mod p: symbols, polynomials, and small extension fields.

Polynomials over F_p are coefficient lists in ascending degree with
coefficients reduced to [0, p) and no trailing zeros ([] is the zero
polynomial).  ``equal_factor_degrees`` gives the common degree of the
irreducible factors of one integer polynomial mod each of many primes,
computing x^p for a block of primes modulo their product.  Extension
fields F_{p^i} are F_p[t]/(m(t)) for a monic irreducible m found by a
deterministic scan, so equal (p, i) always produce the same field and all
derived output is reproducible.

Everything here is pure and exact; p = 2 is rejected throughout because
the curve-counting layer assumes odd characteristic.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence

from .errors import NotGaloisConsistentError
from .values import FrozenValue

# Cap on the field characteristic accepted by FieldSpec.  The counting
# kernels accumulate sums of up to ~8 products of residues in signed
# 64-bit integers, so p < 2^25 keeps every intermediate below 2^54.
MAX_FIELD_CHAR = 1 << 25

# Miller-Rabin to the first thirteen prime bases is exact below psi_13,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017); the bases 2..37 alone are exact only below psi_12.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # psi_13


@functools.lru_cache(maxsize=1 << 15)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < psi_13 = 3317044064679887385961981.

    At or above psi_13 it raises ValueError instead of guessing.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_primes(lo: int, hi: int) -> list[int]:
    """All odd primes p with lo <= p <= hi, ascending (sieve)."""
    if hi < 3:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(range(q * q, hi + 1, q))
    return [p for p in range(max(lo, 3) | 1, hi + 1, 2) if sieve[p]]


def prime_divisors(n: int) -> list[int]:
    """The distinct prime divisors of n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p={p} is not an odd prime")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} via the Euler criterion."""
    _require_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for nonzero d and odd positive n.

    For odd n this is the Jacobi symbol, completely multiplicative in n,
    and equal to legendre(d, n) for prime n not dividing d.
    """
    if d == 0:
        raise ValueError("kronecker symbol undefined for d=0")
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n={n} must be odd and positive")
    a = d % n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# polynomials over F_p
# ---------------------------------------------------------------------------
#
# The one implementation of polynomial arithmetic.  These helpers take
# coefficient sequences with entries in [0, p) and return fresh canonical
# lists; is_irreducible runs them on the coefficients of a PolyModP, the
# checked (p, coefficients) value the package passes around.  Nothing in
# them needs p to be prime except _monic and _gcd (which invert), so
# _divmod and _powmod also work modulo a product of primes.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _addmul(a, b, c: int, p: int) -> list[int]:
    """a + c*b."""
    out = list(a) + [0] * (len(b) - len(a))
    for k, bk in enumerate(b):
        out[k] = (out[k] + c * bk) % p
    return _trim(out)


def _mul(a, b, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for j, aj in enumerate(a):
        if aj:
            for k, bk in enumerate(b):
                out[j + k] += aj * bk
    return _trim([c % p for c in out])


def _divmod(a, m, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic m.

    Each step subtracts a multiple of m's nonzero lower coefficients only;
    entries are reduced mod p when they are read as a quotient digit and
    once at the end.
    """
    dm = len(m) - 1
    rem = list(a)
    if len(rem) <= dm:
        return [], _trim(rem)
    taps = [(k, mk) for k, mk in enumerate(m[:-1]) if mk]
    quo = [0] * (len(rem) - dm)
    for shift in range(len(rem) - 1 - dm, -1, -1):
        c = rem[shift + dm] % p
        if c:
            quo[shift] = c
            for k, mk in taps:
                rem[shift + k] -= c * mk
    return _trim(quo), _trim([r % p for r in rem[:dm]])


def _mulmod(a, b, m, p: int) -> list[int]:
    return _divmod(_mul(a, b, p), m, p)[1]


def _monic(a, p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _gcd(a, b, p: int) -> list[int]:
    """Monic gcd; the gcd of two zero polynomials is zero."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _powmod(a, e: int, m, p: int) -> list[int]:
    """a^e mod a monic m, by left-to-right square and multiply.

    Multiplying by a itself each time keeps the cheap factor short when a
    is short, as x is for the Frobenius columns.
    """
    a = _divmod(a, m, p)[1]
    result = _divmod([1], m, p)[1]
    for bit in bin(e)[2:]:
        result = _mulmod(result, result, m, p)
        if bit == "1":
            result = _mulmod(result, a, m, p)
    return result


def _frobenius_columns(xp, m, p: int) -> list[list[int]]:
    """x^(kp) mod a monic m for k < deg m, given xp = x^p mod m: the matrix of a -> a^p mod m."""
    cols = [[1]]
    for _ in range(2, len(m)):
        cols.append(_mulmod(cols[-1], xp, m, p))
    return cols


def _frobenius(a, cols: list[list[int]], p: int) -> list[int]:
    """a^p mod m for a reduced mod m, given m's Frobenius columns.

    a^p = sum a_k x^(kp) because a_k^p = a_k in F_p, so raising to the
    p-th power is one matrix-vector product.
    """
    out = [0] * len(cols)
    for ak, col in zip(a, cols):
        if ak:
            for t, c in enumerate(col):
                out[t] += ak * c
    return _trim([v % p for v in out])


class PolyModP(FrozenValue):
    """Polynomial over F_p, coefficients ascending, canonical form."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        _require_odd_prime(p)
        self._set(p, tuple(_trim([c % p for c in coeffs])))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1


# Primes per block in _xp_by_blocks.  One powmod modulo the product M of a
# block replaces one powmod per prime; larger blocks make the coefficients
# (about 17 * _XP_BLOCK bits near p = 10^5) and each gap step dearer.
_XP_BLOCK = 32


def _xp_by_blocks(h, primes: Sequence[int]) -> Iterator[list[int]]:
    """x^p mod (h, p) for each of the ascending primes, for a monic integer h.

    For each block of consecutive primes with product M, one powmod gives
    x^(p_first) mod (h, M); each next prime follows from the one before
    by multiplying by x^gap and reducing by h mod M.  Division by a monic
    h is exact over Z/M, and reducing mod p is a ring map from Z/M to F_p,
    so reducing the coefficients mod p gives x^p mod (h, p).  Lazy: a
    block is computed when its first prime is reached.
    """
    for lo in range(0, len(primes), _XP_BLOCK):
        block = primes[lo : lo + _XP_BLOCK]
        M = math.prod(block)
        hM = [c % M for c in h]
        r = _powmod([0, 1], block[0], hM, M)
        prev = block[0]
        for p in block:
            if p != prev:
                r = _divmod([0] * (p - prev) + r, hM, M)[1]
                prev = p
            yield _trim([c % p for c in r])


def _frobenius_order(hc, xp, p: int) -> int | None:
    """The common degree of the irreducible factors of a monic h, squarefree mod p.

    ``xp`` is x^p mod h.  The least j with x^(p^j) = x mod h is the least
    common multiple of the factor degrees, so it is the common degree f
    when they are equal, and then gcd(h, x^(p^(f/l)) - x) = 1 for every
    prime l | f.  Each x^(p^j) mod h follows from the previous one through
    the Frobenius matrix of h.  Returns None when no j <= deg h fits or a
    gcd is nontrivial: the degrees are unequal.
    """
    x = _divmod([0, 1], hc, p)[1]  # x itself once deg h >= 2
    if xp == x:
        return 1
    cols = _frobenius_columns(xp, hc, p)
    frob = [x, xp]  # frob[j] = x^(p^j) mod h
    while frob[-1] != x and len(frob) < len(hc):
        frob.append(_frobenius(frob[-1], cols, p))
    f = len(frob) - 1
    # frob[f] != x here means no j <= deg h fits: the lcm exceeds deg h
    if frob[f] != x or any(
        len(_gcd(hc, _addmul(frob[f // ell], x, p - 1, p), p)) != 1 for ell in prime_divisors(f)
    ):
        return None
    return f


def equal_factor_degrees(h: Sequence[int], primes: Sequence[int]) -> Iterator[int]:
    """The common degree of the irreducible factors of h mod p, for each prime.

    ``h`` is a monic integer polynomial of degree >= 1 (ascending
    coefficients) and ``primes`` are ascending odd primes at which h is
    squarefree mod p; callers rule out the primes dividing disc(h) first.
    One value is yielded per prime, lazily, so everything yielded before a
    failure stands.  Raises NotGaloisConsistentError at the first prime
    where the factor degrees are not all equal.
    """
    h = tuple(h)
    if len(h) < 2 or h[-1] != 1:
        raise ValueError(f"polynomial {h} must be monic of degree >= 1")
    for p, prev in zip(primes, [2, *primes]):
        _require_odd_prime(p)
        if p <= prev:
            raise ValueError("primes must be ascending")
    for p, xp in zip(primes, _xp_by_blocks(h, primes)):
        f = _frobenius_order([c % p for c in h], xp, p)
        if f is None:
            raise NotGaloisConsistentError(
                f"polynomial {h} has irreducible factors of unequal degrees mod {p}"
            )
        yield f


def is_irreducible(h: PolyModP) -> bool:
    """Rabin's irreducibility test for monic h of degree >= 1."""
    n = h.degree
    if n < 1 or not h.is_monic:
        return False
    if n == 1:
        return True
    p, hc = h.p, h.coeffs
    cols = _frobenius_columns(_powmod([0, 1], p, hc, p), hc, p)
    x = [0, 1]
    frob = [x]  # frob[j] = x^(p^j) mod h
    for _ in range(n):
        frob.append(_frobenius(frob[-1], cols, p))
    if frob[n] != x:
        return False
    return all(
        len(_gcd(hc, _addmul(frob[n // t], x, p - 1, p), p)) == 1 for t in prime_divisors(n)
    )


# ---------------------------------------------------------------------------
# small extension fields
# ---------------------------------------------------------------------------


class FieldSpec(FrozenValue):
    """The field F_{p^degree}, with a defining modulus when degree > 1."""

    __slots__ = ("p", "degree", "modulus")

    def __init__(self, p: int, degree: int, modulus: PolyModP | None = None):
        _require_odd_prime(p)
        if p >= MAX_FIELD_CHAR:
            raise ValueError(f"p={p} exceeds the supported cap {MAX_FIELD_CHAR}")
        if degree < 1:
            raise ValueError("field degree must be >= 1")
        if degree == 1:
            if modulus is not None:
                raise ValueError("prime fields carry no modulus")
        else:
            if modulus is None or modulus.p != p or modulus.degree != degree or not modulus.is_monic:
                raise ValueError("modulus must be monic of the stated degree")
            if not is_irreducible(modulus):
                raise ValueError(f"modulus {modulus.coeffs} is reducible mod {p}")
        self._set(p, degree, modulus)

    @property
    def order(self) -> int:
        return self.p**self.degree


@functools.lru_cache(maxsize=256)
def build_extension(p: int, i: int) -> FieldSpec:
    """F_{p^i} with the first irreducible modulus in the deterministic scan.

    Candidates are monic degree-i polynomials ordered by their non-leading
    coefficient vector read as a little-endian base-p counter, so the same
    (p, i) always yields the same modulus.
    """
    if i == 1:
        return FieldSpec(p, 1, None)
    _require_odd_prime(p)
    for v in range(p**i):
        low = [(v // p**j) % p for j in range(i)]
        cand = PolyModP(p, tuple(low) + (1,))
        if is_irreducible(cand):
            return FieldSpec(p, i, cand)
    raise RuntimeError("unreachable: irreducibles of every degree exist")
