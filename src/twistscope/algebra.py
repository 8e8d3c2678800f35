"""Exact arithmetic mod p: symbols, polynomials, and small extension fields.

Polynomials over F_p are coefficient lists in ascending degree with
coefficients reduced to [0, p) and no trailing zeros ([] is the zero
polynomial).  ``equal_factor_degrees`` gives the common degree of the
irreducible factors of one integer polynomial h mod each of many primes.
For a block of primes with product M it lifts their x^p mod (h, p) to one
X over Z/M by the Chinese remainder theorem, so one Frobenius matrix over
Z/M serves every prime of the block: its powers give the degree, and
their traces (a gcd at p <= deg h) show that the degrees are equal.
Extension fields F_{p^i} are F_p[t]/(m(t)) for a monic irreducible m
found by a deterministic scan, so equal (p, i) always produce the same
field and all derived output is reproducible.

Everything here is pure and exact; p = 2 is rejected throughout because
the curve-counting layer assumes odd characteristic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

from .errors import NotGaloisConsistentError
from .values import FrozenValue

# Cap on the field characteristic, checked by ``_require_below_cap`` for
# FieldSpec and the counting kernels.  The kernels accumulate sums of up
# to ~8 products of residues in signed 64-bit integers, so p < 2^25 keeps
# every intermediate below 2^54.
MAX_FIELD_CHAR = 1 << 25

# Miller-Rabin to the first thirteen prime bases is exact below psi_13,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017); the bases 2..37 alone are exact only below psi_12,
# and 2, 3, 5, 7 below psi_4 (Pomerance, Selfridge and Wagstaff, Math.
# Comp. 35, 1980), far above every counted p.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # psi_13
_MR_PSI_4 = 3215031751  # the first four bases suffice below it
_TRIAL_BELOW = 1 << 16  # prime_divisors: trial division beats a Miller-Rabin test below it


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < psi_13 = 3317044064679887385961981.

    Below psi_4 = 3215031751 it tests the bases 2, 3, 5, 7 only.  At or
    above psi_13 it raises ValueError instead of guessing.
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
    for a in _MR_BASES[:4] if n < _MR_PSI_4 else _MR_BASES:
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
    # 1 marks a composite.  Too large a range fails here with a bare MemoryError;
    # bytearray([1]) * n would also print a SystemError on CPython 3.11.
    sieve = bytearray(hi + 1)
    for q in range(2, int(hi**0.5) + 1):
        if not sieve[q]:
            sieve[q * q :: q] = b"\x01" * len(range(q * q, hi + 1, q))
    return [p for p in range(max(lo, 3) | 1, hi + 1, 2) if not sieve[p]]


def prime_divisors(n: int) -> list[int]:
    """The distinct prime divisors of n >= 1, ascending, by trial division.

    Division stops at a prime cofactor in [2^16, psi_13), where
    ``is_prime`` is exact and cheaper than dividing up to its root.
    """
    out, d = [], 2
    done = _TRIAL_BELOW <= n < _MR_EXACT_BELOW and is_prime(n)
    while d * d <= n and not done:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            done = _TRIAL_BELOW <= n < _MR_EXACT_BELOW and is_prime(n)
        d += 1
    return out + [n] if n > 1 else out


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p={p} is not an odd prime")


def _require_below_cap(p: int) -> None:
    if p >= MAX_FIELD_CHAR:
        raise ValueError(f"p={p} exceeds the supported cap {MAX_FIELD_CHAR}")


def _sum_period(coeffs: Sequence[int], p: int, i: int) -> int | None:
    """The shape of f mod p over F_q, q = p^i: the period d of its character sum, or None when the sum is 0.

    The one shape analysis of a (f, p, i) unit.  Let r be the least
    exponent of f mod p (r = 0 when f(0) != 0), m = q - 1 and d = gcd(m,
    e - r over f's exponents e).  Then f = x^r u(x^d) on F_q^*, and
    zeta = g^(m/d), g a generator, gives f(zeta x) = zeta^r f(x) with
    chi(zeta^r) = (-1)^(r m/d) (Weil, Bull. AMS 55, 1949).  When r m/d is
    odd, x and zeta x cancel and sum_x chi(f(x)) = 0: None.  Otherwise
    the sum over F_q^* is d times its sum over x = g^k, k < m/d, and d is
    returned; a dense f has d = 1.
    """
    m = p**i - 1
    r, d = None, m  # f = 0 reads as r = 0: no term, no cancellation
    for e, c in enumerate(coeffs):
        if c % p:
            if r is None:
                r = e
            else:
                d = math.gcd(d, e - r)
    return d if r is None or r * (m // d) % 2 == 0 else None


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
# them needs p to be prime except _monic and _gcd (which invert), so the
# others also work modulo a product of primes.


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


# Primes per block in equal_factor_degrees.  One powmod and one Frobenius
# matrix modulo the product M of a block replace one of each per prime;
# larger blocks make the coefficients (about 17 * _XP_BLOCK bits near
# p = 10^5) and each gap step dearer.
_XP_BLOCK = 32


def _ascending_odd_primes(primes: Iterable[int]) -> list[int]:
    """``primes`` as a list, or ValueError unless they are ascending odd primes."""
    primes = list(primes)
    for p, prev in zip(primes, [2, *primes]):
        _require_odd_prime(p)
        if p <= prev:
            raise ValueError("primes must be ascending")
    return primes


def _lifted_xp(hM, block: Sequence[int], M: int) -> list[int]:
    """X mod a monic hM over Z/M with X = x^p mod (h, p) for each p of the block.

    M is the product of the block's distinct primes.  One powmod gives
    x^(p_first) mod (h, M); each next prime follows from the one before by
    multiplying by x^gap and reducing by h mod M.  Division by a monic h is
    exact over Z/M and reducing mod p is a ring map from Z/M to F_p, so each
    of these reduces mod its own p to x^p mod (h, p); the Chinese remainder
    theorem combines those residues into X.
    """
    r = _powmod([0, 1], block[0], hM, M)
    X = [0] * (len(hM) - 1)
    prev = block[0]
    for p in block:
        if p != prev:
            r = _divmod([0] * (p - prev) + r, hM, M)[1]
            prev = p
        rest = M // p
        unit = rest * pow(rest, -1, p)  # 1 mod p, 0 mod the block's other primes
        for k, c in enumerate(r):
            X[k] += c % p * unit
    return _trim([c % M for c in X])


def _block_degrees(h, block: Sequence[int]) -> list[int | None]:
    """The common factor degree of a monic h at each prime of a block, None where mixed.

    The columns X^m mod (h, M), m < n = deg h, form a matrix Q over Z/M,
    and Q reduces mod each prime p of the block to the Frobenius (Berlekamp
    Q) matrix of h mod p, so Q^k gives x^(p^k) mod (h, p) for all of them
    at once.  x^(p^k) = x mod (h, p) exactly when every factor degree
    divides k, so the least such divisor f of n is the common degree when
    the degrees are equal, and when no divisor fits they are not.  On
    F_p[x]/(h), a product of fields F_(p^d_i), the trace of Frobenius^k
    is the sum of the d_i dividing k, an integer in [0, n].  So for p > n
    the degrees all equal f exactly when tr(Q^(f/l)) = 0 mod p for each
    prime l | f; for p <= n, gcd(h, x^(p^(f/l)) - x) = 1 decides instead.
    """
    n = len(h) - 1
    if n == 1:
        return [1] * len(block)
    M = math.prod(block)
    hM = [c % M for c in h]
    Q = _frobenius_columns(_lifted_xp(hM, block, M), hM, M)
    x = [0, 1]
    frob = [x, Q[1]]  # frob[k] = x^(p^k), lifted: column 1 of Q^k
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    traces: dict[int, int] = {}

    def trace(k):  # tr(Q^k); the columns of Q^k are the powers of x^(p^k)
        if k not in traces:
            cols = _frobenius_columns(frob[k], hM, M) if k > 1 else Q
            traces[k] = sum(col[m] for m, col in enumerate(cols) if m < len(col)) % M
        return traces[k]

    degrees: list[int | None] = []
    for p in block:
        for f in divisors:
            while len(frob) <= f:
                frob.append(_frobenius(frob[-1], Q, M))
            if _trim([c % p for c in frob[f]]) == x:
                break
        else:
            degrees.append(None)
            continue
        if p > n:
            equal = all(trace(f // ell) % p == 0 for ell in prime_divisors(f))
        else:
            hp = [c % p for c in h]
            equal = all(
                len(_gcd(hp, _addmul([c % p for c in frob[f // ell]], x, p - 1, p), p)) == 1
                for ell in prime_divisors(f)
            )
        degrees.append(f if equal else None)
    return degrees


def _equal_degrees(h: tuple[int, ...], primes: list[int]) -> Iterator[int]:
    """``equal_factor_degrees`` for a monic h and ascending odd primes already checked."""
    for lo in range(0, len(primes), _XP_BLOCK):
        block = primes[lo : lo + _XP_BLOCK]
        for p, f in zip(block, _block_degrees(h, block)):
            if f is None:
                raise NotGaloisConsistentError(
                    f"polynomial {h} has irreducible factors of unequal degrees mod {p}"
                )
            yield f


def equal_factor_degrees(h: Sequence[int], primes: Sequence[int]) -> Iterator[int]:
    """The common degree of the irreducible factors of h mod p, for each prime.

    ``h`` is a monic integer polynomial of degree >= 1 (ascending
    coefficients) and ``primes`` are ascending odd primes at which h is
    squarefree mod p; callers rule out the primes dividing disc(h) first.
    Degrees are computed a block of primes at a time and yielded one per
    prime, so everything yielded before a failure stands.  Raises
    NotGaloisConsistentError at the first prime where the factor degrees
    are not all equal.
    """
    h = tuple(h)
    if len(h) < 2 or h[-1] != 1:
        raise ValueError(f"polynomial {h} must be monic of degree >= 1")
    return _equal_degrees(h, _ascending_odd_primes(primes))


def is_irreducible(h: PolyModP) -> bool:
    """Whether h is monic, of degree n >= 1, and irreducible mod p.

    That is, all of its factors have degree n: a repeated factor makes
    x^(p^f) != x mod h for every f, so ``_block_degrees`` gives it None.
    """
    return h.is_monic and h.degree >= 1 and _block_degrees(h.coeffs, [h.p]) == [h.degree]


# ---------------------------------------------------------------------------
# small extension fields
# ---------------------------------------------------------------------------


class FieldSpec(FrozenValue):
    """The field F_{p^degree}, with a defining modulus when degree > 1."""

    __slots__ = ("p", "degree", "modulus")

    def __init__(self, p: int, degree: int, modulus: PolyModP | None = None):
        _require_odd_prime(p)
        _require_below_cap(p)
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
