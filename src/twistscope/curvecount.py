"""Hyperelliptic models over Q, point counts over F_{p^i}, and L-polynomials.

Curves are odd-degree monic models y^2 = f(x), deg f = 2g+1, so the
projective closure carries exactly one point at infinity and

    #C(F_q) = q + 1 + sum_x chi(f(x))

with chi the quadratic character of F_q.  The L-polynomial at a good odd
prime p is det(1 - Frob*T) on the Jacobian: degree 2g, integer
coefficients, constant term 1, reciprocal roots of absolute value sqrt(p).
Its first g+1 coefficients are assembled from N_1..N_g by Newton's
identities; the rest follow from the functional equation
a_{2g-j} = p^{g-j} a_j.

Counting is exact integer work throughout.  The inner character sums run
through one vectorized kernel per kind of field, all chunked in numpy:

- F_p: Horner over all x, then a character table of F_p;
- F_{p^i}, i >= 2, q <= _TABLE_MAX_ORDER: discrete-log tables built once
  per field (x = g^k turns each monomial into an index, terms are added
  by Zech logarithms, and chi(y) is the parity of log y);
- larger F_{p^i}: f(x) by repeated squaring in int64, then chi_p of the
  norm to F_p through Frobenius-orbit products.

The field alone picks the kernel.  The test suite checks every kernel
against an independent enumeration oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .algebra import (
    FieldSpec,
    PolyModP,
    build_extension,
    is_prime,
    poly_gcd,
    prime_divisors,
)
from .errors import BadReductionError, InconsistentCountsError

DEFAULT_BUDGET = 200_000_000  # field evaluations per prime
_CHUNK = 1 << 19
# Log tables serve the fields F_{p^i}, i >= 2, of order q <= _TABLE_MAX_ORDER;
# larger extension fields go through the norm kernel.  Logs lie in
# [0, q - 1) and are stored as int32, which needs q - 1 < 2^31.
_TABLE_MAX_ORDER = 1 << 23
_TABLE_BLOCK = 1 << 16  # rows per matrix step while building an exp table


@dataclass(frozen=True)
class CurveModel:
    """Monic odd-degree hyperelliptic model y^2 = f(x) over Q."""

    label: str
    f_coeffs: tuple[int, ...]
    genus: int

    def __post_init__(self):
        deg = len(self.f_coeffs) - 1
        if deg < 3 or deg % 2 == 0:
            raise ValueError(f"f must have odd degree >= 3, got degree {deg}")
        if self.f_coeffs[-1] != 1:
            raise ValueError("f must be monic")
        if self.genus != (deg - 1) // 2:
            raise ValueError("genus must equal (deg f - 1)/2")
        if not _rational_squarefree(self.f_coeffs):
            raise ValueError("f has a repeated root over Q")


def canonical_label(f_coeffs: tuple[int, ...]) -> str:
    """Human form of f, descending terms: 'x^5 - x', 'x^9 + 16x'."""
    parts: list[str] = []
    for k in range(len(f_coeffs) - 1, -1, -1):
        c = f_coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{k}" if mag == 1 else f"{mag}x^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def curve_from_coeffs(f_coeffs) -> "CurveModel":
    """CurveModel with the canonical label for a coefficient vector."""
    coeffs = tuple(int(c) for c in f_coeffs)
    return CurveModel(canonical_label(coeffs), coeffs, (len(coeffs) - 2) // 2)


def poly_discriminant(coeffs: tuple[int, ...]) -> int:
    """Discriminant of a monic integer polynomial, exactly.

    Sylvester resultant of f and f' by fraction-free Bareiss elimination,
    so every intermediate stays an integer.
    """
    f = list(coeffs)
    fp = [k * c for k, c in enumerate(f)][1:]
    n, m = len(f) - 1, len(fp) - 1
    size = n + m
    mat = [[0] * size for _ in range(size)]
    for row in range(m):
        for k, c in enumerate(reversed(f)):
            mat[row][row + k] = c
    for row in range(n):
        for k, c in enumerate(reversed(fp)):
            mat[m + row][row + k] = c
    # Bareiss: exact integer determinant
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if mat[r][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                mat[r][c] = (mat[r][c] * mat[k][k] - mat[r][k] * mat[k][c]) // prev
            mat[r][k] = 0
        prev = mat[k][k]
    res = sign * mat[size - 1][size - 1]
    return res if (n * (n - 1) // 2) % 2 == 0 else -res


def odd_bad_primes(curve: "CurveModel", trial_bound: int = 1_000_000) -> set[int]:
    """Odd primes of bad reduction: odd prime factors of disc(f).

    Factoring runs trial division up to ``trial_bound`` and accepts a
    remaining prime cofactor; a composite cofactor beyond the bound
    raises, since the support would be incomplete.
    """
    d = abs(poly_discriminant(curve.f_coeffs))
    out: set[int] = set()
    while d % 2 == 0:
        d //= 2
    q = 3
    while q * q <= d and q <= trial_bound:
        if d % q == 0:
            out.add(q)
            while d % q == 0:
                d //= q
        q += 2
    if d > 1:
        if not is_prime(d):
            raise ValueError(
                f"cannot factor the discriminant of {curve.label}; "
                "pass the bad-prime support explicitly"
            )
        out.add(d)
    return out


def _rational_squarefree(coeffs: tuple[int, ...]) -> bool:
    # gcd(f, f') over Q via Fraction-exact Euclid; constant gcd <=> squarefree
    a = [Fraction(c) for c in coeffs]
    b = [Fraction(k * c) for k, c in enumerate(coeffs)][1:]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        while len(a) >= len(b) and a:
            c = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k in range(len(b)):
                a[shift + k] -= c * b[k]
            trim(a)
        a, b = b, a
    return len(a) <= 1


@dataclass(frozen=True)
class BadReduction:
    """Marker value: f mod p is not squarefree, the reduction is singular."""

    label: str
    p: int


@dataclass(frozen=True)
class LPolynomial:
    """L-polynomial at p: integer coefficients a_0..a_{2g}, a_0 = 1."""

    p: int
    g: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != 2 * self.g + 1:
            raise ValueError("an L-polynomial of genus g has 2g+1 coefficients")
        if self.coeffs[0] != 1:
            raise ValueError("L-polynomial must have constant term 1")

    def sign_flipped(self) -> "LPolynomial":
        """The polynomial L(-T): odd coefficients negated."""
        return LPolynomial(
            self.p, self.g, tuple(-c if k % 2 else c for k, c in enumerate(self.coeffs))
        )

    @property
    def trace(self) -> int:
        """Frobenius trace: the negated T-coefficient."""
        return -self.coeffs[1]


@dataclass(frozen=True)
class CountVector:
    """Point counts N_i = #C(F_{p^i}) for i = 1..m, infinity included."""

    label: str
    p: int
    counts: tuple[int, ...]


def reduce_curve(curve: CurveModel, p: int) -> PolyModP | BadReduction:
    """f mod p, or a BadReduction marker when the reduction is singular.

    For a monic odd f and odd p, good reduction is exactly squarefreeness
    of f mod p.
    """
    if not _squarefree_mod(curve.f_coeffs, p):
        return BadReduction(curve.label, p)
    return PolyModP(p, curve.f_coeffs)


@functools.lru_cache(maxsize=1 << 15)
def _squarefree_mod(f_coeffs: tuple[int, ...], p: int) -> bool:
    # memoised: a scan tests each (curve, p) before counting, and every
    # count of that (curve, p) asks again
    fbar = PolyModP(p, f_coeffs)
    return poly_gcd(fbar, fbar.derivative()).degree == 0


# ---------------------------------------------------------------------------
# character-sum kernels
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def _chi_table(p: int) -> np.ndarray:
    """chi[v] = quadratic character of v in F_p, built from one squaring pass.

    Memoised for the two curves of a pair, which the backend counts back
    to back over each field; the shared table is read-only.
    """
    chi = np.full(p, -1, dtype=np.int64)
    chi[0] = 0
    v = np.arange(1, p, dtype=np.int64)
    chi[(v * v) % p] = 1
    chi.flags.writeable = False
    return chi


def _batch_mul(a: np.ndarray, b: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    """Rowwise products of (B, i) int64 arrays of F_{p^i} elements, entries in [0, p).

    red[j] is t^(i+j) reduced by the modulus, j = 0..i-2.  Products are
    accumulated without intermediate reduction: an entry sums at most
    2i - 1 terms below p^2 < 2^50 (p < 2^25), inside int64 for every
    i < 40 that the q < 2^62 guard of the norm kernel admits.
    """
    i = a.shape[1]
    prod = np.zeros((a.shape[0], 2 * i - 1), dtype=np.int64)
    for j in range(i):
        aj = a[:, j]
        for k in range(i):
            prod[:, j + k] += aj * b[:, k]
    high = prod[:, i:] % p
    out = prod[:, :i]
    for j in range(i - 1):
        out += high[:, j : j + 1] * red[j][None, :]
    return out % p


def _char_sum_prime(fbar: PolyModP, p: int) -> int:
    """sum_x chi(f(x)) over F_p: chunked Horner, then the character table."""
    chi = _chi_table(p)
    total = 0
    for lo in range(0, p, _CHUNK):
        xs = np.arange(lo, min(lo + _CHUNK, p), dtype=np.int64)
        acc = np.zeros_like(xs)
        for c in reversed(fbar.coeffs):
            acc = (acc * xs + c) % p
        total += int(chi[acc].sum())
    return total


def _mul_matrix(spec: FieldSpec, a: list[int]) -> np.ndarray:
    """Matrix of y -> a*y on the power basis; column j holds a*t^j."""
    p, low = spec.p, np.array(spec.modulus.coeffs[:-1], dtype=np.int64)
    M = np.empty((spec.degree, spec.degree), dtype=np.int64)
    col = np.array(a, dtype=np.int64)
    for j in range(spec.degree):
        M[:, j] = col
        col = (np.concatenate(([0], col[:-1])) - col[-1] * low) % p  # times t, folded
    return M


def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % p
        M = M @ M % p
        e >>= 1
    return out


def _primitive_matrix(spec: FieldSpec) -> np.ndarray:
    """Multiplication matrix of the first primitive element in base-p counter order.

    a generates F_q^* iff a^((q-1)/r) != 1 for every prime r | q - 1, tested
    on i x i matrix powers.  Counter values below p are F_p, never primitive
    for i >= 2, so the scan starts at t.
    """
    p, i, q = spec.p, spec.degree, spec.order
    one, primes = np.eye(i, dtype=np.int64), prime_divisors(q - 1)
    for v in range(p, q):
        M = _mul_matrix(spec, [(v // p**j) % p for j in range(i)])
        if all(not np.array_equal(_mat_pow(M, (q - 1) // r, p), one) for r in primes):
            return M
    raise ArithmeticError(f"no primitive element in F_{p}^{i}; field data corrupt")


def _exp_log_tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """exp[k] = code of g^k for k < q - 1, and log with log[exp[k]] = k, log[0] = -1.

    g is the first primitive element; the code of a field element is its
    coordinate vector read as a base-p number (the order of
    ``FieldSpec.elements``).  The rows g^0..g^(n-1) are built by doubling,
    then each next block of n is the last one times g^n, as one matrix
    product, so memory beyond the two int32 tables stays at one block.
    """
    p, i, q = spec.p, spec.degree, spec.order
    g = _primitive_matrix(spec)
    codes = p ** np.arange(i, dtype=np.int64)
    block = np.zeros((1, i), dtype=np.int64)
    block[0, 0] = 1
    step = g  # multiplication by g^len(block)
    while len(block) < min(_TABLE_BLOCK, q - 1):
        block = np.vstack((block, block @ step.T % p))
        step = step @ step % p
    exp = np.empty(q - 1, dtype=np.int32)
    for lo in range(0, q - 1, len(block)):
        hi = min(lo + len(block), q - 1)
        exp[lo:hi] = block[: hi - lo] @ codes
        block = block @ step.T % p
    log = np.full(q, -1, dtype=np.int32)
    for lo in range(0, q - 1, _CHUNK):
        hi = min(lo + _CHUNK, q - 1)
        log[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
    if log[0] != -1 or (log[1:] < 0).any():
        raise ArithmeticError(f"powers of g miss part of F_{p}^{i}; table bug")
    return exp, log


@functools.lru_cache(maxsize=2)
def _field_tables(p: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Zech logs of F_{p^i} and the logs of F_p's elements, built once per field.

    zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0.  The two most recent
    fields stay in memory: both curves of a pair count over one table.
    """
    exp, log = _exp_log_tables(build_extension(p, i))
    zech = np.empty_like(exp)
    for lo in range(0, len(exp), _CHUNK):
        e = exp[lo : lo + _CHUNK]
        zech[lo : lo + _CHUNK] = log[e + np.where(e % p == p - 1, 1 - p, 1)]  # +1 on digit 0
    log_fp = log[:p].astype(np.int64)
    zech.flags.writeable = log_fp.flags.writeable = False  # shared by every caller
    return zech, log_fp


def _char_sum_logs(fbar: PolyModP, spec: FieldSpec) -> int:
    """sum_x chi(f(x)) over F_q, i >= 2, by discrete logs.

    With x = g^k, each term c_e x^e is g^(log c_e + e*k).  Terms are added
    in log form, g^a + g^b = g^(a + zech[(b - a) mod (q-1)]), and chi(g^n)
    is (-1)^n; q - 1 is even, so the parity survives reduction mod q - 1.
    Exponents are reduced mod q - 1 first, so e*k < q^2 <= 2^46 in int64.
    """
    p, m = spec.p, spec.order - 1
    zech, log_fp = _field_tables(p, spec.degree)
    terms = [(e % m, int(log_fp[c])) for e, c in enumerate(fbar.coeffs) if c]
    c0 = fbar.coeffs[0] if fbar.coeffs else 0
    total = 1 - 2 * (int(log_fp[c0]) & 1) if c0 else 0  # x = 0
    if not terms:
        return total
    (e0, l0), rest = terms[0], terms[1:]
    for lo in range(0, m, _CHUNK):
        k = np.arange(lo, min(lo + _CHUNK, m), dtype=np.int64)
        acc = e0 * k + l0  # a log of the partial sum, unreduced
        zero = np.zeros(len(k), dtype=bool)  # the partial sum is 0
        for e, l in rest:
            b = e * k + l
            z = zech[(b - acc) % m]
            acc = np.where(zero, b, acc + z)
            zero = (z < 0) & ~zero
        total += len(k) - int(zero.sum()) - 2 * int((acc[~zero] & 1).sum())
    return total


def _norm_matrices(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """The norm kernel's constants for F_{p^i}, i >= 2: (red, frob).

    red[j] = t^(i+j) mod the modulus for j = 0..i-2: columns 1..i-1 of
    multiplication by t^(i-1).  frob is the matrix of the (F_p-linear)
    p-power map; its column j is sigma(t^j) = (t^p)^j.
    """
    p, i = spec.p, spec.degree
    e = np.eye(i, dtype=np.int64)
    red = _mul_matrix(spec, e[i - 1])[:, 1:].T
    tp = _mat_pow(_mul_matrix(spec, e[1]), p, p)  # multiplication by t^p
    frob = np.empty((i, i), dtype=np.int64)
    col = e[0]
    for j in range(i):
        frob[:, j] = col
        col = tp @ col % p
    return red, frob


def _char_sum_norm(fbar: PolyModP, spec: FieldSpec) -> int:
    """sum_x chi(f(x)) via chi_p(Norm(f(x))), vectorized and chunked; i >= 2."""
    p, i, q = spec.p, spec.degree, spec.order
    if q >= 1 << 62:
        raise ValueError(f"field order {q} exceeds the int64 enumeration range")
    chi = _chi_table(p)
    fc = list(fbar.coeffs)
    red, frob = _norm_matrices(spec)
    # Frobenius iterates sigma^(2^k) for the pairing scheme below
    frob_pows = [frob]
    k = 1
    while (1 << k) < i:
        prev = frob_pows[-1]
        frob_pows.append(prev @ prev % p)
        k += 1

    exponents = sorted({k for k, c in enumerate(fc) if c != 0 and k > 0}, reverse=True)
    maxdeg = exponents[0] if exponents else 0
    powers = np.array([p**j for j in range(i)], dtype=np.int64)
    total = 0
    for lo in range(0, q, _CHUNK):
        hi = min(lo + _CHUNK, q)
        n = np.arange(lo, hi, dtype=np.int64)
        xs = (n[:, None] // powers[None, :]) % p

        # f(x) by binary powering over the support of f (f is often sparse)
        sq = {1: xs}
        b = 1
        while 2 * b <= maxdeg:
            sq[2 * b] = _batch_mul(sq[b], sq[b], red, p)
            b *= 2
        val = np.zeros_like(xs)
        val[:, 0] = fc[0] % p
        for e in exponents:
            term = None
            rem, bit = e, 1
            while rem:
                if rem & 1:
                    term = sq[bit] if term is None else _batch_mul(term, sq[bit], red, p)
                rem >>= 1
                bit <<= 1
            c = fc[e] % p
            val += term if c == 1 else (term * c) % p
        val %= p

        # Norm to F_p: multiply out the Frobenius orbit of val.  acc holds
        # prod of sigma^j(val) for j < done; double while 2*done <= i,
        # then append the remaining conjugates one at a time.
        acc = val
        done = 1
        kk = 0
        while 2 * done <= i:
            acc = _batch_mul(acc, acc @ frob_pows[kk].T % p, red, p)
            done *= 2
            kk += 1
        if done < i:
            conj = val @ frob_pows[kk].T % p  # sigma^done(val)
            while True:
                acc = _batch_mul(acc, conj, red, p)
                done += 1
                if done == i:
                    break
                conj = conj @ frob_pows[0].T % p
        if np.any(acc[:, 1:]):
            raise ArithmeticError("norm landed outside the prime field; kernel bug")
        total += int(chi[acc[:, 0]].sum())
    return total


def affine_char_sum(fbar: PolyModP, spec: FieldSpec) -> int:
    """S = sum over x in F_q of chi(f(x)), an exact integer in [-q, q].

    The field picks the kernel: Horner plus the F_p character table for
    i = 1, per-field log tables for i >= 2 with q <= _TABLE_MAX_ORDER,
    and the norm kernel for larger q.
    """
    if spec.p != fbar.p:
        raise ValueError("field and polynomial have different characteristic")
    if spec.degree == 1:
        return _char_sum_prime(fbar, spec.p)
    if spec.order <= _TABLE_MAX_ORDER:
        return _char_sum_logs(fbar, spec)
    return _char_sum_norm(fbar, spec)


# ---------------------------------------------------------------------------
# counts and L-polynomials
# ---------------------------------------------------------------------------


def point_count(curve: CurveModel, p: int, i: int) -> int:
    """N_i = #C(F_{p^i}) including the point at infinity."""
    fbar = reduce_curve(curve, p)
    if isinstance(fbar, BadReduction):
        raise BadReductionError(curve.label, p)
    return p**i + 1 + affine_char_sum(fbar, build_extension(p, i))


def _check_count_bounds(counts, p: int, g: int, label: str) -> None:
    for i, n in enumerate(counts, start=1):
        if (n - p**i - 1) ** 2 > 4 * g * g * p**i:
            raise InconsistentCountsError(
                f"{label}: N_{i}={n} violates |N - (p^{i}+1)| <= 2g p^({i}/2) at p={p}"
            )


def lpoly_from_counts(counts: CountVector, p: int, g: int) -> LPolynomial:
    """Assemble L_p from N_1..N_g by Newton's identities plus the functional equation.

    Power sums s_i = p^i + 1 - N_i feed the recursion
    e_k = (1/k) * sum_{j=1..k} (-1)^(j-1) e_{k-j} s_j, and a_j = (-1)^j e_j.
    Every division must be exact; a remainder or a Weil-bound violation
    means the counts cannot belong to a curve.
    """
    if counts.p != p or len(counts.counts) != g:
        raise ValueError("need exactly g counts at the stated prime")
    _check_count_bounds(counts.counts, p, g, counts.label)
    s = [0] + [p**i + 1 - counts.counts[i - 1] for i in range(1, g + 1)]
    e = [1] + [0] * g
    for k in range(1, g + 1):
        acc = 0
        for j in range(1, k + 1):
            term = e[k - j] * s[j]
            acc += term if j % 2 == 1 else -term
        if acc % k:
            raise InconsistentCountsError(
                f"{counts.label}: Newton step {k} is non-integral at p={p}"
            )
        e[k] = acc // k
    coeffs = [0] * (2 * g + 1)
    for j in range(g + 1):
        coeffs[j] = e[j] if j % 2 == 0 else -e[j]
    for j in range(g):
        coeffs[2 * g - j] = p ** (g - j) * coeffs[j]
    L = LPolynomial(p, g, tuple(coeffs))
    violations = validate_weil(L)
    if violations:
        raise InconsistentCountsError(f"{counts.label}: {'; '.join(violations)}")
    return L


def lpoly(curve: CurveModel, p: int, budget: int = DEFAULT_BUDGET) -> LPolynomial:
    """Full L-polynomial at p, enumerating F_{p^i} for i = 1..g, with no store.

    The budget counts field evaluations for this prime: degree i costs p^i.
    """
    from .cache import UNCACHED  # the cache builds on this module

    return UNCACHED.lpoly(curve, p, budget)


def frobenius_trace(curve: CurveModel, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """a_p = p + 1 - N_1; needs only the degree-1 count, which costs p."""
    from .cache import UNCACHED

    return UNCACHED.trace(curve, p, budget)


def validate_weil(L: LPolynomial) -> list[str]:
    """Check a_0 = 1, the functional equation, and the coefficient bounds.

    Returns the list of violated clauses; an empty list means the
    polynomial is consistent with Weil theory.
    """
    out = []
    p, g = L.p, L.g
    if L.coeffs[0] != 1:
        out.append("constant term is not 1")
    for j in range(g):
        if L.coeffs[2 * g - j] != p ** (g - j) * L.coeffs[j]:
            out.append(f"functional equation fails at j={j}")
    for j, a in enumerate(L.coeffs):
        # |a_j| <= C(2g, j) p^(j/2), compared exactly via squares
        if a * a > comb(2 * g, j) ** 2 * p**j:
            out.append(f"coefficient bound fails at j={j} (a_j={a})")
    return out


def log_derivative_counts(L: LPolynomial, m: int) -> list[int]:
    """Recover N_1..N_m from L by running Newton's recursion forward.

    Exact inverse of lpoly_from_counts on its output; valid for m <= 2g
    since all 2g+1 coefficients participate.
    """
    g = L.g
    if not 1 <= m <= 2 * g:
        raise ValueError("m must be in 1..2g")
    e = [c if j % 2 == 0 else -c for j, c in enumerate(L.coeffs)]
    s = [0] * (m + 1)
    for k in range(1, m + 1):
        acc = 0
        for j in range(1, k):
            term = e[j] * s[k - j]
            acc += term if j % 2 == 1 else -term
        if k <= 2 * g:
            acc += (k * e[k]) if k % 2 == 1 else -(k * e[k])
        s[k] = acc
    return [L.p**i + 1 - s[i] for i in range(1, m + 1)]
