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
either through a vectorized kernel (character table over F_p composed
with the norm map, computed chunkwise in int64 with explicit reduction
points) or through a slow generic path that exponentiates elementwise;
both must agree exactly and the test suite checks that they do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .algebra import (
    FieldSpec,
    PolyModP,
    build_extension,
    poly_gcd,
    quad_char,
)
from .errors import BadReductionError, InconsistentCountsError

DEFAULT_BUDGET = 200_000_000  # field evaluations per prime
_CHUNK = 1 << 19


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
    from .algebra import is_prime

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
    fbar = PolyModP(p, curve.f_coeffs)
    if poly_gcd(fbar, fbar.derivative()).degree != 0:
        return BadReduction(curve.label, p)
    return fbar


# ---------------------------------------------------------------------------
# character-sum kernels
# ---------------------------------------------------------------------------


def _chi_table(p: int) -> np.ndarray:
    """chi[v] = quadratic character of v in F_p, built from one squaring pass."""
    chi = np.full(p, -1, dtype=np.int64)
    chi[0] = 0
    v = np.arange(1, p, dtype=np.int64)
    chi[(v * v) % p] = 1
    return chi


def _reduction_rows(spec: FieldSpec) -> np.ndarray:
    """Row j = coefficient vector of t^(i+j) mod modulus, j = 0..i-2."""
    p, i, m = spec.p, spec.degree, spec.modulus.coeffs
    rows = np.zeros((i - 1, i), dtype=np.int64)
    cur = [(-m[j]) % p for j in range(i)]  # t^i
    rows[0] = cur
    for j in range(1, i - 1):
        carry = cur[-1]
        nxt = [0] + cur[:-1]
        cur = [(nxt[k] + carry * ((-m[k]) % p)) % p for k in range(i)]
        rows[j] = cur
    return rows


def _frobenius_matrix(spec: FieldSpec) -> np.ndarray:
    """Matrix of the p-power map on the power basis (it is F_p-linear)."""
    p, i = spec.p, spec.degree
    t = spec.element([0, 1])
    tp = t**p
    F = np.zeros((i, i), dtype=np.int64)
    col = spec.one()
    for j in range(i):
        F[:, j] = col.coeffs
        col = col * tp
    return F


class _BatchField:
    """Vectorized F_{p^i} arithmetic on (B, i) int64 arrays, entries in [0, p).

    Products are accumulated without intermediate reduction: at most i
    terms of size (p-1)^2 plus the modulus folding stay below 2^54 for
    p < 2^25, inside int64.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.i = spec.degree
        self.red = _reduction_rows(spec) if spec.degree > 1 else None

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p, i = self.p, self.i
        prod = np.zeros((a.shape[0], 2 * i - 1), dtype=np.int64)
        for j in range(i):
            aj = a[:, j]
            for k in range(i):
                prod[:, j + k] += aj * b[:, k]
        high = prod[:, i:] % p
        out = prod[:, :i]
        for j in range(i - 1):
            out += high[:, j : j + 1] * self.red[j][None, :]
        return out % p


def _char_sum_fast(fbar: PolyModP, spec: FieldSpec) -> int:
    """sum_x chi(f(x)) via chi_p(Norm(f(x))), vectorized and chunked."""
    p, i, q = spec.p, spec.degree, spec.order
    if q >= 1 << 62:
        raise ValueError(f"field order {q} exceeds the int64 enumeration range")
    chi = _chi_table(p)
    fc = list(fbar.coeffs)

    if i == 1:
        total = 0
        for lo in range(0, p, _CHUNK):
            xs = np.arange(lo, min(lo + _CHUNK, p), dtype=np.int64)
            acc = np.zeros_like(xs)
            for c in reversed(fc):
                acc = (acc * xs + c) % p
            total += int(chi[acc].sum())
        return total

    bf = _BatchField(spec)
    frob = _frobenius_matrix(spec)
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
            sq[2 * b] = bf.mul(sq[b], sq[b])
            b *= 2
        val = np.zeros_like(xs)
        val[:, 0] = fc[0] % p
        for e in exponents:
            term = None
            rem, bit = e, 1
            while rem:
                if rem & 1:
                    term = sq[bit] if term is None else bf.mul(term, sq[bit])
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
            acc = bf.mul(acc, acc @ frob_pows[kk].T % p)
            done *= 2
            kk += 1
        if done < i:
            conj = val @ frob_pows[kk].T % p  # sigma^done(val)
            while True:
                acc = bf.mul(acc, conj)
                done += 1
                if done == i:
                    break
                conj = conj @ frob_pows[0].T % p
        if np.any(acc[:, 1:]):
            raise ArithmeticError("norm landed outside the prime field; kernel bug")
        total += int(chi[acc[:, 0]].sum())
    return total


def _char_sum_generic(fbar: PolyModP, spec: FieldSpec) -> int:
    """Reference path: elementwise Horner plus quad_char exponentiation."""
    fc = list(fbar.coeffs)
    total = 0
    for x in spec.elements():
        acc = spec.zero()
        for c in reversed(fc):
            acc = acc * x
            acc = acc + spec.element([c])
        total += quad_char(acc)
    return total


def affine_char_sum(fbar: PolyModP, spec: FieldSpec, method: str = "table") -> int:
    """S = sum over x in F_q of chi(f(x)), an exact integer in [-q, q].

    method="table" uses the vectorized character-table/norm kernel;
    method="powmod" evaluates quad_char elementwise.  The two agree
    exactly; "powmod" exists as the independent slow reference.
    """
    if spec.p != fbar.p:
        raise ValueError("field and polynomial have different characteristic")
    if method == "table":
        return _char_sum_fast(fbar, spec)
    if method == "powmod":
        return _char_sum_generic(fbar, spec)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# counts and L-polynomials
# ---------------------------------------------------------------------------


def point_count(curve: CurveModel, p: int, i: int, method: str = "table") -> int:
    """N_i = #C(F_{p^i}) including the point at infinity."""
    fbar = reduce_curve(curve, p)
    if isinstance(fbar, BadReduction):
        raise BadReductionError(curve.label, p)
    spec = build_extension(p, i)
    return p**i + 1 + affine_char_sum(fbar, spec, method=method)


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
