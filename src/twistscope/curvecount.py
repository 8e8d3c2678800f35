"""Hyperelliptic models over Q, point counts over F_{p^i}, and L-polynomials.

Curves are odd-degree monic models y^2 = f(x), deg f = 2g+1, so the
projective closure carries exactly one point at infinity and

    #C(F_q) = q + 1 + sum_x chi(f(x))

with chi the quadratic character of F_q.  The L-polynomial at a good odd
prime p is det(1 - Frob*T) on the Jacobian: degree 2g, integer
coefficients, constant term 1, reciprocal roots of absolute value sqrt(p).
Its first g+1 coefficients are assembled from N_1..N_g by Newton's
identities; the rest follow from the functional equation
a_{2g-j} = p^{g-j} a_j.  The reduction at an odd p is good exactly when p
does not divide disc(f).  ``poly_discriminant`` is the package's one
squarefreeness test: a curve keeps disc(f) as ``CurveModel.disc``, and a
field of ``splitfield`` keeps its polynomial's, so each is computed once.

Counting is exact integer work throughout.  A character sum that the
cancellation rule (``algebra._sum_period``) finds to be 0 is settled
without a kernel; every other one comes from ``kernels.char_sums``, the
one module that uses numpy.  The units are checked once, first, by
``_check_units``: the cache's backend checks a whole request, settled
units included, and ``point_count`` its one unit.  ``kernels`` is
imported on the first count, so commands that count nothing, or whose
counts all cancel, never load numpy.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .algebra import FieldSpec, PolyModP, _require_below_cap, _require_odd_prime, _sum_period, is_prime
from .errors import BadReductionError, InconsistentCountsError
from .values import FrozenValue

DEFAULT_BUDGET = 200_000_000  # field evaluations per prime


class CurveModel(FrozenValue):
    """Monic odd-degree hyperelliptic model y^2 = f(x) over Q; ``disc`` is disc(f), computed on construction."""

    __slots__ = ("label", "f_coeffs", "genus", "disc")

    def __init__(self, label: str, f_coeffs: tuple[int, ...], genus: int):
        deg = len(f_coeffs) - 1
        if deg < 3 or deg % 2 == 0:
            raise ValueError(f"f must have odd degree >= 3, got degree {deg}")
        if f_coeffs[-1] != 1:
            raise ValueError("f must be monic")
        if genus != (deg - 1) // 2:
            raise ValueError("genus must equal (deg f - 1)/2")
        disc = poly_discriminant(f_coeffs)
        if disc == 0:
            raise ValueError("f has a repeated root over Q")
        self._set(label, f_coeffs, genus, disc)


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
    """Discriminant of a monic integer polynomial of degree >= 1, exactly.

    The package's one squarefreeness test: a monic f has a repeated root
    over Q exactly when disc(f) = 0, and f mod p has a repeated factor
    exactly when p divides disc(f), since reduction mod p keeps the
    leading coefficient 1 and so commutes with the resultant.

    Sylvester resultant of f and f' by fraction-free Bareiss elimination,
    so every intermediate stays an integer.  Only the constructors of
    ``CurveModel`` and ``splitfield.NumberFieldSpec`` call it; everything
    else reads the ``disc`` they keep.
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


_TRIAL_BOUND = 1_000_000  # odd_bad_primes divides disc(f) by the odd numbers up to this


def odd_bad_primes(curve: "CurveModel") -> set[int]:
    """Odd primes of bad reduction: odd prime factors of disc(f).

    Factoring runs trial division up to ``_TRIAL_BOUND`` and accepts a
    remaining prime cofactor; a cofactor that is composite, or too large
    for ``is_prime`` to decide, raises, since the support would be
    incomplete.
    """
    d = abs(curve.disc)
    out: set[int] = set()
    while d % 2 == 0:
        d //= 2
    q = 3
    while q * q <= d and q <= _TRIAL_BOUND:
        if d % q == 0:
            out.add(q)
            while d % q == 0:
                d //= q
        q += 2
    if d > 1:
        try:
            prime = is_prime(d)
        except ValueError:  # beyond the range is_prime decides
            prime = False
        if not prime:
            raise ValueError(
                f"cannot factor the discriminant of {curve.label}; "
                "pass the bad-prime support explicitly"
            )
        out.add(d)
    return out


BadReduction = namedtuple("BadReduction", "label p")
BadReduction.__doc__ = "Marker value: f mod p is not squarefree, the reduction is singular."


class LPolynomial(FrozenValue):
    """L-polynomial at p: integer coefficients a_0..a_{2g}, a_0 = 1."""

    __slots__ = ("p", "g", "coeffs")

    def __init__(self, p: int, g: int, coeffs: tuple[int, ...]):
        if len(coeffs) != 2 * g + 1:
            raise ValueError("an L-polynomial of genus g has 2g+1 coefficients")
        if coeffs[0] != 1:
            raise ValueError("L-polynomial must have constant term 1")
        self._set(p, g, coeffs)

    def sign_flipped(self) -> "LPolynomial":
        """The polynomial L(-T): odd coefficients negated."""
        return LPolynomial(
            self.p, self.g, tuple(-c if k % 2 else c for k, c in enumerate(self.coeffs))
        )

    @property
    def trace(self) -> int:
        """Frobenius trace: the negated T-coefficient."""
        return -self.coeffs[1]


def reduce_curve(curve: CurveModel, p: int) -> PolyModP | BadReduction:
    """f mod p, or a BadReduction marker when the reduction is singular.

    For a monic odd f and odd p, good reduction is exactly squarefreeness
    of f mod p, that is, p not dividing disc(f).
    """
    fbar = PolyModP(p, curve.f_coeffs)  # rejects p that is not an odd prime
    if curve.disc % p == 0:
        return BadReduction(curve.label, p)
    return fbar


def affine_char_sum(fbar: PolyModP, spec: FieldSpec) -> int:
    """S = sum over x in F_q of chi(f(x)), an exact integer in [-q, q]; ``FieldSpec`` keeps p below the cap."""
    if spec.p != fbar.p:
        raise ValueError("field and polynomial have different characteristic")
    return _char_sum(fbar.coeffs, spec.p, spec.degree)


def _char_sum(coeffs: tuple[int, ...], p: int, i: int) -> int:
    """sum_x chi(f(x)) over F_{p^i} for one checked unit: 0 when it cancels, else the kernels' sum."""
    d = _sum_period(coeffs, p, i)
    if d is None:
        return 0
    from . import kernels  # numpy loads on the first count, not on import

    return next(kernels.char_sums([(coeffs, p, i, d)]))[1]


# ---------------------------------------------------------------------------
# counts and L-polynomials
# ---------------------------------------------------------------------------


def _check_units(units: list[tuple[CurveModel, int, int]]) -> None:
    """Check a batch of (curve, p, i) units before any of them is counted or settled.

    Each (curve, p) by disc(f) % p first: BadReductionError names the
    first bad unit.  Then each distinct p once against the cap
    p < MAX_FIELD_CHAR (ValueError), which a settled unit meets too.
    Every p must already be an odd prime: it is checked where it enters
    (``LPolyCache._served``, ``point_count``), or it comes from the sieve.
    """
    for curve, p, _ in units:
        if curve.disc % p == 0:
            raise BadReductionError(curve.label, p)
    for p in dict.fromkeys(p for _, p, _ in units):
        _require_below_cap(p)


def point_count(curve: CurveModel, p: int, i: int) -> int:
    """N_i = #C(F_{p^i}) including the point at infinity, after checking p and the unit, by ``_char_sum``."""
    _require_odd_prime(p)
    _check_units([(curve, p, i)])
    return p**i + 1 + _char_sum(curve.f_coeffs, p, i)


def _check_count_bounds(counts, p: int, g: int, label: str) -> None:
    q = 1
    for i, n in enumerate(counts, start=1):
        q *= p
        if (n - q - 1) ** 2 > 4 * g * g * q:
            raise InconsistentCountsError(
                f"{label}: N_{i}={n} violates |N - (p^{i}+1)| <= 2g p^({i}/2) at p={p}"
            )


def lpoly_from_counts(counts, p: int, g: int, label: str) -> LPolynomial:
    """Assemble L_p from N_1..N_g by Newton's identities plus the functional equation.

    ``counts`` is the sequence N_1..N_g of the curve named ``label``.
    Power sums s_i = p^i + 1 - N_i feed the recursion
    e_k = (1/k) * sum_{j=1..k} (-1)^(j-1) e_{k-j} s_j, and a_j = (-1)^j e_j.
    Every division must be exact; a remainder or a Weil-bound violation
    means the counts cannot belong to a curve.
    """
    if len(counts) != g:
        raise ValueError("need exactly g counts")
    _check_count_bounds(counts, p, g, label)
    s = [0] + [p**i + 1 - counts[i - 1] for i in range(1, g + 1)]
    e = [1] + [0] * g
    for k in range(1, g + 1):
        acc = 0
        for j in range(1, k + 1):
            term = e[k - j] * s[j]
            acc += term if j % 2 == 1 else -term
        if acc % k:
            raise InconsistentCountsError(
                f"{label}: Newton step {k} is non-integral at p={p}"
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
        raise InconsistentCountsError(f"{label}: {'; '.join(violations)}")
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
