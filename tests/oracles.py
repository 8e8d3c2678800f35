"""Brute-force reference implementations used only by the tests.

Everything here is deliberately written from scratch on plain tuples:
no character sums, no Newton identities, no shared code with the
package.  Point counts enumerate y explicitly; L-polynomials come from
the exponential of the power-sum series; factor degrees come from trial
division by every monic polynomial of lower degree.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for j, aj in enumerate(a):
        for k, bk in enumerate(b):
            out[j + k] = (out[j + k] + aj * bk) % p
    return tuple(out)


def poly_divmod(a, b, p):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv = pow(b[-1], p - 2, p)
    quo = [0] * max(da - db + 1, 1)
    for shift in range(da - db, -1, -1):
        c = a[shift + db] * inv % p
        quo[shift] = c
        for k in range(db + 1):
            a[shift + k] = (a[shift + k] - c * b[k]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return tuple(quo), tuple(a)


def _reduced(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def squarefree_mod(f, p):
    """Whether f mod p has no repeated factor: Euclid's gcd(f, f') is a nonzero constant."""
    a = _reduced(f, p)
    b = _reduced([k * c for k, c in enumerate(f)][1:], p)
    while b:
        a, b = b, _reduced(poly_divmod(a, b, p)[1], p)
    return len(a) == 1


def monic_polys(degree, p):
    for low in product(range(p), repeat=degree):
        yield low + (1,)


def naive_factor_degrees(h, p):
    """Degrees of irreducible factors of monic h, by exhaustive trial division."""
    h = tuple(c % p for c in h)
    degrees = []
    d = 1
    while len(h) - 1 >= 2 * d:
        for cand in monic_polys(d, p):
            while True:
                quo, rem = poly_divmod(h, cand, p)
                if len(rem) == 1 and rem[0] == 0 and len(quo) >= 1:
                    degrees.append(d)
                    h = quo
                    if len(h) - 1 < d:
                        break
                else:
                    break
            if len(h) - 1 < 2 * d:
                break
        d += 1
    if len(h) - 1 > 0:
        degrees.append(len(h) - 1)
    return sorted(degrees)


def find_irreducible(p, i):
    """First monic irreducible of degree i, by trial division only."""
    for cand in monic_polys(i, p):
        divisible = False
        for d in range(1, i // 2 + 1):
            for div in monic_polys(d, p):
                _, rem = poly_divmod(cand, div, p)
                if len(rem) == 1 and rem[0] == 0:
                    divisible = True
                    break
            if divisible:
                break
        if not divisible:
            return cand
    raise AssertionError("no irreducible found")


class TupleField:
    """F_{p^i} on coefficient tuples; schoolbook multiply, divmod reduce."""

    def __init__(self, p, i):
        self.p, self.i = p, i
        self.modulus = find_irreducible(p, i) if i > 1 else None

    def elements(self):
        return product(range(self.p), repeat=self.i)

    def mul(self, a, b):
        if self.i == 1:
            return ((a[0] * b[0]) % self.p,)
        prod_ = poly_mul(a, b, self.p)
        _, rem = poly_divmod(prod_, self.modulus, self.p)
        return tuple(rem) + (0,) * (self.i - len(rem))


@dataclass(frozen=True)
class FieldElement:
    """Element of a package field (a FieldSpec), in the power basis of its modulus root.

    Products are schoolbook multiplication then the divmod above, by the
    spec's own modulus, so kernels can be checked on the package's fields.
    """

    spec: object
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.spec.degree:
            raise ValueError("coefficient vector must match the field degree")

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def __mul__(self, other):
        if self.spec != other.spec:
            raise ValueError("elements live in different fields")
        p, i = self.spec.p, self.spec.degree
        prod_ = poly_mul(self.coeffs, other.coeffs, p)
        if i > 1:
            _, prod_ = poly_divmod(prod_, self.spec.modulus.coeffs, p)
        return FieldElement(self.spec, prod_ + (0,) * (i - len(prod_)))

    def scale(self, c):
        return FieldElement(self.spec, tuple(c * a % self.spec.p for a in self.coeffs))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent")
        result, acc = one(self.spec), self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result


def element(spec, coeffs):
    vec = [c % spec.p for c in coeffs]
    if len(vec) > spec.degree:
        raise ValueError("coefficient vector longer than the field degree")
    return FieldElement(spec, tuple(vec) + (0,) * (spec.degree - len(vec)))


def zero(spec):
    return element(spec, [])


def one(spec):
    return element(spec, [1])


def elements(spec):
    """All q elements of spec's field, in base-p counter order."""
    return (FieldElement(spec, v[::-1]) for v in product(range(spec.p), repeat=spec.degree))


def quad_char(e):
    """Quadratic character of F_q: 0 on zero, else e^((q-1)/2) mapped to +-1."""
    if e.is_zero:
        return 0
    r = e ** ((e.spec.order - 1) // 2)
    if r == one(e.spec):
        return 1
    if r == one(e.spec).scale(-1):
        return -1
    raise ArithmeticError("nonzero element has character outside {+-1}; field data corrupt")


def count_points(f_coeffs, p, i):
    """#C(F_{p^i}) for y^2 = f(x): histogram the squares, walk x, add infinity."""
    field = TupleField(p, i)
    squares = {}
    for e in field.elements():
        s = field.mul(e, e)
        squares[s] = squares.get(s, 0) + 1
    total = 0
    for x in field.elements():
        acc = (0,) * field.i
        for c in reversed(f_coeffs):
            acc = field.mul(acc, x)
            acc = ((acc[0] + c) % p,) + acc[1:]
        total += squares.get(acc, 0)
    return total + 1


def lpoly_by_series(f_coeffs, p, g, depth=None):
    """L-polynomial from counts via exp(-sum s_m T^m / m), exact Fractions.

    With depth = 2g the whole polynomial comes from counts alone; with
    depth = g the tail is completed by the functional equation.
    """
    depth = depth or 2 * g
    s = [0] + [p**m + 1 - count_points(f_coeffs, p, m) for m in range(1, depth + 1)]
    A = [Fraction(0)] * (depth + 1)
    for m in range(1, depth + 1):
        A[m] = Fraction(-s[m], m)
    L = [Fraction(0)] * (depth + 1)
    L[0] = Fraction(1)
    term = list(L)
    for k in range(1, depth + 1):
        new = [Fraction(0)] * (depth + 1)
        for a_deg in range(depth + 1):
            if term[a_deg] == 0:
                continue
            for b_deg in range(depth + 1 - a_deg):
                if A[b_deg]:
                    new[a_deg + b_deg] += term[a_deg] * A[b_deg]
        term = [t / k for t in new]
        for j in range(depth + 1):
            L[j] += term[j]
    coeffs = []
    for j in range(depth + 1):
        assert L[j].denominator == 1, "series coefficients must be integers"
        coeffs.append(int(L[j]))
    if depth == g:
        coeffs += [0] * g
        for j in range(g):
            coeffs[2 * g - j] = p ** (g - j) * coeffs[j]
    return tuple(coeffs[: 2 * g + 1])
