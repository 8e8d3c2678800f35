"""Residue degrees of rational primes in fixed Galois number fields.

For a Galois number field with monic defining polynomial h and an odd
prime p not dividing disc(h), h mod p is squarefree, every irreducible
factor of h mod p has the same degree, and that common degree is the
residue degree of p.  It is the order of Frobenius on x in F_p[x]/(h),
computed for all primes of a range in one ascending pass per field, a
block of primes at a time (``algebra.equal_factor_degrees``), and the
degrees are checked to be equal at every computed prime.  The primes are
checked once per pass, not once per field.  The primes dividing disc(h)
are guarded: there the factor degrees of h mod p need not reflect the
splitting of p (ramification or index divisors), so such primes are
skipped, never guessed.  The guard is computed from the polynomials,
never configured.

The built-in configuration describes three fields of degrees 4, 8, 8
(see data/fields.cfg); their residue degrees (r, s, s') at a prime are
classified against a fixed three-line case table, with any other pattern
reported as a violation value rather than an exception.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from enum import Enum
from pathlib import Path

from .algebra import _ascending_odd_primes, _equal_degrees
from .curvecount import DEFAULT_BUDGET, CurveModel, curve_from_coeffs, poly_discriminant
from .errors import NotGaloisConsistentError, RamifiedPrimeError
from .values import FrozenValue

FIELDS_FORMAT_VERSION = 1


class NumberFieldSpec(FrozenValue):
    """A Galois number field given by a monic squarefree integer polynomial.

    Residue degrees are only computed at primes not dividing the
    polynomial discriminant.  The galois flag is configuration-asserted;
    consumers validate it statistically by checking equal factor degrees
    across many primes.  ``role`` is "base", "cover-a" or "cover-b";
    ``disc``, the polynomial discriminant computed on construction, sets the guard.
    """

    __slots__ = ("name", "role", "defining_poly", "degree", "galois", "provenance", "disc")

    def __init__(self, name: str, role: str, defining_poly: tuple[int, ...], degree: int,
                 galois: bool, provenance: str = ""):
        if defining_poly[-1] != 1:
            raise ValueError(f"field {name}: defining polynomial must be monic")
        if len(defining_poly) - 1 != degree or degree < 1:
            raise ValueError(f"field {name}: degree must be >= 1 and match the polynomial")
        disc = poly_discriminant(defining_poly)
        if disc == 0:
            raise ValueError(f"field {name}: defining polynomial is not squarefree over Q")
        self._set(name, role, defining_poly, degree, galois, provenance, disc)


class SplitCase(Enum):
    I = "i"
    II = "ii"
    III = "iii"
    VIOLATION = "violation"


SplitProfile = namedtuple("SplitProfile", "p r s s_prime case")
SplitProfile.__doc__ = "Residue degrees of p in the base field (r) and the two covers (s, s')."


def residue_degree_galois(field: NumberFieldSpec, p: int) -> int:
    """Common degree of the irreducible factors of the defining polynomial mod p.

    Raises RamifiedPrimeError at primes dividing the polynomial
    discriminant and NotGaloisConsistentError if the factor degrees are
    mixed (the configuration lied about being Galois).
    """
    if field.disc % p == 0:
        raise RamifiedPrimeError(f"p={p} divides the polynomial discriminant of {field.name}")
    return next(_residue_degrees(field, _ascending_odd_primes([p])))


def _residue_degrees(field: NumberFieldSpec, primes: list[int]) -> Iterator[int]:
    """Residue degrees of ``field`` at checked ascending primes none of which is guarded; lazy."""
    if not field.galois:
        raise ValueError(f"field {field.name} is not flagged Galois")
    try:
        yield from _equal_degrees(field.defining_poly, primes)
    except NotGaloisConsistentError as exc:
        raise NotGaloisConsistentError(f"field {field.name}: {exc}; equal degrees expected") from None


def cyclotomic_residue_degree(n: int, p: int) -> int:
    """Multiplicative order of p mod n (residue degree of p in Q(zeta_n))."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(p, n) != 1:
        raise ValueError(f"p={p} is not coprime to {n}")
    order, v = 1, p % n
    while v != 1:
        v = v * p % n
        order += 1
    return order


def case_classify(r: int, s: int, s_prime: int) -> SplitCase:
    """Classify a residue-degree triple against the fixed case table.

    i:   r=1 and s, s' in {1, 2}
    ii:  r=2 and s, s' in {2, 4}
    iii: r=4 and s = s' = 4
    Anything else is a violation value (not an error).
    """
    if min(r, s, s_prime) < 1:
        raise ValueError("residue degrees are positive")
    if r == 1 and s in (1, 2) and s_prime in (1, 2):
        return SplitCase.I
    if r == 2 and s in (2, 4) and s_prime in (2, 4):
        return SplitCase.II
    if r == 4 and s == 4 and s_prime == 4:
        return SplitCase.III
    return SplitCase.VIOLATION


def split_profiles(
    fields: dict[str, NumberFieldSpec], primes: Iterable[int]
) -> Iterator[tuple[int, SplitProfile | None]]:
    """(p, profile) for each ascending prime, with profile None at a guarded prime.

    Residue degrees of the base/cover-a/cover-b triple come from one pass
    over the unguarded primes per field; guarded primes are never
    computed.  The unguarded primes are checked to be ascending odd primes
    once, for all three fields.  Lazy, so every pair yielded before an
    error stands.
    """
    primes = list(primes)
    guarded = [is_guarded(fields, p) for p in primes]
    computed = _ascending_odd_primes(p for p, g in zip(primes, guarded) if not g)
    triples = _degree_triples(fields, computed)
    for p, g in zip(primes, guarded):
        if g:
            yield p, None
            continue
        r, s, sp = next(triples)
        yield p, SplitProfile(p, r, s, sp, case_classify(r, s, sp))


def _degree_triples(fields: dict[str, NumberFieldSpec], primes: list[int]) -> Iterator[tuple[int, ...]]:
    """(r, s, s') at the ascending unguarded primes.

    A generator, so a configuration error surfaces at the first computed
    prime, after the guarded records before it.
    """
    triple = [_field_by_role(fields, role) for role in ("base", "cover-a", "cover-b")]
    yield from zip(*(_residue_degrees(field, primes) for field in triple))


def split_profile(fields: dict[str, NumberFieldSpec], p: int) -> SplitProfile:
    """Residue degrees of p in the configured base/cover-a/cover-b triple.

    The one-prime case of ``split_profiles``; raises RamifiedPrimeError at
    a guarded prime.
    """
    [(_, profile)] = split_profiles(fields, [p])
    if profile is None:
        raise RamifiedPrimeError(f"p={p} divides the polynomial discriminant of a configured field")
    return profile


def is_guarded(fields: dict[str, NumberFieldSpec], p: int) -> bool:
    """True when p divides the polynomial discriminant of some configured field."""
    return any(f.disc % p == 0 for f in fields.values())


def _field_by_role(fields: dict[str, NumberFieldSpec], role: str) -> NumberFieldSpec:
    hits = [f for f in fields.values() if f.role == role]
    if len(hits) != 1:
        raise ValueError(f"configuration needs exactly one field with role {role!r}")
    return hits[0]


TraceVanishing = namedtuple("TraceVanishing", "ok a a_prime")


def verify_trace_vanishing(
    curve_a: CurveModel,
    curve_b: CurveModel,
    p: int,
    profile: SplitProfile,
    budget: int = DEFAULT_BUDGET,
    cache: LPolyCache | None = None,
) -> TraceVanishing:
    """Check that both Frobenius traces vanish at a case ii/iii prime.

    Returns the traces either way; ok=False is a counterexample to the
    expected vanishing, not an exception.  Traces come from ``cache``
    (default: uncached).
    """
    if profile.case not in (SplitCase.II, SplitCase.III):
        raise ValueError("trace vanishing is only asserted for cases ii and iii")
    if profile.p != p:
        raise ValueError("profile belongs to a different prime")
    if cache is None:
        from .cache import UNCACHED as cache  # only commands that count load the cache
    a, b = cache.traces([curve_a, curve_b], p, budget)
    return TraceVanishing(a == 0 and b == 0, a, b)


# ---------------------------------------------------------------------------
# L-polynomial shape check for y^2 = x^9 + c x
# ---------------------------------------------------------------------------


Lemma62Violation = namedtuple("Lemma62Violation", "lpoly")
Lemma62Violation.__doc__ = """The computed L-polynomial does not have the 1 + s T^4 + p^4 T^8 shape.

Such a value would point at a counting bug, so callers should treat it
as an implementation alarm, not as number theory.
"""


def lemma62_check(
    c: int, p: int, budget: int = DEFAULT_BUDGET, cache: LPolyCache | None = None
):
    """For y^2 = x^9 + c x at p = 3, 5 mod 8: extract s from L = 1 + s T^4 + p^4 T^8.

    Returns the integer s when the computed L-polynomial has exactly that
    shape, and a Lemma62Violation carrying the polynomial otherwise.
    Requires good reduction (p odd, not dividing c) and the stated
    congruence class.  The L-polynomial comes from ``cache`` (default:
    uncached).
    """
    if c == 0:
        raise ValueError("c must be nonzero")
    if p % 8 not in (3, 5):
        raise ValueError(f"p={p} is not 3 or 5 mod 8")
    if cache is None:
        from .cache import UNCACHED as cache
    curve = curve_from_coeffs((0, c) + (0,) * 7 + (1,))
    L = cache.lpoly(curve, p, budget)
    a = L.coeffs
    if any(a[k] for k in (1, 2, 3, 5, 6, 7)) or a[8] != p**4:
        return Lemma62Violation(L)
    return a[4]


# ---------------------------------------------------------------------------
# field configuration files
# ---------------------------------------------------------------------------


def parse_field_config(text: str, source: str = "<config>") -> dict[str, NumberFieldSpec]:
    """Parse the plain-text field configuration format (see data/fields.cfg).

    Keys other than field, role, poly, galois and provenance are ignored,
    so older files with ``disc-primes`` lines still parse.
    """
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) < 2 or head[0] != "twistscope-fields":
        raise ValueError(f"{source}: missing 'twistscope-fields <version>' header")
    if head[1] != str(FIELDS_FORMAT_VERSION):
        raise ValueError(f"{source}: unsupported fields format version {head[1]}")
    fields: dict[str, NumberFieldSpec] = {}
    entry: dict[str, str] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "end":
            fields[entry["field"]] = _entry_to_spec(entry, source)
            entry = {}
            continue
        key, _, value = line.partition(" ")
        if not value:
            raise ValueError(f"{source}:{lineno}: expected 'key value'")
        entry[key] = value.strip()
    if entry:
        raise ValueError(f"{source}: last field entry not closed with 'end'")
    return fields


def _entry_to_spec(entry: dict[str, str], source: str) -> NumberFieldSpec:
    try:
        coeffs = tuple(int(c) for c in entry["poly"].split(","))
        return NumberFieldSpec(
            name=entry["field"],
            role=entry["role"],
            defining_poly=coeffs,
            degree=len(coeffs) - 1,
            galois=entry["galois"] == "true",
            provenance=entry.get("provenance", ""),
        )
    except KeyError as exc:
        raise ValueError(f"{source}: field entry missing key {exc}") from exc


def load_field_config(path: str | Path) -> dict[str, NumberFieldSpec]:
    p = Path(path)
    return parse_field_config(p.read_text(), source=str(p))


def default_fields() -> dict[str, NumberFieldSpec]:
    """The built-in degree 4/8/8 triple shipped with the package."""
    import importlib.resources

    text = (
        importlib.resources.files("twistscope").joinpath("data/fields.cfg").read_text()
    )
    return parse_field_config(text, source="data/fields.cfg")
