"""Residue degrees of rational primes in fixed Galois number fields.

For a Galois number field with defining polynomial h and an odd prime p
outside the guard list, every irreducible factor of h mod p has the same
degree, and that common degree is the residue degree of p.  The guard
list contains the primes dividing the polynomial discriminant: there the
factor degrees of h mod p need not reflect the splitting of p (ramification
or index divisors), so such primes are skipped, never guessed.

The built-in configuration describes three fields of degrees 4, 8, 8
(see data/fields.cfg); their residue degrees (r, s, s') at a prime are
classified against a fixed three-line case table, with any other pattern
reported as a violation value rather than an exception.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .algebra import PolyModP, ddf_degrees, is_prime
from .cache import UNCACHED, LPolyCache
from .curvecount import DEFAULT_BUDGET, CurveModel, _rational_squarefree, curve_from_coeffs
from .errors import NotGaloisConsistentError, NotSquarefreeError, RamifiedPrimeError

FIELDS_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NumberFieldSpec:
    """A Galois number field given by a monic integer polynomial.

    ``disc_factors`` lists the primes dividing the polynomial
    discriminant; residue degrees are only computed away from them.
    The galois flag is configuration-asserted; consumers validate it
    statistically by checking equal factor degrees across many primes.
    """

    name: str
    role: str  # "base" | "cover-a" | "cover-b"
    defining_poly: tuple[int, ...]
    degree: int
    galois: bool
    disc_factors: frozenset[int]
    provenance: str = ""

    def __post_init__(self):
        if self.defining_poly[-1] != 1:
            raise ValueError(f"field {self.name}: defining polynomial must be monic")
        if len(self.defining_poly) - 1 != self.degree:
            raise ValueError(f"field {self.name}: degree does not match the polynomial")
        if not _rational_squarefree(self.defining_poly):
            raise ValueError(f"field {self.name}: defining polynomial is not squarefree over Q")


class SplitCase(Enum):
    I = "i"
    II = "ii"
    III = "iii"
    VIOLATION = "violation"


@dataclass(frozen=True)
class SplitProfile:
    """Residue degrees of p in the base field (r) and the two covers (s, s')."""

    p: int
    r: int
    s: int
    s_prime: int
    case: SplitCase


def residue_degree_galois(field: NumberFieldSpec, p: int) -> int:
    """Common degree of the irreducible factors of the defining polynomial mod p.

    Raises RamifiedPrimeError at guarded primes and NotGaloisConsistentError
    if the factor degrees are mixed (the configuration lied about being
    Galois, or the guard list is incomplete).
    """
    if not field.galois:
        raise ValueError(f"field {field.name} is not flagged Galois")
    if p in field.disc_factors:
        raise RamifiedPrimeError(f"p={p} divides the discriminant data of {field.name}")
    h = PolyModP(p, field.defining_poly)
    try:
        degs = ddf_degrees(h)
    except NotSquarefreeError as exc:
        raise RamifiedPrimeError(
            f"p={p}: defining polynomial of {field.name} is not squarefree mod p "
            "(missing guard prime?)"
        ) from exc
    if len(degs) != 1:
        raise NotGaloisConsistentError(
            f"{field.name} mod {p} has factor degrees {degs}; equal degrees expected"
        )
    return degs[0][0]


def cyclotomic_residue_degree(n: int, p: int) -> int:
    """Multiplicative order of p mod n (residue degree of p in Q(zeta_n))."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    import math

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


def split_profile(fields: dict[str, NumberFieldSpec], p: int) -> SplitProfile:
    """Residue degrees of p in the configured base/cover-a/cover-b triple."""
    base = _field_by_role(fields, "base")
    ca = _field_by_role(fields, "cover-a")
    cb = _field_by_role(fields, "cover-b")
    r = residue_degree_galois(base, p)
    s = residue_degree_galois(ca, p)
    sp = residue_degree_galois(cb, p)
    return SplitProfile(p, r, s, sp, case_classify(r, s, sp))


def guarded_primes(fields: dict[str, NumberFieldSpec]) -> frozenset[int]:
    out: set[int] = set()
    for f in fields.values():
        out |= f.disc_factors
    return frozenset(out)


def _field_by_role(fields: dict[str, NumberFieldSpec], role: str) -> NumberFieldSpec:
    hits = [f for f in fields.values() if f.role == role]
    if len(hits) != 1:
        raise ValueError(f"configuration needs exactly one field with role {role!r}")
    return hits[0]


@dataclass(frozen=True)
class TraceVanishing:
    ok: bool
    a: int
    a_prime: int


def verify_trace_vanishing(
    curve_a: CurveModel,
    curve_b: CurveModel,
    p: int,
    profile: SplitProfile,
    budget: int = DEFAULT_BUDGET,
    cache: LPolyCache = UNCACHED,
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
    a, b = cache.traces([curve_a, curve_b], p, budget)
    return TraceVanishing(a == 0 and b == 0, a, b)


# ---------------------------------------------------------------------------
# L-polynomial shape check for y^2 = x^9 + c x
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma62Violation:
    """The computed L-polynomial does not have the 1 + s T^4 + p^4 T^8 shape.

    Such a value would point at a counting bug, so callers should treat it
    as an implementation alarm, not as number theory.
    """

    lpoly: object


def lemma62_check(
    c: int, p: int, budget: int = DEFAULT_BUDGET, cache: LPolyCache = UNCACHED
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
    """Parse the plain-text field configuration format (see data/fields.cfg)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("twistscope-fields"):
        raise ValueError(f"{source}: missing 'twistscope-fields <version>' header")
    version = int(lines[0].split()[1])
    if version != FIELDS_FORMAT_VERSION:
        raise ValueError(f"{source}: unsupported fields format version {version}")
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
        disc = frozenset(int(q) for q in entry["disc-primes"].split(",")) if entry["disc-primes"] else frozenset()
        for q in disc:
            if not is_prime(q):
                raise ValueError(f"disc-primes entry {q} is not prime")
        return NumberFieldSpec(
            name=entry["field"],
            role=entry["role"],
            defining_poly=coeffs,
            degree=len(coeffs) - 1,
            galois=entry["galois"] == "true",
            disc_factors=disc,
            provenance=entry.get("provenance", ""),
        )
    except KeyError as exc:
        raise ValueError(f"{source}: field entry missing key {exc}") from exc


def load_field_config(path: str | Path) -> dict[str, NumberFieldSpec]:
    p = Path(path)
    return parse_field_config(p.read_text(), source=str(p))


def default_fields() -> dict[str, NumberFieldSpec]:
    """The built-in degree 4/8/8 triple shipped with the package."""
    text = (
        importlib.resources.files("twistscope").joinpath("data/fields.cfg").read_text()
    )
    return parse_field_config(text, source="data/fields.cfg")
