"""Local twist predicates, prime scans, character search, and twist statistics.

Two L-polynomials at the same prime are "twist-compatible" when one is the
other evaluated at T or at -T; the SignMatch verdict records which of the
two relations hold.  A scan walks every odd prime in a range and records
the verdict (trace-level or full), a character search tries to explain a
whole pair of curves by a single quadratic character d via the necessary
condition L'_p(T) = L_p(kronecker(d, p) * T), and the statistics helpers
compute the vanishing-middle-coefficient fraction and normalized moment
averages from a finished scan.  Counts come from an ``LPolyCache``: a scan
asks for all its primes at once, a search for one prime at a time.

All verdict logic is exact integer/rational arithmetic; floats appear only
in the normalized moment output.

Report text format (version 1, tab-separated, one record per line):

    twistscope-scan<TAB>1<TAB>labelA<TAB>labelB<TAB>pmin<TAB>pmax<TAB>depth<TAB>genus
    p<TAB>status<TAB>a<TAB>a'<TAB>Lcoeffs<TAB>L'coeffs<TAB>verdict
    ...
    #good<TAB>n        (aggregate block; exact counts and one exact fraction)

L-coefficients are comma-separated ascending integers; missing fields
(skips, trace-depth records) are "-".  Output is byte-identical across
runs and --jobs values for equal inputs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .algebra import is_prime, kronecker, odd_primes
from .curvecount import CurveModel, DEFAULT_BUDGET, LPolynomial, poly_discriminant
from .values import FrozenValue, Value

REPORT_FORMAT_VERSION = 1


class SignMatch(Enum):
    PLUS = "plus"
    MINUS = "minus"
    BOTH = "both"
    NONE = "none"


class TwistCharacter(FrozenValue):
    """Quadratic character of Q encoded by a squarefree nonzero integer d.

    The character value at an odd prime p is the Kronecker symbol (d/p);
    d = 1 is the trivial character.
    """

    __slots__ = ("d",)

    def __init__(self, d: int):
        if d == 0:
            raise ValueError("twist character needs a nonzero integer")
        n = abs(d)
        q = 2
        while q * q <= n:
            if n % (q * q) == 0:
                raise ValueError(f"d={d} is not squarefree")
            while n % q == 0:
                n //= q
            q += 1
        self._set(d)

    def value_at(self, p: int) -> int:
        return kronecker(self.d, p)


def _known_squarefree(d: int) -> TwistCharacter:
    """TwistCharacter(d) for a d built from distinct primes, without factoring d again.

    Trial division would run to sqrt|d|, which a large bad prime puts out
    of reach.
    """
    ch = object.__new__(TwistCharacter)
    ch._set(d)
    return ch


def local_twist_sign(L: LPolynomial, Lp: LPolynomial) -> SignMatch:
    """Compare L'(T) against L(T) and L(-T) at one prime."""
    if L.p != Lp.p or L.g != Lp.g:
        raise ValueError("L-polynomials belong to different primes or genera")
    plus = Lp.coeffs == L.coeffs
    minus = Lp.coeffs == L.sign_flipped().coeffs
    if plus and minus:
        return SignMatch.BOTH
    if plus:
        return SignMatch.PLUS
    if minus:
        return SignMatch.MINUS
    return SignMatch.NONE


def trace_sign_match(a: int, ap: int) -> SignMatch:
    """Sign relation between two Frobenius traces."""
    if a == ap == 0:
        return SignMatch.BOTH
    if a == ap:
        return SignMatch.PLUS
    if a == -ap:
        return SignMatch.MINUS
    return SignMatch.NONE


def even_coeff_invariant(L: LPolynomial, Lp: LPolynomial, verdict: SignMatch) -> bool:
    """Even-index coefficients must agree whenever a sign verdict exists."""
    if verdict is SignMatch.NONE:
        raise ValueError("even-coefficient check is only meaningful for matched records")
    return all(L.coeffs[k] == Lp.coeffs[k] for k in range(0, len(L.coeffs), 2))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


ScanRecord = namedtuple(
    "ScanRecord", "p status a a_prime lpoly_a lpoly_b verdict", defaults=(None,) * 5
)
ScanRecord.__doc__ = """One prime of a scan: status "ok", "bad-reduction" or "budget-exceeded".

Traces, L-polynomials and the verdict are None where the scan did not
compute them.
"""


class ScanReport(Value):
    """A scan's records in prime order; ``depth`` is "traces" or "full"."""

    __slots__ = ("label_a", "label_b", "pmin", "pmax", "depth", "genus", "records")

    def __init__(self, label_a: str, label_b: str, pmin: int, pmax: int, depth: str,
                 genus: int, records: list[ScanRecord] | None = None):
        self.label_a = label_a
        self.label_b = label_b
        self.pmin = pmin
        self.pmax = pmax
        self.depth = depth
        self.genus = genus
        self.records = [] if records is None else records

    @property
    def good_records(self) -> list[ScanRecord]:
        return [r for r in self.records if r.status == "ok"]

    def verdict_counts(self) -> dict[SignMatch, int]:
        out = {v: 0 for v in SignMatch}
        for r in self.good_records:
            out[r.verdict] += 1
        return out

    def none_fraction(self) -> Fraction:
        from fractions import Fraction

        good = self.good_records
        if not good:
            raise ValueError("scan produced no evaluated primes")
        return Fraction(self.verdict_counts()[SignMatch.NONE], len(good))

    def to_text(self) -> str:
        lines = [
            "\t".join(
                [
                    "twistscope-scan",
                    str(REPORT_FORMAT_VERSION),
                    self.label_a,
                    self.label_b,
                    str(self.pmin),
                    str(self.pmax),
                    self.depth,
                    str(self.genus),
                ]
            )
        ]
        for r in self.records:
            if r.status != "ok":
                lines.append("\t".join([str(r.p), r.status, "-", "-", "-", "-", "-"]))
                continue
            la = ",".join(map(str, r.lpoly_a.coeffs)) if r.lpoly_a else "-"
            lb = ",".join(map(str, r.lpoly_b.coeffs)) if r.lpoly_b else "-"
            lines.append(
                "\t".join(
                    [str(r.p), "ok", str(r.a), str(r.a_prime), la, lb, r.verdict.value]
                )
            )
        counts = self.verdict_counts()
        skipped_bad = sum(1 for r in self.records if r.status == "bad-reduction")
        skipped_budget = sum(1 for r in self.records if r.status == "budget-exceeded")
        good = len(self.good_records)
        lines.append(f"#scanned\t{len(self.records)}")
        lines.append(f"#good\t{good}")
        lines.append(f"#skipped-bad\t{skipped_bad}")
        lines.append(f"#skipped-budget\t{skipped_budget}")
        for v in SignMatch:
            lines.append(f"#verdict-{v.value}\t{counts[v]}")
        # none_fraction() in lowest terms, and 0/1 when nothing was evaluated
        none, k = counts[SignMatch.NONE], math.gcd(counts[SignMatch.NONE], good)
        lines.append(f"#none-fraction\t{none // k}/{good // k}" if good else "#none-fraction\t0/1")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ScanReport":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0].split("\t") if lines else []
        if len(head) < 8 or head[0] != "twistscope-scan" or head[1] != str(REPORT_FORMAT_VERSION):
            raise ValueError("not a twistscope scan report (or wrong version)")
        report = cls(
            label_a=head[2],
            label_b=head[3],
            pmin=int(head[4]),
            pmax=int(head[5]),
            depth=head[6],
            genus=int(head[7]),
        )
        g = report.genus
        for ln in lines[1:]:
            if ln.startswith("#"):
                continue
            p_, status, a, ap, la, lb, verdict = ln.split("\t")
            p = int(p_)
            if status != "ok":
                report.records.append(ScanRecord(p, status))
                continue
            La = LPolynomial(p, g, tuple(int(c) for c in la.split(","))) if la != "-" else None
            Lb = LPolynomial(p, g, tuple(int(c) for c in lb.split(","))) if lb != "-" else None
            report.records.append(
                ScanRecord(p, "ok", int(a), int(ap), La, Lb, SignMatch(verdict))
            )
        return report


def _bad_pair(curve_a: CurveModel, curve_b: CurveModel, p: int) -> bool:
    """Whether an odd prime p divides disc(f) for either curve: bad reduction."""
    return any(poly_discriminant(c.f_coeffs) % p == 0 for c in (curve_a, curve_b))


def scan_pair(
    curve_a: CurveModel,
    curve_b: CurveModel,
    pmin: int,
    pmax: int,
    depth: str = "traces",
    budget: int = DEFAULT_BUDGET,
    cache: LPolyCache | None = None,
) -> ScanReport:
    """Scan every odd prime in [pmin, pmax] and record the twist verdicts.

    Each prime appears exactly once: evaluated, or skipped with reason
    ("bad-reduction" for either curve, "budget-exceeded" when the counts
    it needs cost more than ``budget``).  A scan needs every prime, so the
    counts of all good primes go to ``cache`` as one batch; with
    ``cache.jobs > 1`` all their units share its helpers.  Records are in
    prime order, so the report does not depend on scheduling.
    """
    if pmin < 3:
        raise ValueError("scans start at 3: p = 2 is excluded")
    if depth not in ("traces", "full"):
        raise ValueError("depth must be 'traces' or 'full'")
    if curve_a.genus != curve_b.genus:
        raise ValueError("cannot scan curves of different genus")
    if cache is None:
        from .cache import UNCACHED as cache  # only commands that count load the cache
    report = ScanReport(curve_a.label, curve_b.label, pmin, pmax, depth, curve_a.genus)
    primes = odd_primes(pmin, pmax)
    bad = {p for p in primes if _bad_pair(curve_a, curve_b, p)}
    upto = 1 if depth == "traces" else curve_a.genus
    requests = [(c, p, upto) for p in primes if p not in bad for c in (curve_a, curve_b)]
    entries = iter(cache.resolve(requests, budget))
    for p in primes:
        if p in bad:
            report.records.append(ScanRecord(p, "bad-reduction"))
            continue
        ea, eb = next(entries), next(entries)
        if ea.short or eb.short:
            report.records.append(ScanRecord(p, "budget-exceeded"))
        elif depth == "traces":
            a, b = p + 1 - ea.counts[0], p + 1 - eb.counts[0]
            report.records.append(ScanRecord(p, "ok", a, b, None, None, trace_sign_match(a, b)))
        else:
            La, Lb = ea.lpoly, eb.lpoly
            verdict = local_twist_sign(La, Lb)
            report.records.append(ScanRecord(p, "ok", La.trace, Lb.trace, La, Lb, verdict))
    return report


# ---------------------------------------------------------------------------
# character enumeration and search
# ---------------------------------------------------------------------------


def enumerate_characters(
    support: set[int], include_2: bool = False, include_sign: bool = False
) -> list[TwistCharacter]:
    """All squarefree d built from the given odd primes, optionally 2 and -1.

    Returns 2^(|support| + include_2 + include_sign) characters including
    the trivial d = 1, ordered by (|d|, sign).
    """
    support_list = sorted(support)
    if len(support_list) != len(set(support_list)):
        raise ValueError("support primes must be distinct")
    for q in support_list:
        if q == 2 or q % 2 == 0 or not is_prime(q):
            raise ValueError(f"support must consist of odd primes, got {q}")
    factors = ([2] if include_2 else []) + support_list
    ds = [1]
    for q in factors:
        ds += [d * q for d in ds]
    if include_sign:
        ds += [-d for d in ds]
    ds.sort(key=lambda d: (abs(d), d < 0))
    return [_known_squarefree(d) for d in ds]


CharSearchResult = namedtuple(
    "CharSearchResult", "certified survivors witnesses primes_checked finite_evidence",
    defaults=(True,),
)
CharSearchResult.__doc__ = """Outcome of a finite character search.

certified=True means every tested prime is consistent with at least
one candidate; that is finite evidence only, never a proof, and
``finite_evidence`` stays True to keep reports honest.  survivors are
the surviving TwistCharacters ordered by |d|.  witnesses holds a
(d, witness prime) pair for each candidate d refuted, the first prime
refuting it; primes_checked the primes tested, ascending.
"""


def character_search(
    curve_a: CurveModel,
    curve_b: CurveModel,
    candidates: list[TwistCharacter],
    primes: list[int],
    budget: int = DEFAULT_BUDGET,
    cache: LPolyCache | None = None,
) -> CharSearchResult:
    """Test L'_p(T) = L_p(chi_d(p) T) for each candidate d over the primes.

    Primes are consumed in ascending order and the search stops as soon as
    every candidate is refuted, so a refutation never enumerates beyond
    its largest witness.  A prime with kronecker(d, p) = 0 is skipped for
    that candidate only.  All supplied primes must be odd and good for
    both curves.  L-polynomials come from ``cache`` (default: uncached).
    """
    if not candidates:
        raise ValueError("need at least one candidate character")
    if cache is None:
        from .cache import UNCACHED as cache
    alive: dict[int, TwistCharacter] = {c.d: c for c in candidates}
    witnesses: dict[int, int] = {}
    checked: list[int] = []
    for p in sorted(primes):
        if not alive:
            break
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"character search tests odd primes only, got {p}")
        if _bad_pair(curve_a, curve_b, p):
            raise ValueError(f"p={p} is a bad prime for the pair; filter it out first")
        La, Lb = cache.lpolys([curve_a, curve_b], p, budget)
        checked.append(p)
        for d in list(alive):
            eps = alive[d].value_at(p)
            if eps == 0:
                continue  # candidate ramified here; no information
            expected = La if eps == 1 else La.sign_flipped()
            if Lb.coeffs != expected.coeffs:
                witnesses[d] = p
                del alive[d]
    survivors = tuple(sorted(alive.values(), key=lambda c: (abs(c.d), c.d < 0)))
    if survivors:
        return CharSearchResult(True, survivors, tuple(sorted(witnesses.items())), tuple(checked))
    return CharSearchResult(False, (), tuple(sorted(witnesses.items())), tuple(checked))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def z20_statistic(report: ScanReport) -> Fraction:
    """Fraction of evaluated primes whose T^2 coefficient vanishes (exact)."""
    from fractions import Fraction

    if report.depth != "full":
        raise ValueError("statistic needs a full-depth report")
    good = [r for r in report.good_records if r.lpoly_a is not None]
    if not good:
        raise ValueError("report has no full L-polynomial records")
    zero = sum(1 for r in good if r.lpoly_a.coeffs[2] == 0)
    return Fraction(zero, len(good))


def moment_stats(report: ScanReport, weights: list[tuple[int, ...]]) -> list[dict]:
    """Empirical normalized moments for both curves, side by side.

    For an exponent tuple e = (e_1..e_g) the monomial is
    prod_i (a_i / p^(i/2))^e_i evaluated per evaluated prime and averaged.
    Returns one row per e with keys e/mean_a/mean_b/abs_diff.
    """
    if report.depth != "full":
        raise ValueError("moments need a full-depth report")
    good = [r for r in report.good_records if r.lpoly_a is not None]
    if not good:
        raise ValueError("report has no full L-polynomial records")
    g = report.genus
    rows = []
    for e in weights:
        if len(e) != g or any(x < 0 for x in e):
            raise ValueError(f"exponent tuple {e} does not match genus {g}")
        tot_a = tot_b = 0.0
        for r in good:
            va = vb = 1.0
            for i, ei in enumerate(e, start=1):
                if ei:
                    scale = float(r.p) ** (i / 2)
                    va *= (r.lpoly_a.coeffs[i] / scale) ** ei
                    vb *= (r.lpoly_b.coeffs[i] / scale) ** ei
            tot_a += va
            tot_b += vb
        mean_a = tot_a / len(good)
        mean_b = tot_b / len(good)
        rows.append(
            {"e": tuple(e), "mean_a": mean_a, "mean_b": mean_b, "abs_diff": abs(mean_a - mean_b)}
        )
    return rows
