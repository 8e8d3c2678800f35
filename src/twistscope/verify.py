"""Built-in verification suite over the shipped curve pairs and field data.

Runs ten numbered checks against the two reference pairs

    genus 2:  y^2 = x^5 - x   vs  y^2 = x^5 + 4x
    genus 4:  y^2 = x^9 + x   vs  y^2 = x^9 + 16x

covering trace agreement, the full-depth incompatibility at p = 3, the
opposite traces at p = 17, conclusive local verdicts up to 47, the
1 + s T^4 + p^4 T^8 shape, flat counts at larger primes, the splitting
case table, a split-density sanity bound, agreement with a direct
enumeration oracle, and the global Weil/even-coefficient invariants.
Every tolerance is fixed here; all checks are exact except the density
window of check 8 (0.25 +- 0.01, compared with exact rationals).

This module contains the orchestration only; every number is produced by
the algebra/curvecount/twistlab/splitfield operations.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import product

from .algebra import build_extension, legendre, odd_primes
from .cache import UNCACHED, LPolyCache
from .curvecount import (
    DEFAULT_BUDGET,
    CurveModel,
    LPolynomial,
    curve_from_coeffs,
    log_derivative_counts,
    validate_weil,
)
from .errors import BudgetExceededError, TwistscopeError
from .splitfield import (
    SplitCase,
    cyclotomic_residue_degree,
    default_fields,
    lemma62_check,
    split_profiles,
    verify_trace_vanishing,
)
from .twistlab import (
    ScanReport,
    SignMatch,
    character_search,
    enumerate_characters,
    even_coeff_invariant,
    local_twist_sign,
    scan_pair,
)
from .values import Value

GENUS2_A = curve_from_coeffs((0, -1, 0, 0, 0, 1))  # x^5 - x
GENUS2_B = curve_from_coeffs((0, 4, 0, 0, 0, 1))  # x^5 + 4x
GENUS4_A = curve_from_coeffs((0, 1, 0, 0, 0, 0, 0, 0, 0, 1))  # x^9 + x
GENUS4_B = curve_from_coeffs((0, 16, 0, 0, 0, 0, 0, 0, 0, 1))  # x^9 + 16x
GENUS1_REF = curve_from_coeffs((0, -1, 0, 1))  # x^3 - x, oracle-check curve


class CriterionResult(Value):
    """One criterion's outcome and the line ``verify-paper`` prints for it."""

    __slots__ = ("number", "title", "passed", "detail", "elapsed", "blocked_by_budget")

    def __init__(self, number: int, title: str, passed: bool, detail: str,
                 elapsed: float = 0.0, blocked_by_budget: bool = False):
        self.number = number
        self.title = title
        self.passed = passed
        self.detail = detail
        self.elapsed = elapsed
        self.blocked_by_budget = blocked_by_budget

    def line(self, timed: bool = True) -> str:
        """The printed line; ``timed`` adds the criterion's wall-clock seconds."""
        status = "PASS" if self.passed else "FAIL"
        if self.blocked_by_budget:
            status = "FAIL(budget)"
        clock = f" [{self.elapsed:.1f}s]" if timed else ""
        return f"{status} criterion {self.number}{clock} {self.title}: {self.detail}"


class _Context(Value):
    """What the criteria share: the budget, the cache, and what earlier ones produced."""

    __slots__ = ("budget", "cache", "lpolys", "reports", "genus4_full")

    def __init__(self, budget: int, cache: LPolyCache, lpolys: list[LPolynomial] | None = None,
                 reports: list[ScanReport] | None = None, genus4_full: ScanReport | None = None):
        self.budget = budget
        self.cache = cache
        self.lpolys = [] if lpolys is None else lpolys
        self.reports = [] if reports is None else reports
        self.genus4_full = genus4_full

    def lpoly(self, curve: CurveModel, p: int) -> LPolynomial:
        L = self.cache.lpoly(curve, p, self.budget)
        self.lpolys.append(L)
        return L


def reference_point_count(curve: CurveModel, p: int, i: int) -> int:
    """Direct enumeration oracle: histogram the squares, then walk x.

    #C(F_q) = 1 + sum_x #{y : y^2 = f(x)}, with the y-counts taken from
    one squaring pass over the field.  No characters, no Newton identities;
    this is the independent cross-check for the counting pipeline.  Field
    elements are coefficient tuples in the power basis of
    build_extension(p, i).modulus, multiplied schoolbook and folded by it;
    nothing here shares code with the counting kernels.
    """
    modulus = build_extension(p, i).modulus
    low = modulus.coeffs[:-1] if modulus else ()  # t^i = -sum low[j] t^j

    def mul(a, b):
        prod = [0] * (2 * i - 1)
        for j, aj in enumerate(a):
            if aj:
                for k, bk in enumerate(b):
                    prod[j + k] += aj * bk
        for top in range(2 * i - 2, i - 1, -1):
            c = prod[top]
            if c:
                for j, mj in enumerate(low):
                    prod[top - i + j] -= c * mj
        return tuple(v % p for v in prod[:i])

    elements = list(product(range(p), repeat=i))
    squares = Counter(mul(e, e) for e in elements)
    consts = [c % p for c in reversed(curve.f_coeffs)]
    total = 0
    for x in elements:
        acc = (0,) * i
        for c in consts:
            acc = mul(acc, x)
            acc = ((acc[0] + c) % p,) + acc[1:]
        total += squares[acc]
    return total + 1


# ---------------------------------------------------------------------------
# the ten criteria
# ---------------------------------------------------------------------------


def _c1_genus2_traces(ctx: _Context):
    report = scan_pair(
        GENUS2_A, GENUS2_B, 3, 1000, depth="traces", budget=ctx.budget, cache=ctx.cache
    )
    ctx.reports.append(report)
    if any(r.status == "budget-exceeded" for r in report.records):
        raise BudgetExceededError(997, ctx.budget, "genus-2 trace scan to 1000")  # a trace costs p
    counts = report.verdict_counts()
    ok = (
        len(report.records) == 167
        and all(r.status == "ok" for r in report.records)
        and counts[SignMatch.NONE] == 0
    )
    detail = (
        f"167 odd primes <= 1000, verdicts plus/minus/both/none = "
        f"{counts[SignMatch.PLUS]}/{counts[SignMatch.MINUS]}/"
        f"{counts[SignMatch.BOTH]}/{counts[SignMatch.NONE]}"
    )
    return ok, detail


def _c2_genus2_failure_at_3(ctx: _Context):
    La = ctx.lpoly(GENUS2_A, 3)
    Lb = ctx.lpoly(GENUS2_B, 3)
    verdict = local_twist_sign(La, Lb)
    chars = enumerate_characters(set(), include_2=True, include_sign=True)
    result = character_search(
        GENUS2_A, GENUS2_B, chars, odd_primes(3, 97), budget=ctx.budget, cache=ctx.cache
    )
    witnesses = dict(result.witnesses)
    ok = (
        verdict is SignMatch.NONE
        and not result.certified
        and sorted(witnesses) == [-2, -1, 1, 2]
        and all(w == 3 for w in witnesses.values())
    )
    detail = (
        f"L_3 = {list(La.coeffs)} vs {list(Lb.coeffs)} -> verdict {verdict.value}; "
        f"witnesses {sorted(witnesses.items())}"
    )
    return ok, detail


def _c3_genus4_traces_at_17(ctx: _Context):
    a, b = ctx.cache.traces([GENUS4_A, GENUS4_B], 17, ctx.budget)
    chars = enumerate_characters(set(), include_2=True, include_sign=True)
    result = character_search(
        GENUS4_A, GENUS4_B, chars, odd_primes(3, 97), budget=ctx.budget, cache=ctx.cache
    )
    witnesses = dict(result.witnesses)
    ok = (
        sorted((a, b)) == [-8, 8]
        and not result.certified
        and sorted(witnesses) == [-2, -1, 1, 2]
        and all(w == 17 for w in witnesses.values())
    )
    detail = (
        f"a_17({GENUS4_A.label}) = {a}, a_17({GENUS4_B.label}) = {b}; "
        f"witnesses {sorted(witnesses.items())}"
    )
    return ok, detail


def _c4_genus4_full_scan(ctx: _Context):
    report = scan_pair(
        GENUS4_A, GENUS4_B, 3, 47, depth="full", budget=ctx.budget, cache=ctx.cache
    )
    ctx.reports.append(report)
    ctx.genus4_full = report
    if any(r.status == "budget-exceeded" for r in report.records):
        raise BudgetExceededError(
            sum(47**i for i in range(1, 5)), ctx.budget, "genus-4 full scan to 47"
        )
    if len(report.records) != 14 or any(r.status != "ok" for r in report.records):
        return False, "scan did not evaluate all 14 odd primes <= 47"
    bad = [r.p for r in report.records if r.verdict is SignMatch.NONE]
    # At p = 1,7 mod 8 a square root a of 2 exists mod p and the curves are
    # twists by the character with value (a/p); the verdict must allow every
    # sign arising from either root. For p = 7 mod 8 the two roots carry
    # opposite symbols, forcing all odd coefficients to vanish (verdict both);
    # for p = 1 mod 8 the symbol is root-independent and fixes the sign.
    mismatches = []
    for r in report.records:
        if r.p % 8 not in (1, 7):
            continue
        signs = {legendre(x, r.p) for x in range(1, r.p) if x * x % r.p == 2}
        if signs == {1, -1}:
            if r.verdict is not SignMatch.BOTH:
                mismatches.append((r.p, r.verdict.value, "both"))
        else:
            expected = SignMatch.PLUS if signs == {1} else SignMatch.MINUS
            if r.verdict not in (expected, SignMatch.BOTH):
                mismatches.append((r.p, r.verdict.value, expected.value))
    ok = not bad and not mismatches
    verdicts = ", ".join(f"{r.p}:{r.verdict.value}" for r in report.records)
    detail = f"verdicts {verdicts}"
    if bad:
        detail += f"; NONE at {bad}"
    if mismatches:
        detail += f"; sign mismatches {mismatches}"
    return ok, detail


def _c5_lemma62_shape(ctx: _Context):
    primes = [p for p in odd_primes(3, 47) if p % 8 in (3, 5)]
    svals: dict[int, dict[int, int]] = {1: {}, 16: {}}
    for c in (1, 16):
        for p in primes:
            s = lemma62_check(c, p, budget=ctx.budget, cache=ctx.cache)
            if not isinstance(s, int):
                return False, f"shape violated for c={c} at p={p}: {s}"
            svals[c][p] = s
    if ctx.genus4_full is None:
        return False, "full-depth scan unavailable (criterion 4 did not complete)"
    unequal = []
    for r in ctx.genus4_full.good_records:
        if r.p in primes and r.lpoly_a.coeffs != r.lpoly_b.coeffs:
            unequal.append(r.p)
    ok = not unequal and svals[1] == svals[16]
    detail = f"s values at {primes}: {[svals[1][p] for p in primes]} (equal for c=1, c=16)"
    if unequal:
        detail += f"; L-polynomials differ at {unequal}"
    return ok, detail


def _c6_flat_counts(ctx: _Context):
    primes = [p for p in odd_primes(48, 150) if p % 8 in (3, 5)]
    curves = [GENUS4_A, GENUS4_B]
    by_p = {p: ctx.cache.counts(curves, p, upto=3, budget=ctx.budget) for p in primes}
    wrong = []
    for k, curve in enumerate(curves):  # failures curve by curve, then by p
        for p in primes:
            for i, n in enumerate(by_p[p][k], start=1):
                if n != p**i + 1:
                    wrong.append((curve.label, p, i, n))
    ok = not wrong
    detail = f"N_i = p^i + 1 for i<=3 at {len(primes)} primes in (47,150], both curves"
    if wrong:
        detail = f"flat-count failures: {wrong}"
    return ok, detail


def _c7_case_table(ctx: _Context):
    fields = default_fields()
    freq = {c: 0 for c in SplitCase}
    nonzero_traces = []
    violations = []
    for p, profile in split_profiles(fields, odd_primes(3, 1000)):
        if profile is None:
            continue
        freq[profile.case] += 1
        if profile.case is SplitCase.VIOLATION:
            violations.append(p)
            continue
        if profile.case in (SplitCase.II, SplitCase.III):
            tv = verify_trace_vanishing(GENUS2_A, GENUS2_B, p, profile, ctx.budget, ctx.cache)
            if not tv.ok:
                nonzero_traces.append((p, tv.a, tv.a_prime))
    ok = not violations and not nonzero_traces
    detail = (
        f"cases i/ii/iii/violation = {freq[SplitCase.I]}/{freq[SplitCase.II]}/"
        f"{freq[SplitCase.III]}/{freq[SplitCase.VIOLATION]} over unguarded odd p <= 1000"
    )
    if nonzero_traces:
        detail += f"; nonvanishing traces {nonzero_traces}"
    return ok, detail


def _c8_split_density(ctx: _Context):
    from fractions import Fraction

    primes = odd_primes(3, 100_000)
    split = sum(1 for p in primes if cyclotomic_residue_degree(8, p) == 1)
    frac = Fraction(split, len(primes))
    ok = abs(frac - Fraction(1, 4)) <= Fraction(1, 100)
    return ok, f"split fraction {split}/{len(primes)} = {float(frac):.4f} (window 0.25 +- 0.01)"


def _c9_oracle_equivalence(ctx: _Context):
    mismatches = []
    for curve in (GENUS2_A, GENUS2_B, GENUS1_REF):
        for p in odd_primes(3, 13):
            L = ctx.lpoly(curve, p)
            predicted = log_derivative_counts(L, 2 * curve.genus)
            direct = [
                reference_point_count(curve, p, i) for i in range(1, 2 * curve.genus + 1)
            ]
            if predicted != direct:
                mismatches.append((curve.label, p, predicted, direct))
    ok = not mismatches
    detail = "L-polynomial counts match direct enumeration for 3 curves, p <= 13, i <= 2g"
    if mismatches:
        detail = f"oracle mismatches: {mismatches}"
    return ok, detail


def _c10_global_invariants(ctx: _Context):
    lpolys = ctx.lpolys + [
        L for report in ctx.reports for r in report.good_records for L in (r.lpoly_a, r.lpoly_b) if L
    ]
    weil_bad = [L for L in lpolys if validate_weil(L)]
    even_bad = []
    for report in ctx.reports:
        for r in report.good_records:
            if r.lpoly_a is None or r.verdict is SignMatch.NONE:
                continue
            if not even_coeff_invariant(r.lpoly_a, r.lpoly_b, r.verdict):
                even_bad.append((report.label_a, report.label_b, r.p))
    ok = not weil_bad and not even_bad
    detail = (
        f"{len(lpolys)} L-polynomials Weil-consistent; even-coefficient "
        f"invariant holds on every matched full-depth record"
    )
    if weil_bad:
        detail = f"Weil violations: {[(L.p, L.coeffs) for L in weil_bad]}"
    if even_bad:
        detail += f"; even-coefficient failures: {even_bad}"
    return ok, detail


_CRITERIA = [
    (1, "genus-2 trace signs conclusive to 1000", _c1_genus2_traces),
    (2, "genus-2 full depth refutes twisting at 3", _c2_genus2_failure_at_3),
    (3, "genus-4 traces -8/+8 at 17 refute all characters", _c3_genus4_traces_at_17),
    (4, "genus-4 full verdicts conclusive to 47", _c4_genus4_full_scan),
    (5, "quartic shape 1 + sT^4 + p^4T^8 with equal pairs", _c5_lemma62_shape),
    (6, "flat counts N_i = p^i + 1 for i<=3 in (47,150]", _c6_flat_counts),
    (7, "splitting case table and trace vanishing to 1000", _c7_case_table),
    (8, "split density 0.25 +- 0.01 at 1e5", _c8_split_density),
    (9, "counts from L match direct enumeration (p <= 13)", _c9_oracle_equivalence),
    (10, "Weil and even-coefficient invariants on all outputs", _c10_global_invariants),
]


def run_all(
    budget: int = DEFAULT_BUDGET, cache: LPolyCache = UNCACHED, echo=None
) -> list[CriterionResult]:
    """Run all ten criteria in order; returns one result per criterion.

    A criterion that cannot run inside the budget is reported as
    FAIL(budget) and the remaining criteria still execute.  ``echo``, if
    given, is called with each result as its criterion finishes.
    """
    ctx = _Context(budget=budget, cache=cache)
    results = []
    for number, title, fn in _CRITERIA:
        start = time.monotonic()
        try:
            ok, detail = fn(ctx)
            blocked = False
        except BudgetExceededError as exc:
            ok, detail, blocked = False, str(exc), True
        except TwistscopeError as exc:
            ok, detail, blocked = False, f"{type(exc).__name__}: {exc}", False
        result = CriterionResult(
            number, title, ok, detail, time.monotonic() - start, blocked
        )
        results.append(result)
        if echo:
            echo(result)
    return results


def exit_code(results: list[CriterionResult]) -> int:
    """0 all passed; 1 any mathematical failure; 3 only budget blockages."""
    math_fail = any(not r.passed and not r.blocked_by_budget for r in results)
    budget_fail = any(r.blocked_by_budget for r in results)
    if math_fail:
        return 1
    if budget_fail:
        return 3
    return 0
