"""Command-line front end.

Subcommands: lpoly, scan, char-search, split, lemma62, stats, verify-paper.
Every number printed here is produced by the library modules; this file
only parses input, hands every point count to one ``LPolyCache`` per
command, and formats output.

Exit codes: 0 success, 1 mathematical finding/criterion failure,
2 configuration or I/O error, 3 work budget exceeded.

The cache directory is taken from --cache-dir, else the environment
variable TWISTSCOPE_CACHE_DIR, else ./.twistscope-cache.  --jobs sizes the
cache's worker pool for every subcommand that counts points (lpoly, scan,
char-search, lemma62, verify-paper).  All cache reads and writes happen in
this process (workers only count).  Structured output is byte-identical
for identical inputs regardless of --jobs, and of cache state when the
budget covers every count (a warm cache serves what a tight one refuses).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import __version__
from .algebra import is_prime, odd_primes
from .cache import LPolyCache, resolve_cache_dir
from .curvecount import (
    DEFAULT_BUDGET,
    CurveModel,
    curve_from_coeffs,
    odd_bad_primes,
    validate_weil,
)
from .errors import (
    BadReductionError,
    BudgetExceededError,
    TwistscopeError,
)
from .splitfield import (
    Lemma62Violation,
    default_fields,
    guarded_primes,
    lemma62_check,
    load_field_config,
    split_profile,
)
from .twistlab import (
    ScanReport,
    SignMatch,
    character_search,
    enumerate_characters,
    moment_stats,
    scan_pair,
    z20_statistic,
)
from .verify import exit_code as verify_exit_code
from .verify import run_all


class CliError(Exception):
    """Configuration or usage error (exit code 2)."""


def _prime_range(args) -> list[int]:
    """The odd primes in [--pmin, --pmax], after checking the range."""
    if args.pmin < 3 or args.pmin % 2 == 0:
        raise CliError("prime range must start at an odd value >= 3")
    if args.pmax < args.pmin:
        raise CliError("empty prime range")
    return odd_primes(args.pmin, args.pmax)


_TERM_RE = re.compile(r"^(?P<coeff>[+-]?\d*)\*?x(?:\^(?P<exp>\d+))?$")
_CONST_RE = re.compile(r"^[+-]?\d+$")


def parse_curve(expr: str) -> CurveModel:
    """Parse a monic odd-degree integer polynomial in x into a CurveModel.

    Accepts forms like "x^5 - x", "x^9+16x", "x^3 - 2*x + 1".  Errors
    carry the character position of the offending term.
    """
    compact = expr.replace(" ", "")
    if not compact:
        raise CliError("empty curve expression")
    pieces: list[tuple[int, str]] = []
    start = 0
    for k, ch in enumerate(compact):
        if ch in "+-" and k > start:
            pieces.append((start, compact[start:k]))
            start = k
    pieces.append((start, compact[start:]))
    coeffs: dict[int, int] = {}
    for pos, term in pieces:
        m = _TERM_RE.match(term)
        if m:
            raw = m.group("coeff")
            coeff = int(raw + "1") if raw in ("", "+", "-") else int(raw)
            exp = int(m.group("exp") or 1)
        elif _CONST_RE.match(term):
            coeff, exp = int(term), 0
        else:
            raise CliError(f"cannot parse term {term!r} at position {pos} in {expr!r}")
        if exp in coeffs:
            raise CliError(f"degree {exp} appears twice in {expr!r}")
        coeffs[exp] = coeff
    deg = max(coeffs)
    if deg % 2 == 0 or not 3 <= deg <= 9:
        raise CliError(f"degree must be odd and within 3..9, got {deg}")
    if coeffs[deg] != 1:
        raise CliError(f"leading term must be monic, got coefficient {coeffs[deg]}")
    vec = tuple(coeffs.get(k, 0) for k in range(deg + 1))
    try:
        return curve_from_coeffs(vec)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _fmt_coeffs(coeffs) -> str:
    return ",".join(map(str, coeffs))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_lpoly(args, cache, out) -> int:
    curve = parse_curve(args.curve)
    if args.p is not None:
        primes = [args.p]
    else:
        if args.pmax is None:
            raise CliError("give --p or a --pmin/--pmax range")
        primes = _prime_range(args)
    single = args.p is not None
    for p in primes:
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise CliError(f"p must be an odd prime, got {p}")
        try:
            L = cache.lpoly(curve, p, args.budget)
        except BadReductionError:
            if single:
                raise
            if args.format == "records":
                print(f"lpoly\t{curve.label}\t{p}\tbad-reduction\t-\t-", file=out)
            else:
                print(f"p={p}: bad reduction", file=out)
            continue
        weil = validate_weil(L)
        status = "ok" if not weil else ";".join(weil)
        if args.format == "records":
            print(
                f"lpoly\t{curve.label}\t{p}\t{_fmt_coeffs(L.coeffs)}\t{L.trace}\t{status}",
                file=out,
            )
        else:
            print(f"curve {curve.label}  p={p}", file=out)
            print(f"  L: {_fmt_coeffs(L.coeffs)}", file=out)
            print(f"  trace: {L.trace}", file=out)
            print(f"  weil: {status}", file=out)
    return 0


def _cmd_scan(args, cache, out) -> int:
    curve_a = parse_curve(args.curve_a)
    curve_b = parse_curve(args.curve_b)
    _prime_range(args)
    report = scan_pair(curve_a, curve_b, args.pmin, args.pmax, args.depth, args.budget, cache)
    if args.format == "records":
        out.write(report.to_text())
        return 0
    counts = report.verdict_counts()
    print(f"scan {curve_a.label} vs {curve_b.label}  [{args.pmin},{args.pmax}] depth={args.depth}", file=out)
    for r in report.records:
        if r.status != "ok":
            print(f"  p={r.p}: skipped ({r.status})", file=out)
            continue
        line = f"  p={r.p}: a={r.a} a'={r.a_prime} verdict={r.verdict.value}"
        if r.lpoly_a is not None:
            line += f"  L={_fmt_coeffs(r.lpoly_a.coeffs)} L'={_fmt_coeffs(r.lpoly_b.coeffs)}"
        print(line, file=out)
    good = len(report.good_records)
    print(
        f"  evaluated {good}/{len(report.records)}; verdicts "
        f"plus={counts[SignMatch.PLUS]} minus={counts[SignMatch.MINUS]} "
        f"both={counts[SignMatch.BOTH]} none={counts[SignMatch.NONE]}",
        file=out,
    )
    if good:
        nf = report.none_fraction()
        print(f"  none-fraction {nf.numerator}/{nf.denominator} (finite-range observation)", file=out)
    return 0


def _cmd_char_search(args, cache, out) -> int:
    curve_a = parse_curve(args.curve_a)
    curve_b = parse_curve(args.curve_b)
    if args.support is not None:
        support = {int(tk) for tk in args.support.split(",") if tk}
    else:
        support = odd_bad_primes(curve_a) | odd_bad_primes(curve_b)
    candidates = enumerate_characters(support, args.include_2, args.include_sign)
    bad = odd_bad_primes(curve_a) | odd_bad_primes(curve_b)
    primes = [p for p in _prime_range(args) if p not in bad]
    result = character_search(curve_a, curve_b, candidates, primes, args.budget, cache)
    if args.format == "records":
        for d, w in result.witnesses:
            print(f"char\t{d}\trefuted\t{w}", file=out)
        for ch in result.survivors:
            print(f"char\t{ch.d}\tsurvived\t-", file=out)
        print(
            f"char-search\t{'certified' if result.certified else 'refuted'}\t"
            f"finite-evidence\t{len(result.primes_checked)}",
            file=out,
        )
        return 0
    print(f"char-search {curve_a.label} vs {curve_b.label}", file=out)
    print(f"  candidates: {[c.d for c in candidates]}", file=out)
    for d, w in result.witnesses:
        print(f"  d={d}: refuted, witness p={w}", file=out)
    for ch in result.survivors:
        print(f"  d={ch.d}: survived all {len(result.primes_checked)} tested primes", file=out)
    if result.certified:
        print(
            "  consistent candidates found (finite evidence only, "
            "no twist relation is proven)",
            file=out,
        )
    else:
        print("  all candidates refuted", file=out)
    return 0


def _cmd_split(args, cache, out) -> int:
    fields = load_field_config(args.fields) if args.fields else default_fields()
    guard = guarded_primes(fields)
    freq: dict[str, int] = {"i": 0, "ii": 0, "iii": 0, "violation": 0}
    for p in _prime_range(args):
        if p in guard:
            if args.format == "records":
                print(f"split\t{p}\tguarded\t-\t-\t-", file=out)
            else:
                print(f"  p={p}: skipped (guarded prime)", file=out)
            continue
        profile = split_profile(fields, p)
        freq[profile.case.value] += 1
        if args.format == "records":
            print(
                f"split\t{p}\tok\t{profile.r}\t{profile.s}\t{profile.s_prime}\t{profile.case.value}",
                file=out,
            )
        else:
            print(
                f"  p={p}: r={profile.r} s={profile.s} s'={profile.s_prime} case={profile.case.value}",
                file=out,
            )
    summary = "\t".join(f"{k}={v}" for k, v in freq.items())
    if args.format == "records":
        print(f"split-summary\t{summary}", file=out)
    else:
        print(f"  case frequencies: {summary}", file=out)
    return 0


def _cmd_lemma62(args, cache, out) -> int:
    primes = _prime_range(args)
    if args.c == 0:
        raise CliError("c must be nonzero")
    rc = 0
    for p in primes:
        if p % 8 not in (3, 5):
            continue
        if args.c % p == 0:
            line = (
                f"lemma62\t{args.c}\t{p}\tbad-reduction\t-"
                if args.format == "records"
                else f"  p={p}: bad reduction"
            )
            print(line, file=out)
            continue
        s = lemma62_check(args.c, p, args.budget, cache)
        if isinstance(s, Lemma62Violation):
            rc = 1
            detail = _fmt_coeffs(s.lpoly.coeffs)
            line = (
                f"lemma62\t{args.c}\t{p}\tviolation\t{detail}"
                if args.format == "records"
                else f"  p={p}: SHAPE VIOLATION L={detail}"
            )
        else:
            line = (
                f"lemma62\t{args.c}\t{p}\tok\t{s}"
                if args.format == "records"
                else f"  p={p}: s={s}"
            )
        print(line, file=out)
    return rc


def _cmd_stats(args, cache, out) -> int:
    try:
        text = open(args.report).read()
    except OSError as exc:
        raise CliError(f"cannot read report: {exc}") from exc
    report = ScanReport.from_text(text)
    z = z20_statistic(report)
    if args.format == "records":
        print(f"z20\t{z.numerator}/{z.denominator}", file=out)
    else:
        print(
            f"T^2-coefficient vanishing fraction: {z.numerator}/{z.denominator}"
            f" = {float(z):.4f} (finite-range observation)",
            file=out,
        )
    weights = []
    for spec_str in args.e or []:
        weights.append(tuple(int(tk) for tk in spec_str.split(",")))
    if not weights:
        g = report.genus
        weights = [tuple([0] * g), (2,) + (0,) * (g - 1), (0, 1) + (0,) * (g - 2)]
    rows = moment_stats(report, weights)
    for row in rows:
        e_str = ",".join(map(str, row["e"]))
        if args.format == "records":
            print(
                f"moment\t{e_str}\t{row['mean_a']!r}\t{row['mean_b']!r}\t{row['abs_diff']!r}",
                file=out,
            )
        else:
            print(
                f"  e=({e_str}): {row['mean_a']:.6f} vs {row['mean_b']:.6f}"
                f"  |diff|={row['abs_diff']:.2e}",
                file=out,
            )
    return 0


def _cmd_verify(args, cache, out) -> int:
    results = run_all(budget=args.budget, cache=cache, echo=lambda s: print(s, file=out))
    return verify_exit_code(results)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                        help="max field evaluations per prime (default 2e8)")
    common.add_argument("--cache-dir", default=None,
                        help="cache directory (default: $TWISTSCOPE_CACHE_DIR or ./.twistscope-cache)")
    common.add_argument("--format", choices=("table", "records"), default="table",
                        help="human table or structured tab-separated records")
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for point counting, in every subcommand that counts")

    parser = argparse.ArgumentParser(
        prog="twistscope",
        description="L-polynomials of hyperelliptic Jacobians and local twist scans",
    )
    parser.add_argument("--version", action="version", version=f"twistscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lpoly", parents=[common], help="L-polynomial of one curve")
    sp.add_argument("curve", help="e.g. 'x^5 - x'")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--pmin", type=int, default=3)
    sp.add_argument("--pmax", type=int, default=None)
    sp.set_defaults(fn=_cmd_lpoly)

    sp = sub.add_parser("scan", parents=[common], help="scan a pair over a prime range")
    sp.add_argument("curve_a")
    sp.add_argument("curve_b")
    sp.add_argument("--pmin", type=int, default=3)
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--depth", choices=("traces", "full"), default="traces")
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("char-search", parents=[common],
                        help="search quadratic characters explaining a pair")
    sp.add_argument("curve_a")
    sp.add_argument("curve_b")
    sp.add_argument("--pmin", type=int, default=3)
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--support", default=None,
                    help="comma-separated odd primes (default: odd bad primes of the pair)")
    sp.add_argument("--include-2", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--include-sign", action=argparse.BooleanOptionalAction, default=True)
    sp.set_defaults(fn=_cmd_char_search)

    sp = sub.add_parser("split", parents=[common], help="residue-degree case table")
    sp.add_argument("--pmin", type=int, default=3)
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--fields", default=None, help="field configuration file")
    sp.set_defaults(fn=_cmd_split)

    sp = sub.add_parser("lemma62", parents=[common],
                        help="s-values of y^2 = x^9 + cx at p = 3,5 mod 8")
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--pmin", type=int, default=3)
    sp.add_argument("--pmax", type=int, required=True)
    sp.set_defaults(fn=_cmd_lemma62)

    sp = sub.add_parser("stats", parents=[common],
                        help="z-statistic and moments from a records-format scan report")
    sp.add_argument("report")
    sp.add_argument("--e", action="append",
                    help="exponent tuple, comma-separated, one per flag (repeatable)")
    sp.set_defaults(fn=_cmd_stats)

    sp = sub.add_parser("verify-paper", parents=[common],
                        help="run the built-in verification suite")
    sp.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with LPolyCache(resolve_cache_dir(args.cache_dir), jobs=args.jobs) as cache:
            return args.fn(args, cache, sys.stdout)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (BadReductionError, TwistscopeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
