"""Command-line front end.

Subcommands: lpoly, scan, char-search, split, lemma62, stats, verify-paper.
Every number printed here is produced by the library modules; this file
only parses input, hands every point count to one ``LPolyCache`` per
command, and formats output.  Each per-result line goes out through
``_emit``, which picks between --format records and table; only scan's
report and char-search's table header make that choice themselves.

Exit codes: 0 success, 1 mathematical finding/criterion failure,
2 configuration or I/O error, 3 work budget exceeded, 4 a kernel
self-check failed (an ArithmeticError, reported as ``internal error: ...``).

The cache directory is taken from --cache-dir, else the environment
variable TWISTSCOPE_CACHE_DIR, else ./.twistscope-cache.  --jobs is the
number of the cache's counting helpers for every subcommand that counts
points (lpoly, scan, char-search, lemma62, verify-paper).  All cache reads
and writes happen in this process (helpers only count).  Structured output is byte-identical
for identical inputs regardless of --jobs, and of cache state when the
budget covers every count (a warm cache serves what a tight one refuses).

Each subcommand imports the library code it runs when it runs, so a
command loads only its own path: ``split`` and ``stats`` open no cache.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import __version__

# the subcommands that count points; only these open an LPolyCache
_COUNTING = {"lpoly", "scan", "char-search", "lemma62", "verify-paper"}


class CliError(Exception):
    """Configuration or usage error (exit code 2)."""


def _prime_range(args) -> list[int]:
    """The odd primes in [--pmin, --pmax], after checking the range."""
    from .algebra import odd_primes

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
    from .curvecount import curve_from_coeffs

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


def _emit(args, out, record: tuple, table: str) -> None:
    """Print one result: the tab-joined ``record`` under --format records, else ``table``."""
    print("\t".join(map(str, record)) if args.format == "records" else table, file=out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_lpoly(args, cache, out) -> int:
    from .algebra import is_prime
    from .curvecount import validate_weil
    from .errors import BadReductionError

    curve = parse_curve(args.curve)
    single = args.p is not None
    if single:
        if args.p < 3 or args.p % 2 == 0 or not is_prime(args.p):
            raise CliError(f"p must be an odd prime, got {args.p}")
        primes = [args.p]
    elif args.pmax is None:
        raise CliError("give --p or a --pmin/--pmax range")
    else:
        primes = _prime_range(args)  # sieve output: prime by construction
    for p in primes:
        try:
            L = cache.lpoly(curve, p, args.budget)
        except BadReductionError:
            if single:
                raise
            _emit(args, out, ("lpoly", curve.label, p, "bad-reduction", "-", "-"),
                  f"p={p}: bad reduction")
            continue
        coeffs = _fmt_coeffs(L.coeffs)
        status = ";".join(validate_weil(L)) or "ok"
        _emit(args, out, ("lpoly", curve.label, p, coeffs, L.trace, status),
              f"curve {curve.label}  p={p}\n  L: {coeffs}\n  trace: {L.trace}\n  weil: {status}")
    return 0


def _cmd_scan(args, cache, out) -> int:
    from .twistlab import SignMatch, scan_pair

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
    from .curvecount import odd_bad_primes, poly_discriminant
    from .twistlab import character_search, enumerate_characters

    curve_a = parse_curve(args.curve_a)
    curve_b = parse_curve(args.curve_b)
    if args.support is not None:
        support = {int(tk) for tk in args.support.split(",") if tk}
    else:
        support = odd_bad_primes(curve_a) | odd_bad_primes(curve_b)
    candidates = enumerate_characters(support, args.include_2, args.include_sign)
    discs = [poly_discriminant(c.f_coeffs) for c in (curve_a, curve_b)]
    primes = [p for p in _prime_range(args) if all(d % p for d in discs)]
    result = character_search(curve_a, curve_b, candidates, primes, args.budget, cache)
    if args.format == "table":
        print(f"char-search {curve_a.label} vs {curve_b.label}", file=out)
        print(f"  candidates: {[c.d for c in candidates]}", file=out)
    n = len(result.primes_checked)
    for d, w in result.witnesses:
        _emit(args, out, ("char", d, "refuted", w), f"  d={d}: refuted, witness p={w}")
    for ch in result.survivors:
        _emit(args, out, ("char", ch.d, "survived", "-"), f"  d={ch.d}: survived all {n} tested primes")
    if result.certified:
        _emit(args, out, ("char-search", "certified", "finite-evidence", n),
              "  consistent candidates found (finite evidence only, no twist relation is proven)")
    else:
        _emit(args, out, ("char-search", "refuted", "finite-evidence", n), "  all candidates refuted")
    return 0


def _cmd_split(args, cache, out) -> int:
    from .splitfield import default_fields, load_field_config, split_profiles

    fields = load_field_config(args.fields) if args.fields else default_fields()
    freq: dict[str, int] = {"i": 0, "ii": 0, "iii": 0, "violation": 0}
    for p, profile in split_profiles(fields, _prime_range(args)):
        if profile is None:
            _emit(args, out, ("split", p, "guarded", "-", "-", "-"), f"  p={p}: skipped (guarded prime)")
            continue
        r, s, s_prime, case = profile.r, profile.s, profile.s_prime, profile.case.value
        freq[case] += 1
        _emit(args, out, ("split", p, "ok", r, s, s_prime, case),
              f"  p={p}: r={r} s={s} s'={s_prime} case={case}")
    summary = "\t".join(f"{k}={v}" for k, v in freq.items())
    _emit(args, out, ("split-summary", summary), f"  case frequencies: {summary}")
    return 0


def _cmd_lemma62(args, cache, out) -> int:
    from .splitfield import Lemma62Violation, lemma62_check

    primes = _prime_range(args)
    if args.c == 0:
        raise CliError("c must be nonzero")
    rc = 0
    for p in primes:
        if p % 8 not in (3, 5):
            continue
        if args.c % p == 0:
            _emit(args, out, ("lemma62", args.c, p, "bad-reduction", "-"), f"  p={p}: bad reduction")
            continue
        s = lemma62_check(args.c, p, args.budget, cache)
        if isinstance(s, Lemma62Violation):
            rc = 1
            detail = _fmt_coeffs(s.lpoly.coeffs)
            _emit(args, out, ("lemma62", args.c, p, "violation", detail),
                  f"  p={p}: SHAPE VIOLATION L={detail}")
        else:
            _emit(args, out, ("lemma62", args.c, p, "ok", s), f"  p={p}: s={s}")
    return rc


def _cmd_stats(args, cache, out) -> int:
    from .twistlab import ScanReport, moment_stats, z20_statistic

    try:
        with open(args.report) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read report: {exc}") from exc
    report = ScanReport.from_text(text)
    z = z20_statistic(report)
    z_str = f"{z.numerator}/{z.denominator}"  # str(z) would drop a denominator of 1
    _emit(args, out, ("z20", z_str),
          f"T^2-coefficient vanishing fraction: {z_str} = {float(z):.4f} (finite-range observation)")
    weights = [tuple(int(tk) for tk in spec.split(",")) for spec in args.e or []]
    if not weights:
        g = report.genus
        weights = [tuple([0] * g), (2,) + (0,) * (g - 1), (0, 1) + (0,) * (g - 2)]
    for row in moment_stats(report, weights):
        e_str = ",".join(map(str, row["e"]))
        a, b, diff = row["mean_a"], row["mean_b"], row["abs_diff"]  # floats: str is repr
        _emit(args, out, ("moment", e_str, a, b, diff),
              f"  e=({e_str}): {a:.6f} vs {b:.6f}  |diff|={diff:.2e}")
    return 0


def _cmd_verify(args, cache, out) -> int:
    from .verify import exit_code, run_all

    results = run_all(budget=args.budget, cache=cache, echo=lambda s: print(s, file=out))
    return exit_code(results)


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
    # None until main knows the command counts, so parsing loads no library module
    common.add_argument("--budget", type=_positive_int, default=None,
                        help="max field evaluations per prime (default 2e8)")
    common.add_argument("--cache-dir", default=None,
                        help="cache directory (default: $TWISTSCOPE_CACHE_DIR or ./.twistscope-cache)")
    common.add_argument("--format", choices=("table", "records"), default="table",
                        help="human table or structured tab-separated records")
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="helper processes for point counting, in every subcommand that counts")

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
    # the kernels are integer-only, so BLAS threads would only cost numpy start-up time
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    from .errors import BudgetExceededError, TwistscopeError

    try:
        if args.command not in _COUNTING:
            return args.fn(args, None, sys.stdout)
        from .cache import LPolyCache, resolve_cache_dir
        from .curvecount import DEFAULT_BUDGET

        if args.budget is None:
            args.budget = DEFAULT_BUDGET
        with LPolyCache(resolve_cache_dir(args.cache_dir), jobs=args.jobs) as cache:
            return args.fn(args, cache, sys.stdout)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except TwistscopeError as exc:  # BadReductionError among them
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # input the library rejects: a usage error, not a finding
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a kernel self-check failed: a bug, not a finding
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
