"""On-disk cache of point counts, which give the L-polynomials, and the compute backend.

Every command counts through ``LPolyCache``.  It serves requests
(curve, p, upto) for N_1..N_upto: it reads each (curve, p) record once,
plans the missing degrees the budget affords (degree i costs p^i field
evaluations), and checks, shapes and settles each (curve, p, i) unit
once; only the units whose sums do not cancel reach
``kernels.char_sums``.  With ``jobs`` capped at the CPU count, they
count in process when it is 1 or all of them lie at one prime,
otherwise in even-cost batches on ``jobs`` helper processes that the
request forks and reaps before it returns: the cache
owns no process.  Units of one field always share one batch, so the
field's tables are built once per request.  A disabled cache
(``UNCACHED``) stores nothing but counts the same way.

Records live in one append-only file per curve, whose name spells the
curve's key: record format, tool version and coefficients, joined by
underscores, as ``6_0.1.0_0,-1,0,0,0,1.tsv`` for x^5 - x.  Every
spelling of a curve shares its file, and two curves never share one.  A
name over 255 bytes is cut into directory components of at most 200
bytes.  A line is one prime's record, each field preceded by a tab: p,
the count prefix N_1.., so a larger budget extends a partial
computation, then a final tab.  A valid line has exactly three tabs, so
a fragment torn by a crash, whether the next append's newline ends it or
the next line runs into it, never reads as a record.  The counts are
the only stored value: L_p follows from N_1..N_g, and it is derived
when a line is taken in.  A cache object reads a curve's file once,
keeping the count lists of the well-formed lines, by p in file order.
The first request for p takes the newest of them that is valid, and
keeps (counts, L) for it, L None below g counts, so a later valid line
for p wins.  A line is valid when its counts lie within the Weil bounds
and, once there are g of them, ``lpoly_from_counts`` accepts N_1..N_g
and L gives back N_(g+1)..N_2g; a line that fails to parse, or this
validation, is a warned miss, recomputed on demand.
Helpers only count.  The owning process stores each finished (curve, p)
at once through ``put``, the one write path, which validates the counts
and opens the file for one write under O_APPEND, so an interrupted run
keeps what it finished and several commands may append to one
directory.  After a line torn by a crash, the next append starts a fresh
line.  Nothing is rewritten: a (curve, p) gains a line only when a
request adds degrees.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import __version__
from .algebra import _require_odd_prime, _sum_period
from .curvecount import (
    DEFAULT_BUDGET,
    CurveModel,
    LPolynomial,
    _check_count_bounds,
    _check_units,
    log_derivative_counts,
    lpoly_from_counts,
)
from .errors import BudgetExceededError, InconsistentCountsError
from .values import Value

ENV_CACHE_DIR = "TWISTSCOPE_CACHE_DIR"
DEFAULT_CACHE_DIR = ".twistscope-cache"
RECORD_FORMAT = 6  # part of the key: bump when the key or the record layout changes
_NAME_MAX = 255  # the longest file name most file systems take
_PART = 200  # the length of each component a longer name is cut into


def resolve_cache_dir(flag_value: str | None = None) -> Path:
    """Cache directory: flag beats environment beats the project-local default."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else Path(DEFAULT_CACHE_DIR)


def _name(curve: CurveModel) -> Path:
    """The curve's file, relative to the cache directory: its key, spelled out.

    The coefficients hold no letter, so no directory component ends in
    ``.tsv`` and a cut name never meets another curve's name.
    """
    name = f"{RECORD_FORMAT}_{__version__}_{','.join(map(str, curve.f_coeffs))}"
    if len(name) + len(".tsv") <= _NAME_MAX:
        return Path(f"{name}.tsv")
    parts = [name[k : k + _PART] for k in range(0, len(name), _PART)]
    return Path(*parts[:-1], f"{parts[-1]}.tsv")


def _warn(msg: str, *args) -> None:
    import logging  # only a damaged cache file needs it

    logging.getLogger("twistscope.cache").warning(msg, *args)


class _Entry(Value):
    """One (curve, p) of a request: N_1.., a None for each degree still counting, and L."""

    __slots__ = ("curve", "p", "counts", "lpoly", "short")

    def __init__(self, curve: CurveModel, p: int, counts: list[int | None], lpoly: LPolynomial | None,
                 short: BudgetExceededError | None = None):
        self.curve = curve
        self.p = p
        self.counts = counts
        self.lpoly = lpoly
        self.short = short  # set when the budget cut the request short


def _lpoly_of(curve: CurveModel, p: int, counts: list[int]) -> LPolynomial | None:
    """L_p from a count prefix once it holds N_1..N_g, else None.

    Raises InconsistentCountsError when a count lies outside the Weil
    bounds, N_1..N_g cannot be a curve's, or N_(g+1)..N_2g differ from
    the counts L gives back.  Counts past N_2g, which only ``counts`` with
    upto > 2g asks for, are checked against the Weil bounds only.
    """
    g = curve.genus
    _check_count_bounds(counts, p, g, curve.label)
    if len(counts) < g:
        return None
    L = lpoly_from_counts(counts[:g], p, g, curve.label)
    upto = min(len(counts), 2 * g)
    if upto > g and counts[g:upto] != log_derivative_counts(L, upto)[g:]:
        raise InconsistentCountsError(f"{curve.label}: N_{g + 1}..N_{upto} disagree with L_p at p={p}")
    return L


def _deal(units: list[tuple], n: int) -> list[list[tuple]]:
    """At most n batches of (coefficients, p, i, d) units; the units of one field (p, i) share a batch.

    Fields go largest first, round-robin over the batches.
    """
    fields: dict[tuple[int, int], list] = {}
    for unit in units:
        fields.setdefault(unit[1:3], []).append(unit)
    order = sorted(fields, key=lambda f: f[0] ** f[1], reverse=True)
    return [[u for f in order[k::n] for u in fields[f]] for k in range(min(n, len(order)))]


class LPolyCache:
    """Append-only store of per-prime curve data, and the only way to count."""

    def __init__(self, directory: str | Path, enabled: bool = True, jobs: int = 1):
        self.directory = Path(directory)
        self.enabled = enabled
        self.jobs = jobs
        self._paths: dict[tuple[int, ...], Path] = {}
        # coefficients -> {p: [(line number, counts), ...]}, in file order
        self._files: dict[tuple[int, ...], dict[int, list[tuple[int, list[int]]]]] = {}
        # (coefficients, p) -> what get serves there: the valid (counts, L), or None
        self._taken: dict[tuple[tuple[int, ...], int], tuple[list[int], LPolynomial | None] | None] = {}
        self._torn: set[tuple[int, ...]] = set()  # files read without a final newline

    def _path(self, curve: CurveModel) -> Path:
        path = self._paths.get(curve.f_coeffs)
        if path is None:
            path = self._paths[curve.f_coeffs] = self.directory / _name(curve)
        return path

    def _records(self, curve: CurveModel) -> dict[int, list[tuple[int, list[int]]]]:
        """The curve's lines by p, as (line number, counts) in file order, read on first use.

        A line enters when it is a tab, p, a tab, the counts and a final
        tab; its counts are checked only when ``get`` first asks for p.
        """
        if curve.f_coeffs in self._files:
            return self._files[curve.f_coeffs]
        records = self._files[curve.f_coeffs] = {}
        path = self._path(curve)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return records
        except OSError as exc:
            _warn("cache file %s unreadable (%s); recomputing", _name(curve), exc)
            return records
        if data and not data.endswith(b"\n"):
            self._torn.add(curve.f_coeffs)
        for n, line in enumerate(data.split(b"\n"), start=1):
            if not line:
                continue
            try:
                start, p, counts, end = line.split(b"\t")  # exactly three tabs
                if start or end:
                    raise ValueError
                records.setdefault(int(p), []).append((n, [int(c) for c in counts.split(b",")]))
            except ValueError:
                _warn("cache file %s line %d unreadable; recomputing", _name(curve), n)
        return records

    def get(self, curve: CurveModel, p: int) -> tuple[list[int], LPolynomial | None] | None:
        """The cached (counts, L) at p, L None below g counts; None on miss/corruption.

        The first request for p checks its lines, so a command pays for
        the primes it asks for, not for the whole file.
        """
        if not self.enabled:
            return None
        key = (curve.f_coeffs, p)
        if key not in self._taken:
            self._taken[key] = self._newest_valid(curve, p)
        return self._taken[key]

    def _newest_valid(self, curve: CurveModel, p: int) -> tuple[list[int], LPolynomial | None] | None:
        """The newest line for p whose counts pass ``_lpoly_of``, so a later valid line wins.

        Each newer line that fails (InconsistentCountsError) is a warned miss.
        """
        for n, counts in reversed(self._records(curve).get(p, [])):
            try:
                return counts, _lpoly_of(curve, p, counts)
            except InconsistentCountsError:
                _warn("cache file %s line %d failed validation; recomputing", _name(curve), n)
        return None

    def put(self, curve: CurveModel, p: int, counts: list[int]) -> LPolynomial | None:
        """Store N_1.. at (curve, p), the one write path, and return L; None below g counts.

        Counts that ``get`` would reject raise InconsistentCountsError and
        write nothing.  Valid ones are one line appended to the curve's
        file, and the list itself is what ``get`` serves at p from now on,
        so the caller must not change it; a disabled cache only checks them.
        """
        lpoly = _lpoly_of(curve, p, counts)
        if not self.enabled:
            return lpoly
        self._records(curve)  # read the file, and see a torn last line, before appending
        self._taken[(curve.f_coeffs, p)] = counts, lpoly
        line = f"\t{p}\t{','.join(map(str, counts))}\t\n"
        if curve.f_coeffs in self._torn:  # end the torn line first
            line = "\n" + line
            self._torn.discard(curve.f_coeffs)
        path = self._path(curve)
        try:
            fh = open(path, "ab", buffering=0)  # O_APPEND, one write(2)
        except FileNotFoundError:  # the first line of a new directory
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(path, "ab", buffering=0)
        with fh:
            fh.write(line.encode())
        return lpoly

    # ------------------------------------------------------------------
    # the compute backend
    # ------------------------------------------------------------------

    def _plan(self, requests: list[tuple[CurveModel, int, int]], budget: int) -> tuple[dict, list]:
        """The entries of a request by (coefficients, p), and the (curve, p, i) units the budget affords.

        A (curve, p) starts from its stored prefix.  Its list is replaced
        once, by a copy with a None for each degree the budget affords, so
        the list ``get`` serves never changes.  The budget caps the field
        evaluations spent on each (curve, p): degree i costs p^i, whether
        or not its sum cancels, so no budget-exceeded record depends on
        the rule.  A request whose missing degrees do not all fit gets the
        prefix that fits, and its entry's ``short`` (not raised) is a
        BudgetExceededError whose ``required`` is the cost of every degree
        the record lacked when the request was planned.
        """
        entries: dict[tuple, _Entry] = {}
        upto: dict[tuple, int] = {}
        for curve, p, n in requests:
            key = (curve.f_coeffs, p)
            if key not in entries:
                entries[key] = _Entry(curve, p, *(self.get(curve, p) or ([], None)))
                upto[key] = n
            elif n > upto[key]:
                upto[key] = n
        units = []
        for key, entry in entries.items():
            curve, p = entry.curve, entry.p
            if entry.lpoly is not None and len(entry.counts) < min(upto[key], 2 * curve.genus):
                entry.counts = log_derivative_counts(entry.lpoly, 2 * curve.genus)
            missing = range(len(entry.counts) + 1, upto[key] + 1)
            planned = len(units)
            spent = 0
            for i in missing:
                spent += p**i
                if spent > budget:
                    required = sum(p**j for j in missing)
                    entry.short = BudgetExceededError(required, budget, f"{curve.label} at p={p}")
                    break
                units.append((curve, p, i))
            if len(units) > planned:
                entry.counts = entry.counts + [None] * (len(units) - planned)
        return entries, units

    def _count(self, entries: dict[tuple, _Entry], units: list[tuple[CurveModel, int, int]]) -> None:
        """Check, shape and settle each planned unit once, count the rest, and store each finished (curve, p).

        Every unit is checked first, settled or not (``_check_units``: bad
        reduction, then the cap).  Then ``algebra._sum_period`` reads each
        unit's shape once.  A unit whose sum cancels (None) is settled as
        N_i = p^i + 1, with no kernel, helper or numpy; every other goes to
        ``_run`` as (coefficients of f, p, i, d), and its sum s lands in its
        place as N_i = p^i + 1 + s.  A finished list whose counts all come
        from the rule, none from a stored line, is not stored unless the
        budget cut its request short; its L still comes from ``_lpoly_of``.
        ``put`` stores every other finished list and gives its L.
        """
        _check_units(units)
        counted = []
        fresh: dict[tuple, bool] = {}  # (curve, p) with a settled unit -> whether nothing was stored
        for curve, p, i in units:
            d = _sum_period(curve.f_coeffs, p, i)
            if d is None:
                key = (curve.f_coeffs, p)
                counts = entries[key].counts
                fresh.setdefault(key, counts[0] is None)
                counts[i - 1] = p**i + 1
            else:
                counted.append((curve.f_coeffs, p, i, d))
        for key, nothing_stored in fresh.items():
            entry = entries[key]
            if None in entry.counts:
                continue  # a kernel count is still to come
            if nothing_stored and entry.short is None:
                entry.lpoly = _lpoly_of(entry.curve, entry.p, entry.counts)
            else:
                entry.lpoly = self.put(entry.curve, entry.p, entry.counts)
        results = self._run(counted)
        try:
            for (coeffs, p, i, _), s in results:
                entry = entries[(coeffs, p)]
                entry.counts[i - 1] = p**i + 1 + s
                if None not in entry.counts:
                    entry.lpoly = self.put(entry.curve, p, entry.counts)
        finally:
            results.close()  # ends the helpers if this loop raised mid-run

    def resolve(self, requests: list[tuple[CurveModel, int, int]], budget: int) -> list[_Entry]:
        """Serve (curve, p, upto) requests: one entry per request, holding N_1..N_upto.

        Every p must be an odd prime, which callers check where p enters:
        ``_served`` tests its one p, and ``scan_pair`` takes its primes
        from the sieve, so no Miller-Rabin test runs here.  ``_plan``
        plans the missing degrees under the budget, and ``_count`` checks,
        settles, counts and stores them.  An entry's counts land in its
        list in place, and its L is set once the list holds N_1..N_g.
        """
        entries, units = self._plan(requests, budget)
        self._count(entries, units)
        return [entries[(curve.f_coeffs, p)] for curve, p, _ in requests]

    def _served(self, requests: list[tuple[CurveModel, int, int]], budget: int) -> list[_Entry]:
        """``resolve`` for requests at one p, raising the first request's BudgetExceededError, if any.

        Every per-prime method comes here, so p is checked where it
        enters: once a count is planned, and before any unit is checked,
        it must be an odd prime (ValueError).  A request the store serves
        whole runs no Miller-Rabin test.
        """
        entries, units = self._plan(requests, budget)
        if units:
            _require_odd_prime(requests[0][1])
        self._count(entries, units)
        served = [entries[(curve.f_coeffs, p)] for curve, p, _ in requests]
        short = next((e.short for e in served if e.short is not None), None)
        if short is not None:
            raise short
        return served

    def _run(self, units: list[tuple[tuple[int, ...], int, int, int]]):
        """Yield (unit, s) for each (coefficients of f, p, i, d) unit, s its character sum, as its field or batch finishes.

        The units are checked and none cancels: ``_count`` settles those,
        so only kernel work is dealt and batches cost what they count.
        The helpers check nothing.  jobs is capped at os.cpu_count(), so
        no more helpers fork than there are CPUs.  In process, when the
        capped jobs is 1 or every unit is at one prime, one
        ``kernels.char_sums`` call counts them all.  Otherwise the fields
        (p, i), largest first, are dealt into four batches per helper, so
        batches cost about the same and small units share trips, and
        ``helpers.run`` forks the helpers for this request, each running
        ``kernels.char_sums`` on its batches, and reaps them before it
        returns.  A field's units stay together, so its tables are built
        once per request.
        """
        jobs = min(self.jobs, os.cpu_count() or 1)
        if jobs > 1 and len({p for _, p, _, _ in units}) > 1:
            from . import helpers, kernels  # in this order: numpy first left a larger parent at each fork

            yield from helpers.run(_deal(units, 4 * jobs), jobs, kernels.char_sums)
        elif units:  # empty when every count settled, and then numpy stays unloaded
            from . import kernels

            [batch] = _deal(units, 1)
            for k, s in kernels.char_sums(batch):
                yield batch[k], s

    def counts(self, curves: list[CurveModel], p: int, upto: int, budget: int) -> list[list[int]]:
        """N_1..N_upto of each curve, enumerating together only what the cache lacks."""
        return [e.counts[:upto] for e in self._served([(c, p, upto) for c in curves], budget)]

    def lpolys(self, curves: list[CurveModel], p: int, budget: int) -> list[LPolynomial]:
        """L_p of each curve, their missing counts computed together."""
        return [e.lpoly for e in self._served([(c, p, c.genus) for c in curves], budget)]

    def traces(self, curves: list[CurveModel], p: int, budget: int) -> list[int]:
        """Frobenius trace p + 1 - N_1 of each curve, computed together."""
        return [p + 1 - e.counts[0] for e in self._served([(c, p, 1) for c in curves], budget)]

    def lpoly(self, curve: CurveModel, p: int, budget: int) -> LPolynomial:
        """L_p of one curve."""
        return self.lpolys([curve], p, budget)[0]

    def trace(self, curve: CurveModel, p: int, budget: int = DEFAULT_BUDGET) -> int:
        """Frobenius trace of one curve."""
        return self.traces([curve], p, budget)[0]


UNCACHED = LPolyCache("", enabled=False)  # stores nothing, counts in process
