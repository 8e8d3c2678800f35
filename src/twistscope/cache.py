"""On-disk cache for point counts and L-polynomials, and the one way to count.

Every point count goes through ``LPolyCache``.  It serves requests
(curve, p, upto) for N_1..N_upto: it reads each (curve, p) record once,
plans the missing degrees the budget affords (degree i costs p^i field
evaluations), and runs only those (curve, p, i) units, in process when
``jobs == 1`` or a single unit is missing, otherwise in even-cost batches
on one worker pool, started on first need and shut down by ``close``.  A
disabled cache (``UNCACHED``) stores nothing but counts the same way.

One JSON file per (coefficients, prime, tool version, record format),
content-addressed by a SHA-256 key; the label is metadata only, so every
spelling of a curve shares its records.  Records hold the count prefix
N_1.. plus the finished L-polynomial when known, so a run with a larger
budget can extend a partial computation instead of restarting it.

Concurrency contract: many readers, one writer.  Only the process that
owns the cache reads and writes records; workers only count.  Each record
is written once per request, as soon as its (curve, p) finishes, so an
interrupted run keeps what it finished.  Writes are atomic (temp file +
rename), so readers can never observe a half-written record.  A record
that fails to parse or fails the Weil validation is treated as a miss,
reported with a warning, and overwritten by the next write.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .curvecount import (
    DEFAULT_BUDGET,
    CountVector,
    CurveModel,
    LPolynomial,
    log_derivative_counts,
    lpoly_from_counts,
    point_count,
    validate_weil,
)
from .errors import BudgetExceededError

log = logging.getLogger("twistscope.cache")

ENV_CACHE_DIR = "TWISTSCOPE_CACHE_DIR"
DEFAULT_CACHE_DIR = ".twistscope-cache"
RECORD_FORMAT = 2  # part of the key: bump when the key or the record layout changes


def resolve_cache_dir(flag_value: str | None = None) -> Path:
    """Cache directory: flag beats environment beats the project-local default."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else Path(DEFAULT_CACHE_DIR)


@dataclass
class _Entry:
    """What the backend holds for one (curve, p) while serving a request."""

    curve: CurveModel
    p: int
    counts: list[int]
    lpoly: LPolynomial | None
    new: dict[int, int] = field(default_factory=dict)  # degree -> count, this request
    pending: int = 0  # units still running
    short: BudgetExceededError | None = None  # set when the budget cut the request short


def _count_all(units: list[tuple[CurveModel, int, int]]) -> list[int]:
    # module-level so a worker can unpickle it; looks point_count up at call time
    return [point_count(curve, p, i) for curve, p, i in units]


class LPolyCache:
    """Single-writer store of per-prime curve data, and the only way to count."""

    def __init__(self, directory: str | Path, enabled: bool = True, jobs: int = 1):
        self.directory = Path(directory)
        self.enabled = enabled
        self.jobs = jobs
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    def __enter__(self) -> "LPolyCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def _path(self, curve: CurveModel, p: int) -> Path:
        raw = f"{RECORD_FORMAT}|{__version__}|{','.join(map(str, curve.f_coeffs))}|{p}"
        return self.directory / f"{hashlib.sha256(raw.encode()).hexdigest()}.json"

    def get(self, curve: CurveModel, p: int) -> dict | None:
        """The cached record, or None on miss/corruption."""
        if not self.enabled:
            return None
        path = self._path(curve, p)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError) as exc:
            log.warning("cache record %s unreadable (%s); recomputing", path.name, exc)
            return None
        if not self._valid(record, curve, p):
            log.warning("cache record %s failed validation; recomputing", path.name)
            return None
        return record

    def _valid(self, record: dict, curve: CurveModel, p: int) -> bool:
        try:
            if record["format"] != RECORD_FORMAT or record["tool_version"] != __version__:
                return False
            if record["p"] != p or tuple(record["f_coeffs"]) != curve.f_coeffs:
                return False
            counts = record["counts"]
            if not all(isinstance(n, int) for n in counts):
                return False
            if record["lpoly"] is not None:
                L = LPolynomial(p, curve.genus, tuple(record["lpoly"]))
                if validate_weil(L):
                    return False
            return True
        except (KeyError, TypeError, ValueError):
            return False

    def put(
        self,
        curve: CurveModel,
        p: int,
        counts: list[int],
        lpoly: LPolynomial | None = None,
    ) -> None:
        """Write the whole record for (curve, p) atomically, replacing any earlier one."""
        if not self.enabled:
            return
        record = {
            "format": RECORD_FORMAT,
            "tool_version": __version__,
            "label": curve.label,
            "f_coeffs": list(curve.f_coeffs),
            "p": p,
            "counts": list(counts),
            "lpoly": list(lpoly.coeffs) if lpoly is not None else None,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh)
            os.replace(tmp, self._path(curve, p))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # the compute backend
    # ------------------------------------------------------------------

    def resolve(self, requests: list[tuple[CurveModel, int, int]], budget: int) -> list[_Entry]:
        """Serve (curve, p, upto) requests: one entry per request, holding N_1..N_upto.

        The budget caps the field evaluations spent on each (curve, p).  A
        request whose missing degrees do not all fit gets the prefix that
        fits, stored like any other progress, and its entry's ``short`` (not
        raised) is a BudgetExceededError whose ``required`` is the cost of
        every degree the record lacked when the request was planned.
        """
        entries: dict[tuple, _Entry] = {}
        upto: dict[tuple, int] = {}
        for curve, p, n in requests:
            key = (curve.f_coeffs, p)
            upto[key] = max(n, upto.get(key, 0))
            if key not in entries:
                entries[key] = self._load(curve, p)
        units = []
        for key, entry in entries.items():
            curve, p = entry.curve, entry.p
            if entry.lpoly is not None and len(entry.counts) < min(upto[key], 2 * curve.genus):
                entry.counts = log_derivative_counts(entry.lpoly, 2 * curve.genus)
            missing = range(len(entry.counts) + 1, upto[key] + 1)
            spent = 0
            for i in missing:
                if spent + p**i > budget:
                    required = sum(p**j for j in missing)
                    entry.short = BudgetExceededError(required, budget, f"{curve.label} at p={p}")
                    break
                spent += p**i
                units.append((curve, p, i))
                entry.pending += 1
            if not entry.pending and entry.lpoly is None and len(entry.counts) >= curve.genus:
                self._finish(entry)  # a record stored without its L-polynomial
        for (curve, p, i), n in self._run(units):
            entry = entries[(curve.f_coeffs, p)]
            entry.new[i] = n
            entry.pending -= 1
            if not entry.pending:
                self._finish(entry)
        return [entries[(curve.f_coeffs, p)] for curve, p, _ in requests]

    def _served(self, requests: list[tuple[CurveModel, int, int]], budget: int) -> list[_Entry]:
        """``resolve``, raising the first request's BudgetExceededError, if any."""
        entries = self.resolve(requests, budget)
        short = next((e.short for e in entries if e.short is not None), None)
        if short is not None:
            raise short
        return entries

    def _load(self, curve: CurveModel, p: int) -> _Entry:
        record = self.get(curve, p) or {"counts": [], "lpoly": None}
        L = record["lpoly"] and LPolynomial(p, curve.genus, tuple(record["lpoly"]))
        return _Entry(curve, p, record["counts"], L)

    def _finish(self, entry: _Entry) -> None:
        curve, p, g = entry.curve, entry.p, entry.curve.genus
        entry.counts = entry.counts + [entry.new[i] for i in sorted(entry.new)]
        if entry.lpoly is None and len(entry.counts) >= g:
            entry.lpoly = lpoly_from_counts(CountVector(curve.label, p, tuple(entry.counts[:g])), p, g)
        self.put(curve, p, entry.counts, entry.lpoly)

    def _run(self, units: list[tuple[CurveModel, int, int]]):
        """Yield (unit, N_i) for each (curve, p, i) unit as its batch finishes.

        On the pool, the units, largest first, are dealt into four batches per
        worker, so the batches cost about the same and small units share trips.
        """
        if self.jobs == 1 or len(units) <= 1:
            for unit in units:
                yield unit, _count_all([unit])[0]
            return
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs)
        units = sorted(units, key=lambda u: u[1] ** u[2], reverse=True)
        n = min(4 * self.jobs, len(units))
        futures = {self._pool.submit(_count_all, units[k::n]): units[k::n] for k in range(n)}
        for future in concurrent.futures.as_completed(futures):
            yield from zip(futures[future], future.result())

    def counts(self, curve: CurveModel, p: int, upto: int, budget: int) -> list[int]:
        """N_1..N_upto, enumerating only what the cache lacks."""
        return self._served([(curve, p, upto)], budget)[0].counts[:upto]

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
