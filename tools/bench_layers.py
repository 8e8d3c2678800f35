"""Layer timings of the counting kernels and the cache, written as one JSON file.

Three end-to-end rows time trace scans to ``SCAN_PMAX`` at ``--jobs 1``,
each run in a fresh interpreter, its stdout discarded: the median wall
seconds and the median peak RSS (``ru_maxrss``) of 3 runs.  ``scan`` is
the cold genus-2 scan of x^5 - x and x^5 + 4x, each run on an empty
``--cache-dir``; ``scan_warm`` reruns it on the cache one cold run
leaves; ``scan_g4`` is the cold genus-4 scan of x^9 + x and x^9 + 16x.
Each command is started by ``os.fork`` and ``os.execve`` and reaped by
``os.wait4``: ``posix_spawn`` and ``subprocess`` start it inside the
launcher's memory, so its peak RSS would have the launcher's VmHWM as a
floor.  After fork + exec the floor is the launcher's VmRSS at the fork,
recorded as ``floor_mb``.  One calibration row times a fixed
pure-Python integer loop of ``CALIBRATION_STEPS`` steps, so rows taken
on different days or hosts can be scaled to one another.  One F_p row
times the F_p kernel's walk over all of F_p alone, ``kernels._prime_sums``
with period 1 on the genus-2 pair (coefficients reduced mod p) at each
odd prime up to ``FP_PMAX``, largest prime first: seconds, and field
elements per second (the sum of the primes, twice, over the seconds).
It also times ``kernels.char_sums`` on the same degree-1 units, which
walks only (p-1)/d powers of a generator where f has period d, and
gives ``settled``, the number of (f, p) whose sum cancels
(``algebra._sum_period``).  A trace scan's planner settles those units
and never hands them to ``char_sums``; ``char_sums`` answers them the
same way, before any kernel.  For each
field F_{p^i} it records the seconds to build the field's log tables
(``kernels._field_tables``) and the throughput of the log kernel's sum
for one f (``kernels._log_sum``, with f's period) over tables built outside the timing,
in field elements per second (q / seconds), for the sparse f = x^9 + x
and a dense degree-9 f.  One norm row times ``kernels.char_sums`` on
``NORM_FIELD``, the first field F_{p^2} above the log-table cap, which
goes through the norm kernel: for f = x^9 + x, seconds and field
elements per second, and ``pair_s``, the seconds of one call that
counts the pair x^9 + x, x^9 + 16x.
Each figure is the median of 5 runs in this one process.  One start-up
row times a minimal cold counting command, ``lpoly "x^5 - x" --p 3`` with
an empty ``--cache-dir``, as the median of 5 fresh interpreters, started
like the end-to-end row's: that is the interpreter, numpy's import and
the kernels.  Both rows record ``sys.dont_write_bytecode``, which the
command inherits: when it is set and the checkout has no
``__pycache__``, the time includes compiling every module the command
imports.  One compile row gives, for each
``src/twistscope/*.py``, its line count and the median seconds of
``compile()`` on its source, and their totals: what a command pays for
each module it imports when no bytecode can be read.  One cache row times
``LPolyCache`` on a file of one-count lines, N_1 = p + 1, one for each
odd prime below ``CACHE_PMAX`` (9,591 lines for 1e5; a genus-2 trace
scan stores only the lines at p = 1 mod 8, whose sums do not cancel).  It gives
the seconds per line of ``put`` writing the file into an empty directory,
and of the first ``get`` on a fresh cache object, which reads the whole
file; each is the median of 5 runs.  It also gives the file's size and
its allocated size (``st_blocks`` * 512, what the benchmark's
``cache_mb`` adds up).  One dispatch row times an uncached
``LPolyCache.resolve`` of the genus-4 full request, N_1..N_4 of
x^9 + x and x^9 + 16x at every good odd prime up to ``DISPATCH_PMAX``,
at ``jobs=1`` (in process) and at ``jobs=2`` (forking and reaping two
helpers each time), and one-prime ``lpolys`` of the pair at the largest
of those primes at ``jobs=2``, which counts in process; each is the
median of 5 runs.  One request row times a cold uncached
``LPolyCache.resolve`` of N_1 for x^5 - x and x^5 + 4x at every odd prime
up to ``REQUEST_PMAX``, in process: the number of entries (one per curve
and prime), the bytes the call leaves allocated per entry while its
entries are alive (``tracemalloc``, one traced run), and the seconds per
entry (median of 5 untraced runs).

Run from the root of a checkout; it imports that checkout's ``src/``:

    python tools/bench_layers.py                        # F_17^4, F_23^4, F_47^4
    python tools/bench_layers.py --out /tmp/layers.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shlex
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from twistscope import kernels  # noqa: E402
from twistscope.algebra import _sum_period, odd_primes  # noqa: E402
from twistscope.cache import LPolyCache  # noqa: E402
from twistscope.curvecount import DEFAULT_BUDGET, curve_from_coeffs  # noqa: E402

REPEATS = 5
SCAN_REPEATS = 3
FIELDS = [(17, 4), (23, 4), (47, 4)]
POLYS = {
    "x^9 + x": (0, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    "dense degree 9": (3, 1, 4, 1, 5, 9, 2, 6, 5, 1),
}
NORM_PAIR = {"x^9 + x": POLYS["x^9 + x"], "x^9 + 16x": (0, 16, 0, 0, 0, 0, 0, 0, 0, 1)}
FP_POLYS = {"x^5 - x": (0, -1, 0, 0, 0, 1), "x^5 + 4x": (0, 4, 0, 0, 0, 1)}
FP_PMAX = 5000
CALIBRATION_STEPS = 2_000_000
NORM_FIELD = (2897, 2)  # 2897^2 is just above kernels._TABLE_MAX_ORDER = 2^23
STARTUP_COMMAND = ["lpoly", "x^5 - x", "--p", "3"]
SCAN_COMMAND = ["scan", "x^5 - x", "x^5 + 4x", "--jobs", "1", "--pmax"]  # SCAN_PMAX follows
SCAN_G4_COMMAND = ["scan", "x^9 + x", "x^9 + 16x", "--jobs", "1", "--pmax"]
SCAN_PMAX = 100_000
CACHE_CURVE = "x^5 - x", (0, -1, 0, 0, 0, 1)
CACHE_PMAX = 100_000
DISPATCH_PMAX = 23
REQUEST_PMAX = 20_000


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_field(p: int, i: int) -> dict:
    row = {"p": p, "i": i, "q": p**i, "table_build_s": _median_seconds(lambda: kernels._field_tables(p, i))}
    zech, log_fp = kernels._field_tables(p, i)  # built outside the timing of the sums
    for name, coeffs in POLYS.items():
        reduced, d = tuple(c % p for c in coeffs), _sum_period(coeffs, p, i)
        if d is None:
            raise ValueError(f"{name} cancels over F_{p}^{i}: no log-kernel row")
        seconds = _median_seconds(lambda: kernels._log_sum(reduced, zech, log_fp, d))
        row[name] = {"char_sum_s": seconds, "elements_per_s": p**i / seconds}
    return row


def measure_norm() -> dict:
    """The norm kernel on NORM_FIELD, for f = x^9 + x alone and for NORM_PAIR in one call."""
    p, i = NORM_FIELD
    if p**i <= kernels._TABLE_MAX_ORDER or _sum_period(POLYS["x^9 + x"], p, i) is None:
        raise ValueError(f"F_{p}^{i} is a log-table field, or x^9 + x cancels there: no norm-kernel row")
    units = [(POLYS["x^9 + x"], p, i)]
    seconds = _median_seconds(lambda: list(kernels.char_sums(units)))
    pair = [(f, p, i) for f in NORM_PAIR.values()]
    return {"p": p, "i": i, "q": p**i, "curve": "x^9 + x", "s": seconds, "elements_per_s": p**i / seconds,
            "pair": list(NORM_PAIR), "pair_s": _median_seconds(lambda: list(kernels.char_sums(pair)))}


def measure_calibration() -> dict:
    """Seconds of one fixed pure-Python integer loop, a yardstick for the host's speed."""

    def loop() -> int:
        acc = 0
        for k in range(CALIBRATION_STEPS):
            acc = (acc * 31 + k) % 1_000_003
        return acc

    return {"steps": CALIBRATION_STEPS, "s": _median_seconds(loop)}


def measure_prime_field() -> dict:
    """The F_p kernel's full walk at each prime, and ``char_sums``, over the genus-2 pair at every odd prime up to FP_PMAX."""
    primes = odd_primes(3, FP_PMAX)[::-1]
    polys = [(p, [(tuple(c % p for c in f), 1) for f in FP_POLYS.values()]) for p in primes]
    seconds = _median_seconds(lambda: [kernels._prime_sums(fs, p) for p, fs in polys])
    units = [(f, p, 1) for p in primes for f in FP_POLYS.values()]
    char_sums_s = _median_seconds(lambda: list(kernels.char_sums(units)))
    elements = len(FP_POLYS) * sum(primes)
    return {"curves": list(FP_POLYS), "pmax": FP_PMAX, "primes": len(primes), "elements": elements,
            "s": seconds, "elements_per_s": elements / seconds, "char_sums_s": char_sums_s,
            "settled": sum(_sum_period(*unit) is None for unit in units)}


def _vmrss_mb() -> float:
    """This process's resident set size now, from /proc/self/status (Linux)."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024


def _launch(command: list[str], cache_dir: str | None = None) -> tuple[float, float, float]:
    """Run twistscope with command on cache_dir, or on an empty cache: (wall s, peak RSS MB, floor MB).

    fork + exec, reaped by wait4, so the peak is the command's own, above
    a floor of this process's RSS at the fork; its stdout is discarded.
    Raises RuntimeError unless it exits 0.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    empty = tempfile.TemporaryDirectory() if cache_dir is None else contextlib.nullcontext(cache_dir)
    with empty as directory:
        argv = [sys.executable, "-m", "twistscope", *command, "--cache-dir", directory]
        floor = _vmrss_mb()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:  # the child execs at once, or leaves without running the launcher's exit hooks
            try:
                os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
                os.execve(argv[0], argv, env)
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"{shlex.join(command)} exited with status {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_maxrss / 1024, floor  # ru_maxrss is in KiB on Linux


def measure_startup() -> dict:
    """Wall seconds of STARTUP_COMMAND in a fresh interpreter, on an empty cache."""
    return {"command": shlex.join(STARTUP_COMMAND),
            "wall_s": statistics.median(_launch(STARTUP_COMMAND)[0] for _ in range(REPEATS)),
            "dont_write_bytecode": sys.dont_write_bytecode}


def measure_scan(command: list[str], cache_dir: str | None = None) -> dict:
    """Wall seconds and peak RSS of a scan to SCAN_PMAX at --jobs 1, on cache_dir or on an empty cache."""
    command = [*command, str(SCAN_PMAX)]
    walls, peaks, floors = zip(*(_launch(command, cache_dir) for _ in range(SCAN_REPEATS)))
    return {"command": shlex.join(command), "runs": SCAN_REPEATS, "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(peaks), "floor_mb": max(floors),
            "dont_write_bytecode": sys.dont_write_bytecode}


def measure_warm_scan() -> dict:
    """``measure_scan`` of the genus-2 scan rerun on the cache one cold run of it leaves."""
    with tempfile.TemporaryDirectory() as cache_dir:
        _launch([*SCAN_COMMAND, str(SCAN_PMAX)], cache_dir)
        return measure_scan(SCAN_COMMAND, cache_dir)


def measure_compile() -> dict:
    """Lines and seconds of ``compile()`` for each module of the package, and their totals."""
    modules = {}
    for path in sorted((SRC / "twistscope").glob("*.py")):
        source = path.read_text()
        seconds = _median_seconds(lambda: compile(source, str(path), "exec"))
        modules[path.name] = {"lines": len(source.splitlines()), "compile_s": seconds}
    return {"modules": modules, "lines": sum(m["lines"] for m in modules.values()),
            "compile_s": sum(m["compile_s"] for m in modules.values())}


def measure_cache() -> dict:
    """Seconds per line of ``put`` and of the first ``get`` over one curve's cache file."""
    label, coeffs = CACHE_CURVE
    curve = curve_from_coeffs(coeffs)
    primes = odd_primes(3, CACHE_PMAX)

    def put_all(directory: str) -> None:
        cache = LPolyCache(directory)
        for p in primes:
            cache.put(curve, p, [p + 1])  # trace 0: a valid one-count prefix

    with tempfile.TemporaryDirectory() as root:
        put_s = _median_seconds(lambda: put_all(tempfile.mkdtemp(dir=root)))
        full = next(Path(root).iterdir())  # one of the written directories
        get_s = _median_seconds(lambda: LPolyCache(full).get(curve, primes[-1]))
        stat = LPolyCache(full)._path(curve).stat()
    return {
        "curve": label, "lines": len(primes), "file_bytes": stat.st_size,
        "file_alloc_bytes": stat.st_blocks * 512,
        "put_s_per_line": put_s / len(primes), "first_get_s_per_line": get_s / len(primes),
    }


def measure_dispatch() -> dict:
    """Uncached genus-4 full request to DISPATCH_PMAX at jobs 1 and 2, and one prime at jobs 2."""
    curves = [curve_from_coeffs(coeffs) for coeffs in NORM_PAIR.values()]
    primes = [p for p in odd_primes(3, DISPATCH_PMAX) if all(c.disc % p for c in curves)]
    requests = [(c, p, c.genus) for p in primes for c in curves]
    row = {"curves": list(NORM_PAIR), "pmax": DISPATCH_PMAX, "primes": len(primes), "one_prime": primes[-1]}
    for jobs in (1, 2):
        cache = LPolyCache("", enabled=False, jobs=jobs)
        row[f"jobs{jobs}_s"] = _median_seconds(lambda: cache.resolve(requests, DEFAULT_BUDGET))
    cache = LPolyCache("", enabled=False, jobs=2)
    row["one_prime_jobs2_s"] = _median_seconds(lambda: cache.lpolys(curves, primes[-1], DEFAULT_BUDGET))
    return row


def measure_request() -> dict:
    """Bytes kept and seconds per entry of a cold uncached N_1 request over FP_POLYS to REQUEST_PMAX."""
    curves = [curve_from_coeffs(coeffs) for coeffs in FP_POLYS.values()]
    requests = [(c, p, 1) for p in odd_primes(3, REQUEST_PMAX) for c in curves if c.disc % p]
    cache = LPolyCache("", enabled=False)
    seconds = _median_seconds(lambda: cache.resolve(requests, DEFAULT_BUDGET))
    tracemalloc.start()
    try:
        entries = cache.resolve(requests, DEFAULT_BUDGET)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {"curves": list(FP_POLYS), "pmax": REQUEST_PMAX, "entries": len(entries),
            "bytes_per_entry": kept / len(entries), "s_per_entry": seconds / len(entries)}


def write(fields: list[tuple[int, int]], out: Path) -> str:
    """Measure each log-table field (p, i) and write the JSON text to out."""
    result = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "repeats": REPEATS,
        # the scans first, while this process is smallest: its RSS is the floor
        "scan": measure_scan(SCAN_COMMAND),
        "scan_warm": measure_warm_scan(),
        "scan_g4": measure_scan(SCAN_G4_COMMAND),
        "calibration": measure_calibration(),
        "startup": measure_startup(),
        "compile": measure_compile(),
        "cache": measure_cache(),
        "dispatch": measure_dispatch(),
        "request": measure_request(),
        "prime_field": measure_prime_field(),
        "norm": measure_norm(),
        "fields": [measure_field(p, i) for p, i in fields],
    }
    text = json.dumps(result, indent=2) + "\n"
    Path(out).write_text(text)
    return text


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_layers.json", help="output path")
    args = ap.parse_args(argv)
    sys.stdout.write(write(FIELDS, args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
