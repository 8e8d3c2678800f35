"""Run the twistscope CLI with timing spans around each layer's public functions.

Usage (PYTHONPATH must point at the checkout's ``src``):

    python3 perfbench/tracer.py SPAN_DIR CLI-ARGS...

runs ``twistscope CLI-ARGS...`` exactly as the console script would, after
replacing each traced function at every module binding where the package
holds it: ``twistlab`` imports ``lpoly``, ``frobenius_trace`` and
``reduce_curve`` by name, ``splitfield`` imports ``ddf_degrees``, ``cli``
imports ``scan_pair``, ``character_search``, ``split_profile`` and
``lemma62_check``, and ``cache`` imports ``point_count`` at call time, so
patching only the defining module would miss most calls.  No file under
``src/`` changes.

Each finished span (name, id, parent id, start, end and a few counts) is
appended as one JSON line to ``SPAN_DIR/<pid>.jsonl`` whenever the
outermost traced call of the process returns.  Forked pool workers exit
without running atexit hooks, so flushing per call is what lets their
spans reach the file.  ``layer_metrics`` turns the span files of a set of
commands into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _point_count_counts(arguments: dict, result) -> dict:
    p, i = arguments["p"], arguments["i"]
    return {"i": i, "elements": p**i}


def _get_counts(arguments: dict, result) -> dict:
    return {"hit": result is not None}


def _search_counts(arguments: dict, result) -> dict:
    return {"primes_checked": len(result.primes_checked)}


# (module, attribute path, span name, counts taken from the call's arguments and result)
TRACED = (
    ("twistscope.curvecount", "point_count", "curvecount.point_count", _point_count_counts),
    ("twistscope.curvecount", "lpoly_from_counts", "curvecount.lpoly_from_counts", None),
    ("twistscope.curvecount", "reduce_curve", "curvecount.reduce_curve", None),
    ("twistscope.curvecount", "lpoly", "curvecount.lpoly", None),
    ("twistscope.curvecount", "frobenius_trace", "curvecount.frobenius_trace", None),
    ("twistscope.cache", "LPolyCache.get", "cache.get", _get_counts),
    ("twistscope.cache", "LPolyCache.put", "cache.put", None),
    ("twistscope.twistlab", "scan_pair", "twistlab.scan_pair", None),
    ("twistscope.twistlab", "character_search", "twistlab.character_search", _search_counts),
    ("twistscope.splitfield", "split_profile", "splitfield.split_profile", None),
    ("twistscope.splitfield", "lemma62_check", "splitfield.lemma62_check", None),
    ("twistscope.algebra", "ddf_degrees", "algebra.ddf_degrees", None),
)


class Tracer:
    """Span recorder for one process; a forked child starts with an empty record."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.finished: list[dict] = []
        self.stack: list[int] = []
        self.next_id = 0
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        self.finished = []
        self.stack = []

    def flush(self) -> None:
        if not self.finished:
            return
        path = self.span_dir / f"{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in self.finished))
        self.finished = []

    def wrap(self, name: str, fn, counts=None):
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "id": self.next_id, "parent": self.stack[-1] if self.stack else None}
            self.next_id += 1
            self.stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counts:
                    span.update(counts(signature.bind(*args, **kwargs).arguments, result))
                return result
            finally:
                span["t1"] = time.perf_counter()
                self.stack.pop()
                self.finished.append(span)
                if not self.stack:
                    self.flush()

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every TRACED function wherever the package binds it; returns names not found."""
    importlib.import_module("twistscope.cli")
    missing = []
    for module_name, path, name, counts in TRACED:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(name)
            continue
        traced = tracer.wrap(name, original, counts)
        if outer:
            setattr(owner, attr, traced)
            continue
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "twistscope" or mod_name.startswith("twistscope.")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, traced)
    return missing


def main(argv: list[str]) -> int:
    tracer = Tracer(Path(argv[0]))
    for name in install(tracer):
        print(f"tracer: {name} not found; its metrics stay 0", file=sys.stderr)
    from twistscope import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.flush()


# ---------------------------------------------------------------------------
# span files -> per-layer metrics
# ---------------------------------------------------------------------------

_CALLS_AND_SECONDS = (
    "curvecount.lpoly_from_counts",
    "curvecount.reduce_curve",
    "cache.put",
    "splitfield.split_profile",
    "splitfield.lemma62_check",
    "algebra.ddf_degrees",
)


def read_spans(span_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(span_dir).glob("*.jsonl")):
        pid = int(path.stem)
        for line in path.read_text().splitlines():
            span = json.loads(line)
            span["pid"] = pid
            spans.append(span)
    return spans


def layer_metrics(commands: list[tuple[int, int, Path]]) -> dict[str, float]:
    """Per-layer totals over commands given as (command pid, --jobs, span dir).

    A span in another pid with no traced parent is a pool worker's unit of
    work; their sum is the workers' busy time, and utilisation divides it
    by jobs x the wall time of each scan_pair run with jobs > 1.  Lookups
    that ``cache.put`` makes to merge a record are part of the put, not
    cache.get calls.
    """
    names = [f"curvecount.point_count.i{i}.{k}" for i in range(1, 5) for k in ("calls", "elements", "s")]
    names += [f"{name}.{k}" for name in _CALLS_AND_SECONDS for k in ("calls", "s")]
    names += ["cache.get.calls", "cache.get.hits", "cache.get.s", "twistlab.scan_pair.s",
              "twistlab.scan_pair.self_s", "twistlab.pool.worker_busy_s",
              "twistlab.character_search.s", "twistlab.character_search.primes_checked"]
    m = dict.fromkeys(names, 0.0)
    capacity = 0.0
    for main_pid, jobs, span_dir in commands:
        spans = read_spans(span_dir)
        by_id = {(s["pid"], s["id"]): s for s in spans}
        child_s: dict[tuple[int, int], float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_s[(s["pid"], s["parent"])] += s["t1"] - s["t0"]
        for s in spans:
            name, dur = s["name"], s["t1"] - s["t0"]
            parent = by_id.get((s["pid"], s["parent"]))
            if s["pid"] != main_pid and parent is None:
                m["twistlab.pool.worker_busy_s"] += dur
            if name == "curvecount.point_count" and 1 <= s.get("i", 0) <= 4:
                pre = f"curvecount.point_count.i{s['i']}"
                m[f"{pre}.calls"] += 1
                m[f"{pre}.elements"] += s["elements"]
                m[f"{pre}.s"] += dur
            elif name == "cache.get" and "hit" in s:
                if parent is not None and parent["name"] == "cache.put":
                    continue
                m["cache.get.calls"] += 1
                m["cache.get.hits"] += s["hit"]
                m["cache.get.s"] += dur
            elif name == "twistlab.scan_pair":
                m["twistlab.scan_pair.s"] += dur
                m["twistlab.scan_pair.self_s"] += dur - child_s[(s["pid"], s["id"])]
                if jobs > 1:
                    capacity += jobs * dur
            elif name == "twistlab.character_search":
                m["twistlab.character_search.s"] += dur
                m["twistlab.character_search.primes_checked"] += s.get("primes_checked", 0)
            elif name in _CALLS_AND_SECONDS:
                m[f"{name}.calls"] += 1
                m[f"{name}.s"] += dur
    for i in range(1, 5):
        pre = f"curvecount.point_count.i{i}"
        m[f"{pre}.elements_per_s"] = m[f"{pre}.elements"] / m[f"{pre}.s"] if m[f"{pre}.s"] else 0.0
    m["cache.get.hit_ratio"] = m["cache.get.hits"] / m["cache.get.calls"] if m["cache.get.calls"] else 0.0
    m["twistlab.pool.utilisation"] = m["twistlab.pool.worker_busy_s"] / capacity if capacity else 0.0
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
