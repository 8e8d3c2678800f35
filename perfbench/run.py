"""twistscope benchmark: the CLI timed end to end, and a traced run per layer.

Usage, from the root of a source checkout (nothing needs installing; the
commands run the checkout's ``src/`` through PYTHONPATH):

    python3 perfbench/run.py --workload g4-full --seed 1 --seconds 25 --trace 0

Every command runs in a fresh interpreter, as the ``twistscope`` console
script would, with ``--format records`` and a cache directory of its own
under ``.perfbench-work/`` in the checkout, so the tool does its own cache
I/O on the filesystem users get.  One iteration runs a workload's whole
command mix; iterations repeat until ``--seconds`` have passed (at least one
per round), and each metric is the median over iterations.

A run has SETUP_REPEATS rounds.  Each round sets up once (timed as
``setup_s``) and then runs iterations for its share of ``--seconds``, so set-up
and iterations are sampled over the same stretch of the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced iterations (tracer.py wraps
each layer) and reports the per-layer metrics; ``trace.overhead_s`` is the
traced minus the untraced median ``wall_s``.

The seed picks how the curves are spelled (the program must give
byte-identical records for every spelling) and the order of the follow-up
commands; neither changes the work done.  Every records line is checked by
gate.py.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from gate import Gate, load_references
from tracer import layer_metrics

TRACER = Path(__file__).resolve().parent / "tracer.py"
ENTRY = "import sys; from twistscope.cli import main; sys.exit(main())"

WORKLOADS = ("g4-full", "warm-j2")
WARM = {"warm-j2"}  # workloads whose iterations start from the set-up's caches
G4_PMAX = 23  # >= 17, where all four characters are refuted
G2_PMAX = 5000
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150

# Spellings the CLI must treat as the same curve; the first is canonical.
SPELLINGS = {
    "x^9 + x": ("x^9 + x", "x^9+x", "x + x^9", "x^9 + 1*x", "+x^9 + 1x"),
    "x^9 + 16x": ("x^9 + 16x", "x^9+16*x", "16x + x^9", "x^9 + 16 x"),
    "x^5 - x": ("x^5 - x", "x^5-x", "x^5 - 1x", "x^5 - 1*x"),
    "x^5 + 4x": ("x^5 + 4x", "x^5+4*x", "4x + x^5", "x^5 + 4*x"),
}


@dataclass(frozen=True)
class Inputs:
    """What the seed decides: curve spellings and the follow-up order."""

    curves: dict = field(default_factory=lambda: {e: e for e in SPELLINGS})
    followup_order: tuple = (0, 1, 2)

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        curves = {expr: rng.choice(spellings) for expr, spellings in SPELLINGS.items()}
        return cls(curves, tuple(rng.sample(range(3), 3)))


@dataclass(frozen=True)
class Command:
    key: str  # reference records name, e.g. "g4-scan"
    kind: str  # "scan" | "followup" | "split": which wall-time metric it adds to
    part: str  # "g4" | "g2": whose cache directory it uses
    args: tuple
    jobs: int = 1


def g4_commands(inputs: Inputs, scan_jobs: int) -> list[Command]:
    a, b = inputs.curves["x^9 + x"], inputs.curves["x^9 + 16x"]
    r = ("--pmax", str(G4_PMAX))
    followups = [
        Command("g4-lemma62-c1", "followup", "g4", ("lemma62", "--c", "1", *r)),
        Command("g4-lemma62-c16", "followup", "g4", ("lemma62", "--c", "16", *r)),
        Command("g4-char-search", "followup", "g4", ("char-search", a, b, *r)),
    ]
    return [
        Command("g4-scan", "scan", "g4",
                ("scan", a, b, *r, "--depth", "full", "--jobs", str(scan_jobs)), scan_jobs),
        *(followups[k] for k in inputs.followup_order),
    ]


def g2_commands(inputs: Inputs, scan_jobs: int) -> list[Command]:
    a, b = inputs.curves["x^5 - x"], inputs.curves["x^5 + 4x"]
    r = ("--pmax", str(G2_PMAX))
    return [
        Command("g2-scan", "scan", "g2",
                ("scan", a, b, *r, "--depth", "traces", "--jobs", str(scan_jobs)), scan_jobs),
        Command("g2-split", "split", "g2", ("split", *r)),
    ]


def workload_commands(workload: str, inputs: Inputs) -> tuple[list[Command], list[Command]]:
    """(timed commands, set-up commands).

    g4-full sets up by running its own commands once on a cold cache, as a
    warm-up.  warm-j2 sets up by building its warm snapshot: what the cold
    commands leave in the cache (split never uses it); the genus-2 trace
    scan runs single-threaded there.
    """
    if workload == "g4-full":
        return g4_commands(inputs, 2), g4_commands(inputs, 2)
    cold = [c for c in g4_commands(inputs, 2) + g2_commands(inputs, 1) if c.kind != "split"]
    return g4_commands(inputs, 2) + g2_commands(inputs, 2), cold


@dataclass(frozen=True)
class Outcome:
    pid: int
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def allocated(directories) -> tuple[int, int]:
    """(allocated bytes from st_blocks, regular files) under the directories."""
    size = files = 0
    for top in directories:
        for dirpath, _, filenames in os.walk(top):
            size += os.lstat(dirpath).st_blocks * 512
            for name in filenames:
                size += os.lstat(os.path.join(dirpath, name)).st_blocks * 512
                files += 1
    return size, files


class Bench:
    """Runs CLI commands from one checkout in a private work directory under
    ``.perfbench-work/``, removed again when the ``with`` block ends."""

    def __init__(self, root: Path, name: str, gate: Gate):
        self.root = root
        self.work = root / ".perfbench-work" / name
        self.gate = gate
        self.serial = 0
        self.env = {k: v for k, v in os.environ.items() if k != "TWISTSCOPE_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(root / "src")

    def __enter__(self) -> "Bench":
        self.work.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def fresh(self, stem: str) -> Path:
        self.serial += 1
        return self.work / f"{stem}-{self.serial}"

    def run_cli(self, argv: list[str], span_dir: Path | None = None) -> Outcome:
        """One command in a fresh interpreter; peak RSS from its own rusage (wait4)."""
        prefix = [str(TRACER), str(span_dir)] if span_dir else ["-c", ENTRY]
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *prefix, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root, start_new_session=True)
            timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            print(f"command failed ({rc}): {' '.join(argv)}\n{err_path.read_text()[-2000:]}",
                  file=sys.stderr)
        return Outcome(proc.pid, rc, wall, usage.ru_maxrss * 1024 / 1e6, out_path.read_text())

    def run_command(self, cmd: Command, caches: dict[str, Path], span_dir=None) -> Outcome:
        argv = [*cmd.args, "--format", "records", "--cache-dir", str(caches[cmd.part])]
        return self.run_cli(argv, span_dir)

    def startup(self) -> float:
        outcome = self.run_cli(["--version"])
        if outcome.rc != 0 or not outcome.stdout.startswith("twistscope "):
            raise RuntimeError("twistscope --version failed")
        return outcome.wall_s

    def iteration(self, commands: list[Command], caches: dict[str, Path], traced: bool):
        """Run the command mix once; returns (end-to-end metrics, per-layer metrics or None)."""
        outputs, walls, rss, spans = {}, defaultdict(float), 0.0, []
        for cmd in commands:
            span_dir = None
            if traced:
                span_dir = self.fresh("spans")
                span_dir.mkdir()
            outcome = self.run_command(cmd, caches, span_dir)
            outputs[cmd.key] = (outcome.rc, outcome.stdout)
            walls[cmd.kind] += outcome.wall_s
            rss = max(rss, outcome.rss_mb)
            if traced:
                spans.append((outcome.pid, cmd.jobs, span_dir))
        self.gate.check(outputs)
        size, files = allocated(set(caches[c.part] for c in commands))
        e2e = {
            "wall_s": sum(walls.values()),
            "scan_s": walls["scan"],
            "followup_s": walls["followup"],
            "split_s": walls["split"],
            "peak_rss_mb": rss,
            "cache_mb": size / 1e6,
        }
        layers = None
        if traced:
            layers = layer_metrics(spans)
            layers["cache.files"] = files
            for _, _, span_dir in spans:
                shutil.rmtree(span_dir)
        return e2e, layers


def set_up(bench: Bench, setup_commands: list[Command]) -> dict[str, Path]:
    """One set-up: run the set-up commands on empty caches, gate their records
    and return the cache directories they leave."""
    caches = {part: bench.fresh(f"snapshot-{part}") for part in ("g4", "g2")}
    outputs = {}
    for cmd in setup_commands:
        outcome = bench.run_command(cmd, caches)
        outputs[cmd.key] = (outcome.rc, outcome.stdout)
    bench.gate.check(outputs)
    return caches


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mountinfo."""
    target, best, fstype = os.path.realpath(path), "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best) and right:
            best, fstype = mount, right.split()[0]
    return fstype


def machine_info(work: Path) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cache_fs": filesystem_of(work),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, bench: Bench) -> dict:
    """Medians for one run: end-to-end from the untraced iterations and, with
    trace, per-layer from the traced ones."""
    commands, setup_commands = workload_commands(workload, Inputs.from_seed(seed))
    setup_times, runs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        snapshot = set_up(bench, setup_commands)
        setup_times.append(time.perf_counter() - t0)

        deadline = time.perf_counter() + seconds / SETUP_REPEATS
        while True:
            caches = {part: bench.fresh(f"cache-{part}") for part in ("g4", "g2")}
            if workload in WARM:
                for part, path in snapshot.items():
                    shutil.copytree(path, caches[part])
            traced = trace and len(runs) % 2 == 1
            runs.append((traced, *bench.iteration(commands, caches, traced)))
            for path in caches.values():
                shutil.rmtree(path, ignore_errors=True)
            if time.perf_counter() >= deadline:
                break
        for path in snapshot.values():
            shutil.rmtree(path, ignore_errors=True)

    untraced = [e2e for traced, e2e, _ in runs if not traced]
    metrics = {name: statistics.median(e2e[name] for e2e in untraced) for name in untraced[0]}
    metrics["setup_s"] = statistics.median(setup_times)
    if not trace:
        return metrics
    traced_layers = [layers for traced, _, layers in runs if traced]
    for name in traced_layers[0]:
        metrics[name] = statistics.median(t[name] for t in traced_layers)
    traced_wall = statistics.median(e2e["wall_s"] for traced, e2e, _ in runs if traced)
    metrics["trace.overhead_s"] = traced_wall - metrics["wall_s"]
    metrics["cli.startup_s"] = statistics.median(bench.startup() for _ in range(STARTUP_REPEATS))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "twistscope" / "cli.py").is_file():
        print("error: run from a twistscope checkout root (src/twistscope/cli.py not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    gate = Gate(load_references())
    with Bench(root, f"{args.workload}-seed{args.seed}-{os.getpid()}", gate) as bench:
        info = machine_info(bench.work)
        metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace), bench)
    if not set(wanted) <= set(metrics):
        print(f"error: BENCHMARK.json metrics {sorted(set(wanted) - set(metrics))} not measured",
              file=sys.stderr)
        return 2

    print(f"machine {json.dumps(info)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{gate.failed}/{gate.attempted} record lines failed (fail_frac {gate.fail_frac!r})")
    for name in wanted:
        print(f"  {name:45s} {metrics[name]!r} {wanted[name]}")
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
