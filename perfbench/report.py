"""Print every benchmark metric, by name and unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` for each workload of BENCHMARK.json, untraced (end-to-end
metrics) and traced (per-layer metrics), from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    rc = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload['name']} trace {trace}: run.py failed\n{proc.stderr}", file=sys.stderr)
                rc = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {workload['name']} ({'per-layer, traced' if trace else 'end-to-end'}): "
                  f"correct={result['correct']} failed {result['failed']}/{result['attempted']} lines")
            print(lines[0])
            for name, metric in result["metrics"].items():
                print(f"  {name:45s} {metric['value']:.6g} {metric['unit']}")
            rc |= 0 if result["correct"] else 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
