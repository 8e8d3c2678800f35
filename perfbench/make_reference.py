"""Write reference/<key>.txt: the records each benchmark command prints.

Run from the checkout root, at the commit whose records are the reference:

    python3 perfbench/make_reference.py

Each command runs once with the canonical curve spellings on a cold cache,
with the --jobs value its workload uses.  The outputs must pass the gate's
invariants before anything is written.
"""

from __future__ import annotations

import sys
from pathlib import Path

from gate import REFERENCE_DIR, Gate
from run import Bench, Inputs, g2_commands, g4_commands


def main() -> int:
    with Bench(Path.cwd(), "reference", Gate({})) as bench:
        caches = {part: bench.fresh(f"cache-{part}") for part in ("g4", "g2")}
        outputs = {}
        for cmd in g4_commands(Inputs(), 2) + g2_commands(Inputs(), 1):
            outcome = bench.run_command(cmd, caches)
            if outcome.rc != 0:
                return 1
            outputs[cmd.key] = (outcome.rc, outcome.stdout)
    gate = Gate({key: text.splitlines() for key, (_, text) in outputs.items()})
    if gate.check(outputs):
        print("error: reference outputs break an invariant", file=sys.stderr)
        return 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    for key, (_, text) in outputs.items():
        (REFERENCE_DIR / f"{key}.txt").write_text(text)
        print(f"wrote {key}: {len(text.splitlines())} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
