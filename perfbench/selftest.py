"""Self-test of the correctness gate; runs no CLI command.

    python3 perfbench/selftest.py

Checks that the reference records pass (fail_frac = 0), that changing one
digit of one record makes fail_frac > 0, and that each invariant fires
even when the reference carries the same error.  Exits 1 on any miss.
"""

from __future__ import annotations

import sys

from gate import Gate, load_references


def fail_frac(references: dict[str, list[str]], outputs: dict[str, list[str]], rc: int = 0) -> float:
    gate = Gate(references)
    gate.check({key: (rc, "\n".join(lines) + "\n") for key, lines in outputs.items()})
    return gate.fail_frac


def altered(records: dict[str, list[str]], key: str, line_no: int, old: str, new: str):
    out = {k: list(v) for k, v in records.items()}
    if old not in out[key][line_no]:
        raise ValueError(f"{key} line {line_no} has no {old!r}: {out[key][line_no]!r}")
    out[key][line_no] = out[key][line_no].replace(old, new, 1)
    return out


def main() -> int:
    refs = load_references()
    g2_p17 = next(k for k, line in enumerate(refs["g2-scan"]) if line.startswith("17\t"))
    g4_p17 = next(k for k, line in enumerate(refs["g4-scan"]) if line.startswith("17\t"))
    # (what, whether the reference carries the same change, key, line, old, new)
    cases = [
        ("one digit of one trace changed", False, "g2-scan", g2_p17, "-12", "-13"),
        ("a none verdict", True, "g2-scan", g2_p17, "minus", "none"),
        ("an L-polynomial breaking the functional equation", True, "g4-scan", g4_p17, ",184,", ",185,"),
        ("unequal lemma62 s-values", True, "g4-lemma62-c16", 0, "\t18", "\t20"),
        ("a character refuted at 19, not 17", True, "g4-char-search", 3, "\t17", "\t19"),
        ("a split violation row", True, "g2-split", 1, "\tii", "\tviolation"),
    ]
    baseline = fail_frac(refs, refs)
    print(f"reference records: fail_frac {baseline}")
    ok = baseline == 0
    for what, in_reference, key, line_no, old, new in cases:
        outputs = altered(refs, key, line_no, old, new)
        frac = fail_frac(outputs if in_reference else refs, outputs)
        print(f"{what}: fail_frac {frac}")
        ok &= frac > 0
    crashed = fail_frac(refs, refs, rc=1)
    print(f"every command exiting 1: fail_frac {crashed}")
    ok &= crashed == 1
    print("gate self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
