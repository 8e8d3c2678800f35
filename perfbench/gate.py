"""Correctness gate: every records line of every command is checked.

A line fails when it differs from the reference records written at the
seed commit (``reference/<key>.txt``; records must stay byte-identical),
or when it breaks one of the exact invariants the paper states:

* no ``none`` verdict for either pair;
* every L-polynomial satisfies the Weil conditions (a_0 = 1, the
  functional equation, |a_j| <= C(2g, j) p^(j/2)); traces satisfy
  |a| <= 2g sqrt(p), and lemma62's s satisfies the bound on a_4;
* lemma62 gives equal s-values for c = 1 and c = 16 at every prime;
* all four characters are refuted at 17 for the genus-4 pair;
* no ``violation`` row in ``split``.

The Weil check is written out here rather than imported from the program,
so the gate does not trust the code it checks.
"""

from __future__ import annotations

from math import comb
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

G4_REFUTED_AT_17 = {-2, -1, 1, 2}


def load_references() -> dict[str, list[str]]:
    return {path.stem: path.read_text().splitlines() for path in sorted(REFERENCE_DIR.glob("*.txt"))}


def weil_ok(coeffs: list[int], p: int, g: int) -> bool:
    if len(coeffs) != 2 * g + 1 or coeffs[0] != 1:
        return False
    if any(coeffs[2 * g - j] != p ** (g - j) * coeffs[j] for j in range(g)):
        return False
    return all(a * a <= comb(2 * g, j) ** 2 * p**j for j, a in enumerate(coeffs))


def _scan_bad_lines(lines: list[str]) -> set[int]:
    bad = set()
    genus = int(lines[0].split("\t")[7]) if lines and lines[0].startswith("twistscope-scan") else 0
    for k, line in enumerate(lines[1:], start=1):
        cols = line.split("\t")
        if line.startswith("#verdict-none") and cols[1] != "0":
            bad.add(k)
        if line.startswith("#") or cols[1] != "ok":
            continue
        p, a, a_prime, la, lb, verdict = int(cols[0]), int(cols[2]), int(cols[3]), cols[4], cols[5], cols[6]
        if verdict == "none" or not genus:
            bad.add(k)
            continue
        if any(t * t > 4 * genus * genus * p for t in (a, a_prime)):
            bad.add(k)
        for L in (la, lb):
            if L != "-" and not weil_ok([int(c) for c in L.split(",")], p, genus):
                bad.add(k)
    return bad


def _lemma62_s(lines: list[str]) -> dict[int, tuple[int, int]]:
    """prime -> (line index, s) for the ok rows."""
    out = {}
    for k, line in enumerate(lines):
        cols = line.split("\t")
        if len(cols) == 5 and cols[3] == "ok":
            out[int(cols[2])] = (k, int(cols[4]))
    return out


def _lemma62_bad_lines(lines: list[str]) -> set[int]:
    bad = {k for k, line in enumerate(lines) if "\tviolation\t" in line}
    for p, (k, s) in _lemma62_s(lines).items():
        if s * s > comb(8, 4) ** 2 * p**4:
            bad.add(k)
    return bad


def _g4_char_bad_lines(lines: list[str]) -> set[int]:
    bad, refuted_at_17 = set(), set()
    for k, line in enumerate(lines):
        cols = line.split("\t")
        if cols[0] != "char":
            continue
        if cols[2] == "refuted" and cols[3] == "17" and int(cols[1]) in G4_REFUTED_AT_17:
            refuted_at_17.add(int(cols[1]))
        else:
            bad.add(k)
    if refuted_at_17 != G4_REFUTED_AT_17:
        bad.add(len(lines) - 1)
    return bad


def _split_bad_lines(lines: list[str]) -> set[int]:
    return {
        k
        for k, line in enumerate(lines)
        if line.endswith("\tviolation") or (line.startswith("split-summary") and "violation=0" not in line)
    }


def _invariant_bad_lines(key: str, lines: list[str]) -> set[int]:
    if key.endswith("-scan"):
        return _scan_bad_lines(lines)
    if "-lemma62-" in key:
        return _lemma62_bad_lines(lines)
    if key == "g4-char-search":
        return _g4_char_bad_lines(lines)
    if key.endswith("-split"):
        return _split_bad_lines(lines)
    return set()


class Gate:
    """Running totals of record lines checked and record lines that failed."""

    def __init__(self, references: dict[str, list[str]]):
        self.references = references
        self.attempted = 0
        self.failed = 0

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def check(self, outputs: dict[str, tuple[int, str]]) -> int:
        """Check one batch of command outputs, keyed by reference name, given as
        (exit code, stdout).  Returns the number of failed lines in the batch."""
        bad_by_key: dict[str, set[int]] = {}
        checked = 0
        for key, (rc, text) in outputs.items():
            lines = text.splitlines()
            ref = self.references[key]
            n = max(len(lines), len(ref), 1)
            checked += n
            if rc != 0:
                bad_by_key[key] = set(range(n))
                continue
            bad = {k for k in range(n) if k >= len(lines) or k >= len(ref) or lines[k] != ref[k]}
            try:
                bad |= _invariant_bad_lines(key, lines)
            except (IndexError, ValueError):
                bad = set(range(n))
            bad_by_key[key] = bad
        if "g4-lemma62-c1" in outputs and "g4-lemma62-c16" in outputs:
            try:
                s1 = _lemma62_s(outputs["g4-lemma62-c1"][1].splitlines())
                s16 = _lemma62_s(outputs["g4-lemma62-c16"][1].splitlines())
            except ValueError:  # unparsable; the per-command check failed every line
                s1 = s16 = {}
            for p in s1.keys() | s16.keys():
                if p not in s1 or p not in s16 or s1[p][1] != s16[p][1]:
                    for key, table in (("g4-lemma62-c1", s1), ("g4-lemma62-c16", s16)):
                        bad_by_key[key].add(table[p][0] if p in table else 0)
        failed = sum(len(bad) for bad in bad_by_key.values())
        self.attempted += checked
        self.failed += failed
        return failed
