"""Acceptance suite: runs the ten built-in verification criteria end to end.

Each criterion prints its PASS/FAIL line (visible with pytest -s or -rP)
and is asserted individually.  The whole suite shares one cache and one
run of the verification driver, mirroring `twistscope verify-paper`.

Criteria and tolerances (all exact unless stated):
   1. genus-2 pair trace signs conclusive at every good odd p <= 1000
   2. genus-2 pair full depth at 3: verdict none; characters {1,-1,2,-2}
      all refuted with witness 3
   3. genus-4 pair traces at 17 are {-8,+8}; characters {1,-1,2,-2} all
      refuted with witness 17
   4. genus-4 pair full-depth verdict != none for odd p <= 47; at
      p = 1,7 mod 8 the verdict sign matches the square-root-of-2
      character (see decision notes: at p = 7 mod 8 both signs hold)
   5. y^2 = x^9 + cx for c in {1,16}: L = 1 + sT^4 + p^4T^8 at
      p = 3,5 mod 8 up to 47, with equal polynomials across c
   6. same curves: N_i = p^i + 1 for i <= 3, p = 3,5 mod 8 in (47,150]
   7. residue-degree case table non-violating for unguarded odd p <= 1000;
      cases ii/iii force both genus-2 traces to vanish
   8. split-density sanity: fraction of p <= 1e5 with r = 1 inside
      0.25 +- 0.01 (the one non-exact window, checked with rationals)
   9. L-polynomial counts equal direct point enumeration for the two
      genus-2 curves and y^2 = x^3 - x, every good odd p <= 13, i <= 2g
  10. every L-polynomial produced above passes the Weil validation and
      every matched full-depth record has equal even coefficients
"""

import pytest

from twistscope import cache as cache_module
from twistscope import kernels
from twistscope.cache import LPolyCache
from twistscope.curvecount import DEFAULT_BUDGET
from twistscope.verify import _c6_flat_counts, _Context, exit_code, run_all


@pytest.fixture(scope="session")
def verify_results(tmp_path_factory):
    cache = LPolyCache(tmp_path_factory.mktemp("acceptance-cache"))
    return run_all(cache=cache)


def _check(verify_results, number):
    result = next(r for r in verify_results if r.number == number)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_genus2_trace_signs(verify_results):
    result = _check(verify_results, 1)
    assert "167" in result.detail


def test_criterion_02_genus2_full_depth_failure_at_3(verify_results):
    result = _check(verify_results, 2)
    assert "verdict none" in result.detail


def test_criterion_03_genus4_traces_at_17(verify_results):
    result = _check(verify_results, 3)
    assert "a_17(x^9 + x) = -8" in result.detail
    assert "a_17(x^9 + 16x) = 8" in result.detail


def test_criterion_04_genus4_full_scan_to_47(verify_results):
    _check(verify_results, 4)


def test_criterion_05_quartic_shape(verify_results):
    result = _check(verify_results, 5)
    # frozen reference values for the T^4 coefficient at the first primes
    assert "[18, 50, 242, 338" in result.detail


def test_criterion_06_flat_counts(verify_results):
    _check(verify_results, 6)


def test_criterion_06_counts_the_pair_together(tmp_path, monkeypatch):
    # every unit of criterion 6 cancels, so the planner settles it and no
    # table is built; with the cancellation rule off in the planner and in
    # char_sums (every unit gets period 1), its 11 primes, each with the
    # fields F_p^2 and F_p^3, take one table build per field, for both
    # curves (the log sum, which refuses a sum that cancels, is stubbed:
    # only builds are counted)
    real, built = kernels._field_tables, []

    def spy(p, i):
        built.append((p, i))
        return real(p, i)

    monkeypatch.setattr(kernels, "_field_tables", spy)
    ok, _ = _c6_flat_counts(_Context(budget=DEFAULT_BUDGET, cache=LPolyCache(tmp_path / "rule")))
    assert ok and built == []
    for module in (kernels, cache_module):
        monkeypatch.setattr(module, "_sum_period", lambda coeffs, p, i: 1)
    monkeypatch.setattr(kernels, "_log_sum", lambda coeffs, zech, log_fp, d: 0)
    ok, _ = _c6_flat_counts(_Context(budget=DEFAULT_BUDGET, cache=LPolyCache(tmp_path / "kernels")))
    assert ok
    assert len(built) == len(set(built)) == 22


def test_criterion_06_failures_go_curve_by_curve(genus4_pair):
    class Wrong:  # N_1 one too large everywhere
        def counts(self, curves, p, upto, budget):
            return [[p + 2] for _ in curves]

    ok, detail = _c6_flat_counts(_Context(budget=DEFAULT_BUDGET, cache=Wrong()))
    a, b = (c.label for c in genus4_pair)
    assert not ok
    assert detail.startswith(f"flat-count failures: [('{a}', 53, 1, 55), ('{a}', 59, 1, 61)")
    assert f"('{a}', 149, 1, 151), ('{b}', 53, 1, 55)" in detail


def test_criterion_07_case_table(verify_results):
    result = _check(verify_results, 7)
    # case iii must be observed as vacuous, not assumed
    assert "/0/0 over" in result.detail


def test_criterion_08_split_density(verify_results):
    result = _check(verify_results, 8)
    assert "2384/9591" in result.detail


def test_criterion_09_oracle_equivalence(verify_results):
    _check(verify_results, 9)


def test_criterion_10_global_invariants(verify_results):
    _check(verify_results, 10)


def test_exit_code_contract(verify_results):
    assert exit_code(verify_results) == 0


def test_runtime_budgets(verify_results):
    # stated per-criterion runtime ceilings, in seconds
    ceilings = {1: 60, 2: 1, 3: 1, 4: 600, 5: 600, 6: 600, 7: 60, 8: 60, 9: 60}
    for r in verify_results:
        if r.number in ceilings:
            assert r.elapsed <= ceilings[r.number], (
                f"criterion {r.number} took {r.elapsed:.1f}s, "
                f"ceiling {ceilings[r.number]}s"
            )
