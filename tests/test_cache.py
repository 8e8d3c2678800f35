import json

import pytest

from twistscope.cache import LPolyCache, resolve_cache_dir
from twistscope.curvecount import curve_from_coeffs, lpoly, point_count
from twistscope.errors import BadReductionError, BudgetExceededError


@pytest.fixture
def cache(tmp_path):
    return LPolyCache(tmp_path / "cache")


class TestBasics:
    def test_miss_on_empty(self, cache, genus2_pair):
        assert cache.get(genus2_pair[0], 3) is None

    def test_put_get_roundtrip(self, cache, genus2_pair):
        curve = genus2_pair[0]
        L = lpoly(curve, 3)
        cache.put(curve, 3, counts=[4, 6], lpoly=L)
        record = cache.get(curve, 3)
        assert record["counts"] == [4, 6]
        assert tuple(record["lpoly"]) == L.coeffs

    def test_corrupt_record_is_miss(self, cache, genus2_pair):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        path = cache._path(curve, 3)
        path.write_text("{ not json")
        assert cache.get(curve, 3) is None

    def test_weil_invalid_lpoly_is_miss(self, cache, genus2_pair):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        path = cache._path(curve, 3)
        record = json.loads(path.read_text())
        record["lpoly"] = [1, 7, 7, 7, 9]  # fails the functional equation
        path.write_text(json.dumps(record))
        assert cache.get(curve, 3) is None

    def test_version_mismatch_is_miss(self, cache, genus2_pair):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        path = cache._path(curve, 3)
        record = json.loads(path.read_text())
        record["tool_version"] = "0.0.0-old"
        path.write_text(json.dumps(record))
        assert cache.get(curve, 3) is None

    def test_disabled_cache_never_stores(self, genus2_pair):
        cache = LPolyCache("", enabled=False)
        cache.put(genus2_pair[0], 3, counts=[4])
        assert cache.get(genus2_pair[0], 3) is None

    def test_same_coeffs_other_label_hits(self, cache, genus2_pair):
        # the key is the coefficients; the label is metadata only
        from twistscope.curvecount import CurveModel

        curve = genus2_pair[0]
        alias = CurveModel("alias", curve.f_coeffs, curve.genus)
        cache.put(curve, 3, counts=[4])
        assert cache.get(alias, 3)["counts"] == [4]
        assert cache.get(alias, 3)["label"] == curve.label


class TestComputeThrough:
    def test_lpoly_stores_and_replays(self, cache, genus2_pair):
        curve = genus2_pair[0]
        first = cache.lpoly(curve, 3, budget=10**6)
        record = cache.get(curve, 3)
        assert tuple(record["lpoly"]) == first.coeffs
        assert record["counts"] == [4, 6]
        # replay without recomputation: poison the stored counts to prove
        # the polynomial is served from disk
        again = cache.lpoly(curve, 3, budget=0)
        assert again.coeffs == first.coeffs

    def test_budget_abort_keeps_prefix_then_resumes(self, cache, genus4_pair):
        curve = genus4_pair[0]
        with pytest.raises(BudgetExceededError):
            cache.lpoly(curve, 3, budget=39)  # room for N_1..N_3 only
        assert cache.get(curve, 3)["counts"] == [4, 10, 28]
        L = cache.lpoly(curve, 3, budget=81)  # the missing p^4 enumeration fits
        assert L.coeffs == (1, 0, 0, 0, 18, 0, 0, 0, 81)

    def test_budget_partial_progress_is_stored(self, tmp_path, genus4_pair):
        # each count the budget affords reaches the store before the error,
        # also when the units run on workers
        curve = genus4_pair[0]
        with LPolyCache(tmp_path / "cache", jobs=2) as cache:
            with pytest.raises(BudgetExceededError) as exc:
                cache.lpoly(curve, 3, budget=39)
            assert cache.get(curve, 3)["counts"] == [4, 10, 28]
        assert exc.value.required == 3 + 9 + 27 + 81

    def test_resolve_marks_short_requests_without_raising(self, cache, genus4_pair):
        # one batch: p = 3 fits the budget, p = 5 gets the prefix that fits
        curve = genus4_pair[0]
        at3, at5 = cache.resolve([(curve, 3, 4), (curve, 5, 4)], budget=120)
        assert at3.short is None
        assert at3.lpoly.coeffs == (1, 0, 0, 0, 18, 0, 0, 0, 81)
        assert at5.short.required == 5 + 25 + 125 + 625
        assert at5.counts == [point_count(curve, 5, 1), point_count(curve, 5, 2)]
        assert cache.get(curve, 5)["counts"] == at5.counts

    def test_stored_prefix_trusted(self, cache, genus4_pair, monkeypatch):
        # with N_1..N_3 stored, only the p^4 enumeration runs
        curve = genus4_pair[0]
        cache.put(curve, 3, counts=[4, 10, 28])
        degrees = []

        def spy(curve, p, i):
            degrees.append(i)
            return point_count(curve, p, i)

        monkeypatch.setattr("twistscope.cache.point_count", spy)
        L = cache.lpoly(curve, 3, budget=81)
        assert L.coeffs == (1, 0, 0, 0, 18, 0, 0, 0, 81)
        assert degrees == [4]

    def test_bad_reduction_from_workers(self):
        bad = curve_from_coeffs((3, 0, 0, 0, 0, 1))  # x^5 + 3 = x^5 mod 3
        with LPolyCache("", enabled=False, jobs=2) as cache:
            with pytest.raises(BadReductionError) as exc:
                cache.lpoly(bad, 3, budget=10**6)
        assert (exc.value.label, exc.value.p) == (bad.label, 3)

    def test_counts_through_cache(self, cache, genus4_pair):
        curve = genus4_pair[0]
        out = cache.counts(curve, 53, upto=2, budget=10**6)
        assert out == [53 + 1, 53**2 + 1]
        assert cache.get(curve, 53)["counts"] == out
        assert cache.counts(curve, 53, upto=1, budget=0) == [54]

    def test_counts_recovered_from_lpoly(self, cache, genus2_pair):
        curve = genus2_pair[0]
        cache.lpoly(curve, 5, budget=10**6)
        # cached record has counts for i <= g; ask beyond the stored prefix
        out = cache.counts(curve, 5, upto=4, budget=0)
        assert out[:2] == [cache.get(curve, 5)["counts"][0], cache.get(curve, 5)["counts"][1]]
        assert len(out) == 4

    def test_trace_uses_count_prefix(self, cache, genus2_pair):
        curve = genus2_pair[1]
        assert cache.trace(curve, 7) == 0
        assert cache.get(curve, 7)["counts"] == [8]
        assert cache.trace(curve, 7) == 0


class TestResolveDir:
    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("TWISTSCOPE_CACHE_DIR", "/env/dir")
        assert str(resolve_cache_dir("/flag/dir")) == "/flag/dir"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("TWISTSCOPE_CACHE_DIR", "/env/dir")
        assert str(resolve_cache_dir(None)) == "/env/dir"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("TWISTSCOPE_CACHE_DIR", raising=False)
        assert str(resolve_cache_dir(None)) == ".twistscope-cache"
