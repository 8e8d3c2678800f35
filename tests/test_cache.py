import hashlib
import json
import logging
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import oracles
import twistscope
from twistscope import cache as cache_module
from twistscope import kernels
from twistscope.algebra import _sum_period, odd_primes
from twistscope.cache import LPolyCache, resolve_cache_dir
from twistscope.cli import main
from twistscope.curvecount import curve_from_coeffs, lpoly, point_count
from twistscope.errors import BadReductionError, BudgetExceededError, InconsistentCountsError

from test_cli import no_children


@pytest.fixture
def cache(tmp_path):
    return LPolyCache(tmp_path / "cache")


def reopened(cache):
    """A new cache object on the same directory, which reads every file afresh."""
    return LPolyCache(cache.directory)


def lines(cache, curve):
    return cache._path(curve).read_text().splitlines()


def append(cache, curve, text):
    """Write text at the end of the curve's file, as a damaged or foreign writer would."""
    cache._path(curve).parent.mkdir(parents=True, exist_ok=True)
    with open(cache._path(curve), "a") as fh:
        fh.write(text)


def served(cache, curve):
    """What ``get`` serves at every prime the curve's file has a line for."""
    return {p: cache.get(curve, p) for p in cache._records(curve)}


class TestBasics:
    def test_miss_on_empty(self, cache, genus2_pair):
        assert cache.get(genus2_pair[0], 3) is None

    def test_put_get_roundtrip(self, cache, genus2_pair):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4, 6])
        assert cache.get(curve, 3) == ([4, 6], lpoly(curve, 3))
        assert reopened(cache).get(curve, 3) == ([4, 6], lpoly(curve, 3))
        # the file name spells the key; a line is p and the counts, each
        # field preceded by a tab, then a final tab; L is derived on read
        assert cache_module.RECORD_FORMAT == 6
        assert cache._path(curve) == cache.directory / f"6_{twistscope.__version__}_0,-1,0,0,0,1.tsv"
        assert lines(cache, curve) == ["\t3\t4,6\t"]
        cache.put(curve, 5, counts=[6])  # below g counts: no L-polynomial yet
        assert reopened(cache).get(curve, 5) == ([6], None)

    def test_corrupt_record_is_miss(self, cache, genus2_pair):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        cache._path(curve).write_text("{ not json\n")
        assert reopened(cache).get(curve, 3) is None

    def test_undecodable_line_is_miss(self, cache, genus2_pair, caplog):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        cache._path(curve).write_bytes(b"\t3\t\xff\t\n" + cache._path(curve).read_bytes())
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            assert reopened(cache).get(curve, 3)[0] == [4]
        assert "line 1 unreadable" in caplog.text

    def test_count_outside_weil_bounds_is_miss(self, cache, genus2_pair, caplog):
        curve = genus2_pair[1]  # x^5 + 4x: N_1 = 8 at p = 7
        append(cache, curve, "\t7\t1008\t\n")
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            again = reopened(cache)
            assert again.get(curve, 7) is None
            assert again.trace(curve, 7) == 0
        assert "line 1 failed validation" in caplog.text

    def test_counts_failing_newton_are_warned_miss(self, cache, genus2_pair, caplog, capsys):
        # [6, 27] lies within the Weil bounds, but Newton step 2 is non-integral
        curve = genus2_pair[0]
        append(cache, curve, "\t5\t6,27\t\n")
        assert cache.get(curve, 5) is None
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            again = reopened(cache)
            assert again.get(curve, 5) is None
            assert again.lpoly(curve, 5, budget=10**6).coeffs == (1, 0, -10, 0, 25)
        assert "line 1 failed validation" in caplog.text
        assert reopened(cache).get(curve, 5) == ([6, 6], lpoly(curve, 5))
        # the CLI recounts past such a line instead of failing
        other = LPolyCache(cache.directory.parent / "cli")
        append(other, curve, "\t5\t6,27\t\n")
        argv = ["lpoly", "x^5 - x", "--p", "5", "--format", "records", "--cache-dir", str(other.directory)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "lpoly\tx^5 - x\t5\t1,0,-10,0,25\t0\tok\n"

    def test_put_of_invalid_counts_raises_and_writes_nothing(self, cache, genus2_pair):
        curve = genus2_pair[1]  # x^5 + 4x: N_1 = 8 at p = 7
        with pytest.raises(InconsistentCountsError, match="N_1=1008"):
            cache.put(curve, 7, counts=[1008])
        assert not cache.directory.exists()
        assert cache.get(curve, 7) is None
        with pytest.raises(InconsistentCountsError, match="Newton step 2"):
            cache.put(genus2_pair[0], 5, counts=[6, 27])  # within the Weil bounds
        assert not cache.directory.exists()
        assert cache.put(curve, 7, counts=[8]) is None  # below g counts: no L yet
        n2 = point_count(curve, 7, 2)
        assert cache.put(curve, 7, counts=[8, n2]) == lpoly(curve, 7)
        assert lines(cache, curve) == ["\t7\t8\t", f"\t7\t8,{n2}\t"]

    # x^5 + 3x + 1 at 7 has N = 11, 55, 371, 2419; N_3 = 373 lies within the
    # Weil bounds, and N_1, N_2 give L, which gives back N_3 = 371
    PAST_G = (1, 3, 0, 0, 0, 1), [11, 55, 371, 2419], [11, 55, 373, 2419]

    def test_put_refuses_counts_past_g_that_disagree_with_l(self, cache):
        coeffs, _, bad = self.PAST_G
        with pytest.raises(InconsistentCountsError, match="N_3..N_4 disagree with L_p"):
            cache.put(curve_from_coeffs(coeffs), 7, counts=bad)
        assert not cache.directory.exists()

    def test_stored_counts_past_g_that_disagree_with_l_are_warned_miss(self, cache, caplog):
        coeffs, good, bad = self.PAST_G
        curve = curve_from_coeffs(coeffs)
        append(cache, curve, f"\t7\t{','.join(map(str, bad))}\t\n")
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            again = reopened(cache)
            assert again.get(curve, 7) is None
            assert again.counts([curve], 7, 4, budget=10**4) == [good]
        assert "line 1 failed validation" in caplog.text
        assert reopened(cache).get(curve, 7) == (good, lpoly(curve, 7))

    def test_version_mismatch_is_miss(self, cache, genus2_pair):
        # a file named for another tool version or an older record format is
        # never read, though its line would be valid at p = 3
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        path = cache._path(curve)
        for name in ("6_0.0.0-old_0,-1,0,0,0,1.tsv", f"5_{twistscope.__version__}_0,-1,0,0,0,1.tsv"):
            other = path.rename(cache.directory / name)
            assert reopened(cache).get(curve, 3) is None, name
            other.rename(path)
        assert reopened(cache).get(curve, 3) == ([4], None)

    def test_one_file_per_curve_one_line_per_put(self, cache, genus2_pair):
        for curve in genus2_pair:
            for p in (3, 7, 11):
                cache.put(curve, p, counts=[p + 1])
        files = sorted(cache.directory.iterdir())
        assert [f.suffix for f in files] == [".tsv", ".tsv"]
        assert sorted(files) == sorted(cache._path(c) for c in genus2_pair)
        assert [line.split("\t")[1] for line in lines(cache, genus2_pair[0])] == ["3", "7", "11"]

    def test_later_line_replaces_earlier(self, cache, genus2_pair, caplog):
        curve = genus2_pair[0]
        L = lpoly(curve, 3)
        cache.put(curve, 3, counts=[4])
        cache.put(curve, 3, counts=[4, 6])
        assert cache.get(curve, 3)[0] == [4, 6]
        assert len(lines(cache, curve)) == 2
        assert reopened(cache).get(curve, 3)[0] == [4, 6]
        # a still later line that fails validation does not displace it
        append(cache, curve, "\t3\t4,100\t\n")  # N_2 breaks a Weil bound
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            assert reopened(cache).get(curve, 3) == ([4, 6], L)
        assert "line 3 failed validation" in caplog.text

    def test_torn_final_line_is_warned_miss(self, cache, genus2_pair, caplog):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        cache.put(curve, 5, counts=[6])
        path = cache._path(curve)
        path.write_bytes(path.read_bytes()[:-2])  # the p = 5 line loses its final tab and newline
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            torn = reopened(cache)
            assert torn.get(curve, 5) is None
            assert torn.get(curve, 3)[0] == [4]
        assert "line 2 unreadable" in caplog.text
        # the next appends start a fresh line, so the torn one swallows nothing
        torn.put(curve, 5, counts=[6])
        torn.put(curve, 7, counts=[8])
        again = reopened(cache)
        assert again.get(curve, 5)[0] == [6] and again.get(curve, 7)[0] == [8]
        assert len(lines(cache, curve)) == 4

    def test_torn_record_is_never_served(self, tmp_path, genus2_pair):
        # a record cut at any length, then ended by the next append's newline
        # or run into the next line, lacks its final tab or has four tabs or
        # more: its prime is a miss, though [4] would be a valid count prefix at p = 3
        curve = genus2_pair[0]
        whole = LPolyCache(tmp_path / "whole")
        whole.put(curve, 3, counts=[4, 6])
        whole.put(curve, 5, counts=[6])
        line, later = [f"{text}\n" for text in lines(whole, curve)]
        for k in range(len(line) - 1):  # every strict prefix of the record
            for n, text in enumerate([line[:k], line[:k] + later]):
                cache = LPolyCache(tmp_path / f"cut{k}-{n}")
                cache.directory.mkdir()
                cache._path(curve).write_text(text)
                cache.put(curve, 5, counts=[6])
                again = reopened(cache)
                assert again.get(curve, 3) is None, (k, n)
                assert again.get(curve, 5) == ([6], None), (k, n)
        # a line that lost only its newline holds the whole record
        cache = LPolyCache(tmp_path / "newline")
        cache.directory.mkdir()
        cache._path(curve).write_text(line[:-1])
        cache.put(curve, 5, counts=[6])
        assert reopened(cache).get(curve, 3) == ([4, 6], lpoly(curve, 3))

    def test_torn_prefix_never_serves_another_prime(self, tmp_path, genus2_pair):
        # without the leading tab, the fragment "1" of the p = 13 line run
        # into the p = 3 line would read as N_1 = 4 at p = 13, which passes
        # the Weil bound there; with it, every fragment adds a fourth tab
        curve = genus2_pair[0]
        whole = LPolyCache(tmp_path / "whole")
        whole.put(curve, 13, counts=[point_count(curve, 13, 1)])
        whole.put(curve, 3, counts=[4])
        line, later = [f"{text}\n" for text in lines(whole, curve)]
        for k in range(1, len(line) - 1):  # every nonempty strict prefix of the record
            cache = LPolyCache(tmp_path / f"cut{k}")
            cache.directory.mkdir()
            cache._path(curve).write_text(line[:k] + later)
            assert reopened(cache).get(curve, 13) is None, k

    def test_format4_file_is_ignored(self, cache, genus2_pair):
        # the JSON-lines file of record format 4 is never read, nor written
        curve = genus2_pair[0]
        raw = f"4|{twistscope.__version__}|{','.join(map(str, curve.f_coeffs))}"
        old = cache.directory / f"{hashlib.sha256(raw.encode()).hexdigest()}.jsonl"
        cache.directory.mkdir()
        text = json.dumps({"format": 4, "tool_version": twistscope.__version__,
                           "f_coeffs": list(curve.f_coeffs), "p": 3, "counts": [4, 6]}) + "\n"
        old.write_text(text)
        assert reopened(cache).get(curve, 3) is None
        cache.put(curve, 3, counts=[4])
        assert old.read_text() == text
        assert sorted(cache.directory.iterdir()) == sorted([old, cache._path(curve)])

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
        assert cache.get(alias, 3)[0] == [4]
        assert cache._path(alias) == cache._path(curve)
        assert lines(cache, curve) == ["\t3\t4\t"]


class TestFileNames:
    """A file name spells its curve's key, so two curves never share a file."""

    BIG = 10**299 + 1  # 300 digits; x^5 + BIG x has good reduction at 3 and 7

    def test_distinct_curves_never_share_a_file(self, cache, genus2_pair):
        curves = [*genus2_pair, *(curve_from_coeffs((0, c, 0, 0, 0, 1)) for c in (1, 11, self.BIG, self.BIG + 2))]
        for curve in curves:
            cache.lpoly(curve, 3, budget=10**6)
        assert len({cache._path(curve) for curve in curves}) == len(curves)
        again = reopened(cache)
        for curve in curves:
            assert served(again, curve) == {3: ([point_count(curve, 3, 1), point_count(curve, 3, 2)],
                                                lpoly(curve, 3))}, curve.label

    def test_long_coefficient_stays_cached(self, cache):
        # a name over 255 bytes is cut into directory components of at most 200 bytes
        curve = curve_from_coeffs((0, self.BIG, 0, 0, 0, 1))
        L = cache.lpoly(curve, 7, budget=10**6)
        parts = cache._path(curve).relative_to(cache.directory).parts
        name = f"6_{twistscope.__version__}_0,{self.BIG},0,0,0,1.tsv"
        assert len(name) > 255 and "".join(parts) == name
        assert len(parts) == 2 and all(len(part) <= 204 for part in parts)  # the last adds .tsv
        assert all(len(part) == 200 for part in parts[:-1])
        assert reopened(cache).get(curve, 7) == ([point_count(curve, 7, 1), point_count(curve, 7, 2)], L)

    def test_warnings_name_the_whole_file(self, cache, caplog):
        # a cut name is logged from the cache directory down, so a warning
        # shows the format, the version and the coefficient's leading digits
        curve = curve_from_coeffs((0, self.BIG, 0, 0, 0, 1))
        cache.lpoly(curve, 7, budget=10**6)
        append(cache, curve, "junk\n\t7\t1008,50\t\n")  # unreadable, then out of the Weil bounds
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            assert reopened(cache).get(curve, 7) is not None
        name = str(cache._path(curve).relative_to(cache.directory))
        assert [r.getMessage() for r in caplog.records] == [
            f"cache file {name} line 2 unreadable; recomputing",
            f"cache file {name} line 3 failed validation; recomputing",
        ]
        assert all(str(r.args[0]).startswith(f"6_{twistscope.__version__}_0,1000000000") for r in caplog.records)

    @staticmethod
    def format5_file_is_not_read(cache, curve, digest):
        """A format-5 file named by a digest of its key is never served, nor written."""
        key = f"5\t{twistscope.__version__}\t{','.join(map(str, curve.f_coeffs))}\t"
        old = cache.directory / f"{digest(key.encode())}.tsv"
        cache.directory.mkdir()
        old.write_text(f"{key}3\t4,6\t\n")
        assert reopened(cache).get(curve, 3) is None
        cache.put(curve, 3, counts=[4, 6])
        assert old.read_text() == f"{key}3\t4,6\t\n"
        assert sorted(cache.directory.iterdir()) == sorted([old, cache._path(curve)])

    def test_format5_crc_named_file_is_not_read(self, cache, genus2_pair):
        # the CRC-32 of the key, as the last format-5 versions named files
        self.format5_file_is_not_read(cache, genus2_pair[0], lambda key: f"{zlib.crc32(key):08x}")

    def test_sha256_named_file_is_not_read(self, cache, genus2_pair):
        # the SHA-256 of the key, as earlier versions named files
        self.format5_file_is_not_read(cache, genus2_pair[0], lambda key: hashlib.sha256(key).hexdigest())


class TestLinesCheckedOnDemand:
    """A read parses lines and checks their key fields; counts are checked per prime, on demand."""

    @staticmethod
    def count_checks(monkeypatch):
        checked = []
        lpoly_of = cache_module._lpoly_of

        def counting(curve, p, counts):
            checked.append(p)
            return lpoly_of(curve, p, counts)

        monkeypatch.setattr(cache_module, "_lpoly_of", counting)
        return checked

    def test_one_get_checks_one_prime(self, cache, genus2_pair, monkeypatch):
        curve = genus2_pair[0]
        primes = odd_primes(3, 1300)[:200]
        for p in primes:
            cache.put(curve, p, counts=[p + 1])  # trace 0: a valid one-count prefix
        checked = self.count_checks(monkeypatch)
        again = reopened(cache)
        p = primes[100]
        assert again.get(curve, p) == ([p + 1], None)
        assert again.get(curve, p) == ([p + 1], None)  # kept, not checked again
        assert checked == [p]
        assert len(again._records(curve)) == 200

    def test_invalid_newest_line_falls_back_with_warning(self, cache, genus2_pair, caplog, monkeypatch):
        curve = genus2_pair[0]  # x^5 - x: N_1 = 4 and N_2 = 6 at p = 3
        cache.put(curve, 3, counts=[4])
        cache.put(curve, 5, counts=[6])
        append(cache, curve, "\t3\t4,100\t\n")  # N_2 breaks a Weil bound
        checked = self.count_checks(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            again = reopened(cache)
            assert again.get(curve, 5) == ([6], None)
            assert "failed validation" not in caplog.text  # reading checked no counts
            assert again.get(curve, 3) == ([4], None)
        assert "line 3 failed validation" in caplog.text
        assert checked == [5, 3, 3]  # newest first: line 3, then line 1

    def test_undecodable_line_warned_on_read(self, cache, genus2_pair, caplog):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        cache.put(curve, 5, counts=[6])
        path = cache._path(curve)
        path.write_bytes(path.read_bytes() + b"\t7\t\xff\t\n")
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            assert reopened(cache).get(curve, 5) == ([6], None)
        assert "line 3 unreadable" in caplog.text


class TestComputeThrough:
    def test_lpoly_stores_and_replays(self, cache, genus2_pair):
        curve = genus2_pair[0]
        first = cache.lpoly(curve, 3, budget=10**6)
        assert cache.get(curve, 3) == ([4, 6], first)
        # replay without recomputation: poison the stored counts to prove
        # the polynomial is served from disk
        again = cache.lpoly(curve, 3, budget=0)
        assert again.coeffs == first.coeffs

    def test_fresh_counts_are_assembled_once(self, cache, genus2_pair, monkeypatch):
        # a cold request validates each (curve, p) once, and get serves that
        assembled = []

        def spy(counts, p, g, label):
            assembled.append((label, p))
            return real(counts, p, g, label)

        real = cache_module.lpoly_from_counts
        monkeypatch.setattr(cache_module, "lpoly_from_counts", spy)
        L = cache.lpolys(list(genus2_pair), 7, budget=10**6)
        assert sorted(assembled) == sorted((curve.label, 7) for curve in genus2_pair)
        assert [cache.get(curve, 7)[1] for curve in genus2_pair] == L
        assert len(assembled) == 2

    def test_budget_abort_keeps_prefix_then_resumes(self, cache, genus4_pair):
        curve = genus4_pair[0]
        with pytest.raises(BudgetExceededError):
            cache.lpoly(curve, 3, budget=39)  # room for N_1..N_3 only
        assert cache.get(curve, 3)[0] == [4, 10, 28]
        L = cache.lpoly(curve, 3, budget=81)  # the missing p^4 enumeration fits
        assert L.coeffs == (1, 0, 0, 0, 18, 0, 0, 0, 81)

    def test_budget_partial_progress_is_stored(self, tmp_path, genus4_pair):
        # each count the budget affords reaches the store before the error,
        # also when the units run on helpers
        curve = genus4_pair[0]
        cache = LPolyCache(tmp_path / "cache", jobs=2)
        with pytest.raises(BudgetExceededError) as exc:
            cache.lpoly(curve, 3, budget=39)
        assert cache.get(curve, 3)[0] == [4, 10, 28]
        assert exc.value.required == 3 + 9 + 27 + 81

    def test_resolve_marks_short_requests_without_raising(self, tmp_path, genus2_pair, genus4_pair, monkeypatch):
        # one batch, in process and on helpers: a stored N_1 extended to L,
        # N_1..N_4 derived from a stored L, a prefix that fits a short
        # budget, and a cold (curve, p); each list is stored by one put once
        # it is whole, and the short request is marked, not raised
        x5, x5_4 = genus2_pair
        x9, x9_16 = genus4_pair
        expected = lpoly(x5_4, 7)  # before the spy: it stores through a disabled cache's put
        planned, stored = [], []
        check, put = cache_module._check_units, LPolyCache.put

        def check_spy(units):
            planned.extend((c.label, p, i) for c, p, i in units)
            return check(units)

        def put_spy(self, curve, p, counts):
            stored.append((curve.label, p, list(counts)))
            return put(self, curve, p, counts)

        for jobs in (1, 2):
            cache = LPolyCache(tmp_path / f"jobs{jobs}", jobs=jobs)
            cache.put(x9, 3, [4])
            cache.put(x5, 5, [point_count(x5, 5, 1), point_count(x5, 5, 2)])
            planned.clear()
            stored.clear()
            with monkeypatch.context() as m:
                m.setattr(cache_module, "_check_units", check_spy)
                m.setattr(LPolyCache, "put", put_spy)
                entries = cache.resolve([(x9, 3, 4), (x5, 5, 4), (x9_16, 5, 4), (x5_4, 7, 2)], budget=120)
            extended, derived, short, cold = entries
            # at jobs=1 the sums that cancel come first: they finish short
            # (N_1, N_2 of x^9 + 16x at 5), then F_3^4 extended and F_7^2 cold
            whole = [(e.curve.label, e.p, e.counts) for e in (short, extended, cold)]
            assert (stored if jobs == 1 else sorted(stored)) == (whole if jobs == 1 else sorted(whole))
            assert sorted(planned) == sorted([(x9.label, 3, i) for i in (2, 3, 4)]
                                             + [(x9_16.label, 5, i) for i in (1, 2)]
                                             + [(x5_4.label, 7, i) for i in (1, 2)])
            assert extended.counts == [point_count(x9, 3, i) for i in range(1, 5)] and extended.short is None
            assert extended.lpoly.coeffs == (1, 0, 0, 0, 18, 0, 0, 0, 81)
            assert derived.counts == [point_count(x5, 5, i) for i in range(1, 5)] and derived.short is None
            assert derived.lpoly == cache.get(x5, 5)[1]
            assert short.short.required == 5 + 25 + 125 + 625
            assert short.counts == [point_count(x9_16, 5, 1), point_count(x9_16, 5, 2)] and short.lpoly is None
            assert cold.counts == [point_count(x5_4, 7, 1), point_count(x5_4, 7, 2)] and cold.short is None
            assert cold.lpoly == expected
            assert all(None not in e.counts for e in entries)
            for e in (extended, short, cold):
                assert cache.get(e.curve, e.p) == (e.counts, e.lpoly)
        assert cache_module._Entry.__slots__ == ("curve", "p", "counts", "lpoly", "short")

    def test_stored_prefix_trusted(self, cache, genus4_pair, monkeypatch):
        # with N_1..N_3 stored, only the p^4 enumeration runs
        curve = genus4_pair[0]
        cache.put(curve, 3, counts=[4, 10, 28])
        degrees, real = [], kernels.char_sums

        def spy(units):
            degrees.extend(i for _, _, i, _ in units)
            return real(units)

        monkeypatch.setattr(kernels, "char_sums", spy)
        L = cache.lpoly(curve, 3, budget=81)
        assert L.coeffs == (1, 0, 0, 0, 18, 0, 0, 0, 81)
        assert degrees == [4]

    def test_bad_reduction_from_workers(self):
        bad = curve_from_coeffs((3, 0, 0, 0, 0, 1))  # x^5 + 3 = x^5 mod 3
        cache = LPolyCache("", enabled=False, jobs=2)
        with pytest.raises(BadReductionError) as exc:
            cache.lpoly(bad, 3, budget=10**6)
        assert (exc.value.label, exc.value.p) == (bad.label, 3)

    def test_counts_through_cache(self, cache, genus4_pair):
        # x^9 + x at 17 = 1 mod 16 reaches the kernels at i = 1 and 2, so its
        # counts are stored and served; at 53 both sums cancel, so the planner
        # settles them and stores nothing
        curve = genus4_pair[0]
        [out] = cache.counts([curve], 17, upto=2, budget=10**6)
        assert out == [26, 282] == [point_count(curve, 17, i) for i in (1, 2)]
        assert cache.get(curve, 17)[0] == out
        assert cache.counts([curve], 17, upto=1, budget=0) == [[26]]
        [flat] = cache.counts([curve], 53, upto=2, budget=10**6)
        assert flat == [53 + 1, 53**2 + 1]
        assert cache.get(curve, 53) is None
        with pytest.raises(BudgetExceededError):
            cache.counts([curve], 53, upto=1, budget=0)

    def test_counts_recovered_from_lpoly(self, cache, genus2_pair):
        curve = genus2_pair[0]
        cache.lpoly(curve, 5, budget=10**6)
        # cached record has counts for i <= g; ask beyond the stored prefix
        [out] = cache.counts([curve], 5, upto=4, budget=0)
        assert out[:2] == [cache.get(curve, 5)[0][0], cache.get(curve, 5)[0][1]]
        assert len(out) == 4

    def test_every_write_goes_through_put(self, cache, genus2_pair, monkeypatch):
        # a cold trace scan stores each (curve, p) a kernel counts by one put,
        # and writes nothing else; the planner settles every p but p = 1 mod 8
        from twistscope.twistlab import scan_pair

        stored = []
        put = LPolyCache.put

        def spy(self, curve, p, counts):
            stored.append((curve.f_coeffs, p))
            return put(self, curve, p, counts)

        monkeypatch.setattr(LPolyCache, "put", spy)
        scan_pair(*genus2_pair, 3, 200, depth="traces", cache=cache)
        written = [(c.f_coeffs, int(line.split("\t")[1])) for c in genus2_pair for line in lines(cache, c)]
        counted = [(c.f_coeffs, p) for c in genus2_pair for p in odd_primes(3, 200) if p % 8 == 1]
        assert sorted(written) == sorted(counted)  # both curves are good at every odd p
        assert sorted(stored) == sorted(written)

    def test_interrupted_run_keeps_what_it_finished(self, cache, genus2_pair, monkeypatch):
        # the planner settles the sums that cancel and stores none of them;
        # the F_p kernel hands back a prime's sums as soon as it is done, so
        # the primes it finished before an interrupt are stored; of the
        # pair's primes, only p = 1 mod 8 reach it
        from twistscope.twistlab import scan_pair

        counted = []
        real = kernels._prime_sums

        def interrupted(polys, p):
            if p == 41:
                raise KeyboardInterrupt
            counted.extend([p] * len(polys))
            return real(polys, p)

        monkeypatch.setattr(kernels, "_BLOCK", 16)  # several chunks of x per prime
        monkeypatch.setattr(kernels, "_prime_sums", interrupted)
        with pytest.raises(KeyboardInterrupt):
            scan_pair(*genus2_pair, 3, 100, depth="traces", cache=cache)
        settled = {(c.f_coeffs, p) for c in genus2_pair for p in odd_primes(3, 100) if p % 8 != 1}
        assert all(_sum_period(f, p, 1) is None for f, p in settled)
        assert sorted(counted) == [73, 73, 89, 89, 97, 97]  # largest first: the primes above 41
        stored = {(c.f_coeffs, p) for c in genus2_pair for p in reopened(cache)._records(c)}
        assert stored - settled == {(c.f_coeffs, p) for c in genus2_pair for p in set(counted)}
        assert not settled & stored

    def test_interrupt_keeps_each_prime_counted_before_it(self, cache, genus2_pair, monkeypatch):
        # at the default _BLOCK every prime is its own kernel call, so 97, 89
        # and 73 are stored for both curves when the count at 41 is interrupted
        from twistscope.twistlab import scan_pair

        real = kernels._prime_sums

        def interrupted(polys, p):
            if p == 41:
                raise KeyboardInterrupt
            return real(polys, p)

        monkeypatch.setattr(kernels, "_prime_sums", interrupted)
        with pytest.raises(KeyboardInterrupt):
            scan_pair(*genus2_pair, 3, 100, depth="traces", cache=cache)
        for curve in genus2_pair:
            stored = set(reopened(cache)._records(curve))
            assert {97, 89, 73} <= stored and not {41, 17} & stored, curve.label

    def test_trace_uses_count_prefix(self, cache, genus2_pair):
        # at 17 = 1 mod 8 the trace of x^5 + 4x is counted and stored; at 7
        # its sum cancels, so the planner settles it and stores nothing
        curve = genus2_pair[1]
        assert cache.trace(curve, 17) == 12
        assert cache.get(curve, 17)[0] == [6]
        assert cache.trace(curve, 17) == 12
        assert cache.trace(curve, 7) == 0
        assert cache.get(curve, 7) is None
        assert cache.trace(curve, 7) == 0


class TestPlannerSettles:
    def test_cold_trace_scan_stores_only_counted_lines(self, cache, genus2_pair, monkeypatch):
        # the planner settles every p but p = 1 mod 8 and stores none of them;
        # a warm rerun counts and writes nothing, and prints the same records
        from twistscope.twistlab import scan_pair

        cold = scan_pair(*genus2_pair, 3, 200, depth="traces", cache=cache).to_text()
        counted = [p for p in odd_primes(3, 200) if p % 8 == 1]
        for curve in genus2_pair:
            assert sorted(int(line.split("\t")[1]) for line in lines(cache, curve)) == counted
        sizes = {f.name: f.stat().st_size for f in cache.directory.iterdir()}

        def never(*args):
            raise AssertionError("a warm rerun counted or wrote")

        monkeypatch.setattr(kernels, "char_sums", never)
        monkeypatch.setattr(LPolyCache, "put", never)
        assert scan_pair(*genus2_pair, 3, 200, depth="traces", cache=reopened(cache)).to_text() == cold
        assert {f.name: f.stat().st_size for f in cache.directory.iterdir()} == sizes

    def test_settled_counts_match_enumeration(self, genus2_pair, genus4_pair, monkeypatch):
        # genus 2, 3 and 4 at small fields, and criterion 6's units: the
        # genus-4 pair at p = 3, 5 mod 8 in (47, 150], N_1 everywhere and N_2
        # at 53 and 59.  No settled unit is dispatched to the kernels
        genus3 = [curve_from_coeffs((0, 1, 0, 0, 0, 0, 0, 1)), curve_from_coeffs((0, 3, 0, 0, 0, 0, 0, 1))]
        curves = [*genus2_pair, *genus3, *genus4_pair]
        requests = [(c, p, max(i for i in (1, 2, 3) if p**i <= 1331)) for c in curves for p in odd_primes(3, 13)
                    if c.disc % p]
        c6 = [p for p in odd_primes(48, 150) if p % 8 in (3, 5)]
        assert len(c6) == 11
        requests += [(c, p, 2 if p in (53, 59) else 1) for c in genus4_pair for p in c6]
        dispatched, real = [], kernels.char_sums
        monkeypatch.setattr(kernels, "char_sums",
                            lambda units: dispatched.extend(unit[:3] for unit in units) or real(units))
        entries = LPolyCache("", enabled=False).resolve(requests, 10**9)
        settled = []
        for (curve, p, upto), entry in zip(requests, entries):
            for i in range(1, upto + 1):
                unit = (curve.f_coeffs, p, i)
                if _sum_period(*unit) is None:
                    settled.append((curve.genus, p, i))
                    assert unit not in dispatched, unit
                    assert entry.counts[i - 1] == p**i + 1 == oracles.count_points(*unit), unit
                else:
                    assert unit in dispatched, unit
        assert {g for g, _, _ in settled} == {2, 3, 4}
        assert {(p, i) for g, p, i in settled if p > 47} == {(p, 1) for p in c6} | {(53, 2), (59, 2)}

    @pytest.mark.parametrize(
        "coeffs,p,error",
        [((3, 0, 0, 1), 3, BadReductionError),  # x^3 + 3 = x^3 mod 3: bad, and its sum cancels
         ((0, -1, 0, 0, 0, 1), 33554467, ValueError)],  # x^5 - x cancels at the least prime above 2^25
    )
    def test_settled_units_are_checked_first(self, coeffs, p, error, monkeypatch):
        def never(units):
            raise AssertionError("counted a unit that failed its check")

        monkeypatch.setattr(kernels, "char_sums", never)
        assert _sum_period(coeffs, p, 1) is None
        with pytest.raises(error):
            LPolyCache("", enabled=False).resolve([(curve_from_coeffs(coeffs), p, 1)], 10**9)
        with pytest.raises(error):
            point_count(curve_from_coeffs(coeffs), p, 1)


    def test_each_planned_unit_is_shaped_once(self, tmp_path, genus4_pair, monkeypatch, capsys):
        # a cold genus-4 full scan to 47 plans N_1..N_4 of both curves at its
        # 14 primes; each of those 112 units has its shape read once, by the
        # planner, and the kernels read none
        real, seen = _sum_period, []

        def spy(coeffs, p, i):
            seen.append((coeffs, p, i))
            return real(coeffs, p, i)

        assert not hasattr(kernels, "_sum_period")
        for name, module in list(sys.modules.items()):
            if name.startswith("twistscope") and hasattr(module, "_sum_period"):
                monkeypatch.setattr(module, "_sum_period", spy)
        argv = ["scan", "x^9 + x", "x^9 + 16x", "--pmax", "47", "--depth", "full", "--jobs", "1",
                "--format", "records", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        planned = [(c.f_coeffs, p, i) for c in genus4_pair for p in odd_primes(3, 47) for i in range(1, 5)]
        assert len(planned) == 112 and sorted(seen) == sorted(planned)


class TestBatches:
    def test_deal_keeps_fields_together_largest_first(self, genus4_pair):
        units = [(c, p, i) for p in (3, 5, 7, 11) for c in genus4_pair for i in range(1, 5)]
        batches = cache_module._deal(units, 8)
        assert len(batches) == 8
        dealt = [(c.f_coeffs, p, i) for batch in batches for c, p, i in batch]
        assert sorted(dealt) == sorted((c.f_coeffs, p, i) for c, p, i in units)
        homes = {}
        for k, batch in enumerate(batches):
            for _, p, i in batch:
                assert homes.setdefault((p, i), k) == k  # no field spans two batches
        firsts = [batch[0][1] ** batch[0][2] for batch in batches]
        assert firsts == sorted(firsts, reverse=True) and firsts[0] == 11**4

    def test_pool_scan_builds_each_field_once(self, tmp_path, genus4_pair, monkeypatch):
        # a --jobs 2 scan hands each field's units to one helper, and stores
        # the same records as an in-process scan; only the fields with
        # 16 | q - 1 are dealt, since the planner settles every other unit
        from twistscope.twistlab import scan_pair

        dealt = []
        deal = cache_module._deal

        def spy(units, n):
            dealt.append(deal(units, n))
            return dealt[-1]

        monkeypatch.setattr(cache_module, "_deal", spy)
        pooled = LPolyCache(tmp_path / "pool", jobs=2)
        report = scan_pair(*genus4_pair, 3, 13, depth="full", cache=pooled)
        batches = dealt[0]
        fields = [{(p, i) for _, p, i, _ in batch} for batch in batches]
        kernel_fields = {(p, i) for p in (3, 5, 7, 11, 13) for i in range(1, 5) if (p**i - 1) % 16 == 0}
        assert len(kernel_fields) == 6 and set().union(*fields) == kernel_fields
        assert len(batches) == 6 and sum(map(len, fields)) == 6
        assert all(len(batch) == 2 * len(f) for batch, f in zip(batches, fields))
        serial = LPolyCache(tmp_path / "serial")
        assert scan_pair(*genus4_pair, 3, 13, depth="full", cache=serial).to_text() == report.to_text()
        for curve in genus4_pair:  # the same lines; the helpers finish them in any order
            assert sorted(lines(pooled, curve)) == sorted(lines(serial, curve))
            assert len(lines(serial, curve)) == 5


class TestHelpers:
    def test_helper_error_ends_every_helper(self, genus2_pair, monkeypatch):
        from twistscope.twistlab import scan_pair

        def alarm(polys, p):
            raise ArithmeticError("kernel bug")

        cache = LPolyCache("", enabled=False, jobs=2)
        monkeypatch.setattr(kernels, "_prime_sums", alarm)  # before the helpers fork
        with pytest.raises(ArithmeticError, match="kernel bug"):
            scan_pair(*genus2_pair, 3, 100, cache=cache)
        assert no_children()
        monkeypatch.undo()  # the next request forks new helpers
        want = scan_pair(*genus2_pair, 3, 100).to_text()
        assert scan_pair(*genus2_pair, 3, 100, cache=cache).to_text() == want
        assert no_children()

    def test_interrupt_in_the_parent_ends_the_helpers(self, tmp_path, genus2_pair):
        from twistscope.twistlab import scan_pair

        cache = LPolyCache(tmp_path, jobs=2)

        def interrupted(curve, p, counts):
            raise KeyboardInterrupt

        cache.put = interrupted
        with pytest.raises(KeyboardInterrupt):
            scan_pair(*genus2_pair, 3, 100, cache=cache)
        assert no_children()

    def test_helpers_count_what_the_parent_checked(self, genus4_pair, monkeypatch):
        # the units are checked once, in the process that owns the cache
        from twistscope import curvecount
        from twistscope.twistlab import scan_pair

        want = scan_pair(*genus4_pair, 3, 23, depth="full").to_text()
        owner, real = os.getpid(), curvecount._check_units

        def here_only(units):
            if os.getpid() != owner:
                raise AssertionError("a helper checked its batch again")
            real(units)

        monkeypatch.setattr(curvecount, "_check_units", here_only)  # before the helpers fork
        cache = LPolyCache("", enabled=False, jobs=2)
        assert scan_pair(*genus4_pair, 3, 23, depth="full", cache=cache).to_text() == want
        assert no_children()

    def test_no_helper_outlives_a_scan(self, tmp_path, genus4_pair):
        from twistscope.twistlab import scan_pair

        want = scan_pair(*genus4_pair, 3, 13, depth="full").to_text()
        cache = LPolyCache(tmp_path, jobs=2)
        assert scan_pair(*genus4_pair, 3, 13, depth="full", cache=cache).to_text() == want
        assert no_children()

    def test_no_helper_outlives_either_caches_scan(self, genus4_pair):
        # the second cache's helpers fork while the first cache's are counting
        from twistscope.twistlab import scan_pair

        want = scan_pair(*genus4_pair, 3, 13, depth="full").to_text()
        first, second = (LPolyCache("", enabled=False, jobs=2) for _ in range(2))
        curves = {c.f_coeffs: c for c in genus4_pair}
        units = [(f, p, i, _sum_period(f, p, i)) for p in (3, 5, 7) for f in curves for i in range(1, 5)]
        units = [unit for unit in units if unit[3] is not None]  # _count settles the others
        running = first._run(units)
        done = [next(running)]
        assert scan_pair(*genus4_pair, 3, 13, depth="full", cache=second).to_text() == want
        done.extend(running)
        assert sorted((f, p, i, p**i + 1 + s) for (f, p, i, _), s in done) == sorted(
            (f, p, i, point_count(curves[f], p, i)) for f, p, i, _ in units)
        assert no_children()
        assert scan_pair(*genus4_pair, 3, 13, depth="full", cache=first).to_text() == want
        assert no_children()

    def test_one_prime_forks_none_and_three_primes_fork_up_to_jobs(self, genus2_pair, monkeypatch):
        # five fields at one prime count in process; three fields, one per
        # prime p = 1 mod 8, whose sums the kernel counts, are three batches,
        # so they fork 3 of the 6 helpers
        from twistscope import helpers

        forked = []
        fork = helpers.os.fork
        monkeypatch.setattr(helpers.os, "fork", lambda: forked.append(1) or fork())
        monkeypatch.setattr(os, "cpu_count", lambda: 6)  # the cap leaves jobs=6 alone
        curve = genus2_pair[0]
        cache = LPolyCache("", enabled=False, jobs=6)
        assert cache.counts([curve], 5, 5, 10**6) == [[point_count(curve, 5, i) for i in range(1, 6)]]
        assert forked == []
        entries = cache.resolve([(curve, p, 1) for p in (17, 41, 73)], 10**6)
        assert [e.counts for e in entries] == [[point_count(curve, p, 1)] for p in (17, 41, 73)]
        assert len(forked) == 3
        assert no_children()

    def test_helpers_are_capped_at_the_cpu_count(self, genus2_pair, monkeypatch):
        # jobs=64 deals one batch per prime field, 24 of them up to 100; with
        # two CPUs no more than two helpers fork, and the records do not change
        from twistscope import helpers
        from twistscope.twistlab import scan_pair

        forked = []
        fork = helpers.os.fork
        monkeypatch.setattr(helpers.os, "fork", lambda: forked.append(1) or fork())
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        report = scan_pair(*genus2_pair, 3, 100, cache=LPolyCache("", enabled=False, jobs=64))
        assert len(forked) == 2
        assert no_children()
        assert report.to_text() == scan_pair(*genus2_pair, 3, 100).to_text()

    def test_one_prime_request_forks_no_helper(self, genus4_pair, monkeypatch):
        # a prime's largest field is most of its cost: forking would only add
        from twistscope import helpers

        def no_fork():
            raise AssertionError("a one-prime request forked a helper")

        monkeypatch.setattr(helpers.os, "fork", no_fork)
        cache = LPolyCache("", enabled=False, jobs=2)
        assert cache.counts(list(genus4_pair), 7, 4, 10**6) == [
            [point_count(c, 7, i) for i in range(1, 5)] for c in genus4_pair]


class TestConcurrentCommands:
    def test_two_scans_share_a_directory(self, tmp_path, genus2_pair, capsys, monkeypatch):
        # two commands append to one cache directory at once: the records
        # equal a serial run's, and a third, warm run counts and writes nothing
        argv = ["scan", "x^5 - x", "x^5 + 4x", "--pmax", "3000", "--format", "records"]
        shared, serial = tmp_path / "shared", tmp_path / "serial"
        env = {**os.environ, "PYTHONPATH": str(Path(twistscope.__file__).resolve().parents[1])}
        procs = [
            subprocess.Popen([sys.executable, "-m", "twistscope", *argv, "--cache-dir", str(shared)],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outs = [proc.communicate(timeout=120) for proc in procs]
        assert main([*argv, "--cache-dir", str(serial)]) == 0
        want = capsys.readouterr().out
        assert [(proc.returncode, out) for proc, (out, _) in zip(procs, outs)] == [(0, want)] * 2
        assert len(list(serial.iterdir())) == len(list(shared.iterdir())) == 2  # one file per curve
        for curve in genus2_pair:
            assert served(LPolyCache(shared), curve) == served(LPolyCache(serial), curve)
        sizes = {f.name: f.stat().st_size for f in shared.iterdir()}

        def no_counting(units):
            raise AssertionError(f"counted {units} on a warm cache")

        monkeypatch.setattr(kernels, "char_sums", no_counting)
        assert main([*argv, "--jobs", "2", "--cache-dir", str(shared)]) == 0
        assert capsys.readouterr().out == want
        assert {f.name: f.stat().st_size for f in shared.iterdir()} == sizes


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
