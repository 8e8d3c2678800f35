import hashlib
import json
import logging
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import twistscope
from twistscope import cache as cache_module
from twistscope.algebra import odd_primes
from twistscope.cache import LPolyCache, resolve_cache_dir
from twistscope.cli import main
from twistscope.curvecount import curve_from_coeffs, lpoly, point_count, unit_counts
from twistscope.errors import BadReductionError, BudgetExceededError

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
        # a line is the key, p, the counts and an empty end field; L is derived on read
        key = f"5\t{twistscope.__version__}\t0,-1,0,0,0,1\t"
        assert cache_module.RECORD_FORMAT == 5 and cache_module._key(curve) == key
        assert lines(cache, curve) == [f"{key}3\t4,6\t"]
        assert cache._path(curve).name == "35dad073.tsv"  # the CRC-32 of the key
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
        key = cache_module._key(curve).encode()
        cache._path(curve).write_bytes(key + b"3\t\xff\t\n" + cache._path(curve).read_bytes())
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            assert reopened(cache).get(curve, 3)[0] == [4]
        assert "line 1 unreadable" in caplog.text

    def test_count_outside_weil_bounds_is_miss(self, cache, genus2_pair, caplog):
        curve = genus2_pair[1]  # x^5 + 4x: N_1 = 8 at p = 7
        cache.put(curve, 7, counts=[1008])
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            again = reopened(cache)
            assert again.get(curve, 7) is None
            assert again.trace(curve, 7) == 0
        assert "line 1 failed validation" in caplog.text

    def test_counts_failing_newton_are_warned_miss(self, cache, genus2_pair, caplog, capsys):
        # [6, 27] lies within the Weil bounds, but Newton step 2 is non-integral
        curve = genus2_pair[0]
        cache.put(curve, 5, counts=[6, 27])
        assert cache.get(curve, 5) is None
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            again = reopened(cache)
            assert again.get(curve, 5) is None
            assert again.lpoly(curve, 5, budget=10**6).coeffs == (1, 0, -10, 0, 25)
        assert "line 1 failed validation" in caplog.text
        assert reopened(cache).get(curve, 5) == ([6, 6], lpoly(curve, 5))
        # the CLI recounts past such a line instead of failing
        other = LPolyCache(cache.directory.parent / "cli")
        other.put(curve, 5, counts=[6, 27])
        argv = ["lpoly", "x^5 - x", "--p", "5", "--format", "records", "--cache-dir", str(other.directory)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "lpoly\tx^5 - x\t5\t1,0,-10,0,25\t0\tok\n"

    def test_version_mismatch_is_miss(self, cache, genus2_pair):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        path = cache._path(curve)
        path.write_text(path.read_text().replace(f"\t{twistscope.__version__}\t", "\t0.0.0-old\t"))
        assert reopened(cache).get(curve, 3) is None
        path.write_text(f"4{cache_module._key(curve)[1:]}3\t4\t\n")  # an older record format
        assert reopened(cache).get(curve, 3) is None

    def test_one_file_per_curve_one_line_per_put(self, cache, genus2_pair):
        for curve in genus2_pair:
            for p in (3, 7, 11):
                cache.put(curve, p, counts=[p + 1])
        files = sorted(cache.directory.iterdir())
        assert [f.suffix for f in files] == [".tsv", ".tsv"]
        assert sorted(files) == sorted(cache._path(c) for c in genus2_pair)
        assert [line.split("\t")[3] for line in lines(cache, genus2_pair[0])] == ["3", "7", "11"]

    def test_later_line_replaces_earlier(self, cache, genus2_pair, caplog):
        curve = genus2_pair[0]
        L = lpoly(curve, 3)
        cache.put(curve, 3, counts=[4])
        cache.put(curve, 3, counts=[4, 6])
        assert cache.get(curve, 3)[0] == [4, 6]
        assert len(lines(cache, curve)) == 2
        assert reopened(cache).get(curve, 3)[0] == [4, 6]
        # a still later line that fails validation does not displace it
        append(cache, curve, f"{cache_module._key(curve)}3\t4,100\t\n")  # N_2 breaks a Weil bound
        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            assert reopened(cache).get(curve, 3) == ([4, 6], L)
        assert "line 3 failed validation" in caplog.text

    def test_torn_final_line_is_warned_miss(self, cache, genus2_pair, caplog):
        curve = genus2_pair[0]
        cache.put(curve, 3, counts=[4])
        cache.put(curve, 5, counts=[6])
        path = cache._path(curve)
        path.write_bytes(path.read_bytes()[:-10])  # the p = 5 line loses its end and newline
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
        # or run into the next line, lacks the end field: its prime is a miss,
        # though [4] would be a valid count prefix at p = 3
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
        assert cache_module._key(alias) == cache_module._key(curve)
        assert lines(cache, curve) == [f"{cache_module._key(curve)}3\t4\t"]


class TestFileNames:
    """A file name is only a bucket: every line starts with its curve's key."""

    def test_colliding_names_share_a_file(self, cache, genus2_pair, monkeypatch, caplog):
        monkeypatch.setattr(cache_module, "zlib", types.SimpleNamespace(crc32=lambda data: 0))
        a, b = genus2_pair
        for p in (3, 7):
            for curve in genus2_pair:
                cache.lpoly(curve, p, budget=10**6)
        assert cache._path(a) == cache._path(b) == cache.directory / "00000000.tsv"
        assert list(cache.directory.iterdir()) == [cache._path(a)]

        def each_gets_its_own(cache, primes):
            for curve in genus2_pair:
                want = {p: ([point_count(curve, p, 1), point_count(curve, p, 2)], lpoly(curve, p))
                        for p in primes}
                assert served(cache, curve) == want, curve.label

        with caplog.at_level(logging.WARNING, logger="twistscope.cache"):
            again = reopened(cache)
            each_gets_its_own(again, (3, 7))
            for curve in genus2_pair:  # appends by either keep the other's lines
                again.lpoly(curve, 11, budget=10**6)
            each_gets_its_own(reopened(cache), (3, 7, 11))
        assert len(lines(cache, a)) == 6
        assert "line 2 unreadable" in caplog.text  # each skips the other's lines

    def test_sha256_named_file_is_not_read(self, cache, genus2_pair):
        # a file named by the SHA-256 of the key, as earlier versions wrote it, is never served
        curve = genus2_pair[0]
        key = cache_module._key(curve)
        old = cache.directory / f"{hashlib.sha256(key.encode()).hexdigest()}.tsv"
        cache.directory.mkdir()
        old.write_text(f"{key}3\t4,6\t\n")
        assert reopened(cache).get(curve, 3) is None
        cache.put(curve, 3, counts=[4, 6])
        assert old.read_text() == f"{key}3\t4,6\t\n"
        assert sorted(cache.directory.iterdir()) == sorted([old, cache._path(curve)])


class TestLinesCheckedOnDemand:
    """A read parses lines and checks their key fields; counts are checked per prime, on demand."""

    @staticmethod
    def count_checks(monkeypatch):
        checked = []
        take = cache_module._take

        def counting(curve, p, counts):
            checked.append(p)
            return take(curve, p, counts)

        monkeypatch.setattr(cache_module, "_take", counting)
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
        append(cache, curve, f"{cache_module._key(curve)}3\t4,100\t\n")  # N_2 breaks a Weil bound
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
        path.write_bytes(path.read_bytes() + cache_module._key(curve).encode() + b"7\t\xff\t\n")
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
        with LPolyCache(tmp_path / "cache", jobs=2) as cache:
            with pytest.raises(BudgetExceededError) as exc:
                cache.lpoly(curve, 3, budget=39)
            assert cache.get(curve, 3)[0] == [4, 10, 28]
        assert exc.value.required == 3 + 9 + 27 + 81

    def test_resolve_marks_short_requests_without_raising(self, cache, genus4_pair):
        # one batch: p = 3 fits the budget, p = 5 gets the prefix that fits
        curve = genus4_pair[0]
        at3, at5 = cache.resolve([(curve, 3, 4), (curve, 5, 4)], budget=120)
        assert at3.short is None
        assert at3.lpoly.coeffs == (1, 0, 0, 0, 18, 0, 0, 0, 81)
        assert at5.short.required == 5 + 25 + 125 + 625
        assert at5.counts == [point_count(curve, 5, 1), point_count(curve, 5, 2)]
        assert cache.get(curve, 5)[0] == at5.counts

    def test_stored_prefix_trusted(self, cache, genus4_pair, monkeypatch):
        # with N_1..N_3 stored, only the p^4 enumeration runs
        curve = genus4_pair[0]
        cache.put(curve, 3, counts=[4, 10, 28])
        degrees = []

        def spy(units):
            degrees.extend(i for _, _, i in units)
            return unit_counts(units)

        monkeypatch.setattr("twistscope.cache.unit_counts", spy)
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
        assert cache.get(curve, 53)[0] == out
        assert cache.counts(curve, 53, upto=1, budget=0) == [54]

    def test_counts_recovered_from_lpoly(self, cache, genus2_pair):
        curve = genus2_pair[0]
        cache.lpoly(curve, 5, budget=10**6)
        # cached record has counts for i <= g; ask beyond the stored prefix
        out = cache.counts(curve, 5, upto=4, budget=0)
        assert out[:2] == [cache.get(curve, 5)[0][0], cache.get(curve, 5)[0][1]]
        assert len(out) == 4

    def test_interrupted_run_keeps_what_it_finished(self, cache, genus2_pair, monkeypatch):
        # the F_p kernel hands back its sums a block of primes at a time, so
        # the blocks it finished before an interrupt are stored
        from twistscope import kernels
        from twistscope.twistlab import scan_pair

        counted = []
        real = kernels._block_sums

        def interrupted(polys, primes):
            if 31 in primes:
                raise KeyboardInterrupt
            counted.extend((f, p) for p in primes for f in polys)
            return real(polys, primes)

        monkeypatch.setattr(kernels, "_BLOCK", 100)  # blocks of one to three primes
        monkeypatch.setattr(kernels, "_block_sums", interrupted)
        with pytest.raises(KeyboardInterrupt):
            scan_pair(*genus2_pair, 3, 100, depth="traces", cache=cache)
        assert counted  # primes go largest first, so the blocks above 31 ran
        stored = {(c.f_coeffs, p) for c in genus2_pair for p in reopened(cache)._records(c)}
        assert stored == set(counted)

    def test_trace_uses_count_prefix(self, cache, genus2_pair):
        curve = genus2_pair[1]
        assert cache.trace(curve, 7) == 0
        assert cache.get(curve, 7)[0] == [8]
        assert cache.trace(curve, 7) == 0


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
        # the same records as an in-process scan
        from twistscope.twistlab import scan_pair

        dealt = []
        deal = cache_module._deal

        def spy(units, n):
            dealt.append(deal(units, n))
            return dealt[-1]

        monkeypatch.setattr(cache_module, "_deal", spy)
        with LPolyCache(tmp_path / "pool", jobs=2) as pooled:
            report = scan_pair(*genus4_pair, 3, 13, depth="full", cache=pooled)
        batches = dealt[0]
        fields = [{(p, i) for _, p, i in batch} for batch in batches]
        assert len(batches) == 8 and sum(map(len, fields)) == len(set().union(*fields)) == 20
        assert all(len(batch) == 2 * len(f) for batch, f in zip(batches, fields))
        serial = LPolyCache(tmp_path / "serial")
        assert scan_pair(*genus4_pair, 3, 13, depth="full", cache=serial).to_text() == report.to_text()
        for curve in genus4_pair:  # the same lines; the helpers finish them in any order
            assert sorted(lines(pooled, curve)) == sorted(lines(serial, curve))
            assert len(lines(serial, curve)) == 5


class TestHelpers:
    def test_helper_error_ends_every_helper(self, genus2_pair, monkeypatch):
        from twistscope import kernels
        from twistscope.twistlab import scan_pair

        def alarm(pairs):
            raise ArithmeticError("kernel bug")

        with LPolyCache("", enabled=False, jobs=2) as cache:
            monkeypatch.setattr(kernels, "prime_field_sums", alarm)  # before the helpers fork
            with pytest.raises(ArithmeticError, match="kernel bug"):
                scan_pair(*genus2_pair, 3, 100, cache=cache)
            assert cache._helpers.procs == [] and no_children()
            monkeypatch.undo()  # the next request forks new helpers
            want = scan_pair(*genus2_pair, 3, 100).to_text()
            assert scan_pair(*genus2_pair, 3, 100, cache=cache).to_text() == want
        assert no_children()

    def test_interrupt_in_the_parent_ends_the_helpers(self, tmp_path, genus2_pair):
        from twistscope.twistlab import scan_pair

        cache = LPolyCache(tmp_path, jobs=2)

        def interrupted(curve, p, counts, taken):
            raise KeyboardInterrupt

        cache._append = interrupted
        with pytest.raises(KeyboardInterrupt):
            scan_pair(*genus2_pair, 3, 100, cache=cache)
        assert cache._helpers.procs == [] and no_children()

    def test_two_open_caches_both_close(self, genus4_pair):
        # the second cache's helpers fork while the first cache's run
        from twistscope.twistlab import scan_pair

        want = scan_pair(*genus4_pair, 3, 13, depth="full").to_text()
        first, second = (LPolyCache("", enabled=False, jobs=2) for _ in range(2))
        for cache in (first, second, first):
            assert scan_pair(*genus4_pair, 3, 13, depth="full", cache=cache).to_text() == want
        assert len({pid for c in (first, second) for pid, _, _ in c._helpers.procs}) == 4
        first.close()
        second.close()
        assert no_children()

    def test_forks_one_helper_per_batch_up_to_jobs(self, genus2_pair, monkeypatch):
        # each field (p, i) is one batch here: 3 fields fork 3 of the 6 helpers,
        # and a later request of 5 fields forks 2 more
        from twistscope import helpers

        forked = []
        fork = helpers._fork
        monkeypatch.setattr(helpers, "_fork", lambda count: forked.append(1) or fork(count))
        curve = genus2_pair[0]
        with LPolyCache("", enabled=False, jobs=6) as cache:
            assert cache.counts(curve, 3, 3, 10**6) == [point_count(curve, 3, i) for i in (1, 2, 3)]
            assert len(forked) == len(cache._helpers.procs) == 3
            assert cache.counts(curve, 5, 5, 10**6) == [point_count(curve, 5, i) for i in range(1, 6)]
            assert len(forked) == len(cache._helpers.procs) == 5
        assert no_children()


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

        monkeypatch.setattr("twistscope.cache.unit_counts", no_counting)
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
