import pytest

from twistscope.cli import CliError, main, parse_curve
from twistscope.curvecount import curve_from_coeffs, frobenius_trace, lpoly, point_count
from twistscope.splitfield import default_fields, split_profile
from twistscope.twistlab import ScanReport, scan_pair, z20_statistic


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def count_only(monkeypatch, allowed=()):
    """Let point_count run only for the listed degrees, here and in forked workers."""
    real = point_count

    def guarded(curve, p, i):
        if i not in allowed:
            raise AssertionError(f"point_count({curve.label}, {p}, {i}) was not expected")
        return real(curve, p, i)

    # the backend counts through twistscope.cache; patch the defining module too
    monkeypatch.setattr("twistscope.curvecount.point_count", guarded)
    monkeypatch.setattr("twistscope.cache.point_count", guarded, raising=False)


def cache_files(directory):
    """Identity and mtime of every cache file, to show a run rewrote nothing."""
    return {f.name: (f.stat().st_ino, f.stat().st_mtime_ns) for f in directory.iterdir()}


class TestParseCurve:
    def test_examples(self):
        c = parse_curve("x^5 - x")
        assert c.f_coeffs == (0, -1, 0, 0, 0, 1) and c.genus == 2
        c = parse_curve("x^9 + 16x")
        assert c.f_coeffs == (0, 16, 0, 0, 0, 0, 0, 0, 0, 1) and c.genus == 4

    def test_flexible_syntax(self):
        assert parse_curve("x^3-2*x+1").f_coeffs == (1, -2, 0, 1)
        assert parse_curve("  x^3 + 0x + 5 ").f_coeffs == (5, 0, 0, 1)

    @pytest.mark.parametrize(
        "expr",
        ["x^4 + 1", "2x^5 - x", "x", "x^11 + x", "x^5 - x + ", "y^5 - y", "x^5 - x^5"],
    )
    def test_rejections(self, expr):
        with pytest.raises(CliError):
            parse_curve(expr)

    def test_error_carries_position(self):
        with pytest.raises(CliError, match="position"):
            parse_curve("x^5 - zebra")

    def test_label_roundtrip(self):
        for expr in ["x^5 - x", "x^9 + 16x", "x^3 - 2x + 7"]:
            curve = parse_curve(expr)
            assert parse_curve(curve.label) == curve


class TestLpolyCommand:
    def test_single_prime_trace(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "lpoly", "x^9+x", "--p", "17", "--cache-dir", str(tmp_path)
        )
        assert rc == 0
        assert "trace: -8" in out

    def test_even_prime_rejected(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "lpoly", "x^5-x", "--p", "2", "--cache-dir", str(tmp_path)
        )
        assert rc == 2
        assert "odd prime" in err

    def test_bad_reduction_exit(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "lpoly", "x^3+3", "--p", "3", "--cache-dir", str(tmp_path)
        )
        assert rc == 1
        assert "bad reduction" in err

    def test_cached_rerun_identical(self, capsys, tmp_path):
        args = ("lpoly", "x^5-x", "--p", "3", "--cache-dir", str(tmp_path))
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0 and out1 == out2
        assert (tmp_path).exists() and any(tmp_path.iterdir())

    def test_records_format_matches_library(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "lpoly", "x^5-x", "--p", "3", "--format", "records",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        fields = out.strip().split("\t")
        L = lpoly(curve_from_coeffs((0, -1, 0, 0, 0, 1)), 3)
        assert fields[3] == ",".join(map(str, L.coeffs))
        assert int(fields[4]) == L.trace

    def test_budget_exit_code(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "lpoly", "x^9+x", "--p", "47", "--budget", "100",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 3
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [("lpoly", "x^5-x", "--p", "3", "--jobs", "0"),
         ("verify-paper", "--jobs", "0", "--budget", "-1")],
    )
    def test_nonpositive_jobs_or_budget_is_config_error(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestScanCommand:
    def test_records_byte_identical_across_jobs(self, capsys, tmp_path, monkeypatch):
        # jobs in {1, 2} x {cold, warm}; each warm run reads the cache the
        # other jobs value wrote, and counts nothing
        for depth in ("traces", "full"):
            base = ("scan", "x^5-x", "x^5+4x", "--pmax", "40", "--depth", depth,
                    "--format", "records")
            with monkeypatch.context() as patch:
                runs = [
                    run_cli(capsys, *base, "--jobs", jobs, "--cache-dir", str(tmp_path / depth / jobs))
                    for jobs in ("1", "2")
                ]
                count_only(patch)
                runs += [
                    run_cli(capsys, *base, "--jobs", jobs, "--cache-dir", str(tmp_path / depth / other))
                    for jobs, other in (("1", "2"), ("2", "1"))
                ]
            assert {(rc, out) for rc, out, _ in runs} == {(0, runs[0][1])}

    def test_warm_parallel_rerun_counts_and_writes_nothing(self, capsys, tmp_path, monkeypatch):
        args = ("scan", "x^9+x", "x^9+16x", "--pmax", "13", "--depth", "full",
                "--format", "records", "--jobs", "2", "--cache-dir", str(tmp_path))
        rc1, out1, _ = run_cli(capsys, *args)
        before = cache_files(tmp_path)
        count_only(monkeypatch)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0 and out1 == out2
        assert cache_files(tmp_path) == before

    def test_parallel_budget_abort_keeps_prefix(self, capsys, tmp_path, monkeypatch):
        args = ("scan", "x^9+x", "x^9+16x", "--pmax", "3", "--depth", "full",
                "--format", "records", "--jobs", "2", "--cache-dir", str(tmp_path))
        rc, out, _ = run_cli(capsys, *args, "--budget", "39")  # N_1..N_3 fit, N_4 does not
        assert rc == 0 and "3\tbudget-exceeded" in out
        count_only(monkeypatch, allowed=(4,))
        rc, out, _ = run_cli(capsys, *args, "--budget", "81")  # only N_4 is missing
        assert rc == 0
        assert "3\tok\t0\t0\t1,0,0,0,18,0,0,0,81\t1,0,0,0,18,0,0,0,81\tboth" in out

    def test_records_reproducible_by_library(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "scan", "x^5-x", "x^5+4x", "--pmax", "20", "--depth", "full",
            "--format", "records", "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        report = ScanReport.from_text(out)
        fresh = scan_pair(
            curve_from_coeffs((0, -1, 0, 0, 0, 1)),
            curve_from_coeffs((0, 4, 0, 0, 0, 1)),
            3, 20, depth="full",
        )
        assert report.records == fresh.records

    def test_human_table_mentions_none_fraction(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "scan", "x^5-x", "x^5+4x", "--pmax", "10",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        assert "evaluated 3/3" in out
        assert "none-fraction 0/1" in out

    def test_invalid_range(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "scan", "x^5-x", "x^5+4x", "--pmin", "4", "--pmax", "10",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 2 and "odd" in err


class TestCharSearchCommand:
    def test_genus4_refutations_at_17(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "char-search", "x^9+x", "x^9+16x", "--pmax", "97",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        for d in (1, -1, 2, -2):
            assert f"d={d}: refuted, witness p=17" in out
        assert "all candidates refuted" in out

    def test_survivors_reported_with_caveat(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "char-search", "x^3-x", "x^3-4x", "--pmax", "60",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        assert "d=2: survived" in out
        assert "d=-2: survived" in out
        assert "finite evidence" in out


class TestSplitCommand:
    def test_table_and_guard(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "split", "--pmax", "100", "--format", "records",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("split\t")]
        by_p = {int(ln.split("\t")[1]): ln.split("\t") for ln in lines}
        assert by_p[3][2] == "guarded"
        assert by_p[17][3:] == ["1", "2", "1", "i"]
        assert "violation=0" in out

    def test_profiles_match_library(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "split", "--pmax", "60", "--format", "records",
            "--cache-dir", str(tmp_path),
        )
        fields = default_fields()
        for ln in out.splitlines():
            parts = ln.split("\t")
            if parts[0] != "split" or parts[2] != "ok":
                continue
            p = int(parts[1])
            prof = split_profile(fields, p)
            assert [int(parts[3]), int(parts[4]), int(parts[5])] == [
                prof.r, prof.s, prof.s_prime,
            ]


class TestLemma62Command:
    def test_values(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "lemma62", "--c", "16", "--pmax", "13", "--format", "records",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        rows = [ln.split("\t") for ln in out.splitlines()]
        got = {int(r[2]): int(r[4]) for r in rows if r[3] == "ok"}
        assert got == {3: 18, 5: 50, 11: 242, 13: 338}

    def test_after_scan_counts_nothing(self, capsys, tmp_path, monkeypatch):
        # x^9 + x is the same curve however lemma62 spells it
        rc, _, _ = run_cli(
            capsys, "scan", "x^9+x", "x^9+16x", "--pmax", "13", "--depth", "full",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        before = cache_files(tmp_path)
        count_only(monkeypatch)
        rc, out, _ = run_cli(
            capsys, "lemma62", "--c", "1", "--pmax", "13", "--format", "records",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        assert [ln.split("\t")[4] for ln in out.splitlines()] == ["18", "50", "242", "338"]
        assert cache_files(tmp_path) == before


class TestStatsCommand:
    def test_z20_from_report_file(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "scan", "x^9+x", "x^9+16x", "--pmax", "13", "--depth", "full",
            "--format", "records", "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        report_path = tmp_path / "report.tsv"
        report_path.write_text(out)
        rc, out2, _ = run_cli(capsys, "stats", str(report_path), "--e", "0,0,0,2")
        assert rc == 0
        assert "4/5" in out2  # p=7 is the only nonzero T^2 coefficient
        # the requested moment is recomputable from the report
        report = ScanReport.from_text(report_path.read_text())
        assert z20_statistic(report).numerator == 4

    def test_missing_report_is_config_error(self, capsys):
        rc, _, err = run_cli(capsys, "stats", "/nonexistent/report.tsv")
        assert rc == 2


class TestVerifyCommand:
    def test_small_budget_degrades_gracefully(self, capsys, tmp_path):
        # with a tiny budget the F_{p^4} criteria report budget failures and
        # the rest still pass; the exit code distinguishes this from a
        # mathematical failure
        rc, out, _ = run_cli(
            capsys, "verify-paper", "--budget", "1000", "--cache-dir", str(tmp_path)
        )
        assert rc == 3
        lines = out.splitlines()
        status = {}
        for ln in lines:
            parts = ln.split()
            status[int(parts[2])] = parts[0]
        assert status[1] == "PASS"
        assert status[2] == "PASS"
        assert status[3] == "FAIL(budget)"
        assert status[4] == "FAIL(budget)"
        assert status[5] == "FAIL(budget)"
        assert status[6] == "FAIL(budget)"
        assert status[7] == "PASS"
        assert status[8] == "PASS"
        assert status[9] == "PASS"
        assert status[10] == "PASS"


    def test_trace_budget_is_budget_failure(self, capsys, tmp_path):
        # below 997 the genus-2 trace scan to 1000 is cut by the budget,
        # which is a resource limit, not a refutation of criterion 1
        rc, out, _ = run_cli(
            capsys, "verify-paper", "--budget", "500", "--cache-dir", str(tmp_path)
        )
        status = {int(ln.split()[2]): ln.split()[0] for ln in out.splitlines()}
        assert status[1] == "FAIL(budget)"
        assert "FAIL" not in {s for s in status.values()}
        assert rc == 3


class TestNumbersComeFromCore:
    def test_traces_in_scan_output(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "scan", "x^5-x", "x^5+4x", "--pmax", "30", "--format", "records",
            "--cache-dir", str(tmp_path),
        )
        a_curve = curve_from_coeffs((0, -1, 0, 0, 0, 1))
        b_curve = curve_from_coeffs((0, 4, 0, 0, 0, 1))
        for ln in out.splitlines():
            parts = ln.split("\t")
            if ln.startswith(("twistscope-scan", "#")) or parts[1] != "ok":
                continue
            p = int(parts[0])
            assert int(parts[2]) == frobenius_trace(a_curve, p)
            assert int(parts[3]) == frobenius_trace(b_curve, p)
