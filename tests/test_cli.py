import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistscope
from twistscope.cli import CliError, main, parse_curve
from twistscope.curvecount import (
    LPolynomial, curve_from_coeffs, frobenius_trace, lpoly, unit_counts,
)
from twistscope.splitfield import default_fields, split_profile
from twistscope.twistlab import ScanReport, scan_pair, z20_statistic


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def count_only(monkeypatch, allowed=()):
    """Let the backend count only the listed degrees, here and in forked helpers."""

    def guarded(units):
        for curve, p, i in units:
            if i not in allowed:
                raise AssertionError(f"count of {curve.label} at p={p}, i={i} was not expected")
        return unit_counts(units)

    monkeypatch.setattr("twistscope.cache.unit_counts", guarded)


def no_children():
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def cache_files(directory):
    """Identity and mtime of every cache file, to show a run rewrote nothing."""
    return {f.name: (f.stat().st_ino, f.stat().st_mtime_ns) for f in directory.iterdir()}


class TestModuleEntryPoint:
    def test_python_m_version(self):
        src = str(Path(twistscope.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "twistscope", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"twistscope {twistscope.__version__}"


def run_python(*argv, timeout=120):
    """Run the interpreter on this checkout's package, as a user would."""
    src = str(Path(twistscope.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout)


class TestTracerNames:
    def test_every_traced_function_resolves(self, tmp_path):
        # the benchmark's tracer wraps functions by name; a rename must fail here
        # instead of silently zeroing its per-layer metrics
        tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        done = run_python(str(tracer), str(tmp_path), "--version")
        assert done.returncode == 0, done.stderr
        # ddf_degrees is deleted: split computes residue degrees in one pass per
        # field, so the algebra.ddf_degrees metrics read 0 by design
        missing = [ln for ln in done.stderr.splitlines() if "not found" in ln]
        assert missing == ["tracer: algebra.ddf_degrees not found; its metrics stay 0"], done.stderr


# a CLI run that reports on stderr whether numpy is loaded in each forked
# counting helper as it starts, and, at the end, every module the command loaded beyond
# what the interpreter had before it imported the package.  Each report is
# one write(2), so the lines of concurrent helpers cannot interleave.
MODULES_PROBE = (
    "import os, sys\n"
    "before = set(sys.modules)\n"
    "from twistscope.cli import main\n"
    "os.register_at_fork(after_in_child=lambda: os.write(\n"
    "    2, f'numpy at fork: {\"numpy\" in sys.modules}\\n'.encode()))\n"
    "try:\n"
    "    rc = main(sys.argv[1:])\n"
    "except SystemExit as exc:  # --version exits from the parser\n"
    "    rc = exc.code\n"
    "os.write(2, ('loaded: ' + ' '.join(sorted(set(sys.modules) - before)) + '\\n').encode())\n"
    "sys.exit(rc)\n"
)


def probe(*argv):
    """Run one CLI command in a fresh interpreter.

    Returns the completed process, the set of modules the command loaded,
    and the "numpy at fork" lines of its counting helpers.
    """
    done = run_python("-c", MODULES_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    *rest, last = done.stderr.splitlines()
    assert last.startswith("loaded:"), done.stderr
    return done, set(last.split()[1:]), [line for line in rest if line.startswith("numpy at fork")]


class TestNumpyOnlyWhenCounting:
    def test_split_and_warm_scan_leave_numpy_unloaded(self, tmp_path):
        scan = ("scan", "x^5 - x", "x^5 + 4x", "--pmax", "50", "--format", "records",
                "--cache-dir", str(tmp_path))
        runs = [
            ((*scan, "--jobs", "2"), True),  # cold: counts on helpers, so numpy loads
            ((*scan, "--jobs", "2"), False),  # warm: counts nothing
            (("split", "--pmax", "50", "--format", "records", "--cache-dir", str(tmp_path)), False),
        ]
        for argv, loaded in runs:
            _, modules, forks = probe(*argv)
            assert ("numpy" in modules) == loaded, argv
            # the parent loads numpy before the helpers fork, so no helper imports it again
            assert forks == ["numpy at fork: True"] * (2 if loaded else 0), argv


class TestEachCommandLoadsItsPath:
    # standard-library and third-party modules that no command below runs
    # (hashlib: the cache names its files by a CRC-32, so no command loads OpenSSL)
    UNUSED = {"numpy", "concurrent.futures", "multiprocessing", "twistscope.helpers", "logging",
              "dataclasses", "fractions", "json", "hashlib", "_hashlib"}
    NO_CACHE = {"twistscope.cache"}

    def test_version_loads_no_library_module(self):
        _, modules, _ = probe("--version")
        assert {m for m in modules if m.partition(".")[0] == "twistscope"} == {"twistscope", "twistscope.cli"}

    def test_commands_load_only_what_they_run(self, tmp_path):
        common = ("--format", "records", "--cache-dir", str(tmp_path))
        scan = ("scan", "x^9 + x", "x^9 + 16x", "--pmax", "13", "--depth", "full", "--jobs", "2")
        cold, modules, forks = probe(*scan, *common)
        # the cold scan forks its two helpers itself, with no pool module
        assert forks == ["numpy at fork: True"] * 2
        assert not modules & {"concurrent.futures", "multiprocessing"}, modules
        # the cold scan leaves every count that lemma62 and char-search need
        report = tmp_path / "report.txt"
        report.write_text(cold.stdout)
        runs = [
            (("--version",), self.UNUSED | self.NO_CACHE),
            (("split", "--pmax", "50", *common),
             self.UNUSED | self.NO_CACHE | {"twistscope.twistlab", "twistscope.verify"}),
            (("stats", str(report), "--format", "records"),
             self.UNUSED - {"fractions"} | self.NO_CACHE),  # z20 is an exact Fraction
            (("lemma62", "--c", "16", "--pmax", "13", *common), self.UNUSED),
            (("char-search", "x^9 + x", "x^9 + 16x", "--pmax", "13", *common), self.UNUSED),
            ((*scan, *common), self.UNUSED | {"twistscope.splitfield", "twistscope.verify"}),
        ]
        for argv, unused in runs:
            done, modules, forks = probe(*argv)
            assert not modules & unused, (argv, modules & unused)
            assert forks == [], argv
        assert done.stdout == cold.stdout  # the warm scan agrees with the cold one


def test_characteristic_above_cap_is_usage_error(capsys, tmp_path, monkeypatch):
    def never(coeffs, x, p):
        raise AssertionError(f"counted over F_{p}, above the cap")

    monkeypatch.setattr("twistscope.kernels._horner", never)
    # 33554467 is the least prime above MAX_FIELD_CHAR = 2^25
    rc, _, err = run_cli(capsys, "lpoly", "x^3 - x + 1", "--p", "33554467", "--cache-dir", str(tmp_path))
    assert rc == 2
    assert "exceeds the supported cap" in err


class TestBlasThreads:
    # the kernels are integer-only: a counting command starts numpy with one
    # BLAS thread unless the user chose a number; the library leaves it alone
    def test_counting_command_sets_one_thread(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        rc, _, _ = run_cli(capsys, "lpoly", "x^5-x", "--p", "3", "--cache-dir", str(tmp_path))
        assert rc == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_user_value_wins(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        rc, _, _ = run_cli(capsys, "lpoly", "x^5-x", "--p", "3", "--cache-dir", str(tmp_path))
        assert rc == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    def test_library_call_leaves_environment_alone(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        code = (
            "import os, sys, twistscope\n"
            "L = twistscope.lpoly(twistscope.curve_from_coeffs((0, -1, 0, 0, 0, 1)), 3)\n"
            "print(L.coeffs, 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        done = run_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{lpoly(curve_from_coeffs((0, -1, 0, 0, 0, 1)), 3).coeffs} True None\n"


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

    def test_composite_prime_rejected(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "lpoly", "x^5-x", "--p", "9", "--cache-dir", str(tmp_path)
        )
        assert rc == 2
        assert err == "error: p must be an odd prime, got 9\n"

    def test_warm_range_checks_no_sieve_prime(self, capsys, tmp_path, monkeypatch):
        # --p is checked where it enters; the primes of --pmin/--pmax come
        # from the sieve, and a warm run must not test them again
        args = ("lpoly", "x^5-x", "--pmax", "60", "--format", "records",
                "--cache-dir", str(tmp_path))
        rc_cold, cold, _ = run_cli(capsys, *args)
        real, checked = twistscope.algebra.is_prime, []
        monkeypatch.setattr("twistscope.algebra.is_prime", lambda n: checked.append(n) or real(n))
        rc_warm, warm, _ = run_cli(capsys, *args)
        assert rc_cold == rc_warm == 0 and warm == cold
        assert len(cold.splitlines()) == 16  # the odd primes 3..59
        assert checked == []
        run_cli(capsys, "lpoly", "x^5-x", "--p", "59", "--cache-dir", str(tmp_path))
        assert checked == [59]  # the spy sees the one check of --p

    @pytest.mark.parametrize("fmt", ["records", "table"])
    def test_each_L_is_weil_checked_once(self, capsys, tmp_path, monkeypatch, fmt):
        # lpoly_from_counts checks each L it builds, from fresh counts or a
        # cache line, and the command prints it without a second check
        real, checked = twistscope.curvecount.validate_weil, []
        monkeypatch.setattr("twistscope.curvecount.validate_weil", lambda L: checked.append(L.p) or real(L))
        args = ("lpoly", "x^3+3", "--pmax", "30", "--format", fmt, "--cache-dir", str(tmp_path))
        good = [5, 7, 11, 13, 17, 19, 23, 29]  # 3 is bad
        for state in ("cold", "warm"):
            rc, out, _ = run_cli(capsys, *args)
            assert rc == 0 and checked == good, state
            assert out.count("ok") == len(good)
            checked.clear()

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


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [("char-search", "x^5-x", "x^5+4x", "--pmax", "20", "--support", "abc"),
         ("char-search", "x^5-x", "x^5+4x", "--pmax", "20", "--support", "4"),
         ("scan", "x^5 - x", "x^7 + x", "--pmax", "20"),
         ("stats", "traces.tsv"),
         ("stats", "not-a-report.txt"),
         ("stats", "empty.txt"),
         ("stats", "short-header.txt"),
         ("split", "--pmax", "20", "--fields", "bare-header.cfg"),
         ("lpoly", "x^5 - x", "--p", "5", "--pmax", "50"),
         ("lpoly", "x^5 - x", "--p", "5", "--pmin", "7")],
    )
    def test_exit_2_with_an_error_line(self, capsys, tmp_path, argv):
        main(["scan", "x^5-x", "x^5+4x", "--pmax", "20", "--format", "records",
              "--cache-dir", str(tmp_path)])
        (tmp_path / "traces.tsv").write_text(capsys.readouterr().out)  # a trace-depth report
        (tmp_path / "not-a-report.txt").write_text("hello\n")
        (tmp_path / "empty.txt").write_text("")
        (tmp_path / "short-header.txt").write_text("twistscope-scan\t1\tx^5 - x\n")
        (tmp_path / "bare-header.cfg").write_text("twistscope-fields\n")
        argv = [str(tmp_path / a) if a.endswith((".tsv", ".txt", ".cfg")) else a for a in argv]
        rc, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("pmax", ["100000000000", "100000000000000000000"])
    def test_range_too_large_to_sieve_is_exit_2(self, tmp_path, pmax):
        # the sieve takes a byte per integer up to --pmax: 100 GB, past this
        # child's own address-space limit, or more than an index can hold
        code = (
            "import resource, sys\n"
            "from twistscope.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = run_python("-c", code, "split", "--pmax", pmax, "--cache-dir", str(tmp_path), timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: prime range up to {pmax} is too large to sieve\n"

    def test_kernel_alarm_is_exit_4_without_traceback(self, capsys, tmp_path, monkeypatch):
        import twistscope.kernels

        def alarm(polys, p):
            raise ArithmeticError("norm landed outside the prime field; kernel bug")

        monkeypatch.setattr(twistscope.kernels, "_prime_sums", alarm)
        rc, out, err = run_cli(capsys, "scan", "x^5-x", "x^5+4x", "--pmax", "20",
                               "--format", "records", "--cache-dir", str(tmp_path))
        assert rc == 4 and out == ""
        assert err == "internal error: norm landed outside the prime field; kernel bug\n"

    def test_kernel_alarm_in_a_helper_is_exit_4(self, capsys, tmp_path, monkeypatch):
        import twistscope.kernels

        def alarm(polys, p):
            raise ArithmeticError("kernel bug")

        monkeypatch.setattr(twistscope.kernels, "_prime_sums", alarm)  # before the helpers fork
        rc, out, err = run_cli(capsys, "scan", "x^5-x", "x^5+4x", "--pmax", "50", "--jobs", "2",
                               "--format", "records", "--cache-dir", str(tmp_path))
        assert (rc, out, err) == (4, "", "internal error: kernel bug\n")
        assert no_children()

    def test_killed_helper_is_an_error_exit(self, tmp_path):
        # every helper dies on its first batch: the command ends with one error
        # line, in the timeout, and leaves no child behind
        code = (
            "import os, signal, sys\n"
            "from twistscope import kernels\n"
            "from twistscope.cli import main\n"
            "parent, real = os.getpid(), kernels._prime_sums\n"
            "def dying(polys, p):\n"
            "    if os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(polys, p)\n"
            "kernels._prime_sums = dying\n"
            "rc = main(sys.argv[1:])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print('children left', file=sys.stderr)\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "sys.exit(rc)\n"
        )
        done = run_python("-c", code, "scan", "x^5-x", "x^5+4x", "--pmax", "50", "--jobs", "2",
                          "--format", "records", "--cache-dir", str(tmp_path), timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("io error: counting helper ") and "mid-batch" in done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr

    def test_non_primitive_modulus_is_exit_4(self, capsys, tmp_path, monkeypatch):
        # x^2 + 1 is irreducible mod 3 but not primitive: the table build for
        # F_9 must refuse it, and the scan must stop with one line
        import twistscope.kernels

        real = twistscope.kernels._primitive_modulus
        monkeypatch.setattr(twistscope.kernels, "_primitive_modulus",
                            lambda p, i: (1, 0) if (p, i) == (3, 2) else real(p, i))
        rc, out, err = run_cli(capsys, "scan", "x^5-x", "x^5+4x", "--pmax", "7", "--depth", "full",
                               "--format", "records", "--cache-dir", str(tmp_path))
        assert rc == 4 and out == ""
        assert err == "internal error: powers of t miss part of F_3^2; modulus not primitive\n"


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

    @pytest.mark.parametrize(
        "argv",
        [("scan", "x^5 - x", "x^5 + 4x", "--pmax", "400"),
         ("lpoly", "x^9 + x", "--pmax", "13"),
         ("char-search", "x^9 + x", "x^9 + 16x", "--pmax", "13"),
         ("lemma62", "--c", "16", "--pmax", "13"),
         ("lpoly", "x^5 + 3x + 1", "--pmin", "71", "--pmax", "90")],  # 79 divides disc(f)
    )
    def test_cold_records_and_lines_match_across_jobs(self, capsys, tmp_path, argv):
        # helpers finish batches in any order: the same records and the same
        # cache lines, and no helper outlives the command
        runs, lines = {}, {}
        for jobs in ("1", "2"):
            directory = tmp_path / jobs
            runs[jobs] = run_cli(capsys, *argv, "--format", "records", "--jobs", jobs,
                                 "--cache-dir", str(directory))
            lines[jobs] = {f.name: sorted(f.read_text().splitlines()) for f in directory.iterdir()}
        assert runs["1"] == runs["2"] and runs["1"][0] == 0
        assert lines["1"] == lines["2"]
        assert no_children()

    def test_one_prime_lpoly_range_forks_no_helper(self, capsys, tmp_path, monkeypatch):
        # lpoly asks for one prime at a time, so every request counts in
        # process at --jobs 2; 79 divides disc(f), which the parent sees first
        import twistscope.helpers

        def no_fork():
            raise AssertionError("a one-prime request forked a helper")

        monkeypatch.setattr(twistscope.helpers.os, "fork", no_fork)
        rc, out, _ = run_cli(capsys, "lpoly", "x^5 + 3x + 1", "--pmin", "3", "--pmax", "200",
                             "--jobs", "2", "--format", "records", "--cache-dir", str(tmp_path))
        assert rc == 0 and "lpoly\tx^5 + 3x + 1\t79\tbad-reduction\t-\t-\n" in out
        assert no_children()

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

    def test_range_is_sieved_once(self, capsys, tmp_path, monkeypatch):
        # the range is checked and sieved where it enters, and scan_pair takes those primes
        import twistscope.algebra
        import twistscope.twistlab

        calls, real = [], twistscope.algebra.odd_primes

        def spy(lo, hi):
            calls.append((lo, hi))
            return real(lo, hi)

        monkeypatch.setattr(twistscope.algebra, "odd_primes", spy)
        monkeypatch.setattr(twistscope.twistlab, "odd_primes", spy)
        rc, out, _ = run_cli(capsys, "scan", "x^5 - x", "x^5 + 4x", "--pmax", "200",
                             "--format", "records", "--cache-dir", str(tmp_path))
        assert rc == 0 and calls == [(3, 200)]
        assert out == scan_pair(parse_curve("x^5 - x"), parse_curve("x^5 + 4x"), 3, 200).to_text()

    def test_range_too_large_to_sieve_is_exit_2(self, tmp_path):
        code = (
            "import resource, sys\n"
            "from twistscope.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = run_python("-c", code, "scan", "x^5 - x", "x^5 + 4x", "--pmax", "100000000000",
                          "--cache-dir", str(tmp_path), timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: prime range up to 100000000000 is too large to sieve\n"

    def test_cold_scan_whose_counts_all_cancel_loads_no_numpy(self, tmp_path):
        # at 3, 5 and 7 the planner settles every unit of the pair: nothing is
        # counted, dealt or stored, and the records equal a counting run's
        argv = ("scan", "x^5 - x", "x^5 + 4x", "--pmax", "7", "--format", "records",
                "--cache-dir", str(tmp_path))
        for jobs in ("1", "2"):
            done, modules, forks = probe(*argv, "--jobs", jobs)
            assert "numpy" not in modules and forks == [], jobs
            assert not tmp_path.exists() or list(tmp_path.iterdir()) == []
        report = ScanReport.from_text(done.stdout)
        assert [(r.p, r.a, r.a_prime) for r in report.records] == [(3, 0, 0), (5, 0, 0), (7, 0, 0)]

    def test_tight_budget_refuses_settled_counts_in_every_cache_state(self, capsys, tmp_path):
        # settled counts are not stored, so a warm rerun under a budget that
        # does not cover them prints the records a cold cache prints; 17, the
        # one stored prime, fits the budget
        base = ("scan", "x^5 - x", "x^5 + 4x", "--pmax", "40", "--format", "records")
        warm, cold = tmp_path / "warm", tmp_path / "cold"
        rc, full, _ = run_cli(capsys, *base, "--cache-dir", str(warm))
        assert rc == 0 and "budget-exceeded" not in full
        tight = ("--budget", "20")
        rc_cold, from_cold, _ = run_cli(capsys, *base, *tight, "--cache-dir", str(cold))
        rc_warm, from_warm, _ = run_cli(capsys, *base, *tight, "--cache-dir", str(warm))
        assert rc_cold == rc_warm == 0 and from_warm == from_cold
        skipped = [int(ln.split("\t")[0]) for ln in from_cold.splitlines() if "\tbudget-exceeded" in ln]
        assert skipped == [23, 29, 31, 37]


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

    def test_large_bad_prime_in_default_support(self, tmp_path):
        # disc(x^5 + 2014x + 1) has the odd prime factors 3 and 942529141893627341;
        # the candidates built from them are not factored again, so this takes
        # seconds, and the ones free of the large prime match a --support 3 run
        argv = ("-m", "twistscope", "char-search", "x^5 + 2014x + 1", "x^5 + 4x", "--pmax", "30",
                "--format", "records", "--cache-dir", str(tmp_path))
        default = run_python(*argv, timeout=30)
        small = run_python(*argv, "--support", "3", timeout=30)
        assert default.returncode == small.returncode == 0, default.stderr + small.stderr
        small_ds = {d * s for d in (1, 2, 3, 6) for s in (1, -1)}

        def chars(out, ds):
            return [ln for ln in out.splitlines() if ln.startswith("char\t") and int(ln.split("\t")[1]) in ds]

        assert chars(default.stdout, small_ds) == chars(small.stdout, small_ds)
        assert len(chars(small.stdout, small_ds)) == 8
        assert sum(ln.startswith("char\t") for ln in default.stdout.splitlines()) == 16

    def test_undecidable_discriminant_cofactor_is_config_error(self, tmp_path):
        # disc(x^5 + 1000003x + 1) = 2^a 3^b 17^c * (a cofactor near 5.0e30), beyond
        # the range is_prime decides, so the support must be passed explicitly
        done = run_python("-m", "twistscope", "char-search", "x^5 + 1000003x + 1", "x^5 + 4x",
                          "--pmax", "30", "--cache-dir", str(tmp_path), timeout=30)
        assert done.returncode == 2
        assert "pass the bad-prime support explicitly" in done.stderr

    def test_explicit_support_skips_factoring(self, tmp_path):
        # the same pair with --support runs: bad primes come from disc(f) % p
        argv = ("-m", "twistscope", "char-search", "x^5 + 1000003x + 1", "x^5 + 4x",
                "--pmax", "30", "--support", "3,17", "--format", "records", "--cache-dir", str(tmp_path))
        done = run_python(*argv, timeout=30)
        assert done.returncode == 0, done.stderr
        chars = [ln.split("\t") for ln in done.stdout.splitlines() if ln.startswith("char\t")]
        # 3, 17, 2 and the sign give 16 characters, all refuted at 5: 3 divides
        # disc(x^5 + 1000003x + 1), so it is skipped rather than counted
        assert len(chars) == 16 and {(c[2], c[3]) for c in chars} == {("refuted", "5")}


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

    def test_records_to_5000(self, capsys, tmp_path):
        # the whole of the benchmark's split reference
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "g2-split.txt"
        rc, out, _ = run_cli(
            capsys, "split", "--pmax", "5000", "--format", "records",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        assert out == reference.read_text()

    def test_mixed_degrees_stop_after_earlier_records(self, capsys, tmp_path):
        # a cover that is not Galois (x^3 - 2, guarded at 2 and 3) fails at 5,
        # after the record for 3 is out
        shipped = importlib.resources.files("twistscope").joinpath("data/fields.cfg").read_text()
        config = tmp_path / "fields.cfg"
        config.write_text(shipped.replace("poly 1,0,28,0,2,0,4,0,1", "poly -2,0,0,1"))
        rc, out, err = run_cli(
            capsys, "split", "--pmax", "50", "--format", "records", "--fields", str(config),
            "--cache-dir", str(tmp_path),
        )
        assert rc == 1
        assert out == "split\t3\tguarded\t-\t-\t-\n"
        assert err.startswith("NotGaloisConsistentError: field q-i-fourthroot2: ") and "mod 5" in err

    def test_disc_primes_lines_are_ignored(self, capsys, tmp_path):
        # the guard comes from the discriminants, so wrong or missing
        # disc-primes lines in a config change no record
        shipped = importlib.resources.files("twistscope").joinpath("data/fields.cfg").read_text()
        split = ("split", "--pmax", "1000", "--format", "records", "--cache-dir", str(tmp_path))
        rc, want, _ = run_cli(capsys, *split)
        assert rc == 0 and "\tguarded\t" in want
        for disc_lines in ("", "disc-primes 5,7\n", "disc-primes 9\n"):
            config = tmp_path / "fields.cfg"
            config.write_text(shipped.replace("galois true\n", "galois true\n" + disc_lines))
            assert run_cli(capsys, *split, "--fields", str(config)) == (0, want, ""), disc_lines


# the other benchmark reference files and the commands the benchmark runs for them
REFERENCE_COMMANDS = {
    "g4-scan": ("scan", "x^9 + x", "x^9 + 16x", "--pmax", "23", "--depth", "full", "--jobs", "2"),
    "g4-lemma62-c1": ("lemma62", "--c", "1", "--pmax", "23"),
    "g4-lemma62-c16": ("lemma62", "--c", "16", "--pmax", "23"),
    "g4-char-search": ("char-search", "x^9 + x", "x^9 + 16x", "--pmax", "23"),
    "g2-scan": ("scan", "x^5 - x", "x^5 + 4x", "--pmax", "5000", "--depth", "traces", "--jobs", "2"),
}


class TestBenchmarkReferences:
    @pytest.mark.parametrize("key", sorted(REFERENCE_COMMANDS))
    def test_cold_and_warm_reproduce_reference(self, key, capsys, tmp_path, monkeypatch):
        # byte for byte: once from counting, once from the cache's lines alone
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / f"{key}.txt"
        argv = (*REFERENCE_COMMANDS[key], "--format", "records", "--cache-dir", str(tmp_path))
        assert run_cli(capsys, *argv) == (0, reference.read_text(), "")
        count_only(monkeypatch)
        assert run_cli(capsys, *argv) == (0, reference.read_text(), "")


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

    def test_genus1_full_report(self, capsys, tmp_path):
        # genus 1 has no a_2 coefficient, so the default moments are e = (0)
        # and e = (2) only
        rc, out, _ = run_cli(capsys, "scan", "x^3 - x", "x^3 + 4x", "--depth", "full", "--pmax", "50",
                             "--format", "records", "--cache-dir", str(tmp_path))
        assert rc == 0
        report = tmp_path / "report.tsv"
        report.write_text(out)
        rc, out, err = run_cli(capsys, "stats", str(report), "--format", "records")
        assert rc == 0 and err == ""
        assert [ln.split("\t")[:2] for ln in out.splitlines()] == [["z20", "0/1"], ["moment", "0"], ["moment", "2"]]

    def test_missing_report_is_config_error(self, capsys):
        rc, _, err = run_cli(capsys, "stats", "/nonexistent/report.tsv")
        assert rc == 2

    def test_report_file_is_closed(self, capsys, tmp_path):
        # under -X dev an unclosed file is a ResourceWarning on stderr
        rc, out, _ = run_cli(capsys, "scan", "x^5-x", "x^5+4x", "--pmax", "30", "--depth", "full",
                             "--format", "records", "--cache-dir", str(tmp_path))
        assert rc == 0
        report = tmp_path / "report.tsv"
        report.write_text(out)
        done = run_python("-X", "dev", "-W", "error::ResourceWarning", "-m", "twistscope",
                          "stats", str(report))
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr


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


class TestVerifyFormats:
    @staticmethod
    def stub_criteria(monkeypatch):
        """Two criteria that count nothing, under a clock whose every reading moves further."""
        import itertools
        import types

        from twistscope import verify
        from twistscope.errors import BudgetExceededError

        def blocked(ctx):
            raise BudgetExceededError(10, 1, "stub")

        monkeypatch.setattr(verify, "_CRITERIA", [(1, "stub pass", lambda ctx: (True, "fine")),
                                                  (2, "stub budget", blocked)])
        ticks = (0.7 * k * k for k in itertools.count())
        monkeypatch.setattr(verify, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))

    def test_records_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        self.stub_criteria(monkeypatch)
        argv = ("verify-paper", "--format", "records", "--cache-dir", str(tmp_path))
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first == second
        assert first[:2] == (3, "PASS criterion 1 stub pass: fine\n"
                                "FAIL(budget) criterion 2 stub budget: stub: "
                                "enumeration needs 10 field evaluations, budget is 1\n")

    def test_table_lines_carry_the_timing(self, capsys, tmp_path, monkeypatch):
        self.stub_criteria(monkeypatch)
        rc, out, _ = run_cli(capsys, "verify-paper", "--cache-dir", str(tmp_path))
        assert rc == 3
        assert out.splitlines()[0] == "PASS criterion 1 [0.7s] stub pass: fine"
        assert out.splitlines()[1].startswith("FAIL(budget) criterion 2 [3.5s] stub budget: ")


def shape_alarm_at_5(monkeypatch):
    """A lemma62_check stand-in that returns a Lemma62Violation at p = 5 only."""
    from twistscope.splitfield import Lemma62Violation

    real = twistscope.splitfield.lemma62_check
    wrong = Lemma62Violation(LPolynomial(5, 4, (1, 1, 0, 0, 50, 0, 0, 0, 625)))
    monkeypatch.setattr("twistscope.splitfield.lemma62_check",
                        lambda c, p, budget, cache: wrong if p == 5 else real(c, p, budget, cache))


# every per-result line of each subcommand that writes one, with the stand-in
# (if any) that makes a rare line appear; "REPORT" is a genus-2 full-depth report
GOLDEN_COMMANDS = {
    "lpoly-bad-and-weil": (("lpoly", "x^3+3", "--pmax", "11"), None),
    "char-search-refuted": (("char-search", "x^9 + x", "x^9 + 16x", "--pmax", "23"), None),
    "char-search-survivors": (("char-search", "x^3-x", "x^3-4x", "--pmax", "60"), None),
    "split-guarded": (("split", "--pmax", "60"), None),
    "lemma62-c3": (("lemma62", "--c", "3", "--pmax", "13"), None),
    "lemma62-c16": (("lemma62", "--c", "16", "--pmax", "13"), None),
    "lemma62-violation": (("lemma62", "--c", "16", "--pmax", "13"), shape_alarm_at_5),
    "stats": (("stats", "REPORT", "--e", "2,0", "--e", "0,1"), None),
}


# the bytes each format printed when each subcommand still wrote both formats
# in its own branches; not one may move.  lpoly's weil column reads ok: an L
# that breaks a Weil clause is an InconsistentCountsError, never a line
GOLDEN = {
    ('lpoly-bad-and-weil', 'records'): (0, (
        'lpoly\tx^3 + 3\t3\tbad-reduction\t-\t-\n'
        'lpoly\tx^3 + 3\t5\t1,0,5\t0\tok\n'
        'lpoly\tx^3 + 3\t7\t1,5,7\t-5\tok\n'
        'lpoly\tx^3 + 3\t11\t1,0,11\t0\tok\n'
    )),
    ('lpoly-bad-and-weil', 'table'): (0, (
        'p=3: bad reduction\n'
        'curve x^3 + 3  p=5\n'
        '  L: 1,0,5\n'
        '  trace: 0\n'
        '  weil: ok\n'
        'curve x^3 + 3  p=7\n'
        '  L: 1,5,7\n'
        '  trace: -5\n'
        '  weil: ok\n'
        'curve x^3 + 3  p=11\n'
        '  L: 1,0,11\n'
        '  trace: 0\n'
        '  weil: ok\n'
    )),
    ('char-search-refuted', 'records'): (0, (
        'char\t-2\trefuted\t17\n'
        'char\t-1\trefuted\t17\n'
        'char\t1\trefuted\t17\n'
        'char\t2\trefuted\t17\n'
        'char-search\trefuted\tfinite-evidence\t6\n'
    )),
    ('char-search-refuted', 'table'): (0, (
        'char-search x^9 + x vs x^9 + 16x\n'
        '  candidates: [1, -1, 2, -2]\n'
        '  d=-2: refuted, witness p=17\n'
        '  d=-1: refuted, witness p=17\n'
        '  d=1: refuted, witness p=17\n'
        '  d=2: refuted, witness p=17\n'
        '  all candidates refuted\n'
    )),
    ('char-search-survivors', 'records'): (0, (
        'char\t-1\trefuted\t5\n'
        'char\t1\trefuted\t5\n'
        'char\t2\tsurvived\t-\n'
        'char\t-2\tsurvived\t-\n'
        'char-search\tcertified\tfinite-evidence\t16\n'
    )),
    ('char-search-survivors', 'table'): (0, (
        'char-search x^3 - x vs x^3 - 4x\n'
        '  candidates: [1, -1, 2, -2]\n'
        '  d=-1: refuted, witness p=5\n'
        '  d=1: refuted, witness p=5\n'
        '  d=2: survived all 16 tested primes\n'
        '  d=-2: survived all 16 tested primes\n'
        '  consistent candidates found (finite evidence only, no twist relation is proven)\n'
    )),
    ('split-guarded', 'records'): (0, (
        'split\t3\tguarded\t-\t-\t-\n'
        'split\t5\tok\t2\t4\t4\tii\n'
        'split\t7\tok\t2\t2\t2\tii\n'
        'split\t11\tok\t2\t2\t4\tii\n'
        'split\t13\tok\t2\t4\t4\tii\n'
        'split\t17\tok\t1\t2\t1\ti\n'
        'split\t19\tok\t2\t2\t4\tii\n'
        'split\t23\tok\t2\t2\t2\tii\n'
        'split\t29\tok\t2\t4\t4\tii\n'
        'split\t31\tok\t2\t2\t2\tii\n'
        'split\t37\tok\t2\t4\t4\tii\n'
        'split\t41\tok\t1\t2\t2\ti\n'
        'split\t43\tok\t2\t2\t4\tii\n'
        'split\t47\tok\t2\t2\t2\tii\n'
        'split\t53\tok\t2\t4\t4\tii\n'
        'split\t59\tok\t2\t2\t4\tii\n'
        'split-summary\ti=2\tii=13\tiii=0\tviolation=0\n'
    )),
    ('split-guarded', 'table'): (0, (
        '  p=3: skipped (guarded prime)\n'
        "  p=5: r=2 s=4 s'=4 case=ii\n"
        "  p=7: r=2 s=2 s'=2 case=ii\n"
        "  p=11: r=2 s=2 s'=4 case=ii\n"
        "  p=13: r=2 s=4 s'=4 case=ii\n"
        "  p=17: r=1 s=2 s'=1 case=i\n"
        "  p=19: r=2 s=2 s'=4 case=ii\n"
        "  p=23: r=2 s=2 s'=2 case=ii\n"
        "  p=29: r=2 s=4 s'=4 case=ii\n"
        "  p=31: r=2 s=2 s'=2 case=ii\n"
        "  p=37: r=2 s=4 s'=4 case=ii\n"
        "  p=41: r=1 s=2 s'=2 case=i\n"
        "  p=43: r=2 s=2 s'=4 case=ii\n"
        "  p=47: r=2 s=2 s'=2 case=ii\n"
        "  p=53: r=2 s=4 s'=4 case=ii\n"
        "  p=59: r=2 s=2 s'=4 case=ii\n"
        '  case frequencies: i=2\tii=13\tiii=0\tviolation=0\n'
    )),
    ('lemma62-c3', 'records'): (0, (
        'lemma62\t3\t3\tbad-reduction\t-\n'
        'lemma62\t3\t5\tok\t0\n'
        'lemma62\t3\t11\tok\t242\n'
        'lemma62\t3\t13\tok\t338\n'
    )),
    ('lemma62-c3', 'table'): (0, (
        '  p=3: bad reduction\n'
        '  p=5: s=0\n'
        '  p=11: s=242\n'
        '  p=13: s=338\n'
    )),
    ('lemma62-c16', 'records'): (0, (
        'lemma62\t16\t3\tok\t18\n'
        'lemma62\t16\t5\tok\t50\n'
        'lemma62\t16\t11\tok\t242\n'
        'lemma62\t16\t13\tok\t338\n'
    )),
    ('lemma62-c16', 'table'): (0, (
        '  p=3: s=18\n'
        '  p=5: s=50\n'
        '  p=11: s=242\n'
        '  p=13: s=338\n'
    )),
    ('lemma62-violation', 'records'): (1, (
        'lemma62\t16\t3\tok\t18\n'
        'lemma62\t16\t5\tviolation\t1,1,0,0,50,0,0,0,625\n'
        'lemma62\t16\t11\tok\t242\n'
        'lemma62\t16\t13\tok\t338\n'
    )),
    ('lemma62-violation', 'table'): (1, (
        '  p=3: s=18\n'
        '  p=5: SHAPE VIOLATION L=1,1,0,0,50,0,0,0,625\n'
        '  p=11: s=242\n'
        '  p=13: s=338\n'
    )),
    ('stats', 'records'): (0, (
        'z20\t0/1\n'
        'moment\t2,0\t0.9411764705882353\t0.9411764705882353\t0.0\n'
        'moment\t0,1\t0.10380377563040098\t0.3667844596637166\t0.2629806840333156\n'
    )),
    ('stats', 'table'): (0, (
        'T^2-coefficient vanishing fraction: 0/1 = 0.0000 (finite-range observation)\n'
        '  e=(2,0): 0.941176 vs 0.941176  |diff|=0.00e+00\n'
        '  e=(0,1): 0.103804 vs 0.366784  |diff|=2.63e-01\n'
    )),
}

def golden_run(key, fmt, capsys, tmp_path, monkeypatch):
    """(exit code, stdout) of one golden command in one format."""
    argv, stand_in = GOLDEN_COMMANDS[key]
    if "REPORT" in argv:
        report = tmp_path / "report.tsv"
        main(["scan", "x^5-x", "x^5+4x", "--pmax", "30", "--depth", "full",
              "--format", "records", "--cache-dir", str(tmp_path)])
        report.write_text(capsys.readouterr().out)
        argv = tuple(str(report) if a == "REPORT" else a for a in argv)
    if stand_in is not None:
        stand_in(monkeypatch)
    rc, out, err = run_cli(capsys, *argv, "--format", fmt, "--cache-dir", str(tmp_path))
    assert err == ""
    return rc, out


class TestGoldenOutput:
    @pytest.mark.parametrize("fmt", ["records", "table"])
    @pytest.mark.parametrize("key", list(GOLDEN_COMMANDS))
    def test_every_byte_of_both_formats(self, key, fmt, capsys, tmp_path, monkeypatch):
        assert golden_run(key, fmt, capsys, tmp_path, monkeypatch) == GOLDEN[key, fmt]


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
