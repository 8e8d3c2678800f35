import importlib.util
import json
import sys
from pathlib import Path

from twistscope.algebra import odd_primes

BENCH_LAYERS = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_layers_writes_its_json(tmp_path, monkeypatch):
    bench_layers = _load(BENCH_LAYERS)
    monkeypatch.setattr(bench_layers, "CACHE_PMAX", 30)  # 9 lines, not 9,591
    monkeypatch.setattr(bench_layers, "FP_PMAX", 30)  # 9 primes, not 668
    monkeypatch.setattr(bench_layers, "DISPATCH_PMAX", 7)  # 3, 5, 7, not up to 23
    monkeypatch.setattr(bench_layers, "REQUEST_PMAX", 30)  # 9 primes, not 2,261
    monkeypatch.setattr(bench_layers, "SCAN_PMAX", 200)  # 45 primes, not 9,592, in each scan row
    monkeypatch.setattr(bench_layers, "CALIBRATION_STEPS", 1000)
    # fields where x^9 + x does not cancel; F_7^2 is a norm-kernel field once the cap is 9
    monkeypatch.setattr(bench_layers, "NORM_FIELD", (7, 2))
    monkeypatch.setattr(bench_layers.kernels, "_TABLE_MAX_ORDER", 9)
    out = tmp_path / "BENCH_layers.json"
    text = bench_layers.write([(3, 4)], out)
    data = json.loads(out.read_text())
    assert json.loads(text) == data
    assert data["repeats"] == 5 and data["machine"]["python"]
    assert data["startup"]["command"] == "lpoly 'x^5 - x' --p 3"
    assert data["startup"]["wall_s"] > 0
    assert data["startup"]["dont_write_bytecode"] is sys.dont_write_bytecode
    scan = data["scan"]
    assert scan["command"] == "scan 'x^5 - x' 'x^5 + 4x' --jobs 1 --pmax 200" and scan["runs"] == 3
    assert scan["wall_s"] > 0 and scan["peak_rss_mb"] > 0 and scan["floor_mb"] > 0
    assert scan["dont_write_bytecode"] is sys.dont_write_bytecode
    warm, g4 = data["scan_warm"], data["scan_g4"]
    assert warm["command"] == scan["command"] and warm["runs"] == 3
    assert g4["command"] == "scan 'x^9 + x' 'x^9 + 16x' --jobs 1 --pmax 200" and g4["runs"] == 3
    for row in (warm, g4):
        assert row["wall_s"] > 0 and row["peak_rss_mb"] > 0 and row["floor_mb"] > 0
        assert row["dont_write_bytecode"] is sys.dont_write_bytecode
    assert data["calibration"]["steps"] == 1000 and data["calibration"]["s"] > 0
    modules = data["compile"]["modules"]
    src = BENCH_LAYERS.parent.parent / "src" / "twistscope"
    assert sorted(modules) == sorted(path.name for path in src.glob("*.py"))
    assert all(row["lines"] > 0 and row["compile_s"] > 0 for row in modules.values())
    assert data["compile"]["lines"] == sum(row["lines"] for row in modules.values())
    cache = data["cache"]
    assert (cache["curve"], cache["lines"]) == ("x^5 - x", 9) and cache["file_bytes"] > 0
    assert cache["file_alloc_bytes"] > 0 and cache["file_alloc_bytes"] % 512 == 0
    assert cache["put_s_per_line"] > 0 and cache["first_get_s_per_line"] > 0
    dispatch = data["dispatch"]
    assert (dispatch["curves"], dispatch["pmax"]) == (["x^9 + x", "x^9 + 16x"], 7)
    assert (dispatch["primes"], dispatch["one_prime"]) == (3, 7)
    assert dispatch["jobs1_s"] > 0 and dispatch["jobs2_s"] > 0 and dispatch["one_prime_jobs2_s"] > 0
    request = data["request"]
    assert (request["curves"], request["pmax"], request["entries"]) == (["x^5 - x", "x^5 + 4x"], 30, 18)
    assert request["bytes_per_entry"] > 0 and request["s_per_entry"] > 0
    fp = data["prime_field"]
    assert (fp["curves"], fp["primes"], fp["elements"]) == (["x^5 - x", "x^5 + 4x"], 9, 2 * 127)
    assert fp["elements_per_s"] == fp["elements"] / fp["s"]
    assert fp["char_sums_s"] > 0
    assert fp["settled"] == 2 * 8  # every odd p < 30 but 17 cancels, for both curves
    # the kernel's full walk runs at every prime, largest first; char_sums
    # only at 17, over the (p - 1)/4 powers of a generator
    timed = []
    real = bench_layers.kernels._prime_sums
    monkeypatch.setattr(bench_layers.kernels, "_prime_sums",
                        lambda fs, p: timed.append((p, [d for _, d in fs])) or real(fs, p))
    bench_layers.measure_prime_field()
    full = [(p, [1, 1]) for p in odd_primes(3, 30)[::-1]]
    assert timed == full * bench_layers.REPEATS + [(17, [4, 4])] * bench_layers.REPEATS
    norm = data["norm"]
    assert (norm["p"], norm["i"], norm["q"], norm["curve"]) == (7, 2, 49, "x^9 + x")
    assert norm["elements_per_s"] == 49 / norm["s"]
    assert norm["pair"] == ["x^9 + x", "x^9 + 16x"] and norm["pair_s"] > 0
    [row] = data["fields"]
    assert (row["p"], row["i"], row["q"]) == (3, 4, 81)
    assert row["table_build_s"] > 0
    for name in ("x^9 + x", "dense degree 9"):
        assert row[name]["char_sum_s"] > 0
        assert row[name]["elements_per_s"] == 81 / row[name]["char_sum_s"]
