import importlib.util
import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "benchmarks" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_layers_script_writes_a_bench_file_at_l4(tmp_path):
    layers = _layers()
    out = tmp_path / "BENCH_test.json"
    start = time.perf_counter()
    assert layers.main(["--levels", "4", "--repeats", "1", "--out", str(out)]) == out
    assert time.perf_counter() - start < 2.0
    bench = json.loads(out.read_text())
    assert set(bench) == {"env", "levels", "repeats", "unit", "layers", "cold_import_cli"}
    assert set(bench["env"]) >= {"cores", "python", "numpy", "scipy"}
    assert bench["levels"] == [4]
    assert len(bench["layers"]) == 19
    assert {"M_{L log L}, two inputs", "M_{L log L}, bump f", "weak Lorentz L^{1/2,inf}(w)",
            "Stein (alpha = 0.75)", "A_inf (step weight)", "A_inf (power:0.3333 weight)",
            "sparse sum (3Q), principal family of [a,H] f"} <= set(bench["layers"])
    for row in bench["layers"].values():
        assert set(row) == {"4"} and row["4"] > 0.0
    assert bench["cold_import_cli"]["median_s"] > 0.0
    # with no --out, the first free BENCH_<n>.json
    (tmp_path / "BENCH_1.json").write_text("{}")
    assert layers.next_bench_path(tmp_path) == tmp_path / "BENCH_2.json"


def test_layers_script_times_each_row_against_another_tree_at_l4(tmp_path):
    # here the other tree is this one: one worker per side, in ABBA order
    layers = _layers()
    out = tmp_path / "BENCH_against.json"
    start = time.perf_counter()
    assert layers.main(["--levels", "4", "--repeats", "2", "--against", str(ROOT / "src"),
                        "--out", str(out)]) == out
    assert time.perf_counter() - start < 10.0
    bench = json.loads(out.read_text())
    assert set(bench) == {"env", "levels", "repeats", "unit", "layers", "cold_import_cli", "against"}
    assert len(bench["layers"]) == 19
    for row in bench["layers"].values():
        assert set(row) == {"4"}
        cell = row["4"]
        assert set(cell) == {"ms", "against_ms", "ratio", "wins", "pairs"}
        assert cell["ms"] > 0.0 and cell["against_ms"] > 0.0 and cell["ratio"] > 0.0
        assert cell["pairs"] == 2 and 0 <= cell["wins"] <= 2
