import importlib.util
import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layers_script_writes_a_bench_file_at_l4(tmp_path):
    spec = importlib.util.spec_from_file_location("layers", ROOT / "benchmarks" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    out = tmp_path / "BENCH_test.json"
    start = time.perf_counter()
    assert layers.main(["--levels", "4", "--repeats", "1", "--out", str(out)]) == out
    assert time.perf_counter() - start < 2.0
    bench = json.loads(out.read_text())
    assert set(bench) == {"env", "levels", "repeats", "unit", "layers", "cold_import_cli"}
    assert set(bench["env"]) >= {"cores", "python", "numpy", "scipy"}
    assert bench["levels"] == [4]
    assert len(bench["layers"]) == 18
    assert {"M_{L log L}, two inputs", "M_{L log L}, bump f", "weak Lorentz L^{1/2,inf}(w)",
            "Stein (alpha = 0.75)", "A_inf (step weight)", "A_inf (power:0.3333 weight)"} <= set(bench["layers"])
    for row in bench["layers"].values():
        assert set(row) == {"4"} and row["4"] > 0.0
    assert bench["cold_import_cli"]["median_s"] > 0.0
    # with no --out, the first free BENCH_<n>.json
    (tmp_path / "BENCH_1.json").write_text("{}")
    assert layers.next_bench_path(tmp_path) == tmp_path / "BENCH_2.json"
