"""Smoke test of the benchmark: every workload, untraced and traced, at tiny
grid sizes and a few ops.  Checks that each run prints a well-formed
result, with exactly the metric names and units BENCHMARK.json lists, and
that the traced run's per-layer names are the ones tracing.py defines.

    python3 perfbench/smoke.py

Finishes in well under a minute; exits 0 when everything matches.  At
the tiny grids config-stream's ops fail (fit_exponent overflows on the
log-symbol configs below L = 10), so its failed count is not checked here.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracing import per_layer_names  # noqa: E402

KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["per_layer"]] != per_layer_names():
        problems.append("BENCHMARK.json per_layer names differ from tracing.per_layer_names()")
    t0 = time.monotonic()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != KEYS:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} "
                                "differ from BENCHMARK.json")
            for name in want:
                if not any(line.startswith(f"{name} = ") for line in lines):
                    problems.append(f"{tag}: {name} not printed")
            print(f"{tag}: {result['attempted']} ops, {result['failed']} failed, "
                  f"{len(got)} metrics", flush=True)
    for p in problems:
        print(f"PROBLEM: {p}")
    print(f"smoke {'failed' if problems else 'ok'} in {time.monotonic() - t0:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
