"""Benchmark of sparse-harmonics: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The workloads, the metrics and their
bounds are listed in BENCHMARK.json; perfbench/README.md says what each
one measures and why it was chosen.

With --trace 0 the run reports the end-to-end metrics: it starts one fresh
process per set-up sample (set-up time is their median) and measures the
ops in the last one.  With --trace 1 it runs every op untraced and
traced, and reports the per-layer metrics.  Summary lines go to standard
output, ending with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  Configs that fail today run once after the timed phase and
are reported apart from the ops (see workloads.KNOWN_DEFECTS).  Per-op
records, provenance and spans are written under
.perfbench_out/.  --quick runs a few ops at tiny grid sizes (see smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
QUICK_MAX_OPS = 8
RUN_LIMIT_S = 175.0  # the whole run, set-up samples included
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # ops beyond the tail percentile, in runs of 40 ops or more


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("SPARSE_HARMONICS_SEED", None)  # inputs come from --seed only
    for key in BLAS_THREADS:
        env[key] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same way
    return env


def run_child(args, run_dir: Path, tag: str, deadline: float, setup_only: bool) -> dict:
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(run_dir / "work"), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if args.quick:
        cmd += ["--quick", "--max-ops", str(QUICK_MAX_OPS)]
    with open(run_dir / f"{tag}.log", "w") as log:
        proc = subprocess.run(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} exited {proc.returncode}; see {run_dir / (tag + '.log')}:\n"
                           + (run_dir / f"{tag}.log").read_text()[-2000:])
    return json.loads(result.read_text())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) of the highest percentile with
    TAIL_BEYOND ops beyond it.  A run with fewer than 4 * TAIL_BEYOND ops
    uses a quarter of its ops instead, so that one slow op on a noisy
    machine cannot set the tail of a short run; the maximum below 4 ops."""
    lat = sorted(latencies)
    n = len(lat)
    beyond = min(TAIL_BEYOND, n // 4)
    return lat[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def end_to_end(main: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    ops = main["ops"]
    lat = [r["latency_s"] for r in ops]
    cost = [r["latency_s"] / r["ref_s"] for r in ops]
    ref = statistics.median(r["ref_s"] for r in ops)
    tail_ref, pct, beyond = tail(cost)
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ref": statistics.median(cost),
        "op_tail_ref": tail_ref,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    # Seconds are printed but not gated: this shared host runs the same op
    # at full or half speed in spells of seconds to minutes, which moves
    # them by up to 2x between runs.  The reference loops slow with it.
    tail_s = tail(lat)[0]
    notes = [
        f"setup_s: median of {len(setup_samples)} set-ups in fresh processes: "
        + ", ".join(f"{s:.4f}" for s in setup_samples),
        f"op_*_ref: op latency over the geometric mean of the workload's reference loops' "
        f"times just before and after it (worker.reference_times); {ref:.5f} s (median) "
        "in this run",
        f"op_tail_ref: p{pct:.1f} of {len(ops)} ops, {beyond} ops beyond it",
        f"in seconds, not gated: op p50 {statistics.median(lat)!r} s, op tail {tail_s!r} s, "
        f"{len(lat) / sum(lat)!r} ops/s ({len(lat)} ops in {sum(lat):.3f} s inside "
        "program calls)",
    ]
    return values, notes


def per_kind(ops: list[dict]) -> list[str]:
    """Latency by op kind, and by the kind of each timed part of an op;
    a part's failures are those of the op it belongs to."""
    groups = defaultdict(list)
    for r in ops:
        groups[(r["kind"], r["L"])].append((r["latency_s"], r["outcome"]))
        for part in r["parts"]:
            groups[("  " + part["kind"], part["L"])].append((part["latency_s"], r["outcome"]))
    lines = [f"  {'op kind (  part)':40s} {'L':>3s} {'n':>5s} {'p50_s':>9s} {'max_s':>9s} failed"]
    for (kind, L), rs in sorted(groups.items(), key=lambda g: (g[0][0].startswith(" "), g[0])):
        lat = [x for x, _ in rs]
        bad = sum(outcome != "ok" for _, outcome in rs)
        lines.append(f"  {kind:40s} {L:3d} {len(rs):5d} {statistics.median(lat):9.4f} "
                     f"{max(lat):9.4f} {bad}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true", help="a few ops at tiny grid sizes")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # Exit through SystemExit on SIGTERM, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "sparse_harmonics" / "cli.py").is_file():
        print(f"no sparse_harmonics sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_samples = []
        if not args.trace and not args.quick:
            for k in range(SETUP_SAMPLES - 1):
                setup_samples.append(
                    run_child(args, run_dir, f"setup-{k}", deadline, True)["setup_s"])
        main_result = run_child(args, run_dir, "run", deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir / "work", ignore_errors=True)
    setup_samples.append(main_result["setup_s"])

    ops = main_result["ops"]
    if not ops:
        print("no op completed", file=sys.stderr)
        return 1
    if args.trace:
        values, notes = main_result["per_layer"], []
        for key, what in (("op_self_share", "self time"),
                          ("op_inclusive_share", "time inside, children included")):
            shares = list(main_result[key].items())[:6]
            notes.append(f"largest {what}, as a share of op time: "
                         + ", ".join(f"{k} {v:.1%}" for k, v in shares))
    else:
        values, notes = end_to_end(main_result, setup_samples)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    errors = list(main_result["check_errors"])
    errors += [f"op {r['i']} ({r['kind']}): {r['detail']}"
               for r in ops if r["outcome"] == "check-failed"]
    failed = sum(r["outcome"] != "ok" for r in ops)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    summary = {"correct": not errors, "attempted": len(ops), "failed": failed,
               "metrics": metrics}

    print("provenance: " + json.dumps(main_result["provenance"], sort_keys=True))
    print("load: closed loop, one client, ops one after another in one process; "
          "nothing in the program queues or waits, so no wait metrics are reported")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for line in notes:
        print(line)
    print(f"ops: {len(ops)} attempted, {failed} failed")
    for line in per_kind(ops):
        print(line)
    raised = [r for r in ops if r["outcome"] == "raised"]
    if raised:
        r = raised[0]
        print(f"  first failed op {r['i']} ({r['kind']}, L={r['L']}): {r['detail']}")
    for r in main_result["known_defects"]:
        print(f"known defect, run once after the timed phase and not an op: "
              f"{r['kind']} (L={r['L']}): {r['outcome']} {r['detail']}".rstrip())
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    (run_dir / "summary.json").write_text(json.dumps(
        {"provenance": main_result["provenance"], "setup_samples": setup_samples,
         "notes": notes, "known_defects": main_result["known_defects"], **summary},
        indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
