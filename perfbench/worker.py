"""One benchmark process: set up a workload, run its ops in a closed loop
for the given number of seconds, and write the result as JSON.

run.py starts a fresh one per set-up sample and per measured run, with
the BLAS/OpenMP thread counts pinned in its environment.  Not meant to be
started by hand; see perfbench/README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


HARD_STOP = 2.5  # a run may finish its last cycle, but not past this many --seconds


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    return ap.parse_args(argv)


def run_op(op, i) -> dict:
    """One op, timed, then checked; a failed op is counted, never retried."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as e:
        latency = time.perf_counter() - start
        outcome, detail = "raised", f"{type(e).__name__}: {e}"
    else:
        latency = time.perf_counter() - start
        problem = op.check(out)
        outcome, detail = ("ok", "") if problem is None else ("check-failed", problem)
    return {"i": i, "kind": op.kind, "L": op.L, "latency_s": latency,
            "outcome": outcome, "detail": detail, "parts": op.parts}


def interpreter_loop() -> None:
    """About 20 ms of interpreter steps and numpy calls on short arrays,
    like the per-cube loops of A_inf and the principal cubes."""
    x = np.linspace(0.0, 1.0, 1024)
    out = np.zeros(1024)
    acc = 0.0
    for k in range(2000):
        lo = (k * 37) % 960
        seg = x[lo:lo + 64]
        np.maximum(out[lo:lo + 64], seg * 1.5 + 0.25, out=out[lo:lo + 64])
        acc += float(seg.sum()) + len([j for j in range(20) if j & 1])


# The array loop's N x N blocks, allocated once so that the loop's memory
# is a fixed part of the process from the start and leaves the changes of
# peak RSS to the program.
_CELLS = np.arange(1024)
_BLOCKS = (np.empty((256, 1024), dtype=_CELLS.dtype),) + tuple(
    np.empty((256, 1024)) for _ in range(3))


def array_loop() -> None:
    """About 10 ms of whole-array numpy work on 1024 cells: gathers, powers
    and prefix sums like the bulk Luxemburg bisection, and passes over
    8 MiB of 256 x 1024 blocks like the dense Calderon quadrature."""
    n = len(_CELLS)
    f = np.linspace(0.01, 1.0, n)
    cube = _CELLS // 16
    lam = np.linspace(0.5, 1.5, n // 16)
    for _ in range(40):
        vals = (f / lam[cube]) ** 2.0
        sums = np.concatenate([[0.0], np.cumsum(vals)])
        seg = sums[16::16] - sums[:-16:16]
        lam = np.where(seg <= 1.0, lam * 0.99, lam * 1.01)
    diff, gap, shifted, ratio = _BLOCKS
    rows = len(diff)
    for start in range(0, n, rows):
        np.subtract(_CELLS[start:start + rows, None], _CELLS[None, :], out=diff)
        np.copyto(gap, diff)
        np.add(gap, 0.5, out=shifted)
        np.divide(f[None, :], shifted, out=ratio)
        f[start:start + rows] += 1e-9 * ratio.sum(axis=1)


REFERENCE_LOOPS = {"interpreter": interpreter_loop, "array": array_loop}


def reference_times(names) -> dict:
    """Seconds taken by each named reference loop.  The loops use nothing
    of sparse_harmonics and are timed between ops.  On a shared host the
    same op runs at full or half speed in spells of seconds to minutes, and
    the loops slow with it, interpreter-bound code more than whole-array
    code; each workload names the loops whose geometric mean slows like its
    ops (Workload.reference).  So an op's time over that mean, taken around
    the op, measures the program and not the host.  Changing a loop
    changes every `_ref` metric."""
    times = {}
    for name in names:
        start = time.perf_counter()
        REFERENCE_LOOPS[name]()
        times[name] = time.perf_counter() - start
    return times


def closed_loop(workload, seconds: float, max_ops: int, step) -> None:
    """Closed loop with one client: step(i + 1) starts when step(i) has
    returned.  The loop stops at the first end of a workload cycle after
    `seconds`, so every run has the same mix of op kinds, but never runs
    past HARD_STOP times `seconds`."""
    t0 = time.perf_counter()
    i = 0
    while not (max_ops and i >= max_ops):
        elapsed = time.perf_counter() - t0
        if elapsed >= HARD_STOP * seconds or (
                elapsed >= seconds and i >= workload.lead
                and (i - workload.lead) % workload.cycle == 0):
            break
        step(i)
        i += 1


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import sparse_harmonics

    if root / "src" not in Path(sparse_harmonics.__file__).resolve().parents:
        raise SystemExit(f"sparse_harmonics imported from {sparse_harmonics.__file__}, "
                         f"not from {root / 'src'}")
    from tracing import Tracer
    from workloads import WORKLOADS, golden_diffs

    work = Path(args.work)
    workload = WORKLOADS[args.workload](args.seed, work, args.quick)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    setup_s = time.perf_counter() - START
    if tracer:
        tracer.uninstall()
    result = {"provenance": provenance(args), "setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    ops, plain = [], []
    if not tracer:
        reference_times(workload.reference)  # warm-up, not used
        refs = [reference_times(workload.reference)]

        def step(i):
            ops.append(run_op(workload.op(i), i))
            refs.append(reference_times(workload.reference))

        closed_loop(workload, args.seconds, args.max_ops, step)
        for r, before, after in zip(ops, refs, refs[1:]):
            r["refs"] = {k: (before[k] + after[k]) / 2.0 for k in before}
            r["ref_s"] = math.prod(r["refs"].values()) ** (1.0 / len(r["refs"]))
    else:
        # Each op runs untraced and traced, back to back in alternating
        # order, so that slow drifts in machine speed and first-use costs
        # cancel in the overhead; the traced runs give the layers.
        def paired(i):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced:
                    plain.append(run_op(workload.op(i), i))
                    continue
                tracer.op_id = i
                tracer.install()
                try:
                    ops.append(run_op(workload.op(i), i))
                finally:
                    tracer.uninstall()

        closed_loop(workload, args.seconds / 2, args.max_ops, paired)
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["check_errors"] = workload.final_check()
    # Known defects run after the timed phase and peak RSS, so they change
    # neither the timed ops nor their count of failures.
    if tracer:
        tracer.op_id = "probe"
        tracer.install()
    try:
        result["known_defects"] = [run_op(op, "probe") for op in workload.known_defects()]
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        layers = tracer.metrics()
        plain_s = sum(r["latency_s"] for r in plain)
        traced_s = sum(r["latency_s"] for r in ops)
        layers["trace.overhead_share"] = traced_s / plain_s - 1.0
        layers["golden_diffs"] = golden_diffs(work, args.quick)
        layers["failed_share"] = sum(r["outcome"] != "ok" for r in ops) / len(ops)
        layers["known_defects.failed"] = sum(
            r["outcome"] != "ok" for r in result["known_defects"])
        result["per_layer"] = layers
        result["untraced_ops"] = plain
        missing = [m for m in workload.expected_layers
                   if m not in tracer.modules_with_op_spans()]
        if missing:
            result["check_errors"].append(f"no spans in layers {missing} during the ops")
        op_time = sum(r["latency_s"] for r in ops)
        result["op_self_share"] = {
            name: s / op_time for name, s in tracer.op_self_time().most_common()
        }
        result["op_inclusive_share"] = {
            name: s / op_time for name, s in tracer.op_inclusive_time().most_common()
        }
        with gzip.open(Path(args.result).with_suffix(".spans.json.gz"), "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
