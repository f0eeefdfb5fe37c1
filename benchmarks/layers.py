"""Layer timings of sparse_harmonics: the kernels of ROADMAP aim 1 at
L in {8, 10, 12, 14}, and the cold import of the CLI.

Each row is the median of repeated calls (3 at L = 14), with `grid.MEMO`
emptied before each call and the cube family of the domain built before the
first (except in the family row itself).  Inputs: a uniform random f and a
on [0, 1) (Stein at alpha = 1.5, and at 0.75, where the band-edge factor
(1 - |xi|^2/t^2)^(alpha - 1) is singular), and the CLI's bump
exp(-120 (x - 1/2)^2) for M_{L log L}, where the upper bounds set how many
cubes are solved; b = log|x - 1/2| for BMO
and [b,H]; a log-normal weight, the CLI's step weight 1 + 3 chi_[0,1/2)
(whose wide cubes reach the sup, so the sweep runs) and the constant
weight for A_inf, and the log-normal weight under the weak Lorentz quasinorm of [b,H] f.  The
cold import is the wall time of a fresh interpreter that imports
`sparse_harmonics.cli`.

Run from the repository root:

    PYTHONPATH=src python benchmarks/layers.py [--levels 8,10,12,14] [--out BENCH_1.json]

Without --out it writes the first BENCH_<n>.json that does not exist yet in
the current directory.  The JSON holds the core count and the Python, numpy
and scipy versions with the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from sparse_harmonics import grid, harness, maximal, operators, weights
from sparse_harmonics.grid import Domain, DyadicCube, GridFunction


def _rows(dom: Domain) -> dict:
    """Row name -> a call that times one kernel on dom."""
    rng = np.random.default_rng(dom.resolution_log2)
    N = dom.n_cells
    f = GridFunction(dom, rng.uniform(0.0, 1.0, N))
    a = GridFunction(dom, rng.uniform(0.0, 1.0, N))
    bump = GridFunction.from_callable(dom, lambda x: np.exp(-120.0 * (x - 0.5) ** 2))
    b = GridFunction.from_callable(dom, lambda x: np.log(np.abs(x - 0.5)))
    bh = harness.hilbert_bundle([b])
    tbf = bh.apply([f])
    lognormal = weights.Weight(GridFunction(dom, np.exp(rng.standard_normal(N))), "lognormal")
    step = weights.Weight(GridFunction(dom, 1.0 + 3.0 * (dom.cell_centers() < 0.5)), "step")
    one = weights.Weight(GridFunction.constant(dom, 1.0), "one")
    root = DyadicCube(0, 0, 0)
    return {
        "CubeFamily build": lambda: grid.CubeFamily(dom),
        "M_hl": lambda: maximal.maximal(f),
        "M_{L log L}": lambda: maximal.multilinear_maximal([f], "llogl"),
        "M_{L log L}, two inputs": lambda: maximal.multilinear_maximal([f, a], "llogl"),
        "M_{L log L}, bump f": lambda: maximal.multilinear_maximal([bump], "llogl"),
        "Hilbert": lambda: operators.hilbert_transform(f),
        "Stein (alpha = 1.5)": lambda: operators.stein_square_function(f, 1.5),
        "Stein (alpha = 0.75)": lambda: operators.stein_square_function(f, 0.75),
        "Calderon m = 1": lambda: operators.calderon_apply([f, a]),
        "Calderon m = 3": lambda: operators.calderon_apply([f, a, a, a]),
        "BMO": lambda: operators.bmo_norm(b),
        "principal cubes on [b,H] f": lambda: harness.principal_cubes(tbf, root),
        "mixed-min decay, [b,H]": lambda: harness.local_decay_experiment(bh, [f], root),
        "weak Lorentz L^{1/2,inf}(w)": lambda: harness.lorentz_quasinorm(tbf, 0.5, lognormal),
        "A_inf (log-normal weight)": lambda: weights.ainfty_constants(lognormal),
        "A_inf (step weight)": lambda: weights.ainfty_constants(step),
        "A_inf (constant weight)": lambda: weights.ainfty_constants(one),
    }


def time_layers(levels: list[int], repeats: int) -> dict:
    """{row: {L: median ms}} over the levels."""
    out: dict = {}
    for L in levels:
        dom = Domain(0.0, 1.0, L)
        grid.family_for(dom)
        n = min(repeats, 3) if L >= 14 else repeats
        for name, call in _rows(dom).items():
            times = []
            for _ in range(n):
                grid.MEMO.clear()
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            out.setdefault(name, {})[str(L)] = 1e3 * statistics.median(times)
    return out


def cold_import(repeats: int) -> dict:
    """Wall time of fresh interpreters that import the CLI."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sparse_harmonics.cli"], check=True)
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "runs_s": times}


def next_bench_path(directory: Path) -> Path:
    n = 1
    while (directory / f"BENCH_{n}.json").exists():
        n += 1
    return directory / f"BENCH_{n}.json"


def main(argv=None) -> Path:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--levels", default="8,10,12,14", help="comma-separated L values")
    ap.add_argument("--repeats", type=int, default=5, help="calls per row (at most 3 at L >= 14)")
    ap.add_argument("--out", default=None, help="output path (default: next BENCH_<n>.json)")
    args = ap.parse_args(argv)
    levels = [int(x) for x in args.levels.split(",")]
    result = {
        "env": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "levels": levels,
        "repeats": args.repeats,
        "unit": "ms, median of the repeats",
        "layers": time_layers(levels, args.repeats),
        "cold_import_cli": cold_import(args.repeats),
    }
    out = Path(args.out) if args.out else next_bench_path(Path.cwd())
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return out


if __name__ == "__main__":
    print(main())
