"""The benchmark's workloads.

Each workload builds its inputs from the seed alone, sets itself up, and
hands out numbered ops.  An op is one call into the program (`run`, the
part that is timed) and a check of what that call produced (`check`,
untimed).  Op `i` depends only on the seed and `i`, so a traced run can
repeat an op exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

# Calls go through the module objects so that a traced run sees them.
from sparse_harmonics import cli, harness, maximal
from sparse_harmonics.grid import Domain, GridFunction
from sparse_harmonics.orlicz import power
from sparse_harmonics.weights import Weight

REL_TOL = 1e-12  # slack on orderings the tests assert with +1e-12
VERDICTS = ("holds", "holds-with-margin", "violated", "degenerate")
VERDICT_CODES = (0, 3, 4)


@dataclass
class Op:
    kind: str
    L: int
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output passes
    # An op made of several program calls times each one here, as
    # {"kind", "L", "latency_s"}, so a slow op can be traced to its part.
    parts: list = field(default_factory=list)

    def part(self, kind: str, L: int, call: Callable[[], object]):
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.parts.append({"kind": kind, "L": L,
                               "latency_s": time.perf_counter() - start})


def run_cli(argv: list[str]) -> int:
    """cli.main with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for section, body in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in body.items()]
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def golden_diffs(work: Path, quick: bool) -> int:
    """Fields of the shipped fixtures that a fresh run reproduces outside
    `diff-fixtures`' tolerance, counted by the package's own comparator; a
    file the run did not write counts once.  The quick mode skips the
    L = 9 constants bank to stay fast."""
    fixtures = cli.fixtures_dir()
    out = work / "golden"
    out.mkdir(parents=True, exist_ok=True)
    run_cli(["run", str(fixtures / "sharpness.ini"), "--out", str(out)])
    if not quick:
        run_cli(["constants", str(fixtures / "weight_bank.ini"), "--out", str(out)])
    count = 0
    for name in cli.list_fixtures():
        if not name.endswith((".json", ".csv")):
            continue
        if quick and name == "constants.csv":
            continue
        if not (out / name).is_file():
            count += 1
            continue
        count += len(cli.diff_fixture_file(fixtures / name, out / name))
    return count


class Workload:
    name = ""
    # Modules that must record spans during the ops of a traced run.
    expected_layers: tuple = ()
    # Ops lead, lead+1, ... repeat the same mix of kinds every `cycle` ops.
    lead = 0
    cycle = 1
    # Reference loops (worker.REFERENCE_LOOPS) whose geometric mean slows
    # like the ops when the host is busy, chosen by measurement: over ten
    # seeds the interpreter loop alone left weight-bank's op_p50_ref
    # spread 0.05 and both loops 0.13; both loops left config-stream's
    # 0.03, the interpreter loop alone 0.08.
    reference = ("interpreter",)

    def __init__(self, seed: int, work: Path, quick: bool):
        self.seed = seed
        self.work = work
        self.quick = quick
        self.out = work / "out"

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        """Run-level output checks, made after the timed phase."""
        return []

    def known_defects(self) -> Iterator[Op]:
        """Ops that fail today, made one at a time, run once after the timed
        phase and reported apart from the timed ops."""
        return iter(())

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)


# -- weight-bank --------------------------------------------------------------

class WeightBank(Workload):
    """A stream of CLI `constants` commands, each one bank at L = 9 with
    p_grid = 1.5,2,4.  Op 0 is the shipped weight_bank.ini (5 weights);
    every later op is a seeded bank of one weight drawn from power:a with
    a seeded a, step, spike and exp.  A_inf costs the same for every
    weight, so every seeded op does the same work, and ops of under a
    second give a run enough of them for a steady lower quartile.

    Why: weights.ainfty_constants runs one maximal.maximal call per cube
    and takes nearly all the time here, so this is the workload for a
    faster A_inf (ROADMAP item 2).  It never reaches operators, the
    Luxemburg kernel or sparse, so it is the no-change side for those."""

    name = "weight-bank"
    expected_layers = ("weights", "cli")
    lead = 1
    SHIPPED_SIZE = 5
    BANK_SIZE = 1
    P_GRID = (1.5, 2.0, 4.0)

    def setup(self) -> None:
        self.L = 5 if self.quick else 9
        maximal.family_for(Domain(0.0, 1.0, self.L))
        self.banks = self.work / "banks"
        self.banks.mkdir(parents=True, exist_ok=True)
        shipped = cli.fixtures_dir() / "weight_bank.ini"
        cfg = cli.parse_config(str(shipped))
        if len(cfg["bank"]["weights"].split(",")) != self.SHIPPED_SIZE:
            raise ValueError(f"{shipped} no longer holds {self.SHIPPED_SIZE} weights")
        if self.quick:
            cfg["experiment"]["l"] = str(self.L)
            shipped = write_ini(self.banks / "shipped.ini", cfg)
        self.shipped = shipped

    def _spec(self, rng: np.random.Generator) -> str:
        kind = rng.choice(["power", "power", "step", "spike", "exp"])  # power 2 in 5
        if kind == "power":
            return f"power:{rng.uniform(-0.45, 0.9):.4f}"
        return str(kind)

    def op(self, i: int) -> Op:
        if i == 0:
            return self._bank_op("shipped-bank", self.shipped, self.SHIPPED_SIZE)
        rng = self.rng(i)
        specs = [self._spec(rng) for _ in range(self.BANK_SIZE)]
        path = write_ini(self.banks / f"bank-{i % 2}.ini", {
            "experiment": {"kind": "constants", "l": self.L},
            "bank": {"weights": ",".join(specs),
                     "p_grid": ",".join(str(p) for p in self.P_GRID)},
        })
        return self._bank_op(f"bank-{self.BANK_SIZE}", path, self.BANK_SIZE)

    def _bank_op(self, kind: str, path: Path, n_weights: int) -> Op:
        self.clear_outputs()
        argv = ["constants", str(path), "--out", str(self.out)]
        return Op(kind, self.L, lambda: run_cli(argv),
                  lambda rc: self._check(rc, n_weights))

    def _check(self, rc, n_weights: int) -> Optional[str]:
        if rc != 0:
            return f"constants exited {rc}"
        with open(self.out / "constants.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n_weights * len(self.P_GRID):
            return f"{len(rows)} rows for {n_weights} weights"
        for k in range(n_weights):
            group = rows[3 * k : 3 * k + 3]
            a = {float(r["p"]): float(r["ap"]) for r in group}
            chain = [1.0, a[4.0], a[2.0], a[1.5], float(group[0]["a1"])]
            for lo, hi in zip(chain, chain[1:]):
                if not lo <= hi * (1.0 + REL_TOL):
                    return f"{group[0]['weight']}: A_p chain {chain} not monotone"
            fw = float(group[0]["ainfty_fw"])
            if not fw >= 1.0 - REL_TOL:
                return f"{group[0]['weight']}: ainfty_fw = {fw} < 1"
        return None


# -- ratio-suite --------------------------------------------------------------

class RatioSuite(Workload):
    """Library calls in the style of acceptance criteria 7-9 at L = 10:
    Hilbert and Calderon m = 1 bundles with 0 or 1 symbol, times the kinds
    cf (p = 0.5, 1, 2), mixed, fs and modular, against a fixed set of three
    weights built and warmed in setup.  A case is one bundle with its seeded
    inputs f (and symbol b).  An op is half of the suite, the 4 bundles
    times the kinds of one of HALVES, for one weight; every cycle of 6 ops
    (each half for each weight) draws one case per bundle and shares its f
    across all weights and p.  The halves cost the same to within a few
    per cent, so the lower quartile of the op latencies is not set by where
    it falls in a mix of cheap and dear experiments.

    Why: maximal.luxemburg_per_cube and operators.calderon_apply take most
    of the op time, and A_inf is paid only in set-up.  This is the workload
    for Calderon and M_{L log L} changes (ROADMAP items 3 and 4), and the
    one with repeated M_{L log L} inputs."""

    name = "ratio-suite"
    expected_layers = ("maximal", "operators", "harness")
    BUNDLES = ("hilbert-l0", "hilbert-l1", "calderon-l0", "calderon-l1")
    HALVES = (("cf-p0.5", "cf-p2", "fs"), ("cf-p1", "mixed", "modular"))
    cycle = 6  # each half for each of the three weights
    reference = ("interpreter", "array")

    def setup(self) -> None:
        self.L = 6 if self.quick else 10
        dom = self.dom = Domain(0.0, 1.0, self.L)
        maximal.family_for(dom)
        eps = dom.h / 4
        self.one = Weight(GridFunction.constant(dom, 1.0), "one")
        self.weights = [
            self.one,
            Weight(GridFunction.from_callable(
                dom, lambda x: np.abs(x - 0.5) ** (1.0 / 3.0) + eps), "p13"),
            Weight(GridFunction.from_callable(
                dom, lambda x: (np.abs(x - 0.5) + eps) ** (-1.0 / 3.0)), "m13"),
        ]
        for w in self.weights:
            w.ainfty()
        self.phi = power(2.0)
        self._cases: dict = {}
        self.first_cf: dict = {}  # bundle name -> (kind, bundle, fs, w, ratio) of its first cf op

    def _case(self, cycle: int, b: int):
        key = (cycle, b)
        if key not in self._cases:
            self._cases = {k: v for k, v in self._cases.items() if k[0] == cycle}
            rng = self.rng(cycle, b)
            dom = self.dom
            symbol = []
            if self.BUNDLES[b].endswith("l1"):
                freq, slope = rng.uniform(2.0, 4.0), rng.uniform(0.0, 0.4)
                symbol = [GridFunction.from_callable(
                    dom, lambda x: np.sin(freq * x) + slope * x)]
            if self.BUNDLES[b].startswith("hilbert"):
                bundle = harness.hilbert_bundle(symbol)
            else:
                bundle = harness.calderon_bundle(1, symbol, [0] * len(symbol))
            fs = [GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))
                  for _ in range(bundle.m)]
            self._cases[key] = (bundle, fs)
        return self._cases[key]

    def _experiment(self, kind: str, bundle, fs, w):
        if kind.startswith("cf"):
            return harness.coifman_fefferman_experiment(bundle, fs, float(kind[4:]), w)
        if kind == "mixed":
            return harness.mixed_weak_experiment(bundle, fs, [w] * bundle.m, self.one, t=2.0)
        if kind == "fs":
            ps = [1.0] if bundle.m == 1 else [2.0] * bundle.m
            return harness.fefferman_stein_experiment(bundle, fs, ps, [w] * bundle.m)
        return harness.modular_experiment(bundle, fs, self.phi, 1.2, 1.5, w)

    def op(self, i: int) -> Op:
        cycle, j = divmod(i, self.cycle)
        half, w = divmod(j, len(self.weights))
        kinds, w = self.HALVES[half], self.weights[w]
        cases = [self._case(cycle, b) for b in range(len(self.BUNDLES))]

        def run():
            results = []
            for kind in kinds:
                for name, (bundle, fs) in zip(self.BUNDLES, cases):
                    rep = op.part(f"{kind}:{name}", self.L,
                                  lambda: self._experiment(kind, bundle, fs, w))
                    results.append((kind, name, rep))
            return results

        def check(results):
            for kind, name, rep in results:
                if not (math.isfinite(rep.ratio) and rep.ratio >= 0.0):
                    return f"{kind}:{name} ratio {rep.ratio!r}"
                if kind.startswith("cf") and name not in self.first_cf:
                    bundle, fs = cases[self.BUNDLES.index(name)]
                    self.first_cf[name] = (kind, bundle, fs, w, rep.ratio)
            return None

        op = Op(f"half-{half}:{w.name}", self.L, run, check)
        return op

    def final_check(self) -> list[str]:
        """f -> 3f leaves each bundle's cf ratio unchanged (rel 1e-9)."""
        errors = []
        for name, (kind, bundle, fs, w, ratio) in self.first_cf.items():
            scaled = self._experiment(kind, bundle, [3.0 * f for f in fs], w).ratio
            if not abs(scaled - ratio) <= 1e-9 * abs(ratio) + 1e-12:
                errors.append(f"{name}: cf ratio {ratio!r} became {scaled!r} under f -> 3f")
        return errors


# -- config-stream ------------------------------------------------------------

def _weight_spec(rng: np.random.Generator) -> str:
    kind = rng.choice(["power", "exp", "step"])
    return f"power:{rng.uniform(-0.4, 0.0):.4f}" if kind == "power" else str(kind)


def _decay(L, operator, bank, comparator, rng, symbol=None, weight=None) -> dict:
    cfg = {"experiment": {"kind": "decay", "l": L, "seed": int(rng.integers(1 << 30))},
           "operator": operator}
    if symbol:
        cfg["symbols"] = {"b": symbol}
    cfg["functions"] = {"bank": bank, "seed": int(rng.integers(1 << 30))}
    cfg["params"] = {"comparator": comparator}
    if weight:
        cfg["weights"] = {"w": weight}
    return cfg


def _mixed(L, rng, w=None) -> dict:
    symbol = rng.choice(["", "sin", "x"])
    cfg = {"experiment": {"kind": "mixed", "l": L, "seed": int(rng.integers(1 << 30))},
           "operator": {"kind": "hilbert"}}
    if symbol:
        cfg["symbols"] = {"b": symbol}
    cfg["functions"] = {"bank": rng.choice(["random", "steps"]),
                        "seed": int(rng.integers(1 << 30))}
    v = rng.choice(["one", "step", "power"])
    if v == "power":
        v = f"power:{rng.uniform(0.05, 0.5):.4f}"
    cfg["weights"] = {"w": w or _weight_spec(rng), "v": v}
    cfg["params"] = {"t": f"{rng.uniform(1.5, 3.0):.4f}"}
    return cfg


HILBERT = {"kind": "hilbert"}


def _stein(rng) -> dict:
    return {"kind": "stein", "alpha": f"{rng.uniform(0.6, 2.0):.4f}"}


def _wave(rng) -> str:
    return f"wave:{int(rng.integers(1, 9))}"


def _mm(symbol, bank, weighted):
    """Builder of a Hilbert mixed-min decay config; `bank` takes the rng."""
    return lambda L, r: _decay(L, HILBERT, bank(r), "mixed-min", r, symbol=symbol,
                               weight=_weight_spec(r) if weighted else None)


# One config-stream op: (config kind, L, config builder), run in turn.
# Every op has the same mix of routes, banks and grid sizes; the seed draws
# the content (function and symbol seeds, wave numbers, weight exponents,
# alpha, t).  A fixed mix keeps an op's cost the same for every seed.
# Under a log symbol the banks are deterministic: with seeded ones
# fit_exponent fails at a seed-dependent rate.
CONFIG_SLOTS = (
    ("decay-hilbert-mixed-min", 12, _mm("log", _wave, False)),
    ("decay-hilbert-mixed-min-weighted", 12, _mm("log", lambda r: "bump", True)),
    ("decay-hilbert-llogl", 12, lambda L, r: _decay(
        L, HILBERT, _wave(r), "llogl", r, symbol="logmid")),
    ("decay-hilbert-mixed-min-weighted", 12, _mm(None, lambda r: "steps", True)),
    ("decay-stein", 10, lambda L, r: _decay(L, _stein(r), "random", "mixed-min", r)),
    ("decay-hilbert-mixed-min", 12, _mm(None, lambda r: "steps", False)),
    ("mixed-hilbert", 12, lambda L, r: _mixed(L, r)),
    ("decay-hilbert-mixed-min-weighted", 12, _mm("log", lambda r: "indicator", True)),
    # A seeded steps symbol here makes fit_exponent overflow on about 1 draw
    # in 400 (see KNOWN_DEFECTS); the seed draws the bank instead.
    ("decay-hilbert-llogl", 10, lambda L, r: _decay(
        L, HILBERT, "steps", "llogl", r, symbol="steps:1")),
    ("decay-hilbert-mixed-min-weighted", 12, _mm(None, lambda r: "random", True)),
    ("decay-stein", 12, lambda L, r: _decay(L, _stein(r), "random", "llogl", r)),
    ("decay-hilbert-mixed-min", 10, _mm("log", _wave, False)),
    ("decay-hilbert-mixed-min-weighted", 12, _mm(None, _wave, True)),
)


# Configs that fail today, run once per run after the timed phase and
# reported apart from the ops, so that a run's failure count does not
# depend on how many cycles it reaches.  (name, L, config builder)
KNOWN_DEFECTS = (
    # ROADMAP item 5's config, verbatim: fit_exponent raises OverflowError.
    ("item5-decay-hilbert-log-steps-mixed-min", 10, lambda L, r: {
        "experiment": {"kind": "decay", "l": L, "seed": 0},
        "operator": HILBERT, "symbols": {"b": "log"},
        "functions": {"bank": "steps"}, "params": {"comparator": "mixed-min"},
    }),
    # A spike weight overflows weights.k0_p0 in the mixed experiment.
    ("mixed-hilbert-spike", 12, lambda L, r: _mixed(L, r, w="spike")),
    # A draw of the llogl slot with a seeded steps symbol: fit_exponent
    # raises OverflowError.
    ("llogl-steps546-decay-hilbert", 10, lambda L, r: {
        "experiment": {"kind": "decay", "l": L, "seed": 0},
        "operator": HILBERT, "symbols": {"b": "steps:546"},
        "functions": {"bank": "steps", "seed": 945488650},
        "params": {"comparator": "llogl"},
    }),
)


class ConfigStream(Workload):
    """A seeded stream of fresh CLI `run` configs.  Op 0 is the shipped
    sharpness.ini; every later op runs one fresh config for each slot of
    CONFIG_SLOTS, of kinds decay (Hilbert and Stein routes, mixed-min and
    llogl comparators, optional weights) and mixed, at L = 10 and 12.  The
    configs cost from 10 to 200 ms each; batched, every op does the same
    work, so the op latencies have one mode.  cf, fs and modular are
    left out on purpose: with fresh weights A_inf would swamp them, and
    weight-bank already covers A_inf.  The configs in KNOWN_DEFECTS raise
    OverflowError today; they run once per run after the timed phase.

    Why: harness.principal_cubes takes the largest share of the time here,
    through grid.average and grid.children, and the ops exercise cli I/O,
    sparse and harness.fit_exponent.  The M_{L log L} inputs (seeded banks
    of the mixed configs) never repeat, so this is the side without
    repeats for a memo."""

    name = "config-stream"
    expected_layers = ("harness", "sparse", "operators", "cli")
    lead = 1
    reference = ("interpreter", "array")

    def setup(self) -> None:
        self.sizes = {10: 6, 12: 7} if self.quick else {10: 10, 12: 12}
        for L in self.sizes.values():
            maximal.family_for(Domain(0.0, 1.0, L))
        self.configs = self.work / "configs"
        self.configs.mkdir(parents=True, exist_ok=True)
        self.sharpness = cli.fixtures_dir() / "sharpness.ini"

    def op(self, i: int) -> Op:
        if i == 0:
            return self._batch_op("sharpness-fixture", [("sharpness-fixture", 14, self.sharpness)])
        configs = []
        for k, (kind, L, build) in enumerate(CONFIG_SLOTS):
            L = self.sizes[L]
            path = write_ini(self.configs / f"config-{k}.ini", build(L, self.rng(i, k)))
            configs.append((kind, L, path))
        return self._batch_op("config-cycle", configs)

    def known_defects(self) -> Iterator[Op]:
        for k, (kind, L, build) in enumerate(KNOWN_DEFECTS):
            L = self.sizes[L]
            path = write_ini(self.configs / f"{kind}.ini", build(L, self.rng(1 << 20, k)))
            yield self._batch_op(kind, [(kind, L, path)])

    def _batch_op(self, kind: str, configs: list) -> Op:
        """One op that runs each (kind, L, path) config in turn through the
        CLI, each into an output directory of its own."""
        self.clear_outputs()
        outs = [self.out / str(k) for k in range(len(configs))]

        def run():
            return [op.part(ckind, L, lambda: run_cli(["run", str(path), "--out", str(out)]))
                    for (ckind, L, path), out in zip(configs, outs)]

        def check(rcs):
            for (ckind, L, _), out, rc in zip(configs, outs, rcs):
                problem = self._check(rc, out)
                if problem is not None:
                    return f"{ckind} (L={L}): {problem}"
            return None

        op = Op(kind, max(L for _, L, _ in configs), run, check)
        return op

    def _check(self, rc, out: Path) -> Optional[str]:
        if rc not in VERDICT_CODES:
            return f"run exited {rc}"
        payload = json.loads((out / "report.json").read_text())
        verdicts = [r["verdict"] for r in payload["reports"]]
        if not verdicts or any(v not in VERDICTS for v in verdicts):
            return f"verdicts {verdicts}"
        return None


WORKLOADS = {w.name: w for w in (WeightBank, RatioSuite, ConfigStream)}
