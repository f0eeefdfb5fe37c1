"""Command-line front end: experiment configs, fixture management, CSV/JSON
reports and static SVG plots.

Configs are flat INI files, one experiment per file; `KEYS` holds every key
each kind reads, with its default, and any other key is rejected.  Exit
codes: 0 all verdicts acceptable, 2 config error, 3 degenerate, 4 violated.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .grid import Domain, DyadicCube, GridFunction
from .harness import (
    DecayCurve,
    OperatorBundle,
    VerificationReport,
    calderon_bundle,
    coifman_fefferman_experiment,
    default_t_grid,
    fefferman_stein_experiment,
    hilbert_bundle,
    local_decay_experiment,
    mixed_weak_experiment,
    modular_experiment,
    sharpness_experiment,
    stein_bundle,
)
from .operators import check_expansion
from .orlicz import llog, power
from .weights import Weight, write_constants_csv

__all__ = [
    "ConfigError",
    "parse_config",
    "make_weight",
    "make_symbol",
    "make_function",
    "make_phi",
    "run_experiment",
    "constants_rows",
    "write_svg_plot",
    "fixtures_dir",
    "list_fixtures",
    "diff_fixture_file",
    "main",
]


class ConfigError(ValueError):
    pass


KINDS = ("decay", "cf", "mixed", "fs", "modular", "constants", "sharpness")

# The most points of a decay t grid.  Each point costs a pass over Q0's
# cells and a row of curves.csv, so the grid is bounded like l is: 2^12
# points, 128 times the largest grid of any shipped config or benchmark,
# add about 0.3 s and 110 kB to a run at l = 16.
MAX_T_POINTS = 1 << 12

# kind -> {(section, key): default}; a kind that reads [operator] kind also
# reads the rows of that operator kind.  A default of None: [experiment] kind
# is required, and [functions] seed defaults to the experiment seed.
_EVERY = {("experiment", "kind"): None, ("experiment", "l"): "10", ("output", "dir"): "."}
_OPERATOR = _EVERY | {
    ("experiment", "seed"): "0", ("operator", "kind"): "hilbert", ("symbols", "b"): "",
    ("functions", "bank"): "indicator", ("functions", "seed"): None}
_BOUND = _OPERATOR | {("experiment", "slack"): "10", ("weights", "w"): "one"}
KEYS = {
    "decay": _OPERATOR | {
        ("weights", "w"): "", ("params", "comparator"): "mixed-min", ("params", "t_lo"): "0.5",
        ("params", "t_hi"): "50", ("params", "t_points"): "24"},
    "cf": _BOUND | {("params", "p"): "2"},
    "mixed": _BOUND | {("weights", "v"): "one", ("params", "t"): "2"},
    "fs": _BOUND | {("params", "ps"): "1"},
    "modular": _BOUND | {
        ("params", "p"): "power:2", ("params", "q"): "1.2", ("params", "r"): "1.5"},
    "constants": _EVERY | {("bank", "weights"): "one", ("bank", "p_grid"): "1.5,2,4"},
    "sharpness": _EVERY | {("experiment", "seed"): "0", ("params", "bounded_symbol"): "no"},
    "hilbert": {},
    "calderon": {("operator", "m"): "1"},
    "stein": {("operator", "alpha"): "1.0"},
}


def _rows(cfg: dict) -> dict:
    """The KEYS rows of cfg's kind, with those of its operator kind."""
    rows = KEYS[cfg["experiment"]["kind"]]
    if ("operator", "kind") not in rows:
        return rows
    op = cfg.get("operator", {}).get("kind", rows["operator", "kind"])
    if op not in ("hilbert", "calderon", "stein"):
        raise ConfigError(f"unknown operator kind {op!r}")
    return rows | KEYS[op]


def _value(cfg: dict, section: str, key: str, cast: type = str):
    """[section] key of cfg, else its default from KEYS, read by cast."""
    text = cfg.get(section, {}).get(key, _rows(cfg)[section, key])
    return text if text is None else _number(text, f"[{section}] {key}", cast)


def parse_config(path) -> dict:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
        cfg = {s: dict(cp.items(s)) for s in cp.sections()}
    except configparser.Error as e:  # no section header, a duplicate, a bad %
        raise ConfigError(str(e)) from e
    if not read:
        raise ConfigError(f"cannot read config {path}")
    kind = cfg.get("experiment", {}).get("kind")
    if kind not in KINDS:
        raise ConfigError(f"experiment kind must be one of {KINDS}")
    rows = _rows(cfg)
    for section, items in cfg.items():
        for key in items:
            if (section, key) not in rows:  # named after its section's kind, if it has one
                owner = _value(cfg, section, "kind") if (section, "kind") in rows else kind
                raise ConfigError(f"[{section}] {key} does not apply to kind {owner!r}")
        if section not in {s for s, _ in rows}:
            raise ConfigError(f"[{section}] does not apply to kind {kind!r}")
    return cfg


def _number(text: str, what: str, cast: type = float):
    """text read by cast (str, int or float); a config error that names what
    (the key, the variable or the spec) if it does not parse or reads NaN."""
    try:
        value = cast(text)
        if cast is float and math.isnan(value):
            raise ValueError
    except ValueError:
        noun = "an integer" if cast is int else "a number"
        raise ConfigError(f"{what}: {text!r} is not {noun}") from None
    return value


def _spec_number(spec: str, cast: type = float):
    """The number after the colon of a spec such as power:2."""
    return _number(spec.split(":", 1)[1], f"spec {spec!r}", cast)


def _seed(text: str, what: str) -> int:
    """A seed for numpy's generator, an integer >= 0; else a config error naming what."""
    seed = _number(text, what, int)
    if seed < 0:
        raise ConfigError(f"{what}: {text!r} is negative; a seed is at least 0")
    return seed


# -- named generators --------------------------------------------------------

def make_weight(spec: str, dom: Domain) -> Weight:
    spec = spec.strip()
    if spec == "one":
        return Weight(GridFunction.constant(dom, 1.0), "one")
    if spec.startswith("power:"):
        a = _spec_number(spec)
        return Weight(
            GridFunction.from_callable(dom, lambda x: np.abs(x - 0.5) ** a), spec
        )
    if spec == "exp":
        return Weight(GridFunction.from_callable(dom, lambda x: np.exp(x)), spec)
    if spec == "step":
        g = GridFunction.indicator(dom, dom.left, dom.left + dom.length / 2)
        return Weight(GridFunction(dom, 1.0 + 3.0 * g.samples), spec)
    if spec == "spike":
        s = np.ones(dom.n_cells)
        s[dom.n_cells // 2] += 1e3
        return Weight(GridFunction(dom, s), spec)
    raise ConfigError(f"unknown weight spec {spec!r}")


def make_symbol(spec: str, dom: Domain) -> GridFunction:
    spec = spec.strip()
    if spec == "log":
        return GridFunction.from_callable(dom, lambda x: np.log(x - dom.left))
    if spec == "logmid":
        return GridFunction.from_callable(dom, lambda x: np.log(np.abs(x - 0.5)))
    if spec == "sin":
        return GridFunction.from_callable(dom, lambda x: np.sin(2 * math.pi * x))
    if spec == "x":
        return GridFunction.from_callable(dom, lambda x: x)
    if spec.startswith("steps:"):
        rng = np.random.default_rng(_seed(spec.split(":", 1)[1], f"spec {spec!r}"))
        return _blocks(spec, rng.uniform(-1.0, 1.0, 16), dom)
    raise ConfigError(f"unknown symbol spec {spec!r}")


def _blocks(spec: str, blocks: np.ndarray, dom: Domain) -> GridFunction:
    """Each block held over N / len(blocks) cells; a grid with fewer cells
    than blocks is a config error."""
    if dom.n_cells < len(blocks):
        raise ConfigError(
            f"spec {spec!r} holds {len(blocks)} blocks, so it needs "
            f"l >= {len(blocks).bit_length() - 1}, got l = {dom.resolution_log2}"
        )
    return GridFunction(dom, np.repeat(blocks, dom.n_cells // len(blocks)))


def make_function(spec: str, dom: Domain, seed: int) -> GridFunction:
    spec = spec.strip()
    if spec == "indicator":
        return GridFunction.constant(dom, 1.0)
    if spec == "bump":
        return GridFunction.from_callable(
            dom, lambda x: np.exp(-120.0 * (x - 0.5) ** 2)
        )
    if spec == "steps":
        return _blocks(spec, np.random.default_rng(seed).uniform(0.1, 1.0, 32), dom)
    if spec.startswith("wave:"):
        k = _spec_number(spec, int)
        return GridFunction.from_callable(dom, lambda x: np.sin(2 * math.pi * k * x))
    if spec == "random":
        rng = np.random.default_rng(seed)
        return GridFunction(dom, rng.uniform(-1.0, 1.0, dom.n_cells))
    raise ConfigError(f"unknown function spec {spec!r}")


def make_phi(spec: str):
    spec = spec.strip()
    if spec.startswith("power:"):
        return power(_spec_number(spec))
    if spec.startswith("llog:"):
        return llog(_spec_number(spec))
    raise ConfigError(f"unknown growth function spec {spec!r}")


# -- experiment dispatch -----------------------------------------------------

def _resolve_seed(cfg: dict) -> int:
    env = os.environ.get("SPARSE_HARMONICS_SEED")
    if env is not None:
        return _seed(env, "SPARSE_HARMONICS_SEED")
    return _seed(_value(cfg, "experiment", "seed"), "[experiment] seed")


def _build_bundle(cfg: dict, dom: Domain) -> OperatorBundle:
    kind = _value(cfg, "operator", "kind")
    specs = [s for s in _value(cfg, "symbols", "b").split(",") if s.strip()]
    m = _value(cfg, "operator", "m", int) if kind == "calderon" else 0
    check_expansion(dom.resolution_log2, m, len(specs))  # before a symbol or input is built
    bs = [make_symbol(s, dom) for s in specs]
    if kind == "hilbert":
        return hilbert_bundle(bs)
    if kind == "calderon":
        return calderon_bundle(m, bs, tuple(range(len(bs))))
    if bs:
        raise ConfigError("stein operator takes no symbols")
    return stein_bundle(_value(cfg, "operator", "alpha", float))


def _per_slot(values: list, m: int, key: str) -> list:
    """One value per slot of the m slots: the values as given, or a single
    value repeated; any other count is a config error naming the key."""
    if len(values) == 1:
        return values * m
    if len(values) != m:
        raise ConfigError(
            f"{key} gives {len(values)} values for {m} slot{'s' * (m != 1)}: "
            "give one value, or one per slot")
    return values


def _functions(cfg: dict, dom: Domain, seed: int, m: int) -> list[GridFunction]:
    specs = [s for s in _value(cfg, "functions", "bank").split(",") if s.strip()]
    specs = _per_slot(specs, m, "[functions] bank")
    return [make_function(s, dom, seed + i) for i, s in enumerate(specs)]


def _weights(cfg: dict, dom: Domain, m: int) -> list[Weight]:
    ws = [make_weight(s, dom) for s in _value(cfg, "weights", "w").split(",")]
    return _per_slot(ws, m, "[weights] w")


def run_experiment(cfg: dict, out_dir: Path) -> list[VerificationReport]:
    """Run the experiment of cfg and write its files into out_dir, which is
    made only once every value was read and accepted: a config error leaves
    no directory behind."""
    kind = cfg["experiment"]["kind"]
    rows = _rows(cfg)
    L = _value(cfg, "experiment", "l", int)
    if kind == "constants":  # its banks draw nothing, so it reads no seed
        table = constants_rows(cfg, Domain(0.0, 1.0, L))
        out_dir.mkdir(parents=True, exist_ok=True)
        write_constants_csv(out_dir / "constants.csv", table)
        return []
    seed = _resolve_seed(cfg)
    if ("experiment", "slack") in rows:
        slack = _value(cfg, "experiment", "slack", float)
        if not 1.0 <= slack < math.inf:
            raise ConfigError(f"[experiment] slack must be finite and at least 1, got {slack}")
    dom = Domain(0.0, 1.0, L)

    curve: DecayCurve | None = None
    if ("operator", "kind") in rows:
        bundle = _build_bundle(cfg, dom)
        fseed = _value(cfg, "functions", "seed")  # a set [functions] seed picks the inputs
        seed = seed if fseed is None else _seed(fseed, "[functions] seed")
        fs = _functions(cfg, dom, seed, bundle.m)

    if kind == "sharpness":
        bounded = _value(cfg, "params", "bounded_symbol")
        if bounded not in ("yes", "no"):
            raise ConfigError(f"[params] bounded_symbol must be yes or no, got {bounded!r}")
        curve, rep = sharpness_experiment(L=L, bounded_symbol=bounded == "yes")
    elif kind == "decay":
        t_lo, t_hi = (_value(cfg, "params", k, float) for k in ("t_lo", "t_hi"))
        t_pts = _value(cfg, "params", "t_points", int)
        if not 0.0 < t_lo < t_hi < math.inf:
            raise ConfigError("[params] t_lo and t_hi need 0 < t_lo < t_hi, both finite")
        if not 1 <= t_pts <= MAX_T_POINTS:
            raise ConfigError(f"[params] t_points must be at least 1 and at most {MAX_T_POINTS}")
        wspec = _value(cfg, "weights", "w")
        w = make_weight(wspec, dom) if wspec.strip() else None
        ts = default_t_grid(bundle.symbol_norm_product, t_pts, t_lo, t_hi)
        curve, rep = local_decay_experiment(
            bundle, fs, DyadicCube(0, 0, 0), ts,
            comparator=_value(cfg, "params", "comparator"), w=w,
        )
    elif kind == "cf":
        w = make_weight(_value(cfg, "weights", "w"), dom)
        rep = coifman_fefferman_experiment(bundle, fs, _value(cfg, "params", "p", float), w, slack)
    elif kind == "mixed":
        ws = _weights(cfg, dom, bundle.m)
        v = make_weight(_value(cfg, "weights", "v"), dom)
        rep = mixed_weak_experiment(bundle, fs, ws, v, _value(cfg, "params", "t", float), slack)
    elif kind == "fs":
        ps = [_number(s, "[params] ps") for s in _value(cfg, "params", "ps").split(",")]
        if not all(math.isfinite(pi) for pi in ps):
            raise ConfigError("[params] ps must be finite")
        ps = _per_slot(ps, bundle.m, "[params] ps")
        ws = _weights(cfg, dom, bundle.m)
        rep = fefferman_stein_experiment(bundle, fs, ps, ws, slack)
    elif kind == "modular":
        phi = make_phi(_value(cfg, "params", "p"))
        q = _value(cfg, "params", "q", float)
        r = _value(cfg, "params", "r", float)
        w = make_weight(_value(cfg, "weights", "w"), dom)
        rep = modular_experiment(bundle, fs, phi, q, r, w, slack)

    rep.env["seed"] = seed  # the experiments draw nothing; the inputs were drawn with seed
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "report.json", cfg, [rep])
    if curve is not None:
        curve.write_csv(out_dir / "curves.csv")
        write_svg_plot(out_dir / "plot.svg", curve)
    return [rep]


def constants_rows(cfg: dict, dom: Domain) -> list[dict]:
    specs = [s for s in _value(cfg, "bank", "weights").split(",") if s.strip()]
    p_grid = [_number(s, "[bank] p_grid") for s in _value(cfg, "bank", "p_grid").split(",")]
    rows = []
    for spec in specs:
        w = make_weight(spec, dom)
        fw, weak = w.ainfty()
        for p in p_grid:
            rows.append({
                "weight": w.name,
                "p": p,
                "ap": w.ap(p),
                "a1": w.a1(),
                "ainfty_fw": fw,
                "ainfty_weak": weak,
            })
    return rows


def _write_report(path: Path, cfg: dict, reports: list[VerificationReport]) -> None:
    # strict JSON: a non-finite float (a ratio of two zeros, the fit of a
    # degenerate decay) is written as null, and json refuses any left over
    payload = {"config": cfg, "reports": [_finite_or_null(r.to_dict()) for r in reports]}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _finite_or_null(x):
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


# -- svg ---------------------------------------------------------------------

def write_svg_plot(path: Path, curve: DecayCurve) -> None:
    """Self-contained log-linear decay plot with the fitted model overlaid."""
    width, height = 640, 420
    t = np.asarray(curve.t_grid, dtype=float)
    m = np.asarray(curve.measures, dtype=float)
    mo = np.asarray(curve.model, dtype=float)
    keep = np.isfinite(m) & (m > 0)
    pad = 50
    if not np.any(keep):
        path.write_text(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}"><text x="20" y="30">degenerate curve</text></svg>\n'
        )
        return
    tmin, tmax = t.min(), t.max()
    ymin = math.log10(m[keep].min())
    ymax = math.log10(max(m[keep].max(), 1e-12))
    if ymax <= ymin:
        ymax = ymin + 1.0

    def sx(v):
        return pad + (v - tmin) / (tmax - tmin) * (width - 2 * pad)

    def sy(v):
        return height - pad - (math.log10(v) - ymin) / (ymax - ymin) * (height - 2 * pad)

    def poly(ts, ys, color, dash=""):
        pts = " ".join(
            f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(ts, ys) if b > 0 and math.isfinite(b)
        )
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'{dash} points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        poly(t[keep], m[keep], "#1f77b4"),
    ]
    mok = np.isfinite(mo) & (mo > 0)
    if np.any(mok):
        parts.append(poly(t[mok], mo[mok], "#d62728", 'stroke-dasharray="4 3"'))
    fit = curve.fit
    if not fit.get("degenerate"):
        parts.append(
            f'<text x="{pad + 8}" y="{pad - 8}" font-size="12">'
            f'fit: p={fit["p"]:.3f}, alpha={fit["alpha"]:.3f}, R2={fit["r2"]:.4f}</text>'
        )
    parts.append(
        f'<text x="{width // 2 - 10}" y="{height - 12}" font-size="12">t</text>'
    )
    parts.append(
        f'<text x="8" y="{height // 2}" font-size="12">log10 measure</text>'
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# -- fixtures ----------------------------------------------------------------

def fixtures_dir() -> Path:
    return Path(resources.files("sparse_harmonics") / "fixtures")


def list_fixtures() -> list[str]:
    d = fixtures_dir()
    if not d.is_dir():
        return []
    return sorted(p.name for p in d.iterdir() if p.is_file())


# largest relative difference, against max(|a|, |b|, 1), that diff-fixtures
# lets pass
FIXTURE_TOL = 1e-9


def _num(x):
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _diff_values(path, a, b, diffs):
    na, nb = _num(a), _num(b)
    if na is not None and nb is not None:
        if math.isnan(na) and math.isnan(nb):
            return
        scale = max(abs(na), abs(nb), 1.0)
        if abs(na - nb) > FIXTURE_TOL * scale:
            diffs.append(f"{path}: {a!r} != {b!r}")
        return
    if a != b:
        diffs.append(f"{path}: {a!r} != {b!r}")


def _diff_json(path, a, b, diffs):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                diffs.append(f"{path}.{k}: missing on one side")
            else:
                _diff_json(f"{path}.{k}", a[k], b[k], diffs)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_json(f"{path}[{i}]", x, y, diffs)
    else:
        _diff_values(path, a, b, diffs)


def diff_fixture_file(golden: Path, candidate: Path) -> list[str]:
    diffs: list[str] = []
    if golden.suffix == ".json":
        _diff_json(golden.name, json.loads(golden.read_text()),
                   json.loads(candidate.read_text()), diffs)
    elif golden.suffix == ".csv":
        ga = list(csv.reader(golden.read_text().splitlines()))
        cb = list(csv.reader(candidate.read_text().splitlines()))
        if len(ga) != len(cb):
            diffs.append(f"{golden.name}: row count {len(ga)} != {len(cb)}")
        for i, (ra, rb) in enumerate(zip(ga, cb)):
            if len(ra) != len(rb):
                diffs.append(f"{golden.name}:{i}: column count differs")
                continue
            for j, (a, b) in enumerate(zip(ra, rb)):
                _diff_values(f"{golden.name}:{i}:{j}", a, b, diffs)
    else:
        if golden.read_bytes() != candidate.read_bytes():
            diffs.append(f"{golden.name}: binary contents differ")
    return diffs


# -- entry point -------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it
    as it is."""
    ap = argparse.ArgumentParser(prog="sparse-harmonics")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_const = sub.add_parser("constants", help="weight constants table")
    p_const.add_argument("bank")
    p_const.add_argument("--out", default=None)
    sub.add_parser("list-fixtures", help="list shipped golden files")
    p_diff = sub.add_parser("diff-fixtures", help="diff a run dir against goldens")
    p_diff.add_argument("dir")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "list-fixtures":
        for name in list_fixtures():
            print(name)
        return 0

    if args.command == "diff-fixtures":
        cand_dir = Path(args.dir)
        golden_dir = fixtures_dir()
        names = [n for n in list_fixtures() if n.endswith((".json", ".csv"))]
        if not names:
            print("no fixtures shipped", file=sys.stderr)
            return 2
        all_diffs: list[str] = []
        for name in names:
            cand = cand_dir / name
            if not cand.is_file():
                print(f"missing fixture counterpart: {name}", file=sys.stderr)
                return 2
            all_diffs.extend(diff_fixture_file(golden_dir / name, cand))
        for d in all_diffs:
            print(d)
        print(f"{len(all_diffs)} diffs")
        return 0 if not all_diffs else 1

    try:
        cfg = parse_config(args.config if args.command == "run" else args.bank)
        if args.command == "constants" and cfg["experiment"]["kind"] != "constants":
            raise ConfigError("constants command needs kind = constants")
        out_dir = Path(args.out or _value(cfg, "output", "dir"))
        reports = run_experiment(cfg, out_dir)
    except ValueError as e:  # ConfigError is a ValueError
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.command == "constants":
        print(out_dir / "constants.csv")
    verdicts = [r.verdict for r in reports]
    for r in reports:
        print(f"{r.id}: {r.verdict} (ratio {r.ratio:.6g})")
    if any(v == "violated" for v in verdicts):
        return 4
    if any(v == "degenerate" for v in verdicts):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
