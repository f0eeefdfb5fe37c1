import csv
import importlib.util
import json
import math
import os
import re
import shutil
import string
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_harmonics.cli import (
    KEYS,
    KINDS,
    MAX_T_POINTS,
    ConfigError,
    _write_report,
    diff_fixture_file,
    fixtures_dir,
    list_fixtures,
    main,
    make_function,
    parse_config,
)
from sparse_harmonics.grid import Domain, DyadicCube, GridFunction
from sparse_harmonics.harness import (
    coifman_fefferman_experiment,
    fefferman_stein_experiment,
    fit_exponent,
    hilbert_bundle,
    local_decay_experiment,
    mixed_weak_experiment,
    modular_experiment,
    sharpness_experiment,
)
from sparse_harmonics.orlicz import power
from sparse_harmonics.weights import Weight
from sparse_harmonics.maximal import maximal
from sparse_harmonics.operators import stein_square_function

FIX = fixtures_dir()
ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


DECAY_CONFIG = """
[experiment]
kind = decay
l = 10
seed = 0

[operator]
kind = hilbert

[symbols]
b = sin

[functions]
bank = bump

[params]
comparator = llogl
t_lo = 0.45
t_hi = 0.68
t_points = 32
"""


# -- config parsing ----------------------------------------------------------

def test_parse_rejects_unknown_key(tmp_path):
    cfg = write_config(tmp_path, "[experiment]\nkind = cf\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(cfg)


def test_parse_rejects_unknown_section(tmp_path):
    cfg = write_config(tmp_path, "[experiment]\nkind = cf\n\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(cfg)


def test_parse_rejects_unknown_kind(tmp_path):
    cfg = write_config(tmp_path, "[experiment]\nkind = frobnicate\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "absent.ini"))


@pytest.mark.parametrize("text", [
    "kind = decay\n",
    "[experiment]\nkind = decay\nkind = cf\n",
    "[experiment]\nkind = decay\n\n[experiment]\nl = 8\n",
    "[experiment]\nkind = decay\n\n[functions]\nbank = 50%\n",
], ids=["no-section-header", "duplicate-option", "duplicate-section", "bad-interpolation"])
def test_malformed_ini_exits_2(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


def test_config_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_bytes(b"\xff\xfe[experiment]\nkind = cf\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


_KEYS = sorted({key for rows in KEYS.values() for _, key in rows})
_INI_LINE = st.one_of(
    st.sampled_from(sorted({s for rows in KEYS.values() for s, _ in rows})).map(
        lambda section: f"[{section}]"),
    st.tuples(st.sampled_from(_KEYS), st.text(string.printable, max_size=12)).map(
        lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(string.printable, max_size=30),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_INI_LINE, max_size=12).map("\n".join))
def test_parse_config_raises_only_config_error(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.ini"
        path.write_text(text)
        try:
            parse_config(str(path))
        except ConfigError:
            pass


@pytest.mark.parametrize("kind", ["decay", "sharpness", "constants"])
def test_slack_on_a_kind_without_slack_exits_2(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, f"[experiment]\nkind = {kind}\nl = 8\nslack = 10\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: [experiment] slack does not apply to kind '{kind}'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["run", "constants"])
def test_seed_on_constants_exits_2(tmp_path, capsys, command):
    # the seed was read and ignored: seeds 5 and 6 wrote the same table
    cfg = write_config(tmp_path, _small("constants", experiment={"seed": "5"}))
    assert main([command, cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: [experiment] seed does not apply to kind 'constants'\n")
    assert not (tmp_path / "o" / "constants.csv").exists()


# -- run ---------------------------------------------------------------------

def test_run_decay_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, DECAY_CONFIG)
    out = tmp_path / "out"
    code = main(["run", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "report.json").is_file()
    assert (out / "curves.csv").is_file()
    assert (out / "plot.svg").is_file()
    payload = json.loads((out / "report.json").read_text())
    assert payload["reports"][0]["verdict"] in ("holds", "holds-with-margin")
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_run_config_roundtrip(tmp_path):
    cfg = write_config(tmp_path, DECAY_CONFIG)
    out = tmp_path / "out"
    main(["run", cfg, "--out", str(out)])
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"] == parse_config(cfg)


def test_run_curves_csv_is_numeric(tmp_path):
    # a cell that float() cannot parse is compared by diff-fixtures as text,
    # without its numeric tolerance
    out = tmp_path / "out"
    assert main(["run", str(FIX / "sharpness.ini"), "--out", str(out)]) == 0
    rows = list(csv.reader((out / "curves.csv").read_text().splitlines()))
    assert rows[0] == ["t", "measure", "model"]
    assert len(rows) > 1
    for row in rows[1:]:
        assert len(row) == 3
        for cell in row:
            float(cell)


def test_run_log_symbol_steps_bank_exits_degenerate(tmp_path, capsys):
    # the fit used to raise OverflowError on this config
    cfg = write_config(tmp_path, """
[experiment]
kind = decay
l = 10
seed = 0

[operator]
kind = hilbert

[symbols]
b = log

[functions]
bank = steps

[params]
comparator = mixed-min
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert payload["reports"][0]["verdict"] == "degenerate"


def test_run_mixed_spike_weight_has_no_traceback(tmp_path, capsys):
    # K0 overflowed a float (A_1 of the spike product is 501, p0 = 8017)
    cfg = write_config(tmp_path, """
[experiment]
kind = mixed
l = 12
seed = 0

[operator]
kind = hilbert

[functions]
bank = random

[weights]
w = spike
v = one

[params]
t = 2
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) in (0, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    consts = json.loads((out / "report.json").read_text())["reports"][0]["constants"]
    assert consts["p0"] == 8017.0
    assert 24000 < consts["log10_K0"] < 24100


def test_run_mixed_spike_weight_reports_log10_ratio(tmp_path):
    # the tracked constant is about 10^144357: the ratio underflows to 0
    # and only its logarithm says how slack the bound is
    cfg = write_config(tmp_path, """
[experiment]
kind = mixed
l = 10
seed = 0

[operator]
kind = hilbert

[functions]
bank = random

[weights]
w = spike
v = one

[params]
t = 2
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["reports"][0]
    assert rep["ratio"] == 0.0
    assert rep["constants"]["log10_ratio"] < -1e5


def test_run_mixed_reports_the_constants_of_dimension_one(tmp_path):
    # n = 1: tau_n = 2^n, and the endpoint constant is
    # 2^{n+7} m [u]_{A_1} ln(2 [u]_{A_1}) with m = 1 and no symbols
    cfg = write_config(tmp_path, """
[experiment]
kind = mixed
l = 8

[operator]
kind = hilbert

[functions]
bank = random

[weights]
w = power:-0.3
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["reports"][0]
    assert {k: rep["env"][k] for k in ("n", "tau_n", "C_n", "c_n")} == {
        "n": 1, "tau_n": 2.0, "C_n": 1.0, "c_n": 1.0,
    }
    a1_u = rep["constants"]["a1_u"]
    want = 2.0 ** 8 * 1 * a1_u * math.log(2.0 * a1_u) / math.log(10.0)
    assert rep["constants"]["log10_endpoint_constant"] == want


def test_run_bad_stein_alpha_exits_2(tmp_path):
    cfg = write_config(tmp_path, """
[experiment]
kind = decay
l = 8

[operator]
kind = stein
alpha = 0.3

[functions]
bank = bump
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("operator, m, n_sym", [
    ("kind = calderon\nm = 40", 40, 40),
    ("kind = calderon\nm = 40", 40, 0),
    ("kind = hilbert", 0, 40),
    # an order too large for a list of that many inputs (OverflowError)
    ("kind = calderon\nm = 10000000000000000000", 10 ** 19, 0),
    # a negative order does not offset the symbols built before m is judged
    ("kind = calderon\nm = -1000", -1000, 40),
])
def test_run_refuses_an_expansion_over_the_budget(tmp_path, capsys, operator, m, n_sym):
    # 2^(m + l) rows of 16 cells: refused before a symbol, an input or a
    # row is built
    cfg = write_config(tmp_path, f"""
[experiment]
kind = cf
l = 4

[operator]
{operator}

[symbols]
b = {",".join(["sin"] * n_sym)}

[functions]
bank = random
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert f"order m = {m} with l = {n_sym} symbols" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, spec, smallest_l", [
    ("[functions]\nbank", "steps", 5),
    ("[symbols]\nb", "steps:3", 4),
])
def test_run_steps_on_too_few_cells_names_the_spec(tmp_path, capsys, section, spec, smallest_l):
    # 32 function blocks or 16 symbol blocks need at least as many cells
    cfg = write_config(tmp_path, f"""
[experiment]
kind = decay
l = {smallest_l - 1}

[operator]
kind = hilbert

{section} = {spec}
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"spec {spec!r}" in err and f"needs l >= {smallest_l}" in err


@pytest.mark.parametrize("t_points", ["0", "-3"])
def test_run_t_points_below_one_exits_2(tmp_path, capsys, t_points):
    cfg = write_config(tmp_path, f"""
[experiment]
kind = decay
l = 8

[operator]
kind = hilbert

[symbols]
b = log

[functions]
bank = bump

[params]
t_points = {t_points}
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: [params] t_points must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("t_points", ["4097", "10000000000000"])
def test_run_t_points_above_the_bound_exits_2(tmp_path, capsys, t_points):
    # 10^13 points asked np.logspace for 72.8 TiB and exited 1 with a traceback
    cfg = write_config(tmp_path, f"""
[experiment]
kind = decay
l = 6

[symbols]
b = log

[params]
t_points = {t_points}
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: [params] t_points must be at least 1 and at most {MAX_T_POINTS}\n")
    assert not out.exists()


def test_run_fs_nonpositive_exponent_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[experiment]
kind = fs
l = 8

[operator]
kind = hilbert

[functions]
bank = random

[params]
ps = 0
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: need every p_s > 0" in capsys.readouterr().err


@pytest.mark.parametrize("ps", ["inf", "nan", "-inf"])
def test_run_fs_nonfinite_exponent_exits_2(tmp_path, capsys, ps):
    # ps = inf made p = 1 / sum(1 / p_s) divide by zero, with a traceback
    cfg = write_config(tmp_path, f"""
[experiment]
kind = fs
l = 6

[operator]
kind = hilbert

[functions]
bank = random

[params]
ps = {ps}
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: [params] ps must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("slack", ["nan", "inf", "-1", "0.5"])
def test_run_slack_not_finite_or_below_one_exits_2(tmp_path, capsys, slack):
    # nan, -1 and 0.5 made every ratio read "violated" (exit 4); with inf no
    # finite ratio could be violated
    cfg = write_config(tmp_path, f"""
[experiment]
kind = fs
l = 7
slack = {slack}

[operator]
kind = hilbert

[symbols]
b = x

[functions]
bank = steps
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: [experiment] slack must be finite and at least 1" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("t_lo, t_hi", [
    ("5", "1"), ("2", "2"), ("0", "1"), ("-1", "3"), ("1", "inf"), ("nan", "3"),
])
def test_run_decay_t_range_out_of_order_exits_2(tmp_path, capsys, t_lo, t_hi):
    # t_lo > t_hi used to end as "degenerate (ratio nan)", t_lo = 0 as a bare
    # "math domain error"
    cfg = write_config(tmp_path, f"""
[experiment]
kind = decay
l = 6

[operator]
kind = hilbert

[symbols]
b = log

[functions]
bank = bump

[params]
t_lo = {t_lo}
t_hi = {t_hi}
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: [params] t_lo and t_hi need 0 < t_lo < t_hi, both finite" in err


def test_run_calderon_below_order_one_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[experiment]
kind = cf
l = 8

[operator]
kind = calderon
m = -1

[functions]
bank = random
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: calderon operator needs m >= 1" in capsys.readouterr().err


def test_run_modular_nonpositive_r_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[experiment]
kind = modular
l = 6

[operator]
kind = hilbert

[functions]
bank = random

[params]
r = 0
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: need r > 0" in capsys.readouterr().err


def test_run_modular_exp_growth_spec_is_unknown(tmp_path, capsys):
    # modular, the one reader of [params] p, takes only sub-multiplicative
    # growth functions, and exp(t^s) - 1 is not one: no spec builds it
    cfg = write_config(tmp_path, _small("modular", params={"p": "exp:1"}))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: unknown growth function spec 'exp:1'\n"


def _ini(sections: dict) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()) + "\n"
        for name, items in sections.items()
    )


def _small(kind: str, **sections) -> str:
    """A config of kind at l = 6 (random bank, Hilbert unless overridden,
    for the kinds that read an operator), with sections merged in key by
    key."""
    base = {"experiment": {"kind": kind, "l": "6"}}
    if kind not in ("constants", "sharpness"):
        base |= {"operator": {"kind": "hilbert"}, "functions": {"bank": "random"}}
    for name, items in sections.items():
        base[name] = {**base.get(name, {}), **items}
    return _ini(base)


# every row of KEYS, and the retired [operator] pv_cutoff, which no kind
# reads, tried on every experiment kind (at the operator kind hilbert,
# where it reads one) and on a decay config of each other operator kind;
# the refusal names the operator kind for an [operator] key.  Among them:
# m and alpha on hilbert ran a cf config as "holds", and a stein decay
# parsed pv_cutoff and dropped it
_ROWS = sorted({row for rows in KEYS.values() for row in rows} | {("operator", "pv_cutoff")})
_KIND_OPERATORS = [
    (kind, "hilbert" if ("operator", "kind") in KEYS[kind] else None) for kind in KINDS
] + [("decay", "calderon"), ("decay", "stein")]


@pytest.mark.parametrize("section, key", _ROWS, ids=[f"{s}-{k}" for s, k in _ROWS])
@pytest.mark.parametrize("kind, operator", _KIND_OPERATORS,
                         ids=[f"{k}-{o}" if o else k for k, o in _KIND_OPERATORS])
def test_a_key_parses_exactly_when_its_kinds_read_it(tmp_path, capsys, kind, operator,
                                                      section, key):
    sections = {"experiment": {"kind": kind}}
    if operator:
        sections["operator"] = {"kind": operator}
    sections.setdefault(section, {}).setdefault(key, "1")
    cfg = write_config(tmp_path, _ini(sections))
    if (section, key) in KEYS[kind] | KEYS.get(operator, {}):
        assert parse_config(cfg) == sections
        return
    owner = operator if section == "operator" and operator else kind
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: [{section}] {key} does not apply to kind {owner!r}\n")


@pytest.mark.parametrize("kind", ["sharpness", "constants"])
def test_an_empty_section_that_the_kind_does_not_read_exits_2(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, _small(kind) + "[operator]\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: [operator] does not apply to kind {kind!r}\n")


@pytest.mark.parametrize("value", ["true", "Yes", "1", ""])
def test_sharpness_bounded_symbol_other_than_yes_or_no_exits_2(tmp_path, capsys, value):
    # every value but yes was read as no and ran the unbounded experiment
    cfg = write_config(tmp_path, _small(
        "sharpness", experiment={"l": "8"}, params={"bounded_symbol": value}))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: [params] bounded_symbol must be yes or no, got {value!r}\n")
    assert not (tmp_path / "o" / "report.json").exists()


def _readme_keys() -> dict:
    """The per-kind key list of README's CLI section, read back into the
    form of KEYS: `[section] key = default`, with no `=` for a None default."""
    cli_section = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    return {
        kind: {(section, key): default if eq else None
               for section, key, eq, default in re.findall(r"`\[(\w+)\] (\w+)( = ?([^`]*))?`", body)}
        for kind, body in re.findall(r"^- `(\w+)`:(.*\n(?:  .*\n)*)", cli_section, re.M)
    }


def test_readme_lists_every_key_of_every_kind_with_its_default():
    assert _readme_keys() == KEYS


def _workloads():
    """perfbench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look a class's module up here
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_config_parses(tmp_path):
    # the benchmark runs these through the CLI: a key that its kind does not
    # read would turn each of its ops into a failed one
    workloads = _workloads()
    builders = workloads.CONFIG_SLOTS + workloads.KNOWN_DEFECTS
    for seed in (0, 1, 2):
        for k, (name, L, build) in enumerate(builders):
            path = workloads.write_ini(tmp_path / f"{seed}-{k}.ini",
                                       build(L, np.random.default_rng([seed, k])))
            parse_config(str(path))
    for name in ("sharpness.ini", "weight_bank.ini"):
        parse_config(str(FIX / name))


# every site where a config number is read, with a value that does not
# parse there: the message names the key, the variable or the spec
NUMBER_SITES = [
    (_small("cf", experiment={"l": "x7"}), "[experiment] l: 'x7' is not an integer"),
    (_small("cf", experiment={"seed": "s1"}), "[experiment] seed: 's1' is not an integer"),
    (_small("cf", experiment={"slack": "abc"}), "[experiment] slack: 'abc' is not a number"),
    (_small("cf", functions={"seed": "0x"}), "[functions] seed: '0x' is not an integer"),
    (_small("cf", operator={"kind": "calderon", "m": "two"}), "[operator] m: 'two' is not an integer"),
    (_small("decay", operator={"kind": "stein", "alpha": "big"}),
     "[operator] alpha: 'big' is not a number"),
    (_small("decay", params={"t_lo": "lo"}), "[params] t_lo: 'lo' is not a number"),
    (_small("decay", params={"t_hi": "hi"}), "[params] t_hi: 'hi' is not a number"),
    (_small("decay", params={"t_points": "2.5"}), "[params] t_points: '2.5' is not an integer"),
    (_small("cf", params={"p": "two"}), "[params] p: 'two' is not a number"),
    (_small("mixed", params={"t": "t2"}), "[params] t: 't2' is not a number"),
    (_small("fs", params={"ps": "2,x"}), "[params] ps: 'x' is not a number"),
    (_small("modular", params={"q": "q"}), "[params] q: 'q' is not a number"),
    (_small("modular", params={"r": "1,5"}), "[params] r: '1,5' is not a number"),
    (_small("constants", bank={"p_grid": "2,abc"}), "[bank] p_grid: 'abc' is not a number"),
    (_small("cf", weights={"w": "power:abc"}), "spec 'power:abc': 'abc' is not a number"),
    (_small("cf", symbols={"b": "steps:x"}), "spec 'steps:x': 'x' is not an integer"),
    (_small("cf", functions={"bank": "wave:2.5"}), "spec 'wave:2.5': '2.5' is not an integer"),
    (_small("modular", params={"p": "llog:one"}), "spec 'llog:one': 'one' is not a number"),
    (_small("modular", params={"p": "power:"}), "spec 'power:': '' is not a number"),
]


def _site_ids(sites) -> list[str]:
    """One id per site, from the key or spec its message names; a name met
    again (power: is both a weight and a growth function spec) gets its
    count appended."""
    ids, names = [], []
    for _, message in sites:
        name = message.split(":")[0].replace("[", "").replace("] ", "-").replace("spec '", "spec-")
        names.append(name)
        n = names.count(name)
        ids.append(name if n == 1 else f"{name}-{n}")
    return ids


@pytest.mark.parametrize("text, message", NUMBER_SITES, ids=_site_ids(NUMBER_SITES))
def test_run_number_that_does_not_parse_names_its_key(tmp_path, capsys, text, message):
    # these printed Python's bare conversion message, which names no key
    cfg = write_config(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}\n" == capsys.readouterr().err


# every site where a seed is read, with a negative one: numpy refused the
# first two with a message that names no key, and the other two ran
NEGATIVE_SEED_SITES = [
    (_small("cf", functions={"seed": "-3"}), None, "[functions] seed: '-3'"),
    (_small("cf", symbols={"b": "steps:-1"}), None, "spec 'steps:-1': '-1'"),
    (_small("sharpness", experiment={"seed": "-2"}), None, "[experiment] seed: '-2'"),
    (_small("decay", functions={"bank": "indicator"}), "-4", "SPARSE_HARMONICS_SEED: '-4'"),
]


@pytest.mark.parametrize("text, variable, what", NEGATIVE_SEED_SITES,
                         ids=["functions-seed", "steps-spec", "experiment-seed", "variable"])
def test_negative_seed_exits_2_naming_its_key(tmp_path, capsys, monkeypatch, text, variable, what):
    if variable is None:
        monkeypatch.delenv("SPARSE_HARMONICS_SEED", raising=False)
    else:
        monkeypatch.setenv("SPARSE_HARMONICS_SEED", variable)
    cfg = write_config(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {what} is negative; a seed is at least 0\n"
    assert not (tmp_path / "o" / "report.json").exists()


def test_seed_env_that_does_not_parse_names_the_variable(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, DECAY_CONFIG)
    monkeypatch.setenv("SPARSE_HARMONICS_SEED", "seven")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: SPARSE_HARMONICS_SEED: 'seven' is not an integer" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("p_grid", ["nan,inf,2", "2,inf"])
def test_constants_nonfinite_p_exits_2(tmp_path, capsys, p_grid):
    # p_grid = nan,inf,2 wrote nan A_p rows and exited 0
    cfg = write_config(tmp_path, _small(
        "constants", experiment={"l": "5"}, bank={"weights": "step", "p_grid": p_grid}))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: need 1 <= p < inf" in capsys.readouterr().err
    assert not (tmp_path / "o" / "constants.csv").exists()


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_run_cf_nonfinite_p_exits_2(tmp_path, capsys, p):
    # p = nan exited 3 as degenerate; p = inf read |T f|^inf = 0 and exited
    # 0 as "holds (ratio 0)"
    cfg = write_config(tmp_path, _small("cf", params={"p": p}))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: need 0 < p < inf" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["nan", "inf", "1"])
def test_run_mixed_t_outside_one_to_inf_exits_2_without_warnings(tmp_path, capsys, t):
    # nan and inf exited 3 as degenerate, with RuntimeWarnings from the
    # constants; t = 1 was refused only after the whole experiment ran
    cfg = write_config(tmp_path, _small("mixed", params={"t": t}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: need 1 < t < inf" in capsys.readouterr().err


def test_run_decay_zero_input_is_degenerate(tmp_path):
    # wave:0 is identically 0, and so is M f: the report says degenerate
    # with every measure 0, through the same path as any other decay
    cfg = write_config(tmp_path, _small(
        "decay", symbols={"b": "sin"}, functions={"bank": "wave:0"}))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 3
    rep = json.loads((out / "report.json").read_text())["reports"][0]
    assert rep["verdict"] == "degenerate"
    assert rep["lhs"] == rep["rhs"] == 0.0
    assert rep["params"] == {"comparator": "mixed-min", "m": 1, "l": 1, "weighted": False}
    with open(out / "curves.csv") as fh:
        assert {float(row["measure"]) for row in csv.DictReader(fh)} == {0.0}


def _strict_json(path: Path):
    """The file's JSON, read by a parser that refuses NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_reports_write_a_non_finite_float_as_null(tmp_path):
    # an identically zero input: the mixed weak log10_ratio is -inf + inf,
    # and a degenerate decay has no fit and a ratio of nan
    runs = {
        "mixed": (_small("mixed", experiment={"l": "8"}, symbols={"b": "sin"},
                         functions={"bank": "wave:0"}, weights={"w": "step", "v": "step"}), 0),
        "decay": (_small("decay", symbols={"b": "sin"}, functions={"bank": "wave:0"}), 3),
    }
    reports = {}
    for kind, (text, code) in runs.items():
        out = tmp_path / kind
        assert main(["run", write_config(tmp_path, text, f"{kind}.ini"), "--out", str(out)]) == code
        reports[kind] = _strict_json(out / "report.json")["reports"][0]
    mixed, decay = reports["mixed"], reports["decay"]
    assert mixed["verdict"] == "holds" and mixed["ratio"] == 0.0
    assert mixed["constants"]["log10_ratio"] is None
    assert decay["verdict"] == "degenerate" and decay["ratio"] is None
    assert decay["fit"] == {"alpha": None, "c": None, "degenerate": True, "p": None, "r2": None}
    assert _strict_json(FIX / "report.json")["reports"]  # the golden holds no non-finite float
    rep = _library_report("fs")  # and a list of floats, as fs reports the weak A_inf of its weights
    rep.constants["weak_ainfty"] = [1.0, math.inf]
    _write_report(tmp_path / "list.json", {}, [rep])
    assert _strict_json(tmp_path / "list.json")["reports"][0]["constants"]["weak_ainfty"] == [1.0, None]


def test_run_stein_decay(tmp_path):
    cfg = write_config(tmp_path, """
[experiment]
kind = decay
l = 8

[operator]
kind = stein
alpha = 1.0

[functions]
bank = bump

[params]
t_lo = 0.01
t_hi = 2
t_points = 24
""")
    out = tmp_path / "o"
    code = main(["run", cfg, "--out", str(out)])
    assert code in (0, 3)
    assert (out / "report.json").is_file()


STEIN_DECAY = """
[experiment]
kind = decay
l = 8

[operator]
kind = stein
alpha = 0.75

[functions]
bank = {bank}

[params]
comparator = {comparator}
"""


def _measure_column(out):
    with open(out / "curves.csv", newline="") as fh:
        return [float(row["measure"]) for row in csv.DictReader(fh)]


@pytest.mark.parametrize("comparator", ["mixed-min", "llogl"])
def test_stein_decay_matches_square_function_oracle(tmp_path, comparator):
    # the direct computation: G_alpha f against M f over every cell of the
    # grid, on the default t grid; with no symbols both comparators are M f
    dom = Domain(0.0, 1.0, 8)
    f = make_function("bump", dom, 0)
    g = stein_square_function(f, 0.75).samples
    comp = maximal(f).samples
    ts = np.logspace(math.log10(0.5), math.log10(50.0), 24)
    meas = np.array([float(np.mean(np.abs(g) > t * comp)) for t in ts])
    fit = fit_exponent(ts, meas)
    assert not fit["degenerate"]

    cfg = write_config(tmp_path, STEIN_DECAY.format(bank="bump", comparator=comparator))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) in (0, 4)
    assert _measure_column(out) == meas.tolist()
    assert json.loads((out / "report.json").read_text())["reports"][0]["fit"] == fit


def test_stein_decay_honours_weight(tmp_path):
    # a random input: on the symmetric bump, the step weight's two halves
    # balance and the weighted measures equal the plain ones
    text = STEIN_DECAY.format(bank="random", comparator="llogl")
    plain = write_config(tmp_path, text)
    weighted = write_config(tmp_path, text + "\n[weights]\nw = step\n", name="w.ini")
    assert main(["run", plain, "--out", str(tmp_path / "a")]) in (0, 3, 4)
    assert main(["run", weighted, "--out", str(tmp_path / "b")]) in (0, 3, 4)
    assert _measure_column(tmp_path / "a") != _measure_column(tmp_path / "b")
    rep = json.loads((tmp_path / "b" / "report.json").read_text())["reports"][0]
    assert rep["id"] == "local-decay"
    assert rep["params"] == {"comparator": "llogl", "m": 1, "l": 0, "weighted": True}


@pytest.mark.parametrize("kind", ["cf", "mixed", "fs", "modular"])
def test_stein_runs_in_every_kind(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, f"""
[experiment]
kind = {kind}
l = 8

[operator]
kind = stein
alpha = 1.5

[functions]
bank = random
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) in (0, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "report.json").is_file()


def test_stein_rejects_symbols(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[experiment]
kind = decay
l = 8

[operator]
kind = stein

[symbols]
b = log

[functions]
bank = bump
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "takes no symbols" in capsys.readouterr().err


def test_run_cf_exit_code(tmp_path):
    cfg = write_config(tmp_path, """
[experiment]
kind = cf
l = 8

[operator]
kind = hilbert

[symbols]
b = sin

[functions]
bank = random

[weights]
w = power:0.3333

[params]
p = 1
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0


def test_run_calderon_order_three_on_4096_cells_exits_without_traceback(tmp_path):
    # a 4-linear Calderon form at l > 10 was refused with a traceback
    cfg = write_config(tmp_path, """
[experiment]
kind = cf
l = 12

[operator]
kind = calderon
m = 3

[functions]
bank = random
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) in (0, 3, 4)


def _library_report(kind: str):
    """The report of kind from a direct harness call at l = 6."""
    dom = Domain(0.0, 1.0, 6)
    bundle = hilbert_bundle()
    f = GridFunction(dom, np.random.default_rng(0).uniform(-1.0, 1.0, dom.n_cells))
    one = Weight(GridFunction.constant(dom, 1.0), "one")
    if kind == "decay":
        return local_decay_experiment(bundle, [f], DyadicCube(0, 0, 0))[1]
    if kind == "sharpness":
        return sharpness_experiment(L=6)[1]
    if kind == "cf":
        return coifman_fefferman_experiment(bundle, [f], 2.0, one)
    if kind == "mixed":
        return mixed_weak_experiment(bundle, [f], [one], one)
    if kind == "fs":
        return fefferman_stein_experiment(bundle, [f], [1.0], [one])
    return modular_experiment(bundle, [f], power(2.0), 1.2, 1.5, one)


def test_seed_env_override(tmp_path, monkeypatch):
    # the harness draws no random number: the CLI, which drew the inputs,
    # records the seed, and a report from a library call has none
    for kind in ("decay", "sharpness", "cf", "mixed", "fs", "modular"):
        cfg = write_config(tmp_path, _small(kind, experiment={"seed": "5"}), f"{kind}.ini")
        monkeypatch.delenv("SPARSE_HARMONICS_SEED", raising=False)
        for variable, seed in ((None, 5), ("77", 77)):
            if variable is not None:
                monkeypatch.setenv("SPARSE_HARMONICS_SEED", variable)
            out = tmp_path / f"{kind}-{seed}"
            main(["run", cfg, "--out", str(out)])
            payload = json.loads((out / "report.json").read_text())
            assert [r["env"]["seed"] for r in payload["reports"]] == [seed], kind
        assert "seed" not in _library_report(kind).env, kind


# -- constants ---------------------------------------------------------------

def test_constants_matches_fixture_bytes(tmp_path):
    out = tmp_path / "o"
    code = main(["constants", str(FIX / "weight_bank.ini"), "--out", str(out)])
    assert code == 0
    assert (out / "constants.csv").read_bytes() == (FIX / "constants.csv").read_bytes()


def test_run_and_constants_write_the_same_table(tmp_path):
    # no `l`: both commands share one code path and one default resolution
    cfg = write_config(tmp_path, """
[experiment]
kind = constants

[bank]
weights = power:0.5
p_grid = 2
""")
    assert main(["run", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["constants", cfg, "--out", str(tmp_path / "const")]) == 0
    table = (tmp_path / "run" / "constants.csv").read_bytes()
    assert table == (tmp_path / "const" / "constants.csv").read_bytes()
    assert not (tmp_path / "const" / "report.json").exists()


def test_constants_on_a_grid_without_doubles_exits_2(tmp_path, capsys):
    # at L = 2 no cube has its double inside the domain: weak A_inf is a sup
    # over no cubes, which used to be written as -inf
    cfg = write_config(tmp_path, """
[experiment]
kind = constants
l = 2

[bank]
weights = one
p_grid = 2
""")
    assert main(["constants", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "double" in capsys.readouterr().err
    assert not (tmp_path / "o" / "constants.csv").exists()


WEIGHT_BANK_AT_L = """
[experiment]
kind = constants
l = {l}

[bank]
weights = one,step
p_grid = 2
"""


@pytest.mark.parametrize("l", [17, 60])
@pytest.mark.parametrize("command", ["constants", "run"])
def test_a_resolution_above_the_limit_exits_2_and_writes_nothing(command, l, tmp_path, capsys):
    # l = 28 used to end in a numpy memory error building the cube family
    text = WEIGHT_BANK_AT_L.format(l=l) if command == "constants" else \
        DECAY_CONFIG.replace("l = 10", f"l = {l}")
    cfg = write_config(tmp_path, text)
    assert main([command, cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"L = {l}" in err and "L = 16" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "constants"])
def test_a_refused_config_makes_no_output_directory(command, tmp_path, capsys):
    # refused while the experiment reads its values: a p_grid entry that is
    # not a number, no t points
    text = WEIGHT_BANK_AT_L.format(l=8).replace("p_grid = ", "p_grid = x,") \
        if command == "constants" else DECAY_CONFIG.replace("t_points = 32", "t_points = 0")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "deep" / "o"
    assert main([command, cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "deep").exists()


def test_constants_on_a_weight_whose_sums_overflow_exits_2(tmp_path, capsys):
    # |x - 1/2|^-113.7 holds 1.1e308 in each of the two cells beside 1/2:
    # their sum overflows, which used to give ap = a1 = ainfty_fw = inf
    cfg = write_config(tmp_path, """
[experiment]
kind = constants
l = 8

[bank]
weights = power:-113.7
p_grid = 2
""")
    assert main(["constants", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "overflow" in err
    assert not (tmp_path / "o" / "constants.csv").exists()


def test_constants_command_rejects_other_kinds(tmp_path):
    cfg = write_config(tmp_path, DECAY_CONFIG)
    assert main(["constants", cfg, "--out", str(tmp_path / "o")]) == 2


# -- fixtures ----------------------------------------------------------------

def test_fixtures_shipped():
    names = list_fixtures()
    for required in ("sharpness.ini", "weight_bank.ini", "report.json",
                     "curves.csv", "constants.csv", "plot.svg"):
        assert required in names


def test_diff_fixtures_missing_exits_2(tmp_path):
    assert main(["diff-fixtures", str(tmp_path)]) == 2


def test_diff_fixtures_identical_copy(tmp_path):
    for name in ("report.json", "curves.csv", "constants.csv"):
        shutil.copy(FIX / name, tmp_path / name)
    assert main(["diff-fixtures", str(tmp_path)]) == 0


def test_diff_fixtures_flags_numeric_change(tmp_path):
    for name in ("report.json", "curves.csv", "constants.csv"):
        shutil.copy(FIX / name, tmp_path / name)
    payload = json.loads((tmp_path / "report.json").read_text())
    payload["reports"][0]["lhs"] = payload["reports"][0]["lhs"] + 0.5
    (tmp_path / "report.json").write_text(json.dumps(payload, sort_keys=True, indent=2))
    assert main(["diff-fixtures", str(tmp_path)]) == 1


def test_diff_tolerates_tiny_numeric_noise(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("t,measure\n1.0,0.5\n")
    b.write_text("t,measure\n1.0,0.50000000000001\n")
    assert diff_fixture_file(a, b) == []


def test_list_fixtures_cli_runs():
    assert main(["list-fixtures"]) == 0


def test_commands_in_one_process_match_separate_processes(tmp_path, capsys, monkeypatch):
    # the parser is built once per process: a run, a constants table and a
    # bad command line in a row must each read as the call of a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to this width
    cf = write_config(tmp_path, _small("cf"), "cf.ini")
    bank = write_config(tmp_path, _small("constants", bank={"weights": "one,step"}), "bank.ini")
    commands = [
        ["run", cf, "--out", str(tmp_path / "run")],
        ["constants", bank, "--out", str(tmp_path / "constants")],
        ["constants"],
        ["frobnicate", cf],
    ]
    in_process = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses a bad command line with exit 2
            code = e.code
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    assert [code for code, _, _ in in_process] == [0, 0, 2, 2]
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    call = "import sys; from sparse_harmonics.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, want in zip(commands, in_process):
        done = subprocess.run([sys.executable, "-c", call, *argv], env=env,
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == want, argv
