"""Spans and counts for the sparse_harmonics layers, recorded from outside
the package.

`Tracer.install` rebinds each traced function in every module that holds a
reference to it (for example `maximal` is bound in `maximal`, `weights`,
`harness` and `cli`), so calls are seen whichever module makes them.
`Tracer.uninstall` puts the originals back.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "sparse_harmonics"

MODULES = ("grid", "orlicz", "maximal", "weights", "sparse", "operators", "harness", "cli")

# One span per call: (module, name inside the module).
SPANNED = (
    ("grid", "CubeFamily.__init__"),
    ("maximal", "family_for"),
    ("maximal", "maximal"),
    ("maximal", "multilinear_maximal"),
    ("maximal", "luxemburg_per_cube"),
    ("weights", "ainfty_constants"),
    ("weights", "ap_constant"),
    ("weights", "write_constants_csv"),
    ("operators", "hilbert_transform"),
    ("operators", "calderon_apply"),
    ("operators", "iterated_commutator"),
    ("operators", "stein_square_function"),
    ("operators", "bmo_norm"),
    ("orlicz", "dilation_indices"),
    ("sparse", "sparse_operator"),
    ("harness", "principal_cubes"),
    ("harness", "fit_exponent"),
    ("harness", "lorentz_quasinorm"),
    ("harness", "DecayCurve.write_csv"),
    ("harness", "local_decay_experiment"),
    ("harness", "sharpness_experiment"),
    ("harness", "coifman_fefferman_experiment"),
    ("harness", "mixed_weak_experiment"),
    ("harness", "fefferman_stein_experiment"),
    ("harness", "modular_experiment"),
    ("cli", "main"),
    ("cli", "parse_config"),
    ("cli", "run_experiment"),
    ("cli", "constants_rows"),
    ("cli", "write_svg_plot"),
    ("cli", "_write_report"),
)

# Hot leaf helpers: a span each would cost more than the work, so they are
# only counted; their time stays in the calling span's self time.
COUNTED = (
    ("grid", "average"),
    ("grid", "children"),
    ("grid", "CubeFamily.prefix"),
    ("orlicz", "YoungFunction.__call__"),
)

REPEAT_TRACKED = "maximal.luxemburg_per_cube"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for mod, fn in SPANNED:
        names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s", f"{mod}.{fn}.errors"]
    names += [f"{mod}.{fn}.calls" for mod, fn in COUNTED]
    names += [f"{mod}.self_s" for mod in MODULES]
    names += [f"{REPEAT_TRACKED}.repeat_share", "trace.overhead_share",
              "golden_diffs", "failed_share", "known_defects.failed"]
    return names


def _in_op(rec: list) -> bool:
    return isinstance(rec[4], int)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent span index or -1, op id]
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: Counter = Counter()
        self.op_id = "setup"  # an int during an op, "probe" during known defects
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patches: list[tuple] = []
        self._seen_inputs: set = set()
        self.repeats = 0

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, attr in SPANNED:
            self._patch(mod, attr, self._span_wrapper)
        for mod, attr in COUNTED:
            self._patch(mod, attr, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, mod: str, attr: str, make) -> None:
        name = f"{mod}.{attr}"
        module = importlib.import_module(f"{PACKAGE}.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make(name, raw.__func__))
            else:
                wrapped = make(name, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            return
        original = getattr(module, attr)
        wrapped = make(name, original)
        bound = 0
        for mname, m in list(sys.modules.items()):
            if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, key, original))
                    setattr(m, key, wrapped)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{name} is bound nowhere")

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        track_inputs = name == REPEAT_TRACKED
        signature = inspect.signature(fn) if track_inputs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_inputs:
                tracer._note_input(signature.bind(*args, **kwargs).arguments)
            stack = tracer._stack
            index = len(tracer.spans)
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1, tracer.op_id]
            tracer.spans.append(record)
            stack.append([index, 0.0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                _, covered = stack.pop()
                record[1], record[2] = start, end
                tracer.calls[name] += 1
                tracer.self_s[name] += (end - start) - covered
                if stack:
                    stack[-1][1] += end - start

        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_input(self, arguments: dict) -> None:
        """A Luxemburg call repeats when the same input samples, growth
        function and family entry (lattice, level) were already seen."""
        entry = arguments["entry"]
        absf = arguments["absf"]
        key = (
            hashlib.blake2b(absf.tobytes(), digest_size=16).digest(),
            absf.shape,
            arguments["fam"].domain,
            entry.lattice_id,
            entry.level,
            arguments["phi"].name,
        )
        if key in self._seen_inputs:
            self.repeats += 1
        else:
            self._seen_inputs.add(key)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics from the spans and counts recorded so far; the
        run adds the last four names of `per_layer_names` itself."""
        out = {}
        for mod, fn in SPANNED:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.errors"] = self.errors[name]
        for mod, fn in COUNTED:
            out[f"{mod}.{fn}.calls"] = self.calls[f"{mod}.{fn}"]
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(
                self.self_s[f"{m}.{fn}"] for m, fn in SPANNED if m == mod
            )
        lux_calls = self.calls[REPEAT_TRACKED]
        out[f"{REPEAT_TRACKED}.repeat_share"] = self.repeats / lux_calls if lux_calls else 0.0
        return out

    def modules_with_op_spans(self) -> set[str]:
        return {rec[0].split(".", 1)[0] for rec in self.spans if _in_op(rec)}

    def op_inclusive_time(self) -> Counter:
        """Time inside each traced function over the ops, children included;
        a call nested in a call of the same function counts once."""
        out: Counter = Counter()
        for rec in self.spans:
            if not _in_op(rec):
                continue
            parent = rec[3]
            while parent >= 0 and self.spans[parent][0] != rec[0]:
                parent = self.spans[parent][3]
            if parent < 0:
                out[rec[0]] += rec[2] - rec[1]
        return out

    def op_self_time(self) -> Counter:
        """Self time per traced function over the ops only (set-up and
        known defects excluded)."""
        out: Counter = Counter()
        child: Counter = Counter()
        for rec in self.spans:
            if _in_op(rec) and rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, rec in enumerate(self.spans):
            if _in_op(rec):
                out[rec[0]] += (rec[2] - rec[1]) - child[i]
        return out
