"""Source hygiene checks that need no linter: every name a module under
src/ or tests/ imports is used in that module, no src/ module imports a
private name from another module of the package, every parameter of a def
under src/ is read in its body, every name in a src/ module's __all__ is
defined in that module, every such name and every public method of an
exported class is read by other src/ code, run as a console script or on
the short list of names only tests reach, every function of
tests/oracles.py and tests/criteria.py is read by a test or another
function of its module, every defaulted parameter of a src/ function is
set by some call in src/, perfbench/ or benchmarks/ (a test alone does
not keep a knob), no parameter takes one literal from every such call
(short list aside), no src/ object caches a computed value (per-input
results go through `grid.MEMO`), the benchmark tracer still finds every
name and parameter it traces, no src/ module imports scipy, and importing
the CLI loads no scipy module: only the tests use scipy."""

import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from sparse_harmonics import maximal as maximal_module
from sparse_harmonics.grid import MEMO, Domain, GridFunction

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def _imported_names(tree: ast.AST) -> dict[str, int]:
    """Name bound by each import (not from __future__) -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _names(value: ast.AST) -> list[str]:
    return [elt.value for elt in value.elts if isinstance(elt, ast.Constant)]


def _used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, plus the strings listed in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
        elif _is_all(node):
            used.update(_names(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        f"{name} (line {line})"
        for name, line in sorted(_imported_names(tree).items())
        if name not in used
    ]


def test_checker_sees_unused_and_used_names():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a.b import c, d as e\n"
        "from f import g\n"
        "__all__ = ['g']\n"
        "print(os.path, e)\n"
    )
    assert unused_imports(src) == ["c (line 3)", "sys (line 2)"]


def _findings_under(tree: Path, check) -> list[str]:
    modules = sorted(tree.rglob("*.py"))
    assert modules
    return [
        f"{path.relative_to(ROOT)}: {item}"
        for path in modules
        for item in check(path.read_text())
    ]


def test_no_unused_imports_in_src():
    found = _findings_under(SRC, unused_imports)
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_unused_imports_in_tests():
    found = _findings_under(TESTS, unused_imports)
    assert not found, "unused imports:\n" + "\n".join(found)


def private_imports(source: str) -> list[str]:
    """Each _name that a module imports from another module of the package:
    by a relative import or one from sparse_harmonics."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "sparse_harmonics"
        ):
            source_name = "." * node.level + (node.module or "")
            out += [
                f"{alias.name} from {source_name} (line {node.lineno})"
                for alias in node.names if alias.name.startswith("_")
            ]
    return out


def test_checker_sees_private_imports():
    src = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from os import _exit\n"
        "from .grid import _lattice, Domain\n"
        "from . import _private\n"
        "from sparse_harmonics.harness import _root as root\n"
        "def f():\n"
        "    from ..pkg.mod import _inner\n"
    )
    assert private_imports(src) == [
        "_lattice from .grid (line 4)",
        "_private from . (line 5)",
        "_root from sparse_harmonics.harness (line 6)",
        "_inner from ..pkg.mod (line 8)",
    ]


def test_no_private_imports_across_src_modules():
    found = _findings_under(SRC, private_imports)
    assert not found, "private names imported from another module:\n" + "\n".join(found)


def scipy_imports(source: str) -> list[str]:
    """Each import of scipy or of a scipy module, at module level or inside
    a function: the package runs on numpy alone."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] == "scipy"]
    return out


def test_checker_sees_scipy_imports():
    src = (
        "import numpy as np\n"
        "import scipy\n"
        "from scipy.fft import rfft\n"
        "from .scipy import x\n"
        "import scipyx, os.path\n"
        "def f():\n"
        "    import scipy.integrate as si, math\n"
    )
    assert scipy_imports(src) == [
        "scipy (line 2)",
        "scipy.fft (line 3)",
        "scipy.integrate (line 7)",
    ]


def test_no_scipy_import_in_src():
    found = _findings_under(SRC, scipy_imports)
    assert not found, "scipy imports under src/:\n" + "\n".join(found)


def test_numpy_is_the_only_runtime_dependency():
    pyproject = (ROOT / "pyproject.toml").read_text()
    runtime = pyproject.partition("\ndependencies = [")[2].split("]", 1)[0]
    assert re.findall(r'"([\w-]+)', runtime) == ["numpy"]
    test_extra = re.search(r"\ntest = \[(.*)\]", pyproject).group(1)
    assert "scipy" in re.findall(r'"([\w-]+)', test_extra)


def unused_parameters(source: str) -> list[str]:
    """Parameters of each def that its body never reads; self and cls are
    exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [
            f"{node.name}({p.arg}) (line {node.lineno})"
            for p in params if p and p.arg not in ("self", "cls", *read)
        ]
    return out


def test_checker_sees_unused_parameters():
    src = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    def g(d):\n"
        "        return a + len(kw)\n"
        "    return g\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        x = 1\n"
        "    @classmethod\n"
        "    def n(cls):\n"
        "        pass\n"
    )
    assert unused_parameters(src) == [
        "f(b) (line 1)", "f(args) (line 1)", "f(c) (line 1)",
        "g(d) (line 2)", "m(x) (line 6)",
    ]


def test_no_unused_parameters_in_src():
    found = _findings_under(SRC, unused_parameters)
    assert not found, "unused parameters:\n" + "\n".join(found)


def undefined_exports(source: str) -> list[str]:
    """Names listed in __all__ that the module does not define at its top
    level: a name it only imports is a re-export."""
    tree = ast.parse(source)
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = [
                    (elt.value, node.lineno) for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                ]
    return [f"{name} (line {line})" for name, line in exported if name not in defined]


def test_checker_sees_undefined_exports():
    src = (
        "from a import b\n"
        "import c\n"
        "__all__ = ['b', 'c', 'd', 'E', 'f', 'g']\n"
        "def d():\n"
        "    f = 1\n"
        "class E:\n"
        "    pass\n"
        "g: int = 2\n"
    )
    assert undefined_exports(src) == ["b (line 3)", "c (line 3)", "f (line 3)"]


def test_no_undefined_exports_in_src():
    found = _findings_under(SRC, undefined_exports)
    assert not found, "names in __all__ not defined in their module:\n" + "\n".join(found)


def _import_owners(tree: ast.AST, modules) -> tuple[dict[str, str], dict[str, str]]:
    """What the imports of tree bind: each name imported from one of
    modules -> "module.name", and each name bound to an imported module ->
    the module (its last dotted part), whether or not it is in modules."""
    names, mods = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mods[alias.asname] = alias.name.rsplit(".", 1)[-1]
                else:  # import a.b binds a
                    top = alias.name.split(".")[0]
                    mods[top] = top
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                local = alias.asname or alias.name
                if source in modules:
                    names[local] = f"{source}.{alias.name}"
                elif alias.name in modules:
                    mods[local] = alias.name
    return names, mods


def unreachable_exports(sources: dict[str, str], entry_points=()) -> list[str]:
    """"module.name" for each name in a module's __all__ that no code in
    sources reads outside the name's own definition: neither another
    module nor another top-level statement of its module.  A read is a
    name or an attribute; imports and __all__ itself are not reads.  The
    "module.name" entries of entry_points (console scripts) count as
    reached.  The public methods of every top-level class, exported or
    not, are checked the same way, as "module.Class.method": a read inside
    another method of the class counts, one inside the method itself does
    not.  A read has an
    owner where the imports name one: a name imported from a module of
    sources, or an attribute of an imported module (`orlicz.power`), reads
    that module's top-level name and no method of the same name."""
    defs, reads = [], []  # (module, path, reads that reach it); (module, path, reads)
    for module, source in sources.items():
        tree = ast.parse(source)
        names, mods = _import_owners(tree, sources)

        def read(n: ast.AST) -> str:
            if isinstance(n, ast.Name):
                return names.get(n.id, n.id)
            if isinstance(n.value, ast.Name) and n.value.id in mods:
                return f"{mods[n.value.id]}.{n.attr}"
            return n.attr

        exported = next((_names(n.value) for n in tree.body if _is_all(n)), [])
        defs += [(module, (name,), {name, f"{module}.{name}"}) for name in exported]
        for node in tree.body:
            if _is_all(node):
                continue
            owner = getattr(node, "name", None)
            parts = [((owner,), node)]
            if isinstance(node, ast.ClassDef):
                parts = [((owner,), n) for n in (*node.decorator_list, *node.bases)]
                parts += [((owner, getattr(n, "name", None)), n) for n in node.body]
                defs += [
                    (module, (owner, n.name), {n.name}) for n in node.body
                    if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
                ]
            reads += [
                (module, path, {
                    read(n) for n in ast.walk(part) if isinstance(n, (ast.Name, ast.Attribute))
                })
                for path, part in parts
            ]
    return [
        ".".join((module, *path))
        for module, path, keys in defs
        if ".".join((module, *path)) not in entry_points
        and not any(
            keys & read and (m, p[:len(path)]) != (module, path) for m, p, read in reads
        )
    ]


def console_scripts(pyproject: str) -> set[str]:
    """"module.function" for each entry of [project.scripts], as
    "package.module:function" names it."""
    section = pyproject.partition("[project.scripts]")[2].split("\n[", 1)[0]
    return {
        ref.rsplit(".", 1)[-1].replace(":", ".")
        for ref in re.findall(r'=\s*"([\w.]+:\w+)"', section)
    }


def unreachable_oracles(sources: dict[str, str], module: str) -> list[str]:
    """"module.name" for each top-level function of a test helper module
    (the oracles, or the criteria) that neither a test module nor another
    function of the helper reads: the export check, with every such
    function taken as exported."""
    helper = sources[module]
    names = [n.name for n in ast.parse(helper).body if isinstance(n, ast.FunctionDef)]
    return unreachable_exports({**sources, module: f"__all__ = {names!r}\n{helper}"})


def test_checker_sees_unreachable_exports():
    sources = {
        "a": (
            "__all__ = ['f', 'g', 'h', 'K']\n"
            "def f():\n"
            "    return g()\n"
            "def g():\n"
            "    return g()\n"
            "def h():\n"
            "    pass\n"
            "class K:\n"
            "    pass\n"
        ),
        "b": (
            "from a import K, h\n"
            "__all__ = ['u']\n"
            "def u():\n"
            "    return K()\n"
        ),
        "c": (
            "__all__ = ['main', 'v']\n"
            "def main():\n"
            "    return 0\n"
            "def v():\n"
            "    pass\n"
        ),
    }
    assert unreachable_exports(sources) == ["a.f", "a.h", "b.u", "c.main", "c.v"]
    # a console script reaches its own function, and no other
    assert unreachable_exports(sources, {"c.main"}) == ["a.f", "a.h", "b.u", "c.v"]
    # a public method of a class is reached by a read in another method,
    # not by one in itself; a class read only in its own methods is not
    # reached; the methods of a class left out of __all__ are checked too
    methods = {
        "a": (
            "__all__ = ['K']\n"
            "class K:\n"
            "    def used(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        return 1\n"
            "    def lonely(self):\n"
            "        return self.lonely()\n"
            "    def _private(self):\n"
            "        pass\n"
            "    @property\n"
            "    def size(self):\n"
            "        return K\n"
            "class Hidden:\n"
            "    def m(self):\n"
            "        pass\n"
        ),
        "b": "__all__ = ['u']\ndef u(k):\n    return k.size\n",
    }
    assert unreachable_exports(methods) == [
        "a.K", "a.K.used", "a.K.lonely", "a.Hidden.m", "b.u"]
    # a method of a class outside __all__ is reached by a read in another
    # module, like one of an exported class
    hidden = {
        "a": (
            "__all__ = ['make']\n"
            "def make():\n"
            "    return _Box()\n"
            "class _Box:\n"
            "    def open(self):\n"
            "        pass\n"
            "    def close(self):\n"
            "        pass\n"
        ),
        "b": "from a import make\n__all__ = ['u']\ndef u():\n    return make().open()\n",
    }
    assert unreachable_exports(hidden) == ["a._Box.close", "b.u"]
    # a name imported from a module, or an attribute read on an imported
    # module, reaches that module's top-level name and no method named
    # like it; an attribute of a module outside sources reaches nothing
    owners = {
        "a": (
            "__all__ = ['power', 'W']\n"
            "class W:\n"
            "    def power(self):\n"
            "        pass\n"
            "    def ap(self):\n"
            "        pass\n"
            "def power():\n"
            "    pass\n"
        ),
        "b": "from a import power\n__all__ = ['u']\ndef u():\n    return power()\n",
        "c": (
            "import a\n"
            "import numpy as np\n"
            "__all__ = ['v']\n"
            "def v():\n"
            "    return a.W, np.ap\n"
        ),
    }
    assert unreachable_exports(owners) == ["a.W.power", "a.W.ap", "b.u", "c.v"]
    toml = '[tool.y]\nz = "a.b:c"\n\n[project.scripts]\nx = "pkg.mod:run"\n\n[tool.z]\n'
    assert console_scripts(toml) == {"mod.run"}
    assert console_scripts('[tool.y]\nz = "a.b:c"\n') == set()
    # an oracle counts as read when a test or another oracle reads it, and
    # not when it only calls itself
    tests = {
        "oracles": (
            "import numpy as np\n"
            "X = 1\n"
            "def brute(x):\n"
            "    return brute(x)\n"
            "def helper(x):\n"
            "    return np.abs(x)\n"
            "def outer(x):\n"
            "    return helper(x)\n"
            "def unused(x):\n"
            "    return X\n"
        ),
        "test_a": (
            "from oracles import brute, outer\n"
            "def test_a():\n"
            "    assert outer(1)\n"
        ),
    }
    assert unreachable_oracles(tests, "oracles") == ["oracles.brute", "oracles.unused"]
    # so does a function of the criteria
    tests["criteria"] = "def check(x):\n    return x\ndef spare(x):\n    return x\n"
    tests["test_b"] = "from criteria import check\ndef test_b():\n    assert check(1)\n"
    assert unreachable_oracles(tests, "criteria") == ["criteria.spare"]


# Exported names (and public methods of top-level classes, as
# "module.Class.method") that no src code reads, each with what keeps it
TEST_ONLY = {
    "grid.children": "perfbench/tracing.py counts its calls; criteria 1-3 build families with it",
    "grid.Memo.clear": "test_maximal.py, test_operators.py and test_orlicz.py, for a cold memo",
}


def test_every_export_in_src_is_reached_or_listed():
    package = SRC / "sparse_harmonics"
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    scripts = console_scripts((ROOT / "pyproject.toml").read_text())
    assert "cli.main" in scripts
    found = set(unreachable_exports(sources, scripts))
    assert not found - TEST_ONLY.keys(), (
        "exported names no src code reads:\n" + "\n".join(sorted(found - TEST_ONLY.keys()))
    )
    assert not TEST_ONLY.keys() - found, (
        "listed as test-only but read in src:\n" + "\n".join(sorted(TEST_ONLY.keys() - found))
    )


def test_every_oracle_is_read_by_a_test_or_another_oracle():
    sources = {path.stem: path.read_text() for path in sorted(TESTS.glob("*.py"))}
    found = unreachable_oracles(sources, "oracles") + unreachable_oracles(sources, "criteria")
    assert not found, (
        "oracles and criteria that no test and no other helper reads:\n" + "\n".join(found)
    )


def _calls_by_name(callers) -> dict[str, list[ast.Call]]:
    """Each call in callers, under the name it calls: `f(...)` and
    `x.f(...)` both call f."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def _defs(sources: dict[str, str]):
    """(called name, "module.where", arguments, positional parameters,
    skip) for each def in sources: a call of a class goes to its __init__,
    reported as "module.Class", and the self or cls of a method takes no
    position (skip is 1)."""
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {
            n: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = owner[node] if node.name == "__init__" else node.name
            where = f"{owner[node]}.{node.name}" if node in owner and name == node.name else name
            a = node.args
            params = [*a.posonlyargs, *a.args]
            skip = int(node in owner and bool(params) and params[0].arg in ("self", "cls"))
            yield name, f"{module}.{where}", a, params, skip


def unset_defaults(sources: dict[str, str], callers) -> list[str]:
    """"module.function(parameter)" for each defaulted parameter of a def in
    sources that no call in callers sets, by keyword or by position: a knob
    that every caller leaves at its default.  A call is matched to a def by
    name (`f(...)` or `x.f(...)`), and a call of a class to its __init__,
    reported as "module.Class(parameter)"; the self or cls of a method takes
    no position, and a call with *args sets every positional parameter."""
    calls = _calls_by_name(callers)
    out = []
    for name, where, a, params, skip in _defs(sources):
        found = calls.get(name, [])
        positions = max((
            math.inf if any(isinstance(x, ast.Starred) for x in c.args) else len(c.args)
            for c in found), default=0)
        keywords = {k.arg for c in found for k in c.keywords}
        defaulted = list(enumerate(params))[len(params) - len(a.defaults):]
        defaulted += [(math.inf, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        out += [
            f"{where}({p.arg})" for i, p in defaulted
            if i - skip >= positions and p.arg not in keywords
        ]
    return out


def _passed(call: ast.Call, position: float, param: str, default):
    """The expression that call passes for a parameter, by keyword or at
    its position, else the parameter's default (None if it has none);
    None where *args or **kwargs may pass it."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    if any(k.arg is None for k in call.keywords):
        return None
    star = next((j for j, x in enumerate(call.args) if isinstance(x, ast.Starred)), None)
    if star is not None and position >= star:
        return None
    return call.args[position] if position < len(call.args) else default


def _literal(node) -> str | None:
    """The repr of a literal expression's value, else None: 0x10 reads as
    16 and 2. as 2.0, but True is not 1 and () is not []."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return None


def single_literal_parameters(sources: dict[str, str], callers) -> list[str]:
    """"module.function(parameter)" for each parameter of a def in sources
    that every call in callers passes the same literal, by position or by
    keyword, compared by value (`_literal`; a call that leaves it out
    passes its default): a parameter with one value is a constant.  Calls
    are matched to defs as in unset_defaults; a def that nothing calls is
    not judged."""
    calls = _calls_by_name(callers)
    out = []
    for name, where, a, params, skip in _defs(sources):
        found = calls.get(name)
        if not found:
            continue
        defaults = dict(zip((p.arg for p in params[len(params) - len(a.defaults):]), a.defaults))
        defaults |= {p.arg: d for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
        positioned = [(i - skip, p) for i, p in enumerate(params) if i >= skip]
        for position, p in positioned + [(math.inf, p) for p in a.kwonlyargs]:
            values = {_literal(_passed(c, position, p.arg, defaults.get(p.arg))) for c in found}
            if len(values) == 1 and None not in values:
                out.append(f"{where}({p.arg})")
    return out


def test_checker_sees_unset_defaults():
    sources = {
        "a": (
            "def f(x, y=1, *, z=2):\n"
            "    pass\n"
            "def g(x=1):\n"
            "    pass\n"
            "def h(u=1, v=2):\n"
            "    pass\n"
            "class K:\n"
            "    def __init__(self, a=0, b=0):\n"
            "        pass\n"
            "    def m(self, c=1, e=2):\n"
            "        pass\n"
        ),
    }
    callers = [
        "f(1, 2)\n"  # y by position; the keyword-only z never
        "h(*args)\n"  # every positional parameter
        "K(b=3)\n"  # b by keyword, a never
        "k.m(5)\n",  # c by position after self, e never
    ]
    assert unset_defaults(sources, callers) == ["a.f(z)", "a.g(x)", "a.K(a)", "a.K.m(e)"]
    assert unset_defaults(sources, callers + ["f(z=0)\ng(x=0)\nK(1)\nk.m(e=0)\n"]) == []


def _sources_and_callers() -> tuple[dict[str, str], list[str]]:
    """The src modules by name, and the text of every file that may call
    them: a knob that only a test sets is a constant, so the tests are no
    caller."""
    sources = {path.stem: path.read_text() for path in sorted((SRC / "sparse_harmonics").glob("*.py"))}
    callers = [
        path.read_text() for tree in (SRC, ROOT / "perfbench", ROOT / "benchmarks")
        for path in sorted(tree.rglob("*.py"))
    ]
    return sources, callers


def test_every_defaulted_parameter_is_set_by_a_caller():
    found = unset_defaults(*_sources_and_callers())
    assert not found, (
        "defaulted parameters no caller sets (make them constants):\n" + "\n".join(found)
    )


def test_checker_sees_single_literal_parameters():
    sources = {
        "a": (
            "def f(x, y, z=2, *, k=0):\n"
            "    pass\n"
            "def g(u):\n"
            "    pass\n"
            "def h(v):\n"
            "    pass\n"
            "def spare(w=1):\n"
            "    pass\n"
            "class K:\n"
            "    def __init__(self, a):\n"
            "        pass\n"
            "    def m(self, c, e=1):\n"
            "        pass\n"
        ),
    }
    callers = [
        "f(1, 2.0)\n"  # x and y by position, z and k left at their defaults
        "f(0x1, y=2., z=3)\n"  # the same x and y by value; z differs
        "g(True)\n"
        "g(1)\n"  # True is not 1
        "h(*args)\n"  # v may be anything
        "K([])\n"  # a, after self
        "k.m(5, e=1)\n"
        "k.m(5, 2)\n",  # c after self; e differs
    ]
    assert single_literal_parameters(sources, callers) == [
        "a.f(x)", "a.f(y)", "a.f(k)", "a.K(a)", "a.K.m(c)"]
    more = "f(2, y)\nf(1, 2.0, 3, k=4)\nK(())\nk.m(c)\n"
    assert single_literal_parameters(sources, callers + [more]) == []


# Parameters that every caller passes one literal, each with why it stays
SINGLE_VALUE_ALLOWED = {
    "sparse.stopping_cubes(factor)": "criteria.oscillation_sparse sweeps with factor 4, "
                                     "principal cubes with 2",
    "sparse.stopping_cubes(recenter)": "criteria.oscillation_sparse sweeps recentred, "
                                       "principal cubes do not",
    "grid.GridFunction.constant(c)": "the value of a constant function is data, not a switch",
    "grid.Memo(size)": "the capacity of the one memo, written where MEMO is made",
}


def test_no_parameter_takes_one_literal_from_every_caller():
    found = set(single_literal_parameters(*_sources_and_callers()))
    assert not found - SINGLE_VALUE_ALLOWED.keys(), (
        "parameters every caller passes one literal (make them constants):\n"
        + "\n".join(sorted(found - SINGLE_VALUE_ALLOWED.keys()))
    )
    assert not SINGLE_VALUE_ALLOWED.keys() - found, (
        "listed as single-valued but passed more than one value:\n"
        + "\n".join(sorted(SINGLE_VALUE_ALLOWED.keys() - found))
    )


def _cache_decorator(node: ast.AST) -> str | None:
    """The name of a functools cache that node decorates with, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in ("cache", "lru_cache", "cached_property") else None


def object_caches(sources: dict[str, str]) -> list[str]:
    """"module.qualname: what" for each cache that outlives a call: a def
    decorated with functools.cache, lru_cache or cached_property, and a
    method other than __init__ and __post_init__ that sets an attribute of
    self (by assignment, setattr or object.__setattr__), in a nested def
    too."""
    out = []

    def visit(node: ast.AST, path: tuple, module: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, module, in_class)
                continue
            name = ".".join((module, *path, child.name))
            out.extend(
                f"{name}: @{_cache_decorator(d)} (line {d.lineno})"
                for d in child.decorator_list if _cache_decorator(d)
            )
            if in_class and not isinstance(child, ast.ClassDef) and \
                    child.name not in ("__init__", "__post_init__"):
                for n in ast.walk(child):
                    if isinstance(n, ast.Call) and n.args and isinstance(n.args[0], ast.Name) \
                            and n.args[0].id == "self" and (
                                getattr(n.func, "id", None) == "setattr"
                                or getattr(n.func, "attr", None) == "__setattr__"):
                        out.append(f"{name}: sets an attribute of self (line {n.lineno})")
                    elif isinstance(n, ast.Attribute) and isinstance(n.ctx, (ast.Store, ast.Del)) \
                            and isinstance(n.value, ast.Name) and n.value.id == "self":
                        out.append(f"{name}: sets self.{n.attr} (line {n.lineno})")
            visit(child, (*path, child.name), module, isinstance(child, ast.ClassDef))

    for module, source in sources.items():
        visit(ast.parse(source), (), module, False)
    return out


def test_checker_sees_object_caches():
    sources = {
        "a": (
            "import functools\n"
            "from functools import lru_cache\n"
            "@functools.cache\n"
            "def table(n):\n"
            "    return n\n"
            "@lru_cache(maxsize=4)\n"
            "def small(n):\n"
            "    return n\n"
            "class K:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'y', 2)\n"
            "    @functools.cached_property\n"
            "    def slow(self):\n"
            "        return 3\n"
            "    def lazy(self):\n"
            "        if self.z is None:\n"
            "            self.z, n = 4, 5\n"
            "        return self.z\n"
            "    def store(self, d):\n"
            "        self.d[0] = d\n"
            "        other.v = d\n"
            "        def inner():\n"
            "            setattr(self, 'w', d)\n"
            "        return inner\n"
            "def free(self):\n"
            "    self.q = 1\n"
        ),
    }
    assert object_caches(sources) == [
        "a.table: @cache (line 3)",
        "a.small: @lru_cache (line 6)",
        "a.K.slow: @cached_property (line 14)",
        "a.K.lazy: sets self.z (line 19)",
        "a.K.store: sets an attribute of self (line 25)",
    ]


# The caches that src/ may keep: tables that depend only on the domain,
# the cube family or nothing, never on a function, weight or symbol (those
# results go through `grid.MEMO`, keyed by content)
CACHES_ALLOWED = {
    "grid.family_for": "one cube family per domain",
    "grid.CubeFamily.groups": "the family's level groups",
    "grid.CubeFamily.width_order": "the family's levels by width",
    "weights._double_table": "the doubled cubes of a family",
    "maximal._llogl_young": "the L log L Young function, built once",
    "cli._parser": "the command line's parser",
}


def test_no_object_cache_in_src():
    sources = {path.stem: path.read_text() for path in sorted((SRC / "sparse_harmonics").glob("*.py"))}
    found = object_caches(sources)
    extra = [f for f in found if f.split(":")[0] not in CACHES_ALLOWED or "@" not in f]
    assert not extra, (
        "caches beside grid.MEMO (memoise per content there instead):\n" + "\n".join(extra)
    )
    stale = CACHES_ALLOWED.keys() - {f.split(":")[0] for f in found}
    assert not stale, "allowed caches that src no longer keeps:\n" + "\n".join(sorted(stale))


def test_benchmark_tracer_binds_every_traced_name():
    # install() fails on a traced name bound nowhere; a traced L log L call
    # fails when luxemburg_per_cube renames a parameter the tracer reads
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    dom = Domain(0.0, 1.0, 5)
    f = GridFunction(dom, np.linspace(0.1, 2.0, dom.n_cells))
    tracer = tracing.Tracer()
    MEMO.clear()
    try:
        tracer.install()
        maximal_module.multilinear_maximal([f], "llogl")
    finally:
        tracer.uninstall()
    n_groups = len(maximal_module.family_for(dom).groups)
    assert tracer.calls["maximal.multilinear_maximal"] == 1
    # one call per level group; at L = 5 the 24 family entries make one group
    assert tracer.calls["maximal.luxemburg_per_cube"] == n_groups == 1


def test_importing_the_cli_loads_no_test_only_scipy_subpackage():
    # scipy made up most of the start-up time; the package runs on numpy
    # alone, and every scipy module is a test-only oracle
    probe = (
        "import sys, sparse_harmonics.cli\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
