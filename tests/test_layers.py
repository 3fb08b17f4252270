"""The import layers of the package, read from the source with ``ast``.

Each module may import only modules below it in ``ORDER``; the package
``__init__`` sits on top and may import any of them.  The bottom
layers stay free of the package: ``halfint`` and ``kernels`` import no
helirep module, so the kernels work on plain ints, Fractions and arrays.

The runtime needs numpy only: no module imports scipy anywhere, at
module level or inside a function, so no helirep path can load it.
scipy is a test oracle (``expm``, ``j0``, RK45).  The radial integrators
run their own Dormand-Prince loop.  Nor does any module use
``numpy.random``: every check is exact or deterministic, and a process
that never loads it stays about 6 MiB smaller.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "helirep"

ORDER = (
    "halfint", "kernels", "core", "su2", "hyperspherical", "generators",
    "tensordec", "clifford", "gelfand_yaglom", "radial", "suites", "cli",
    "__init__",
)

# Names a module may take from the package namespace itself rather than
# from a submodule: metadata that ``__init__`` defines, not a layer.
PACKAGE_ATTRIBUTES = {"__version__"}


def _imports(name):
    """(helirep modules imported, names taken from the package itself)."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    modules, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "helirep":
                    modules.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "helirep":
                    continue
                parts = parts[1:]
            else:
                parts = node.module.split(".") if node.module else []
            if parts:
                modules.add(parts[0])
                continue
            for alias in node.names:
                if alias.name in ORDER:
                    modules.add(alias.name)
                else:
                    attributes.add(alias.name)
    return modules, attributes


def test_order_lists_every_module():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(ORDER)


@pytest.mark.parametrize("name", ORDER)
def test_imports_only_lower_layers(name):
    modules, attributes = _imports(name)
    rank = ORDER.index(name)
    upward = sorted(m for m in modules if ORDER.index(m) >= rank)
    assert not upward, f"{name} imports {upward} at or above its layer"
    assert attributes <= PACKAGE_ATTRIBUTES, (
        f"{name} takes {sorted(attributes - PACKAGE_ATTRIBUTES)} from the package"
    )


@pytest.mark.parametrize("name", ["halfint", "kernels"])
def test_bottom_layers_import_no_helirep_module(name):
    modules, attributes = _imports(name)
    assert not modules and not attributes


def _all_imports(tree):
    """Top-level names of every module a module imports anywhere, function
    bodies included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("name", ORDER)
def test_no_module_imports_scipy_when_imported(name):
    """Nor when one of its functions runs: every import statement counts."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert "scipy" not in _all_imports(tree)


COLD_START = """
import contextlib, io, sys
import numpy as np
from helirep import cli
for argv in (["zfun", "--l", "1/2", "--theta", "1", "--tau", "0.5"],
             ["verify", "cg"], ["verify", "clifford"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, "scipy loaded"
from helirep.gelfand_yaglom import dirac_system
from helirep.radial import assemble_rfs, convergence_order, integrate
system = dirac_system()
rs = assemble_rfs(system, "1/2", "1/2")
sol = integrate(rs, 0.5, 10.0, [1, 0, 0, 0], 200)
assert sol.values.shape == (201, 4) and np.isfinite(sol.values).all()
assert convergence_order(rs, 0.5, 2.0, [1, 0, 0, 0], base_steps=10)["order"] > 0
for argv in (["radial", "--chain", "dirac"], ["verify", "radial"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, "scipy loaded by an integration"
print("ok")
"""


def test_cli_calls_that_never_integrate_leave_scipy_unloaded():
    """Nor do the radial integrators, their CLI calls and ``verify radial``:
    scipy stays unloaded to the end."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("HELIREP_TOL", None)
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def _unused_imports(tree):
    """The names a module binds by an import statement and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("name", [n for n in ORDER if n != "__init__"])
def test_every_imported_name_is_used(name):
    """``__init__`` is exempt: it imports to re-export."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    unused = _unused_imports(tree)
    assert not unused, f"{name} imports {unused} and never reads them"


def test_the_unused_import_rule_sees_each_spelling():
    source = ("from __future__ import annotations\nimport math\n"
              "import numpy as np\nimport os.path\n"
              "from .halfint import half, mrange as mr\n"
              "x = np.pi + half(1)\n")
    assert _unused_imports(ast.parse(source)) == ["math", "mr", "os"]


# Module-level names outside ``__all__`` that no other statement of the
# library reads yet, each with what keeps it (ROADMAP item numbers).  The
# table may only shrink: a name leaves it when a library caller lands or
# when the name goes.
AWAITING_CALLER = {
    "gelfand_yaglom.spin_content": "item 4's spectrum absorbs it",
    "generators.split_families": "item 14's realizations suite",
    "hyperspherical.m_function": "items 13 and 14, the non-abelian group law",
    "hyperspherical.rep_matrix": "items 13 and 14, the non-abelian group law",
    "su2.jac_p": "the boost twin of sph_p; items 10 and 18",
    "su2.wigner_d": "item 10, the quadrature route of the principal series",
    "tensordec.bilinear_form": "items 14 and 19, the invariant forms",
    "tensordec.symmetrizer_one_row": "items 3 and 19, the isotypic projectors",
}


def _exported(trees):
    """The names in the package's ``__all__``."""
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id",
                                                    None) == "__all__":
            return set(ast.literal_eval(node.value))
    return set()


def _sources(tree):
    """Each name a module imports from a sibling module: (module, name)."""
    return {a.asname or a.name: (node.module, a.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.level == 1 and node.module for a in node.names}


def _unread_names(trees):
    """``module.name`` of each module-level function, class and constant
    that is outside ``__all__`` and that no other statement reads: a read
    is a name loaded in a module that defines it or imports it from the
    defining module.  ``__init__`` only re-exports, so it is exempt."""
    exported = _exported(trees)
    defined, read = {}, set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[module, stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = getattr(stmt, "targets", None) or [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined[module, target.id] = stmt
    for module, tree in trees.items():
        source = _sources(tree)
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = source.get(node.id, (module, node.id))
                    if defined.get(key) not in (None, stmt):
                        read.add(key)
    return sorted(f"{module}.{name}" for module, name in defined
                  if (module, name) not in read and name not in exported
                  and not name.startswith("__"))


def test_every_library_name_has_a_library_reader():
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
             for name in ORDER}
    unread = _unread_names(trees)
    assert unread == sorted(AWAITING_CALLER), (
        f"unread and not awaiting a caller: "
        f"{sorted(set(unread) - set(AWAITING_CALLER))}; read now, so drop them "
        f"from AWAITING_CALLER: {sorted(set(AWAITING_CALLER) - set(unread))}")


def test_the_reader_rule_sees_each_binding():
    trees = {
        "__init__": ast.parse("from .a import f\n__all__ = ['f']\n"),
        "a": ast.parse("import math\nLIMIT = 3\nPAIR: tuple = (1, 2)\n"
                       "def f():\n    return 1\n"
                       "def g():\n    return g()\n"
                       "class K:\n    pass\n"),
        "b": ast.parse("from .a import K as Kind, PAIR\n"
                       "def h():\n    return Kind, PAIR, LIMIT\n"),
    }
    # g reads itself only; LIMIT is read in b, which neither defines nor
    # imports it; h has no reader at all.
    assert _unread_names(trees) == ["a.LIMIT", "a.g", "b.h"]


# The console entry point: its ``argv`` default is passed from outside.
ENTRY_POINTS = {"cli.main"}


def _defaults(func):
    """The parameters of a function definition that have a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]


def _uncalled_defaults(trees):
    """``module.name(param)`` of each defaulted parameter of a module-level
    function outside ``__all__`` that no call elsewhere in the library
    passes, by position or by name.  A keyword passed to a callee that is
    not a plain name (``SUITES[name](tol, system=system)``) counts for
    every function with that parameter.  ``__init__``, the entry points
    and the names awaiting a caller are exempt."""
    exported, exempt = _exported(trees), ENTRY_POINTS | set(AWAITING_CALLER)
    functions = {(module, stmt.name): stmt for module, tree in trees.items()
                 if module != "__init__" for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef)}
    passed, any_callee = set(), set()
    for module, tree in trees.items():
        source = _sources(tree)
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                keywords = {k.arg for k in node.keywords}
                if not isinstance(node.func, ast.Name):
                    any_callee |= keywords
                    continue
                key = source.get(node.func.id, (module, node.func.id))
                func = functions.get(key)
                if func is None or func is stmt:
                    continue
                positional = func.args.posonlyargs + func.args.args
                passed.update((key, a.arg) for a in positional[:len(node.args)])
                passed.update((key, name) for name in keywords)
    return sorted(f"{module}.{name}({param})"
                  for (module, name), func in functions.items()
                  if name not in exported and f"{module}.{name}" not in exempt
                  for param in _defaults(func)
                  if ((module, name), param) not in passed and param not in any_callee)


def test_every_defaulted_parameter_has_a_library_caller():
    """A default that no library call overrides is an option with one
    value in use: it belongs in the function body as a constant."""
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
             for name in ORDER}
    assert _uncalled_defaults(trees) == []


def test_the_default_rule_sees_each_spelling():
    trees = {
        "__init__": ast.parse("from .a import f\n__all__ = ['f']\n"),
        "a": ast.parse("def f(x, tol=1):\n    return g(x) + h(x, 2) + k(x)\n"
                       "def g(x, y=1, *, z=2):\n    return g(x, y=0, z=1)\n"
                       "def h(x, y=1, s=2):\n    return x\n"
                       "def k(x, w=1):\n    return x\n"
                       "def main(argv=None):\n    return argv\n"),
        "b": ast.parse("from .a import k as kk\nT = {}\n"
                       "def u(n=3):\n    return kk(1, 2), T['v'](0, s=1)\n"),
    }
    # f is exported; g passes its own y and z only; h gets y by position,
    # and s from the subscript call, which passes s to every function with
    # an s; k gets w under an alias; main is an entry point only in cli.
    assert _uncalled_defaults(trees) == ["a.g(y)", "a.g(z)", "a.main(argv)",
                                         "b.u(n)"]


def _names_numpy_random(tree):
    """Whether a module imports numpy.random or reads ``np.random`` or
    ``numpy.random`` as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.random") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.startswith("numpy.random") or (
                    node.module == "numpy"
                    and any(a.name == "random" for a in node.names)):
                return True
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            return True
    return False


@pytest.mark.parametrize("name", ORDER)
def test_no_module_names_numpy_random(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert not _names_numpy_random(tree)


def test_the_rule_sees_each_spelling_of_numpy_random():
    for source in ("import numpy.random", "from numpy.random import default_rng",
                   "from numpy import random", "rng = np.random.default_rng(1)",
                   "numpy.random.seed(0)"):
        assert _names_numpy_random(ast.parse(source)), source
    assert not _names_numpy_random(ast.parse("import random\nx = np.linalg"))


NO_NUMPY_RANDOM = """
import contextlib, io, sys
import helirep
import helirep.cli
from helirep.clifford import odd_direct_sum
with contextlib.redirect_stdout(io.StringIO()):
    assert helirep.cli.main(["verify", "clifford"]) == 0
for m in range(1, 6):
    assert odd_direct_sum(m)["ok"], m
assert "numpy.random" not in sys.modules, "numpy.random loaded"
print("ok")
"""


def test_verify_clifford_and_odd_direct_sums_leave_numpy_random_unloaded():
    """In a fresh process: the tests themselves load numpy.random."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("HELIREP_TOL", None)
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_RANDOM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_radial_integrators_call_the_module_attribute_solve_ivp(monkeypatch):
    """``radial.solve_ivp`` stays a module attribute that ``integrate``
    looks up at call time; the benchmark's tracer probes it by that name.
    ``convergence_order`` runs its own fixed-step loop and never calls it."""
    import helirep.radial as radial
    from helirep.gelfand_yaglom import dirac_system

    calls = []
    solve = radial.solve_ivp
    assert callable(solve)

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(radial, "solve_ivp", counted)
    rs = radial.assemble_rfs(dirac_system(), "1/2", "1/2")
    radial.integrate(rs, 0.5, 10.0, [1, 0, 0, 0], 200)
    radial.convergence_order(rs, 0.5, 2.0, [1, 0, 0, 0], base_steps=10)
    assert calls == [(0.5, 10.0)]
