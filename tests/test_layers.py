"""The import layers of the package, read from the source with ``ast``.

Each module may import only modules below it in ``ORDER``; the package
``__init__`` sits on top and may import any of them.  The bottom
layers stay free of the package: ``halfint`` and ``kernels`` import no
helirep module, so the kernels work on plain ints, Fractions and arrays.
"""

import ast
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
