"""The package's import graph is layered: each module imports only modules
of lower layers, at its top, and no private name of another module.  No
module of the package, the tests or the demos imports a name it does not
use."""

import ast
from pathlib import Path

import pytest

import tilediff

# lowest layer first; a module imports only modules of lower layers
LAYERS = [("algebra", "svg"), ("cps",), ("cocycle",), ("models",), ("inflation",),
          ("windows",), ("diffraction",), ("verify",), ("cli",)]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
SOURCES = sorted(p for p in Path(tilediff.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
# perfbench/ is the benchmark's own code and is not scanned
SCANNED = [*sorted(Path(tilediff.__file__).parent.glob("*.py")),
           *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "demos").glob("*.py"))]


def _package_imports(node):
    """(module, names) of each import of a tilediff module in ``node``."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            if node.module is None:        # from . import a, b
                return [(alias.name, []) for alias in node.names]
            return [(node.module, [alias.name for alias in node.names])]
        if node.module and node.module.split(".")[0] == "tilediff":
            return [(node.module.split(".")[1], [alias.name for alias in node.names])]
    if isinstance(node, ast.Import):
        return [(alias.name.split(".")[1], []) for alias in node.names
                if alias.name.startswith("tilediff.")]
    return []


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SOURCES) == sorted(RANK)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_imports_follow_the_layers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    nested = sorted({node.lineno for func in ast.walk(tree)
                     if isinstance(func, functions) for node in ast.walk(func)
                     if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert not nested, f"{path.name}: imports inside a function at lines {nested}"
    for node in ast.walk(tree):
        for module, names in _package_imports(node):
            assert RANK[module] < RANK[path.stem], \
                f"{path.name}:{node.lineno} imports {module}, which is not below it"
            private = [n for n in names if n.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} imports {module}.{private}"


def _unused_imports(tree):
    """'line: name' of each name ``tree`` imports and never uses as a name;
    the strings of its ``__all__`` count as used."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports names it never uses: {unused}"
