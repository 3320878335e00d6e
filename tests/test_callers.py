"""Every function, method and class of the package has a caller outside the
tests: a library module that uses its name, or a bench file, demo or the
README that names it.  Library code that only tests call belongs in the
tests."""

import ast
import re
from pathlib import Path

import tilediff

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(tilediff.__file__).parent.glob("*.py"))
# read as text only; nothing here imports or runs them
OUTSIDE = [*sorted((ROOT / "perfbench").glob("*.py")),
           *sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md"]

# definitions kept without a caller, one reason each
ALLOWED = {
    "save_displacement": "writes the documented displacement schema that "
                         "load_displacement reads",
}


def _definitions():
    """{name: 'module:line'} of each non-dunder def and class."""
    defs = {}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, kinds) and not (node.name.startswith("__")
                                                and node.name.endswith("__")):
                defs.setdefault(node.name, f"{path.name}:{node.lineno}")
    return defs


def _used_names():
    """Names the library uses, and the words of the bench, demos and README."""
    used = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for path in OUTSIDE:
        used.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return used


def test_every_definition_has_a_caller():
    defs, used = _definitions(), _used_names()
    unused = sorted(f"{where} {name}" for name, where in defs.items()
                    if name not in used and name not in ALLOWED)
    assert not unused, f"defined but called only by tests, if at all: {unused}"


def test_allowed_names_are_defined():
    """An allow-list entry whose definition goes leaves the list."""
    assert set(ALLOWED) <= set(_definitions())
