"""The public API holds what the package uses: every name in
``econclimb.__all__``, and every public top-level function and class of the
package's modules, is read somewhere in the package's own modules, or is
kept public for a stated reason. Helpers only the tests use live under
``tests/``."""

import ast
from pathlib import Path

import econclimb

#: Public names no package module reads, each kept for a reason.
KEPT_UNUSED = {
    "ConstantAtmosphere": "the benchmark's span tracer patches its density",
    "e430": "the README's library example builds its aircraft with it",
    "__version__": "package metadata",
}


def _names_read(module_path):
    """Every ast.Name id and ast.Attribute attr in one module."""
    names = set()
    for node in ast.walk(ast.parse(module_path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


MODULES = sorted(path for path in
                 Path(econclimb.__file__).resolve().parent.glob("*.py")
                 if path.name != "__init__.py")


def test_every_exported_name_is_used_by_the_package():
    read = set().union(*map(_names_read, MODULES))
    assert set(KEPT_UNUSED) <= set(econclimb.__all__)
    unused = [name for name in econclimb.__all__
              if name not in read and name not in KEPT_UNUSED]
    assert unused == [], (
        f"exported but never used inside the package: {unused}; move "
        "test-only helpers to tests/ or state why they stay public")


def test_every_public_definition_is_used_by_the_package():
    read = set().union(*map(_names_read, MODULES))
    unused = [f"{path.stem}.{node.name}" for path in MODULES
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in read and node.name not in KEPT_UNUSED]
    assert unused == [], (
        f"defined but never used inside the package: {unused}; move "
        "test-only helpers to tests/ or state why they stay public")
