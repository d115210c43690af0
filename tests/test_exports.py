"""The public API holds what the package uses: every name in
``econclimb.__all__``, and every public top-level function and class of the
package's modules, is read somewhere in the package's own modules, or is
kept public for a stated reason. Helpers only the tests use live under
``tests/``. Every exception class of ``errors`` has one exit code in
``cli_io.main``."""

import ast
from pathlib import Path

import econclimb

#: Public names no package module reads, each kept for a reason.
KEPT_UNUSED = {
    "ConstantAtmosphere": "the benchmark's span tracer patches its density",
    "cost_gradient": "the benchmark's span tracer counts its calls, and the "
                     "tests' reference scan reads it",
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


PACKAGE = Path(econclimb.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py")
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


def test_the_drag_polar_is_read_in_vehicle_only():
    # the polar's coefficients are stated once, in vehicle._polar and the
    # charge's one closed form; other modules read them through it
    polar = {"cd0", "cd2", "wing_area", "weight"}
    readers = sorted(
        f"{path.name}:{node.lineno} {node.attr}" for path in MODULES
        if path.name != "vehicle.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in polar)
    assert readers == [], (
        f"drag polar attributes read outside vehicle: {readers}; take the "
        "coefficients from vehicle._polar")


def _parsed(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def test_the_filtered_ci_comes_from_ci_at():
    # cost_index.ci_at states the filter once; in the optimizer only
    # total_cost, the filter's time integral, calls expm1 itself
    callers = {getattr(top, "name", "<module>")
               for top in _parsed("climb_optimizer.py").body
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "expm1"
               or isinstance(node, ast.Name) and node.id == "expm1"}
    assert callers == {"total_cost"}, (
        f"expm1 called in {sorted(callers)}; take the filtered CI from "
        "cost_index.ci_at")


def test_no_public_function_only_forwards_to_another():
    # a public function whose body is one return of another package
    # function's result (a [0] on it counts) is a second name for that
    # result: callers call the function it forwards to
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    functions = {node.name for tree in trees.values() for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    wrappers = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name[0] == "_":
                continue
            body = node.body[1:] if ast.get_docstring(node) else node.body
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if isinstance(call, ast.Subscript):
                call = call.value
            callee = getattr(call, "func", None)
            name = getattr(callee, "id", getattr(callee, "attr", None))
            if isinstance(call, ast.Call) and name in functions:
                wrappers.append(f"{stem}.{node.name} -> {name}")
    assert wrappers == [], (
        f"public functions that only forward a call: {wrappers}; call the "
        "function they forward to")


def test_every_error_has_one_exit_code():
    # a new class in errors.py with no except clause in main would end the
    # command in a traceback instead of a clear exit code
    errors = [node.name for node in _parsed("errors.py").body
              if isinstance(node, ast.ClassDef)]
    main = next(node for node in _parsed("cli_io.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [handler for node in ast.walk(main)
                if isinstance(node, ast.Try) for handler in node.handlers]
    codes = {name: [ret.value.value for handler in handlers
                    if name in {n.id for n in ast.walk(handler.type)
                                if isinstance(n, ast.Name)}
                    for ret in handler.body if isinstance(ret, ast.Return)]
             for name in errors}
    assert codes == {"DomainError": [2], "EnvelopeError": [3],
                     "ConfigError": [2]}
