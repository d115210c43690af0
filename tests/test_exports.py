"""The public API holds what the package uses: every name in
``econclimb.__all__``, and every public top-level function and class of the
package's modules, is read somewhere in the package's own modules, or is
kept public for a stated reason. Helpers only the tests use live under
``tests/``, and so do knobs only the tests set: every defaulted parameter
is passed by a call in the package, or kept for a stated reason. Every
exception class of ``errors`` has one exit code in
``cli_io.main``."""

import ast
from pathlib import Path

import econclimb

#: Public names no package module reads, each kept for a reason.
KEPT_UNUSED = {
    "ConstantAtmosphere": "the benchmark's span tracer patches its density",
    "cost_gradient": "bench/tests/test_bench.py::"
                     "test_tracer_restores_every_binding reads it, and the "
                     "tests' reference scan calls it",
    "__version__": "package metadata",
}

#: Defaulted parameters no package call passes, each kept for a reason.
KEPT_DEFAULTS = {
    "segment_between.density_band": "the benchmark's leg oracle in "
                                    "bench/checks.py passes it",
    "load_config.env": "the benchmark and the tests pass a fixed "
                       "environment in place of os.environ",
    "main.argv": "the console script passes none, and in-process callers "
                 "pass the command line",
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
    stale = sorted(set(KEPT_UNUSED) & read)
    assert stale == [], (
        f"kept as unused but read by the package: {stale}; remove their "
        "KEPT_UNUSED entries")
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


def _is_dataclass(node):
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaulted_parameters(tree):
    """(owner, name, index) of every defaulted dataclass field and function
    or method parameter: the owner is the class or function a call names,
    and the index is the parameter's position in a call (self not counted),
    None for a keyword-only one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            yield from ((node.name, field.target.id, index)
                        for index, field in enumerate(fields)
                        if field.value is not None)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            bound = int(bool(positional) and positional[0].arg == "self")
            yield from ((node.name, arg.arg, index - bound)
                        for index, arg in enumerate(positional)
                        if index >= first)
            yield from ((node.name, arg.arg, None)
                        for arg, default in zip(args.kwonlyargs,
                                                args.kw_defaults)
                        if default is not None)


def test_every_defaulted_parameter_is_set_by_the_package():
    # a default that only a test overrides is a knob for the tests: the
    # package states the value once, as a constant, and calls match a
    # definition by the name they call (f(...) or x.f(...))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    keywords, positions = set(), {}
    for node in (n for tree in trees for n in ast.walk(tree)
                 if isinstance(n, ast.Call)):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        keywords.update((name, kw.arg) for kw in node.keywords)
        positions[name] = max(positions.get(name, 0), len(node.args))
    unset = sorted(
        f"{owner}.{name}" for tree in trees
        for owner, name, index in _defaulted_parameters(tree)
        if (owner, name) not in keywords
        and (index is None or positions.get(owner, 0) <= index))
    knobs = [name for name in unset if name not in KEPT_DEFAULTS]
    assert unset == sorted(KEPT_DEFAULTS), (
        f"defaulted parameters no package call passes: {knobs}; state the "
        "value once in the package, or keep the default for a stated reason "
        "in KEPT_DEFAULTS (whose entries must all still be unset)")
