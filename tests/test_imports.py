import ast
import importlib
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "todaflow"


def _unused_imports(path: Path) -> list[str]:
    # names a module binds by import and never reads; __init__ re-exports by
    # star import, so it is not checked
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, f"imported and never used: {unused}"



def _private_names(node: ast.stmt) -> list[str]:
    # the functions, classes and constants a module-level statement defines
    # under a name with one leading underscore
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _read_names(node: ast.AST) -> set[str]:
    # names read under node, as a name, an attribute or an import from a sibling
    read = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            read.add(child.id)
        elif isinstance(child, ast.Attribute):
            read.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            read.update(alias.name for alias in child.names)
    return read


def test_every_private_helper_is_read():
    # a helper counts as read only outside its own definition, so one that
    # only calls itself is dead too
    statements = [(path.name, node) for path in sorted(PACKAGE.glob("*.py")) for node in ast.parse(path.read_text()).body]
    reads = [_read_names(node) for _, node in statements]
    helpers = [(i, name) for i, (_, node) in enumerate(statements) for name in _private_names(node)]
    assert helpers
    dead = [
        f"{statements[i][0]}:{statements[i][1].lineno} {name}"
        for i, name in helpers
        if not any(name in read for j, read in enumerate(reads) if j != i)
    ]
    assert not dead, f"private and read by no module of the package: {dead}"


def _defaulted(node: ast.FunctionDef) -> list[tuple[int | None, str]]:
    # (position or None if keyword-only, name) of each parameter with a default
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(i, positional[i].arg) for i in range(first, len(positional))] + [
        (None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]


def _sets(call: ast.Call, position: int | None, name: str) -> bool:
    # whether call passes the parameter, by position (a *args may reach any)
    # or by keyword (a **kwargs may name any)
    if position is not None and (
        len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)
    ):
        return True
    return any(keyword.arg in (name, None) for keyword in call.keywords)


def test_every_default_of_a_private_function_is_overridden_somewhere():
    # a default that no call in the package overrides is a constant, not a knob
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    functions = [
        (module, node)
        for module, tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and _private_names(node)
    ]
    assert any(_defaulted(node) for _, node in functions)
    fixed = [
        f"{module}:{node.lineno} {node.name}({name}=)"
        for module, node in functions
        for position, name in _defaulted(node)
        if not any(_sets(call, position, name) for call in calls.get(node.name, []))
    ]
    assert not fixed, f"defaulted parameters that no call in the package sets: {fixed}"


def _passed_names(call: ast.Call) -> list[str | None]:
    # what call passes, in order, each as the name it reads (None for any
    # other expression); keywords that pass a constant are left out
    values = [arg.value if isinstance(arg, ast.Starred) else arg for arg in call.args]
    values += [keyword.value for keyword in call.keywords if not isinstance(keyword.value, ast.Constant)]
    return [value.id if isinstance(value, ast.Name) else None for value in values]


def _forwards(node: ast.FunctionDef) -> bool:
    # whether node's body, after an optional docstring, is one return of a
    # call that passes node's own parameters through in order
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not (len(body) == 1 and isinstance(body[0], ast.Return) and isinstance(body[0].value, ast.Call)):
        return False
    args = node.args
    params = args.posonlyargs + args.args + [args.vararg] + args.kwonlyargs + [args.kwarg]
    return _passed_names(body[0].value) == [arg.arg for arg in params if arg is not None]


def test_no_private_function_only_forwards_its_parameters():
    # such a function is a second name for the call it makes
    functions = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and _private_names(node)
    ]
    assert functions
    forwarders = [f"{module}:{node.lineno} {node.name}" for module, node in functions if _forwards(node)]
    assert not forwarders, f"private functions that only pass their parameters on to one call: {forwarders}"


def test_readme_module_table_names_only_exported_names():
    # every backticked name in the contents column of "What is in the box"
    # is in its row's module __all__
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    table = readme.split("## What is in the box", 1)[1].strip().split("\n\n")[0]
    rows = re.findall(r"^\| `(todaflow\.\w+)` +\| (.*) \|$", table, re.MULTILINE)
    assert rows
    stray = [
        f"{module}.{name}"
        for module, contents in rows
        for name in re.findall(r"`(\w+)`", contents)
        if name not in importlib.import_module(module).__all__
    ]
    assert not stray, f"README names what its module does not export: {stray}"


# numpy's module-level reductions run a Python wrapper before the array
# method they end in (4.0 against 1.8 us for the min of 16 doubles)
_WRAPPED_REDUCTIONS = frozenset(("all", "any", "min", "max", "amin", "amax", "sum", "prod"))


def _wrapped_reductions(path: Path) -> list[str]:
    # the calls np.all(...), np.min(...) and the like in a module
    return [
        f"{path.name}:{node.lineno} np.{node.func.attr}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.func.attr in _WRAPPED_REDUCTIONS
    ]


def test_reductions_are_array_methods():
    # a.min(), np.isfinite(a).all(): one spelling, without the wrapper
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _wrapped_reductions(path)]
    assert not found, f"numpy reduction wrappers; call the array method instead: {found}"


def _warnings_imports(path: Path) -> list[str]:
    # import warnings, import warnings as w, from warnings import warn
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(alias.name == "warnings" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "warnings")
    ]


def test_no_module_imports_warnings():
    # numerical trouble raises a NumericalError or OverflowError; a warning
    # can be filtered away, so the library issues none
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _warnings_imports(path)]
    assert not found, f"warnings imported in the package: {found}"


def _python_floor() -> tuple[int, int]:
    # pyproject.toml's requires-python floor, read with a regex, as tomllib
    # is 3.11+
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_every_module_parses_at_the_declared_python_floor():
    # syntax newer than the floor (except*, type statements) fails here,
    # whatever interpreter runs the tests
    floor = _python_floor()
    for path in sorted(PACKAGE.glob("*.py")):
        try:
            ast.parse(path.read_text(), filename=path.name, feature_version=floor)
        except SyntaxError as exc:
            raise AssertionError(f"{path.name} needs a newer Python than {floor}: {exc}") from exc


def _ndarray_dataclasses_compared_by_field(path: Path) -> list[str]:
    # classes decorated @dataclass without eq=False that annotate a field
    # with np.ndarray (also inside Optional[...] or tuple[...])
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            func = call.func if call else decorator
            if not (isinstance(func, ast.Name) and func.id == "dataclass"):
                continue
            eq_false = call is not None and any(
                keyword.arg == "eq" and isinstance(keyword.value, ast.Constant) and keyword.value.value is False
                for keyword in call.keywords
            )
            holds_array = any(
                isinstance(part, ast.Attribute) and part.attr == "ndarray"
                for field in node.body
                if isinstance(field, ast.AnnAssign)
                for part in ast.walk(field.annotation)
            )
            if holds_array and not eq_false:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_dataclasses_holding_arrays_compare_by_identity():
    # a field-by-field == on numpy arrays raises "the truth value of an
    # array ... is ambiguous", so such a class passes eq=False
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _ndarray_dataclasses_compared_by_field(path)]
    assert not found, f"dataclasses with array fields and a field-by-field ==: {found}"


def _fsum_calls(tree: ast.AST) -> set[tuple[int, int]]:
    # (line, column) of every math.fsum(...) or bare fsum(...) call under tree
    return {
        (node.lineno, node.col_offset)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "fsum")
            or (isinstance(node.func, ast.Name) and node.func.id == "fsum")
        )
    }


def test_fsum_is_called_only_by_the_one_accumulator():
    # every compensated sum of the package goes through jacobi._weighted_sums
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = _fsum_calls(tree)
        for node in tree.body:
            if path.name == "jacobi.py" and isinstance(node, ast.FunctionDef) and node.name == "_weighted_sums":
                assert calls & _fsum_calls(node), "_weighted_sums calls math.fsum no longer"
                calls -= _fsum_calls(node)
        found += [f"{path.name}:{line}" for line, _ in sorted(calls)]
    assert not found, f"math.fsum outside jacobi._weighted_sums: {found}"


# the value types whose constructors check what they are given, and the
# function whose call of them checks a caller's coefficient function
_CHECKED_TYPES = frozenset(("JacobiMatrix", "DiscreteMeasure", "TodaTrajectory", "MomentSequence"))
_OUTSIDE_DATA = frozenset(("truncation",))


def _checked_constructions(node: ast.AST, scope: str) -> list[tuple[str, int]]:
    # (enclosing qualified name, line) of each call of a value type under
    # node, its functions and classes named by their dotted path
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found += _checked_constructions(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in _CHECKED_TYPES:
                found.append((scope, child.lineno))
        found += _checked_constructions(child, scope)
    return found


def test_values_the_library_makes_are_built_unchecked():
    # a value type's checks run where outside data enters; every value the
    # library makes itself goes through jacobi._unchecked
    calls = [
        (path.name, scope, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, line in _checked_constructions(ast.parse(path.read_text()), "")
    ]
    assert _OUTSIDE_DATA <= {scope for _, scope, _ in calls}, "the lint no longer sees the checked constructions"
    found = [f"{module}:{line} in {scope or 'module'}" for module, scope, line in calls if scope not in _OUTSIDE_DATA]
    assert not found, f"checked constructions of values the library makes; use jacobi._unchecked: {found}"
