"""Package surface: every public name resolves, none is listed twice, each
blend parameter has one form in every public signature, and every public
exception, like every raise in the package, belongs to one of the two
families the CLI maps to an exit code, every module uses each name it
imports, every public function is on the package's own verified path, the
harness reaches the catalog through one entry point, and the catalog uses
no NumPy."""

import ast
import importlib
import inspect
from collections.abc import Iterable
from pathlib import Path

import mixedspec
from mixedspec import BetaParam, VerificationError


def test_all_names_resolve_and_are_unique():
    names = mixedspec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mixedspec, name)]
    assert missing == []


def _public_signatures():
    # functions, and the methods of classes; a record's constructor is left
    # out, since its beta field is the (re, im) pair the JSON echoes
    for name in mixedspec.__all__:
        obj = getattr(mixedspec, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", inspect.signature(member, eval_str=True)
        elif callable(obj):
            yield name, inspect.signature(obj, eval_str=True)


def test_blend_parameters_have_one_form():
    want = {"alpha": float, "alphas": Iterable[float], "beta": BetaParam}
    seen, odd = set(), []
    for where, sig in _public_signatures():
        for p in sig.parameters.values():
            if p.name in want:
                seen.add(p.name)
                if p.annotation != want[p.name] or (p.name == "beta" and p.default is not p.empty):
                    odd.append(f"{where}({p})")
    assert seen == set(want)
    assert odd == []


def test_every_public_exception_is_bad_input_or_verification_failure():
    # cli.main maps ValueError to exit 2 and VerificationError to exit 1
    classes = [getattr(mixedspec, name) for name in mixedspec.__all__]
    errors = [c for c in classes if isinstance(c, type) and issubclass(c, BaseException)]
    assert errors
    odd = [c for c in errors if not issubclass(c, (ValueError, VerificationError))]
    assert odd == []


def test_every_raise_is_bad_input_or_verification_failure():
    # the same contract for every raise site in the package, public or not
    package = Path(mixedspec.__file__).parent
    odd = []
    for path in sorted(package.glob("*.py")):
        name = "mixedspec" if path.stem == "__init__" else f"mixedspec.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise):
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = eval(ast.unparse(target), vars(module)) if target is not None else None
            if not (isinstance(cls, type) and issubclass(cls, (ValueError, VerificationError))):
                odd.append(f"{path.name}:{node.lineno}")
    assert odd == []


def test_every_import_is_used():
    # the project runs no linter, so this catches a name that a deletion
    # leaves imported: each name a module imports (bar ``from __future__``)
    # is read in it
    package = Path(mixedspec.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_public_function_is_called_in_the_package():
    # a public function that no module calls is a second route beside the
    # verified one, which only the tests would exercise
    package = Path(mixedspec.__file__).parent
    called = set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                # f(...) is a Name call, module.f(...) an Attribute call
                called.add(getattr(node.func, "attr", getattr(node.func, "id", None)))
    functions = [n for n in mixedspec.__all__ if inspect.isfunction(getattr(mixedspec, n))]
    assert functions
    assert [name for name in functions if name not in called] == []


def _imported_from(tree: ast.Module, module: str) -> set[str]:
    """The names ``tree`` imports from the package's ``module``; importing
    the module itself counts as the name ``module``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                names |= {alias.name for alias in node.names}
            elif node.module in (None, "mixedspec"):
                names |= {module for alias in node.names if alias.name == module}
        elif isinstance(node, ast.Import):
            names |= {module for alias in node.names if alias.name.split(".")[-1] == module}
    return names


def test_harness_reads_the_catalog_through_score_block():
    # bounds evaluates and scores the catalog: the harness reads from it only
    # Status, the Row type of its records' annotations and score_block, and
    # bounds reads nothing from the harness
    assert mixedspec.Status is mixedspec.bounds.Status is mixedspec.harness.Status
    package = Path(mixedspec.__file__).parent
    harness, bounds = (
        ast.parse((package / f"{name}.py").read_text(encoding="utf-8")) for name in ("harness", "bounds")
    )
    assert _imported_from(harness, "bounds") == {"Status", "Row", "score_block"}
    assert _imported_from(bounds, "harness") == set()
    annotated = set()
    for node in ast.walk(harness):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                annotated |= {id(n) for n in ast.walk(annotation)}
    rows = [n for n in ast.walk(harness) if isinstance(n, ast.Name) and n.id == "Row"]
    assert rows
    assert all(id(n) in annotated for n in rows)


def test_bounds_imports_nothing_from_numpy():
    # the catalog is scored in plain Python floats, point by point; the
    # project runs no linter, so this keeps NumPy out of it
    package = Path(mixedspec.__file__).parent
    bounds = ast.parse((package / "bounds.py").read_text(encoding="utf-8"))
    assert _imported_from(bounds, "numpy") == set()
