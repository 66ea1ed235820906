"""Every name a module of the package imports is used in that module, and
every private name bound at module level or in a class body is used
somewhere in the package."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "opineq"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _bound_names(body: list) -> list[str]:
    """Names the statements of ``body`` bind by def, class or assignment."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(target.id for target in targets if isinstance(target, ast.Name))
    return names


def _private_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each private (single leading underscore) name a
    module binds at its top level or in the body of one of its classes."""
    found = [(name, name) for name in _bound_names(tree.body)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{name}", name) for name in _bound_names(node.body)]
    return [
        (where, name) for where, name in found if name.startswith("_") and not name.startswith("__")
    ]


def test_no_unused_private_names():
    defined = {}
    used = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update((f"{path.name}:{where}", name) for where, name in _private_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) >= 60
    assert sum("." in where for where in defined) >= 12  # private class members are covered
    assert sorted(where for where, name in defined.items() if name not in used) == []
