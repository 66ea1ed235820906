"""The package's public names are declared once, in each module's ``__all__``.

``opineq/__init__.py`` republishes them with one wildcard import per module.
These tests check that the package exports exactly the union, that no name
comes from two modules (a later wildcard import would shadow the earlier one
silently), and that importing the package leaves the command line and its
argparse unloaded.  A last test finds defaulted parameters that no caller
sets: each such option is a constant in disguise unless it is listed, with
its reason, in ``UNSET_OPTIONS``.
"""

import ast
import collections
import enum
import inspect
import re
import subprocess
import sys
import types
from pathlib import Path

import opineq
from opineq import bounds, cli, errors, functions, maps, perspectives, rng, spectral, verifier

# the modules __init__ republishes; errors has no __all__ and binds only its exception classes
MODULES = (bounds, errors, functions, maps, perspectives, rng, spectral, verifier)
ROOT = Path(__file__).resolve().parent.parent

# (callable, parameter) -> why the default stays although no caller sets it
UNSET_OPTIONS = {
    ("DensityOperator", "m"): "the floors are stated for any spectral bounds; README names M = 1",
    ("DensityOperator", "M"): "the floors are stated for any spectral bounds; README names M = 1",
    ("loewner_compare", "tol"): "README says to pass it for operands below scale 1",
    ("power_function_chain", "m"): "mirrors build_context's interval",
    ("power_function_chain", "M"): "mirrors build_context's interval",
    ("main", "argv"): "the console script passes none; tests and perfbench pass it via a callable",
}


def _exported(module) -> list[str]:
    if module is errors:
        return [name for name, value in vars(errors).items()
                if isinstance(value, type) and value.__module__ == errors.__name__]
    return list(module.__all__)


def test_errors_binds_only_its_classes():
    public = [name for name in vars(errors) if not name.startswith("_")]
    assert sorted(public) == sorted(_exported(errors))
    assert len(public) == 14


def test_package_exports_the_union_of_the_modules():
    public = {
        name for name, value in vars(opineq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    source = {name: module for module in MODULES for name in _exported(module)}
    assert public == set(source)
    assert all(getattr(opineq, name) is getattr(module, name) for name, module in source.items())
    assert {"map_from_info", "random_orthogonal", "SplitMix64"} <= public
    assert not {"MASK64", "GOLDEN", "annotations", "DEFAULT_FUNCTIONS"} & public


def test_no_name_is_exported_twice():
    counts = collections.Counter(name for module in MODULES for name in _exported(module))
    assert [name for name, count in counts.items() if count > 1] == []


def test_import_leaves_the_cli_unloaded():
    code = "import sys, opineq; print('argparse' in sys.modules, 'opineq.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def _options():
    """(callable name, parameter name, positional index or None) of each defaulted parameter.

    The callables are the package's exports and ``opineq.cli.__all__``, less
    enum and exception classes; a keyword-only parameter has no index.
    """
    exported = [getattr(module, name) for module in MODULES if module is not errors
                for name in module.__all__]
    exported += [getattr(cli, name) for name in cli.__all__]
    for obj in exported:
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, (enum.Enum, Exception))):
            continue
        for index, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is not param.empty:
                positional = param.kind is not param.KEYWORD_ONLY
                yield obj.__name__, param.name, index if positional else None


def _calls():
    """Every call in the package, perfbench and README's python blocks, by the called name's last part."""
    sources = [path.read_text() for path in sorted((ROOT / "src" / "opineq").glob("*.py"))]
    sources += [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    calls = collections.defaultdict(list)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls[name].append(node)
    return calls


def _sets(call: ast.Call, name: str, index) -> bool:
    """Whether ``call`` sets the parameter by keyword, by position or through ``*``/``**``."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):  # None is a ** argument
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return index is not None and (len(call.args) > index or starred)


def test_every_option_is_set_by_some_caller():
    calls = _calls()
    unset = {
        (function, param) for function, param, index in _options()
        if not any(_sets(call, param, index) for call in calls[function])
    }
    assert sorted(unset - set(UNSET_OPTIONS)) == []
    # an entry whose option a caller now sets, or that no longer exists, goes too
    assert sorted(set(UNSET_OPTIONS) - unset) == []
    assert all(reason for reason in UNSET_OPTIONS.values())
