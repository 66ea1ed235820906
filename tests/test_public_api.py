"""The package's public names are declared once, in each module's ``__all__``.

``opineq/__init__.py`` republishes them with one wildcard import per module.
These tests check that the package exports exactly the union, that no name
comes from two modules (a later wildcard import would shadow the earlier one
silently), and that importing the package leaves the command line and its
argparse unloaded.
"""

import collections
import subprocess
import sys
import types

import opineq
from opineq import bounds, errors, functions, maps, perspectives, rng, spectral, verifier

# the modules __init__ republishes; errors has no __all__ and binds only its exception classes
MODULES = (bounds, errors, functions, maps, perspectives, rng, spectral, verifier)


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
