"""Every dotted reference to the package in README.md names something that exists.

A reference is a module of the package followed by attribute names, with or
without the ``opineq.`` prefix: ``spectral._BATCH_MIN`` or
``opineq.maps.map_from_info``.  Deleting or renaming a name the README cites
fails here, so the README cannot go stale quietly.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import opineq

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(opineq.__path__))
# not inside a path (opineq/rng.py) or a longer dotted name
REFERENCE = re.compile(
    rf"(?<![\w/.])(?:opineq\.)?({'|'.join(MODULES)})((?:\.[A-Za-z_]\w*)+)"
)


def _references() -> list[tuple[str, str]]:
    return sorted(set(REFERENCE.findall(README.read_text())))


def test_readme_cites_the_package():
    cited = {module + attrs for module, attrs in _references()}
    assert {"spectral._BATCH_MIN", "maps.map_from_info", "verifier.FAMILIES"} <= cited


def test_every_dotted_reference_resolves():
    missing = []
    for module, attrs in _references():
        target = importlib.import_module(f"opineq.{module}")
        for name in attrs.lstrip(".").split("."):
            if not hasattr(target, name):
                missing.append(f"{module}{attrs}")
                break
            target = getattr(target, name)
    assert missing == []
