"""Each module declares its public names once, in its `__all__`.

The package exports exactly the union of its library modules' lists
(every module but `cli`), so these checks cover every module the package
holds, including one added later: each list must name real objects,
without repeats, defined in that module, and no name may be claimed by
two modules.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import Counter

import pytest

import kreckstolz

MODULES = [importlib.import_module(f"kreckstolz.{info.name}") for info in pkgutil.iter_modules(kreckstolz.__path__)]
LIBRARY = [module for module in MODULES if module.__name__ != "kreckstolz.cli"]


@pytest.mark.parametrize("module", [kreckstolz, *MODULES], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_a_module_lists_only_what_it_defines(module):
    listed = [getattr(module, name) for name in module.__all__]
    defined = [obj for obj in listed if inspect.isclass(obj) or inspect.isfunction(obj)]
    assert [obj.__qualname__ for obj in defined if obj.__module__ != module.__name__] == []


def test_no_name_is_listed_by_two_modules():
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert sorted(name for name, count in counts.items() if count > 1) == []


def test_the_package_exports_the_union_of_the_library_lists():
    owners = {name: module for module in LIBRARY for name in module.__all__}
    assert sorted(kreckstolz.__all__) == sorted(owners)
    assert all(getattr(kreckstolz, name) is getattr(module, name) for name, module in owners.items())
