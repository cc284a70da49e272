"""The export lists name real objects, without repeats, and agree with each other.

`kreckstolz.__all__`, its imports and `atlas_search.__all__` are kept by
hand, so a name removed from one list but not another is caught here.
"""

from __future__ import annotations

import pytest

import kreckstolz
from kreckstolz import atlas_search


@pytest.mark.parametrize("module", [kreckstolz, atlas_search], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_atlas_search_exports_are_package_exports():
    assert sorted(set(atlas_search.__all__) - set(kreckstolz.__all__)) == []
    assert all(getattr(kreckstolz, name) is getattr(atlas_search, name) for name in atlas_search.__all__)
