"""The export lists bind every name they promise."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["nullwave", "nullwave.geometry"])
def test_star_import_binds_every_exported_name(module):
    # A star import raises AttributeError on a listed name that is gone.
    ns = {}
    exec(f"from {module} import *", ns)
    listed = importlib.import_module(module).__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if name not in ns] == []
