"""The package's public surface: every name in ``ellformal.__all__`` resolves."""

import pytest

import ellformal


@pytest.mark.parametrize("name", ellformal.__all__)
def test_exported_name_resolves(name):
    assert hasattr(ellformal, name)
