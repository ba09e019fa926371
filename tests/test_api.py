"""The package's export list matches what it actually exposes."""

import types

import rankbin


def _public_names():
    """Names bound in the package that are neither private nor submodules."""
    return {name for name, value in vars(rankbin).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_all_names_resolve():
    for name in rankbin.__all__:
        assert hasattr(rankbin, name), name


def test_all_has_no_duplicates():
    assert len(rankbin.__all__) == len(set(rankbin.__all__))


def test_all_equals_public_namespace():
    assert set(rankbin.__all__) == _public_names()
