"""The package's public surface: __all__ against what __init__ imports."""

import ast
from pathlib import Path

import biaxial


def _imported_public_names():
    tree = ast.parse(Path(biaxial.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not (alias.asname or alias.name).startswith("_")
    }


def test_star_import_binds_every_name():
    namespace = {}
    exec("from biaxial import *", namespace)
    assert set(biaxial.__all__) <= set(namespace)


def test_every_name_resolves():
    for name in biaxial.__all__:
        assert getattr(biaxial, name) is not None, name


def test_all_equals_imported_public_names():
    assert len(biaxial.__all__) == len(set(biaxial.__all__))
    assert set(biaxial.__all__) == _imported_public_names()
