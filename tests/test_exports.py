"""`psatkit.__all__` lists exactly the names the package imports, sorted and once each."""

import ast
from pathlib import Path

import psatkit


def test_all_is_sorted_unique_and_resolves():
    assert psatkit.__all__ == sorted(set(psatkit.__all__))
    assert [name for name in psatkit.__all__ if not hasattr(psatkit, name)] == []


def test_all_is_exactly_what_init_imports():
    tree = ast.parse(Path(psatkit.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(psatkit.__all__) == imported
