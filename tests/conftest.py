"""Shared fixtures: the builtin catalog and structure files on disk."""

from __future__ import annotations

import pytest

from relfa.algebra import PseudoEffectAlgebraTable
from relfa.catalog import construct_catalog
from relfa.structio import save_structure


@pytest.fixture(scope="session")
def catalog():
    return construct_catalog()


@pytest.fixture()
def write_structure(tmp_path):
    """Save a structure under tmp_path and return the file path as a string."""

    def _write(obj, filename: str = "structure.json") -> str:
        path = tmp_path / filename
        save_structure(obj, str(path))
        return str(path)

    return _write


@pytest.fixture()
def not_a_pea():
    """A sum table on {0, a, b, 1} with a + b = b + a = 1 and 1 + 1 = a: it
    fails associativity and the zero-one law, so it is not a pseudo effect
    algebra."""
    sums = {pair: x for x in "0ab1" for pair in (("0", x), (x, "0"))}
    sums.update({("a", "b"): "1", ("b", "a"): "1", ("1", "1"): "a"})
    return PseudoEffectAlgebraTable("not-a-pea", ("0", "a", "b", "1"), "0", "1", sums)
