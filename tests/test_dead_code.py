"""Every function of relfa has a caller: a helper that only the tests use
belongs in the tests.  A public top-level function counts as called when
some name in a relfa module refers to it, or when the benchmark imports it;
a private one only when some name in a relfa module refers to it.  The two
functions allowed to wait for a caller are paper constructions that the
open work on conjugation and enrichment will wire up."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AWAITING_A_CALLER = ["mapping.conjugate", "mapping.enriched_compose"]


def _src_functions() -> tuple[list[str], set[str]]:
    """The top-level functions of src/relfa as ``module.name``, and every
    name that src/relfa refers to."""
    defined, named = [], set()
    for path in sorted((ROOT / "src" / "relfa").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, ast.FunctionDef)]
        named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return defined, named


def _uncalled_public_functions() -> list[str]:
    defined, named = _src_functions()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relfa")
                  for alias in node.names}
    return sorted(name for name in defined
                  if not name.split(".")[1].startswith("_") and name.split(".")[1] not in named)


def test_every_public_function_has_a_caller():
    assert _uncalled_public_functions() == AWAITING_A_CALLER


def test_every_private_function_has_a_caller_in_src():
    """A private helper that only the tests refer to, such as the prism
    maps the mapping complex oracles build, lives in the tests."""
    defined, named = _src_functions()
    private = [name for name in defined if name.split(".")[1].startswith("_")]
    assert private
    assert [name for name in private if name.split(".")[1] not in named] == []
