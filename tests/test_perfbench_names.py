"""The benchmark names library functions as `<layer>.<function>`: the
layers each workload must reach (`perfbench/selftest.py` COVERAGE) and the
functions whose return values give work counts (`perfbench/tracing.py`
COUNTERS).  Its tracer wraps only public functions defined in a relfa
module, so a rename or a move silently drops a layer from the traced run.
This checks the names without running the benchmark."""

from __future__ import annotations

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_names() -> list[str]:
    coverage = runpy.run_path(str(PERFBENCH / "selftest.py"))["COVERAGE"]
    counters = runpy.run_path(str(PERFBENCH / "tracing.py"))["COUNTERS"]
    names = {name for layers in coverage.values() for name in layers}
    names.update(counters)
    return sorted(n for n in names if not n.startswith("cli."))


@pytest.mark.parametrize("name", _benchmark_names())
def test_benchmark_names_a_public_function(name):
    layer, function = name.split(".")
    module = importlib.import_module(f"relfa.{layer}")
    obj = getattr(module, function, None)
    assert inspect.isfunction(obj), f"relfa.{layer} has no function {function}"
    assert not function.startswith("_")
    assert obj.__module__ == module.__name__, f"{name} is defined elsewhere"
