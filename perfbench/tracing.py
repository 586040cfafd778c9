"""Per-layer spans recorded from outside the program.

`install` replaces every public function defined in a relfa module by a
wrapper, in every loaded module that binds it (the defining module, the
package re-exports, and modules that imported the name directly).  A
wrapper records one span per call; a span's self time is its duration minus
the time covered by the spans nested inside it.  For generator functions
such as `hom_maps_iter`, each `next()` is one span, so only the time spent
producing items is charged to the generator.

Spans are aggregated in memory by function (calls, self seconds, total
seconds) rather than stored one by one: a single workload makes millions of
`next()` calls.  Work counts are read from return values, so they repeat
exactly for the same inputs and hash seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("algebra", "catalog", "complexes", "nerve", "ortho", "homology",
          "mapping", "enumerate_small", "structio", "cli")


def _lifting_counts(report) -> dict:
    return {"boundaries": report.boundaries, report.method: 1,
            "witnessless_fails": int(not report.passed and not report.failures)}


def _snf_cells(result) -> dict:
    D = result[0]
    return {"matrix_cells": len(D) * len(D[0]) if D else 0}


def _mapping_cells(result) -> dict:
    C = result.complex
    return {"cells": len(C.vertices) + len(C.edges) + len(C.triangles)}


# Deterministic work counts, read from each wrapped function's return value.
COUNTERS = {
    "complexes.check_lifting": _lifting_counts,
    "complexes.count_homs": lambda n: {"result_sum": n},
    "complexes.hom_maps": lambda homs: {"morphisms": len(homs)},
    "nerve.recognize_nerve": lambda rep: {"rejected": int(not rep.passed)},
    "homology.smith_normal_form_full": _snf_cells,
    "mapping.mapping_complex": _mapping_cells,
    "mapping.pm_morphisms": lambda homs: {"morphisms": len(homs)},
    "enumerate_small.enumerate_small": lambda items: {"structures": len(items)},
}


class Tracer:
    """Span aggregates for every wrapped function, keyed `<layer>.<name>`."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, self_s, total_s]
        self.counts: dict[str, int] = {}   # "<layer>.<name>.<stat>" -> count
        self._stack: list[list[float]] = []  # child time of each open span

    def _count(self, name: str, increments: dict) -> None:
        for stat, n in increments.items():
            key = f"{name}.{stat}"
            self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        counter = COUNTERS.get(name)

        def close(start: float, frame: list[float]) -> None:
            elapsed = clock() - start
            stack.pop()
            agg[1] += elapsed - frame[0]
            agg[2] += elapsed
            if stack:
                stack[-1][0] += elapsed

        if inspect.isgeneratorfunction(fn):
            yielded = f"{name}.yielded"
            self.counts.setdefault(yielded, 0)
            counts = self.counts

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                agg[0] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [0.0]
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close(start, frame)
                        counts[yielded] += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            agg[0] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(start, frame)
            if counter is not None:
                self._count(name, counter(result))
            return result

        return traced

    def summary(self) -> dict:
        return {"spans": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                          for k, v in self.spans.items()},
                "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap every public relfa function at every binding."""
    originals: dict[int, tuple[str, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"relfa.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                originals[id(obj)] = (f"{layer}.{attr}", obj)
    wrappers = {key: tracer.wrap(name, fn) for key, (name, fn) in originals.items()}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, obj in list(namespace.items()):
            entry = originals.get(id(obj))
            if entry is not None and entry[1] is obj:
                setattr(module, attr, wrappers[id(obj)])
