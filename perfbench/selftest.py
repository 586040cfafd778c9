"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

For each of the four workloads it makes two traced runs with seed 1
through run.py and checks that

- both runs are correct, which includes the traced and untraced
  repetitions producing the same verdict digest (fa-session: the same
  stdout bytes);
- every layer the workload is meant to exercise records calls > 0;
- every work count (`count` unit) repeats exactly across the two runs,
  among them complexes.count_homs.result_sum, complexes.hom_maps.morphisms
  and complexes.check_lifting.boundaries.

Exits 1 on the first workload that fails a check.  A full run takes a few
minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LIFTING = ("complexes.check_lifting", "complexes.count_homs", "complexes.hom_maps",
           "complexes.hom_maps_iter")
SUBCOMMANDS = ("catalog", "validate", "classify", "nerve", "homology", "hom", "kan",
               "lift", "enumerate")
# The layers each workload must reach, as `<layer>.<function>` (calls > 0)
# or as a metric name that must be positive.
COVERAGE = {
    "lift-pushout": LIFTING + ("complexes.product", "catalog.construct_catalog"),
    "recognize-stream": LIFTING + (
        "nerve.nerve", "nerve.recognize_nerve", "nerve.nerve_to_algebra",
        "algebra.validate", "algebra.to_relfa", "ortho.classify",
        "ortho.boxslash_relation", "enumerate_small.enumerate_small",
        "catalog.construct_catalog"),
    "mapping-fibration": (
        "complexes.hom_maps", "complexes.hom_maps_iter", "complexes.product",
        "nerve.nerve", "nerve.recognize_nerve", "nerve.nerve_to_algebra",
        "homology.smith_normal_form_full", "homology.h1_of_complex",
        "homology.full_chain_h1", "mapping.mapping_complex",
        "mapping.eval_fibration_check", "mapping.verify_mapping_theorem",
        "mapping.hom_complex_invariants", "mapping.pm_morphisms"),
    "fa-session": (
        "enumerate_small.enumerate_small", "structio.load_structure",
        "structio.serialize_structure", "catalog.construct_catalog",
        "cli.import_ms") + tuple(f"cli.{s}.p50_ms" for s in SUBCOMMANDS),
}
EXACT = ("complexes.count_homs.result_sum", "complexes.hom_maps.morphisms",
         "complexes.check_lifting.boundaries")
SEED = 1


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(workload: str) -> list[str]:
    first, second = traced_run(workload), traced_run(workload)
    errors = [f"run {k} not correct" for k, r in enumerate((first, second))
              if not r["correct"]]
    metrics = first["metrics"]
    for layer in COVERAGE[workload]:
        key = layer if layer in metrics else f"{layer}.calls"
        if not metrics[key]["value"] > 0:
            errors.append(f"{key} is {metrics[key]['value']}")
    for name, m in metrics.items():
        if m["unit"] == "count" and m["value"] != second["metrics"][name]["value"]:
            errors.append(f"{name}: {m['value']} then {second['metrics'][name]['value']}")
    for name in EXACT:
        if name not in metrics:
            errors.append(f"{name} missing")
    return errors


def main() -> int:
    for workload in COVERAGE:
        errors = check(workload)
        print(f"{workload}: {'ok' if not errors else 'FAIL'}", flush=True)
        for e in errors:
            print(f"  {e}")
        if errors:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
