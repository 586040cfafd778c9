"""relfa benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds `src/relfa`.  Every timed
repetition runs in a fresh interpreter (worker.py, or fa_boot.py running
the `fa` tool for each fa-session command), so module import and the program's `lru_cache`d tables are
paid where a user pays them.  Every child gets the same PYTHONHASHSEED,
derived from --seed, because set iteration order changes how much work
`count_homs` does.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, with every time
scaled to a fixed host speed (hostspeed.py); --trace 1 runs one untraced
and one traced repetition and prints the per-layer metrics.
The last line of stdout is the result object; the line before it records
the run's settings.  The exit status is 0 only when every verdict matched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lift-pushout", "recognize-stream", "mapping-fibration", "fa-session")
# setup_s is the median over children that only build the inputs: at
# least SETUP_MIN of them, and more until they have taken SETUP_BUDGET_S, so
# that a set-up of a tenth of a second rests on a dozen samples.
SETUP_MIN = 5
SETUP_BUDGET_S = 2.0
# fa-session checks each repetition's stdout against the first one's.  A
# recognize-stream repetition takes about 10 s, half as long as the others,
# and its many small ops follow the shared host's speed most closely; two
# of them give its metrics a window like the other workloads' runs.
MIN_PASSES = {"fa-session": 2, "recognize-stream": 2}
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def hash_seed(seed: int) -> int:
    return seed % 2**32


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env["PYTHONHASHSEED"] = str(hash_seed(seed))

    def spawn(self, argv: list[str], env: dict | None = None):
        """Run a child to completion in the work directory; return its exit
        status, stdout, wall seconds, peak RSS in KiB and stderr."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=env or self.env,
                                    stdout=out, stderr=err)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(remaining, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if killed.is_set():
                raise BenchError(f"child timed out: {argv}")
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read(), wall, usage.ru_maxrss,
                    err.read().decode(errors="replace"))

    def worker(self, phase: str, trace: bool) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), self.workload,
                str(self.seed), phase, "1" if trace else "0", str(self.work)]
        status, out, _, rss, stderr = self.spawn(argv)
        if status != 0:
            raise BenchError(f"worker failed ({status}):\n{stderr}")
        result = json.loads(out.decode().splitlines()[-1])
        result["rss_kib"] = rss
        return result

    def cli_session(self, commands, reference=None, trace: bool = False) -> dict:
        """One repetition of fa-session, each command in a fresh process
        through fa_boot.py, which samples the host speed inside it.  An op
        fails on an unexpected exit status or, given the outputs of an
        earlier repetition, on stdout that differs from it."""
        out_path = self.work / "fa_boot.json"
        env = dict(self.env, PERFBENCH_OUT=str(out_path), PERFBENCH_TRACE=str(int(trace)))
        raw, latencies, docs, outputs, failed, peak = [], [], [], [], [], 0
        for k, (argv, expected) in enumerate(commands):
            out_path.unlink(missing_ok=True)
            start = time.perf_counter()
            status, out, wall, rss, _ = self.spawn(
                [sys.executable, str(HERE / "fa_boot.py"), *argv], env)
            doc = json.loads(out_path.read_text()) if out_path.exists() else None
            raw.append(wall)
            latencies.append(hostspeed.Sampler.from_dict(doc["probes"]).scaled(
                start, start + wall) if doc else wall)
            docs.append(doc)
            outputs.append(out)
            peak = max(peak, rss)
            if (status != expected or doc is None
                    or (reference is not None and out != reference[k])):
                failed.append(" ".join(argv))
        return {"latencies": latencies, "raw_latencies": raw, "op_wall_s": sum(raw),
                "docs": docs, "outputs": outputs, "failed": failed, "rss_kib": peak,
                "problems": []}


def compile_sources() -> None:
    """Warm the bytecode cache so no timed repetition compiles .pyc files."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src" / "relfa"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)


# ---------------------------------------------------------------------------
# End-to-end run


def measure(r: Runner, seconds: float) -> tuple[dict, int, int, list[str], dict]:
    """Whole repetitions until another one would overrun `seconds`."""
    setups = []
    begin = time.monotonic()
    while len(setups) < SETUP_MIN or time.monotonic() - begin < SETUP_BUDGET_S:
        setups.append(r.worker("setup", False))
    setup_samples = [s["setup_s"] for s in setups]
    raw_setup = [s["raw_setup_s"] for s in setups]
    latencies, raw, rss, failed = [], [], 0, 0
    problems: list[str] = []
    first = None
    begin = time.monotonic()
    passes = 0
    while True:
        if r.workload == "fa-session":
            rep = r.cli_session(setups[-1]["commands"], reference=first)
            first = first or rep["outputs"]
        else:
            rep = r.worker("pass", False)
            setup_samples.append(rep["setup_s"])
            raw_setup.append(rep["raw_setup_s"])
            first = first or rep["digest"]
            if rep["digest"] != first:
                problems.append("verdict digest differs between repetitions")
        latencies += rep["latencies"]
        raw += rep["raw_latencies"]
        rss = max(rss, rep["rss_kib"])
        failed += len(rep["failed"])
        problems += rep["problems"] + [f"wrong verdict: {x}" for x in rep["failed"]]
        passes += 1
        elapsed = time.monotonic() - begin
        per_pass = elapsed / passes
        if passes >= MIN_PASSES.get(r.workload, 1) and elapsed + per_pass > seconds:
            break
        if time.monotonic() + 1.5 * per_pass > r.deadline:
            break
    def times(latencies, setup_samples) -> dict:
        return {"ops_per_s": len(latencies) / sum(latencies),
                "op_p50_ms": 1000 * statistics.median(latencies),
                "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
                "setup_s": statistics.median(setup_samples)}

    metrics = dict(times(latencies, setup_samples), peak_rss_mib=rss / 1024)
    info = {"passes": passes, "ops_per_pass": len(latencies) // passes,
            "setup_samples": len(setup_samples), "unscaled": times(raw, raw_setup)}
    return metrics, len(latencies), failed, problems, info


# ---------------------------------------------------------------------------
# Traced run


def traced(r: Runner) -> tuple[dict, dict, int, int, list[str]]:
    """One untraced and one traced repetition with the same inputs; their
    verdicts must agree."""
    problems: list[str] = []
    if r.workload == "fa-session":
        commands = r.worker("setup", False)["commands"]
        plain = r.cli_session(commands)
        rep = r.cli_session(commands, reference=plain["outputs"], trace=True)
        summary, extra = _merge_cli_spans(commands, rep["docs"])
    else:
        plain = r.worker("pass", False)
        rep = r.worker("pass", True)
        if rep["digest"] != plain["digest"]:
            problems.append("traced and untraced verdict digests differ")
        summary, extra = rep["trace"], {}
    attempted = len(plain["latencies"]) + len(rep["latencies"])
    failed = len(plain["failed"]) + len(rep["failed"])
    problems += plain["problems"] + rep["problems"]
    problems += [f"wrong verdict: {x}" for x in plain["failed"] + rep["failed"]]
    extra["trace.overhead_ratio"] = rep["op_wall_s"] / plain["op_wall_s"]
    extra["check.error_ratio"] = failed / attempted
    return summary, extra, attempted, failed, problems


def _merge_cli_spans(commands, docs: list) -> tuple[dict, dict]:
    spans: dict = {}
    counts: dict = {}
    imports, mains = [], {}
    for (argv, _), doc in zip(commands, docs):
        if doc is None:  # the command died; it is already a failed op
            continue
        imports.append(doc["import_s"])
        mains.setdefault(argv[1], []).append(doc["main_s"])
        for name, s in doc["trace"]["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in agg:
                agg[key] += s[key]
        for name, n in doc["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + n
    cli = {"cli.import_ms": 1000 * statistics.median(imports)}
    for sub, times in mains.items():
        cli[f"cli.{sub}.p50_ms"] = 1000 * statistics.median(times)
    return {"spans": spans, "counts": counts}, cli


def layer_metric(name: str, summary: dict, extra: dict) -> float:
    """A per-layer metric by name: `<layer>.<function>.calls` and `.self_s`
    come from the span aggregates, any other `<layer>.<function>.<stat>`
    from the work counts; names the traced run measured directly (cli
    timings, trace overhead, error ratio) come from `extra`.  A layer the
    workload never reaches reads 0."""
    if name in extra:
        return extra[name]
    function, _, stat = name.rpartition(".")
    if stat in ("calls", "self_s"):
        return summary["spans"].get(function, {}).get(stat, 0)
    return summary["counts"].get(name, 0)


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "relfa" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no relfa sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    compile_sources()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    r = Runner(args.workload, args.seed, work)
    try:
        if args.trace:
            summary, extra, attempted, failed, problems = traced(r)
            values = {m["name"]: layer_metric(m["name"], summary, extra)
                      for m in spec["per_layer"]}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            info = {}
        else:
            values, attempted, failed, problems, info = measure(r, args.seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    correct = not problems and failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "pythonhashseed": hash_seed(args.seed), **info,
                      "problems": problems[:20]}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
