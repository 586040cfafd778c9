"""One cold repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <setup|pass> <trace 0|1> <work dir>

`setup` builds the inputs and stops; `pass` also runs every op once.  The
last line of stdout is a JSON object with the set-up time, per-op
latencies (scaled to a fixed host speed, see hostspeed.py, and raw), the
verdict digest, failed ops and, when traced, the span aggregates.  For fa-session only `setup` applies: it writes the input
files and returns the command list, which run.py executes.
"""

import time

import hostspeed

SAMPLER = hostspeed.Sampler()
SAMPLER.sample()
START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    workload, seed, phase, trace, work = sys.argv[1:6]
    seed, trace, work = int(seed), trace == "1", Path(work)
    if not trace:
        SAMPLER.start_timer()
    import workloads
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out: dict = {}
    if workload == "fa-session":
        out["commands"] = workloads.fa_session(seed, work)
    else:
        w = workloads.LIBRARY_WORKLOADS[workload](seed, work)
    built = time.perf_counter()
    SAMPLER.sample()
    out["setup_s"] = SAMPLER.scaled(START, built)
    out["raw_setup_s"] = built - START
    if workload != "fa-session" and phase == "pass":
        out.update(run_ops(w, scale=not trace))
    SAMPLER.stop_timer()
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


def run_ops(w, scale: bool) -> dict:
    clock = time.perf_counter
    spans, records, failed = [], [], []
    digest = hashlib.sha256()
    begin = clock()
    for op in w.ops:
        t = clock()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            spans.append((t, clock()))
            record, ok = f"raised {type(exc).__name__}: {exc}", False
        else:
            spans.append((t, clock()))
            ok, record = op.check(result)
        records.append(record)
        if not ok:
            failed.append(op.label)
        digest.update(json.dumps([op.label, record], sort_keys=True,
                                 default=str).encode())
    wall = clock() - begin
    SAMPLER.sample()
    raw = [t1 - t0 for t0, t1 in spans]
    latencies = [SAMPLER.scaled(t0, t1) for t0, t1 in spans] if scale else raw
    return {"latencies": latencies, "raw_latencies": raw, "op_wall_s": wall,
            "failed": failed,
            "problems": w.final_check(records), "digest": digest.hexdigest()}


if __name__ == "__main__":
    sys.exit(main())
