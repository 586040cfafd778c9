"""Stand-in for `python -m relfa.cli`, used for every fa-session command.

    PERFBENCH_OUT=<out.json> PERFBENCH_TRACE=<0|1> python3 perfbench/fa_boot.py <fa arguments>

Runs `relfa.cli.main` on the arguments, as `python -m relfa.cli` does, and
samples the host speed (hostspeed.py) inside the process from its start to
its exit.  With PERFBENCH_TRACE=1 it installs the span wrappers instead of
the sampling timer.  At exit it writes to PERFBENCH_OUT the samples and,
when traced, the import time of the tool, the time spent in `main` and the
span aggregates.  Stdout and the exit status are the tool's own.
"""

import hostspeed

SAMPLER = hostspeed.Sampler()
SAMPLER.sample()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def main() -> int:
    trace = os.environ["PERFBENCH_TRACE"] == "1"
    if not trace:
        SAMPLER.start_timer()
    start = time.perf_counter()
    import relfa.cli
    imported = time.perf_counter()
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    begin = time.perf_counter()
    try:
        return relfa.cli.main(sys.argv[1:])
    finally:
        done = time.perf_counter()
        sys.stdout.flush()
        SAMPLER.stop_timer()
        SAMPLER.sample()
        out = {"probes": SAMPLER.to_dict()}
        if trace:
            out.update(import_s=imported - start, main_s=done - begin,
                       trace=tracer.summary())
        with open(os.environ["PERFBENCH_OUT"], "w", encoding="utf-8") as fh:
            json.dump(out, fh)


if __name__ == "__main__":
    sys.exit(main())
