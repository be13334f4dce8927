"""One iteration of one workload, in the fresh process that runs this file.

    python3 perfbench/worker.py <workload|setup> <seed> <trace-path|->

It imports ``freebeta`` from ``src/`` of the checkout, runs the workload
and its checks, and prints one JSON record as its only stdout line.  The
record's ``ready`` is the monotonic clock once the imports are done, so
the parent can compute set-up time from its own clock at spawn; the
imports are those of ``python -m freebeta.cli``.  With a
trace path, the public functions are wrapped before the workload and the
spans are saved there at the end.  The workload ``setup`` only imports.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, trace_path = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import freebeta.cli  # the command-line entry; imports numpy and scipy

    ready = time.perf_counter()
    if Path(freebeta.__file__).resolve().parent != SRC / "freebeta":
        print(f"error: freebeta imported from {freebeta.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    record = {"ready": ready}
    if workload != "setup":
        import workloads

        make_inputs, run, check = workloads.STEPS[workload]
        inputs = make_inputs(seed)
        recorder = None
        if trace_path != "-":
            from tracer import Recorder

            recorder = Recorder().install(freebeta)
        gate = workloads.Gate()
        usage0, t0 = resource.getrusage(resource.RUSAGE_SELF), \
            time.perf_counter()
        try:
            check(inputs, run(freebeta, inputs), gate)
        except Exception as exc:  # a crash of the program fails the run
            gate.check(False, f"{workload} raised {exc!r}")
        t1, usage1 = time.perf_counter(), \
            resource.getrusage(resource.RUSAGE_SELF)
        if recorder is not None:
            recorder.uninstall()
            recorder.save(trace_path, window=(t0, t1))
        record.update(
            wall_s=t1 - t0,
            cpu_s=_cpu_s(usage1) - _cpu_s(usage0),
            peak_rss_mb=usage1.ru_maxrss / 1024,
            attempted=gate.attempted,
            failed=len(gate.failures),
            failures=gate.failures[:20],
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
