"""Recompute the pinned digests of the exact-deep workload's outputs.

    python3 perfbench/pin_digests.py

Run it only when the workload's inputs change on purpose, never to make a
failing gate pass: a digest changes when any exact output of the program
changes.  Every variant's routes must agree before its digest is written.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import SRC

sys.path.insert(0, str(SRC))
import freebeta  # noqa: E402


def main() -> int:
    fixed = workloads.exact_fixed_outputs(freebeta)
    digests = []
    for variant in range(workloads.EXACT_VARIANTS):
        inputs = workloads.exact_deep_inputs(variant)
        outputs = fixed + workloads.exact_seeded_outputs(
            freebeta, inputs["triples"])
        gate = workloads.Gate()
        workloads.exact_routes_check(outputs, gate)
        if gate.failures:
            print(f"variant {variant}: {gate.failures[:3]}", file=sys.stderr)
            return 1
        digests.append(workloads.digest(outputs))
    workloads.DIGESTS.write_text(json.dumps(
        {"variants": workloads.EXACT_VARIANTS, "digests": digests},
        indent=1) + "\n")
    print(f"pinned {len(digests)} digests in {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
