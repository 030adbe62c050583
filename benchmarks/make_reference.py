"""Write benchmarks/reference.json: each workload suite's min_margin at the
benchmark's trial counts and the default seed.

    python3 benchmarks/make_reference.py

Run it from the root of a checkout.  Regenerate only when a suite's
definition changes on purpose; last-digit drift (for example from batching)
stays within the suite tolerance that the benchmark compares with.
"""

from __future__ import annotations

import json
import sys
import tempfile

import harness


def main():
    pkg = harness.load_program(harness.BENCH_DIR.parent)
    suites = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=harness.BENCH_DIR.parent) as tmp:
        for workload in harness.WORKLOADS.values():
            runner = harness.Runner(pkg, workload, harness.DEFAULT_SEED, tmp)
            for call in runner.suite_calls(harness.DEFAULT_SEED, "csv"):
                problems, margin, _ = runner.checked(call)
                if problems:
                    print(f"{call.label}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                suites[call.suite] = {"trials": call.trials, "min_margin": margin}
    payload = {"seed": harness.DEFAULT_SEED, "suites": suites}
    harness.REFERENCE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
