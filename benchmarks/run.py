"""Run one workload of the karabounds benchmark and print its metrics.

    python3 benchmarks/run.py --workload mean_bounds --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: karabounds is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The line before it
records the environment.  A fuller record, with per-pass samples and, for a
traced run, the spans of one traced pass, is written under
``benchmarks/results/``.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import harness

ROOT = harness.BENCH_DIR.parent
RESULTS = harness.BENCH_DIR / "results"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def _span_row(rec):
    detail = rec[5]
    if not isinstance(detail, (str, tuple)) or (
            isinstance(detail, tuple) and not all(isinstance(x, int) for x in detail)):
        detail = None
    return json.dumps(rec[:5] + [detail])


def write_record(record, stem):
    RESULTS.mkdir(exist_ok=True)
    spans = record.pop("spans", None)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write('["name", "start", "end", "parent", "call", "detail"]\n')
            for rec in spans:
                fh.write(_span_row(rec) + "\n")


def main(argv=None):
    args = parse_args(argv)
    # One core for the main thread and the processes it starts, so that the
    # calibration kernel measures the core that runs the timed work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        result, record = harness.run(ROOT, args.workload, args.seed, args.seconds,
                                     bool(args.trace), tmp)
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_record(record, stem)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
