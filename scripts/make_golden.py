"""Write the golden report of the six scalar and classical suites.

Run it from any directory, with no flags:

    python3 scripts/make_golden.py

It writes ``tests/golden/scalar_classical.csv`` of the checkout that holds
this script, importing karabounds from that checkout's ``src/``.  The file's
first line is ``scripts/report_digest.py``'s header (numpy version, dispatch
targets, OpenBLAS core), the environment the report bytes were made in.
Then comes, per suite of ``SUITES`` in order, the CSV that ``karabounds
verify --suite <suite> --trials 24 --seed 42 --format csv`` writes, each
with its own header row.  ``tests/test_golden.py`` regenerates the reports
and compares them with the file.  Rewrite the file only when a suite's
verdicts change on purpose, never by hand.
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from karabounds import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "scalar_classical.csv"
SUITES = ("scalar_corollary", "fuchs", "moment", "info_inequality",
          "reverse_shannon", "parametric_reverse")
TRIALS, SEED = 24, 42


def header() -> str:
    """The environment line of ``scripts/report_digest.py``."""
    spec = importlib.util.spec_from_file_location("report_digest",
                                                  Path(__file__).with_name("report_digest.py"))
    report_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_digest)
    return report_digest.header()


def reports() -> str:
    """The CSV text of each suite of SUITES at TRIALS trials and SEED, in order."""
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.csv"
        for suite in SUITES:
            argv = ["verify", "--suite", suite, "--trials", str(TRIALS), "--seed", str(SEED),
                    "--format", "csv", "--out", str(out)]
            if cli.main(argv) != 0:
                raise SystemExit(f"verify --suite {suite} reported failures")
            texts.append(out.read_bytes().decode("utf-8"))
    return "".join(texts)


def main():
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes((header() + "\n" + reports()).encode("utf-8"))
    print(GOLDEN)


if __name__ == "__main__":
    main()
