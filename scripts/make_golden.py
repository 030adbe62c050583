"""Write the golden reports of the verification suites.

Run it from any directory, with no flags:

    python3 scripts/make_golden.py

It writes three files of the checkout that holds this script, importing
karabounds from that checkout's ``src/``: ``tests/golden/scalar_classical.csv``
for the six scalar and classical suites of ``SCALAR_SUITES``,
``tests/golden/matrix.csv`` for every other suite of
``suite_ids(include_extra=True)``, and ``tests/golden/oracle.json``.  A
file's first line is ``scripts/report_digest.py``'s header (numpy version,
dispatch targets, OpenBLAS core), the environment the report bytes were
made in.  In a CSV file there comes, per suite in order, the CSV that
``karabounds verify --suite <suite> --trials 24 --seed 42 --format csv``
writes, each with its own header row.  ``mean_c_lhs_variant`` fails by
design, so its exit code 1 is expected.  In ``oracle.json`` there comes the
JSON that ``karabounds oracle`` writes.  ``tests/test_golden.py``
regenerates the reports and compares them with the files.  Rewrite a file
only when a report changes on purpose, never by hand.
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from karabounds import cli, verification  # noqa: E402

SCALAR_SUITES = ("scalar_corollary", "fuchs", "moment", "info_inequality",
                 "reverse_shannon", "parametric_reverse")
GOLDENS = {
    ROOT / "tests" / "golden" / "scalar_classical.csv": SCALAR_SUITES,
    ROOT / "tests" / "golden" / "matrix.csv": tuple(
        sid for sid in verification.suite_ids(include_extra=True) if sid not in SCALAR_SUITES),
}
ORACLE = ROOT / "tests" / "golden" / "oracle.json"
FAILING = ("mean_c_lhs_variant",)  # suites whose report has failures by design
TRIALS, SEED = 24, 42


def header() -> str:
    """The environment line of ``scripts/report_digest.py``."""
    spec = importlib.util.spec_from_file_location("report_digest",
                                                  Path(__file__).with_name("report_digest.py"))
    report_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_digest)
    return report_digest.header()


def reports(suites) -> str:
    """The CSV text of each of ``suites`` at TRIALS trials and SEED, in order."""
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.csv"
        for suite in suites:
            argv = ["verify", "--suite", suite, "--trials", str(TRIALS), "--seed", str(SEED),
                    "--format", "csv", "--out", str(out)]
            if cli.main(argv) != (1 if suite in FAILING else 0):
                raise SystemExit(f"verify --suite {suite} exited with an unexpected code")
            texts.append(out.read_bytes().decode("utf-8"))
    return "".join(texts)


def oracle_report() -> str:
    """The JSON text of ``karabounds oracle`` at its default tolerance."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "oracle.json"
        if cli.main(["oracle", "--out", str(out)]) != 0:
            raise SystemExit("oracle exited with an unexpected code")
        return out.read_bytes().decode("utf-8")


def main():
    head = header()
    texts = {path: reports(suites) for path, suites in GOLDENS.items()}
    texts[ORACLE] = oracle_report()
    for path, text in texts.items():
        path.parent.mkdir(exist_ok=True)
        path.write_bytes((head + "\n" + text).encode("utf-8"))
        print(path)


if __name__ == "__main__":
    main()
