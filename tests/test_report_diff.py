import csv
import importlib.util
from pathlib import Path

import pytest

from karabounds import cli

_SPEC = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


@pytest.fixture
def report(tmp_path):
    """The rows of a small two-suite CSV report, header first."""
    out = tmp_path / "old.csv"
    assert cli.main(["verify", "--suite", "fuchs", "--trials", "4", "--format", "csv",
                     "--out", str(out)]) == 0
    rows = list(csv.reader(out.open(newline="")))
    out2 = tmp_path / "jensen.csv"
    assert cli.main(["verify", "--suite", "lemma_jensen", "--trials", "2", "--format", "csv",
                     "--out", str(out2)]) == 0
    return rows + list(csv.reader(out2.open(newline="")))[1:]


def diff(tmp_path, old, new, capsys):
    paths = []
    for name, rows in (("a.csv", old), ("b.csv", new)):
        path = tmp_path / name
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        paths.append(str(path))
    code = report_diff.main(paths)
    lines = capsys.readouterr().out.splitlines()[1:]
    return code, {line.split()[0]: line.split()[1:] for line in lines}


def test_identical_reports(report, tmp_path, capsys):
    code, suites = diff(tmp_path, report, report, capsys)
    assert code == 0
    assert suites["fuchs"] == ["4", "4", "kept", "same", "0", "0", "0"]
    # lemma_jensen repeats (trial, inequality id) once per vector: the rank
    # tells the rows apart
    assert suites["lemma_jensen"][3:6] == ["same", "0", "0"]


def test_a_moved_margin_is_counted_and_passes(report, tmp_path, capsys):
    new = [list(row) for row in report]
    new[2][2] = repr(float(new[2][2]) + 1e-15)
    code, suites = diff(tmp_path, report, new, capsys)
    assert code == 0
    assert suites["fuchs"][4:6] == ["1", "0"]
    assert float(suites["fuchs"][6]) == pytest.approx(1e-15, rel=1e-3)


def test_reordered_rows_are_reported(report, tmp_path, capsys):
    new = [report[0], report[2], report[1], *report[3:]]
    code, suites = diff(tmp_path, report, new, capsys)
    assert code == 0
    assert suites["fuchs"][2:6] == ["moved", "same", "0", "0"]


@pytest.mark.parametrize("edit", ["pass", "drop"])
def test_a_changed_pass_or_key_fails(report, tmp_path, capsys, edit):
    new = [list(row) for row in report]
    if edit == "pass":
        new[1][3] = "0" if new[1][3] == "1" else "1"
    else:
        del new[1]
    code, suites = diff(tmp_path, report, new, capsys)
    assert code == 1
    assert suites["fuchs"][3:6] == (["same", "0", "1"] if edit == "pass" else ["DIFF", "0", "0"])


def test_usage(capsys):
    assert report_diff.main(["only_one.csv"]) == 2
    assert report_diff.main(["--flag", "a.csv"]) == 2
