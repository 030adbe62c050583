"""The verification suites and the oracle sweep against their golden
reports, ``tests/golden/scalar_classical.csv`` for the six scalar and
classical suites, ``tests/golden/matrix.csv`` for the rest and
``tests/golden/oracle.json`` for ``karabounds oracle`` (all written by
scripts/make_golden.py).

Where the environment line at the top of a file is this environment's,
the regenerated reports must equal the file byte for byte.  Elsewhere a
number may move in its last bits: then every verdict row must keep its
suite, trial, context, inequality id, place and pass flag, every oracle row
its name and params, and each margin or oracle number must lie within
1e-12 max(1, |v|) of the golden one."""

import csv
import importlib.util
import io
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parents[1] / "scripts" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_golden)

MARGIN = 2  # the margin's column in a verdict row


def _rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


def _mismatch(golden: str, text: str):
    """The first row of ``text`` that does not match ``golden`` up to a
    margin's last bits, as (row index, golden row, row), or None."""
    want, got = _rows(golden), _rows(text)
    if len(want) != len(got):
        return len(min(want, got, key=len)), None, None
    for j, (a, b) in enumerate(zip(want, got)):
        if len(a) != len(b) or a[:MARGIN] + a[MARGIN + 1:] != b[:MARGIN] + b[MARGIN + 1:]:
            return j, a, b
        if a[0] != "suite_id":
            m, n = float(a[MARGIN]), float(b[MARGIN])
            if not abs(m - n) <= 1e-12 * max(1.0, abs(m)):
                return j, a, b
    return None


def _oracle_mismatch(golden: str, text: str):
    """The first part of the oracle report ``text`` that does not match
    ``golden`` up to a number's last bits, as "report" or "rows[j]", or
    None.  Names, params, flags and nulls must be equal."""
    want, got = json.loads(golden), json.loads(text)
    if want.keys() != got.keys() or len(want["rows"]) != len(got["rows"]):
        return "report"
    pairs = [("report", want, got)] + [
        (f"rows[{j}]", a, b) for j, (a, b) in enumerate(zip(want["rows"], got["rows"]))]
    for where, a, b in pairs:
        if a.keys() != b.keys():
            return where
        for key, v in a.items():
            w = b[key]
            if key == "rows":
                continue
            if isinstance(v, float) and type(w) in (int, float):
                if not abs(v - w) <= 1e-12 * max(1.0, abs(v)):
                    return where
            elif v != w or type(v) is not type(w):
                return where
    return None


def _golden(path):
    head, _, body = path.read_bytes().decode("utf-8").partition("\n")
    return head, body


@pytest.fixture(scope="module")
def golden():
    return _golden(next(iter(make_golden.GOLDENS)))


@pytest.mark.parametrize("path", list(make_golden.GOLDENS), ids=lambda path: path.name)
def test_suites_reproduce_their_golden_report(path):
    head, body = _golden(path)
    regenerated = make_golden.reports(make_golden.GOLDENS[path])
    if head == make_golden.header():
        assert regenerated == body
    else:
        assert _mismatch(body, regenerated) is None


def test_tolerant_comparison_allows_last_bits_only(golden):
    body = golden[1]
    rows = _rows(body)
    assert _mismatch(body, body) is None

    def text(rows):
        out = io.StringIO(newline="")
        csv.writer(out).writerows(rows)
        return out.getvalue()

    def moved(j, margin=None, flag=None):
        changed = [list(row) for row in rows]
        if margin is not None:
            changed[j][MARGIN] = repr(margin(float(rows[j][MARGIN])))
        if flag is not None:
            changed[j][3] = flag
        return text(changed)

    assert _mismatch(body, moved(1, margin=lambda m: m + 1e-13 * max(1.0, abs(m)))) is None
    assert _mismatch(body, moved(1, margin=lambda m: m + 1e-11 * max(1.0, abs(m))))[0] == 1
    assert _mismatch(body, moved(2, flag="0"))[0] == 2
    assert _mismatch(body, text(rows[:-1])) is not None
    assert _mismatch(body, text([rows[0], rows[2], rows[1], *rows[3:]]))[0] == 1


def test_oracle_reproduces_its_golden_report():
    head, body = _golden(make_golden.ORACLE)
    regenerated = make_golden.oracle_report()
    if head == make_golden.header():
        assert regenerated == body
    else:
        assert _oracle_mismatch(body, regenerated) is None


def test_tolerant_oracle_comparison_allows_last_bits_only():
    body = _golden(make_golden.ORACLE)[1]
    assert _oracle_mismatch(body, body) is None

    def moved(change):
        report = json.loads(body)
        change(report)
        return json.dumps(report, sort_keys=True, indent=2) + "\n"

    def scale(key, factor):
        def change(report):
            report["rows"][24][key] *= factor
        return change

    def set_row(key, value):
        def change(report):
            report["rows"][24][key] = value
        return change

    assert json.loads(body)["rows"][24]["closed_form"] != 0.0
    assert _oracle_mismatch(body, moved(scale("closed_form", 1 + 1e-13))) is None
    assert _oracle_mismatch(body, moved(scale("closed_form", 1 + 1e-11))) == "rows[24]"
    assert _oracle_mismatch(body, moved(set_row("name", "ratio_ln_r"))) == "rows[24]"
    assert _oracle_mismatch(body, moved(set_row("params", {"eps": 0.02}))) == "rows[24]"
    assert _oracle_mismatch(body, moved(set_row("oracle_value", None))) == "rows[24]"
    assert _oracle_mismatch(body, moved(lambda report: report.update(rows=report["rows"][1:]))) \
        == "report"
    assert _oracle_mismatch(body, moved(lambda report: report.update({"pass": False}))) == "report"
