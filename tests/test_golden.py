"""The verification suites against their golden reports,
``tests/golden/scalar_classical.csv`` for the six scalar and classical
suites and ``tests/golden/matrix.csv`` for the rest (both written by
scripts/make_golden.py).

Where the environment line at the top of a file is this environment's,
the regenerated reports must equal the file byte for byte.  Elsewhere a
margin may move in its last bits: then every row must keep its suite,
trial, context, inequality id, place and pass flag, and its margin must lie
within 1e-12 max(1, |m|) of the golden one."""

import csv
import importlib.util
import io
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
