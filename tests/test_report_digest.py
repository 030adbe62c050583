"""``scripts/report_digest.py --check``'s comparison, on small texts, and
its draw-path lines against the committed digests."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "report_digest", Path(__file__).resolve().parents[1] / "scripts" / "report_digest.py")
report_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digest)

HEAD = "numpy=2.4.6  dispatch=X86_V3  openblas=SkylakeX"
WANT = [HEAD,
        "aa  exit=0  verify --suite all --trials 48 --seed 0 --format json",
        "bb  verdicts  fuchs trials=384 seed=7",
        "cc  interval_max  vectorized"]


def test_equal_lines_exit_0():
    assert report_digest.check(WANT, iter(WANT)) == (0, ["all 3 lines equal"])


def test_a_differing_line_exits_1_naming_its_command():
    got = [HEAD, WANT[1], "bd  verdicts  fuchs trials=384 seed=7", WANT[3]]
    assert report_digest.check(WANT, got) == (
        1, ["differs: verdicts  fuchs trials=384 seed=7", "1 of 3 lines differ"])


def test_missing_and_new_lines_exit_1():
    code, report = report_digest.check(WANT, WANT[:2])
    assert code == 1 and report[:2] == ["missing: verdicts  fuchs trials=384 seed=7",
                                        "missing: interval_max  vectorized"]
    code, report = report_digest.check(WANT[:3], WANT)
    assert code == 1 and report[0] == "new: interval_max  vectorized"


def test_another_header_exits_2_before_any_digest():
    def got():
        yield "numpy=2.4.6  dispatch=X86_V2  openblas=Haswell"
        raise AssertionError("a digest line was made under another header")

    code, report = report_digest.check(WANT, got())
    assert code == 2
    assert report == [f"file header:  {HEAD}",
                      "this header:  numpy=2.4.6  dispatch=X86_V2  openblas=Haswell"]


def test_committed_digests_are_digest_lines_under_a_header():
    lines = (Path(__file__).resolve().parent / "golden" / "digests.txt").read_text().splitlines()
    assert lines[0].startswith("numpy=") and " dispatch=" in lines[0] and " openblas=" in lines[0]
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines[1:])


def test_draw_path_lines_equal_the_committed_digests():
    # the part of --check that a change to the suites' draws and builds or
    # to the public generators and samplers would move, in about 3 s: every
    # verify run made with flags, each suite's verdict list, the map-sum
    # generator, the Sinkhorn matrices and the samplers
    want = (Path(__file__).resolve().parent / "golden" / "digests.txt").read_text().splitlines()
    got = report_digest.lines(draw_path=True)
    head = next(got)
    if head != want[0]:
        pytest.skip(f"the digests are of {want[0]}, not of {head}")
    got = list(got)
    labels = {report_digest.label(line) for line in got}
    assert len(labels) == len(got) > 150
    assert got == [line for line in want[1:] if report_digest.label(line) in labels]


def test_usage_errors_exit_2(capsys):
    assert report_digest.main(["--check"]) == 2
    assert report_digest.main(["--bogus", "x"]) == 2
    assert "usage" in capsys.readouterr().err
