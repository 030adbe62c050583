"""Self-tests of the benchmark harness at tiny trial counts.

    python3 -m pytest benchmarks/tests -q

Run from the root of a checkout; the harness imports karabounds from src/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "operator_means": 3, "mean_limits": 2,
    "theorem_beta": 3, "corollary_weighted": 3, "lemma_jensen": 3,
    "entropy_vn": 3, "entropy_tsallis": 3, "eigensolver": 4,
    "scalar_corollary": 5, "fuchs": 4, "moment": 4, "info_inequality": 4,
    "reverse_shannon": 4, "parametric_reverse": 4,
}


@pytest.fixture(scope="module")
def pkg():
    return harness.load_program(ROOT)


def tiny_run(tmp_path, workload, trace, seed=3):
    return harness.run(ROOT, workload, seed, 0.0, trace, tmp_path, trials=TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_output_has_declared_shape_and_names(tmp_path, workload, trace):
    result, record = tiny_run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["problems"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    json.dumps(result)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert record["inputs"]["workload"] == workload
    assert record["environment"]["nproc"] >= 1


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == harness.per_layer_names()
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == harness.layer_unit(m["name"])


@pytest.mark.parametrize("suite", sorted(TINY))
def test_expected_verdict_counts_follow_the_suites(pkg, suite):
    for trials in (1, 7):
        rep = pkg.verification.run_suite(suite, trials, 11, keep_verdicts=True)
        assert len(rep.verdicts) == harness.expected_verdicts(suite, trials)


def _corrupting_main(original, edit):
    def main(argv):
        code = original(argv)
        if argv[0] == "verify" and "csv" in argv:
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(edit(out.read_text(encoding="utf-8")), encoding="utf-8")
        return code
    return main


def _flip_first_verdict(text):
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[3] = "0"
    lines[1] = ",".join(cells)
    return "".join(lines)


def _drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


@pytest.mark.parametrize("edit", [_flip_first_verdict, _drop_last_row])
def test_corrupted_report_is_counted_as_failed(tmp_path, pkg, monkeypatch, edit):
    monkeypatch.setattr(pkg.cli, "main", _corrupting_main(pkg.cli.main, edit))
    result, record = tiny_run(tmp_path, "scalar_classical", False)
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["passed_frac"]["value"] < 1.0
    assert record["failed_frac"] == result["failed"] / result["attempted"]


def test_check_output_rejects_bad_json_and_oracle():
    call = harness.Call("theorem_beta", 4, 0, "json")
    good = {"suite_id": "theorem_beta", "trials": 4, "failures": 0, "min_margin": 0.1,
            "worst_context": {}}
    assert harness.check_output(call, 0, json.dumps([good]).encode())[0] == []
    for bad in ({"failures": 1}, {"trials": 3}, {"min_margin": -1.0}, {"suite_id": "fuchs"}):
        data = json.dumps([{**good, **bad}]).encode()
        assert harness.check_output(call, 0, data)[0], bad
    assert harness.check_output(call, 1, json.dumps([good]).encode())[0]
    assert harness.check_output(call, 0, None)[0]
    oracle = {"rows": [{}] * harness.ORACLE_ROWS, "worst_abs_diff": 1e-6, "pass": False}
    assert harness.check_output(harness.Call(None), 0, json.dumps(oracle).encode())[0]


def test_reference_mismatch_is_a_problem():
    ref = {"suites": {"fuchs": {"trials": 10, "min_margin": 0.5}}}
    assert harness.reference_problems("fuchs", 10, 0.5 + 1e-12, ref) == []
    assert harness.reference_problems("fuchs", 10, 0.5 + 1e-6, ref)
    assert harness.reference_problems("fuchs", 11, 0.9, ref) == []  # other trial count


def test_traced_self_times_fit_in_the_pass(tmp_path):
    _, record = tiny_run(tmp_path, "map_sums", True)
    checks = record["samples"]["self_time_check"]
    assert checks
    for c in checks:
        assert c["self_total_s"] <= c["wall_s"]
        assert c["self_total_s"] == pytest.approx(c["root_s"], rel=1e-6)
    names = {rec[spans.NAME] for rec in record["spans"]}
    assert {"cli.main", "operator_calculus.eigh_stack", "verification.run_suite"} <= names


def test_tracer_rebinds_every_use_and_restores(pkg):
    ce, sb = pkg.classical_entropy, pkg.scalar_bounds
    originals = (ce.ls_r_constant, sb.ls_r_constant, pkg.FunctionSpec.__call__)
    tracer = spans.Tracer()
    tracer.install(pkg)
    try:
        assert ce.ls_r_constant is not originals[0] and sb.ls_r_constant is ce.ls_r_constant
        ce.parametric_reverse_margins([0.5, 0.5], [0.5, 0.5], 0.1, 0.5, ce.SELF_DOMINATED)
    finally:
        tracer.uninstall()
    assert (ce.ls_r_constant, sb.ls_r_constant, pkg.FunctionSpec.__call__) == originals
    names = [rec[spans.NAME] for rec in tracer.spans]
    assert "scalar_bounds.ls_r_constant" in names
    summary = spans.summarize(tracer.spans)
    assert summary["calls"]["classical_entropy.parametric_reverse_margins"] == 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results", ".pytest_cache"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
