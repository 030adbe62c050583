import csv
import io
import json
import math
from pathlib import Path

import pytest

from karabounds import cli
from karabounds import verification as vf

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report_schema.json"


def run(argv):
    return cli.main(argv)


def exit_code(argv):
    """main's return code, or the code of the SystemExit a usage error raises."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def _traceless_usage_error(argv, capsys):
    """Exit 2 with an ``error:`` line; any other exception propagates."""
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


class TestVerifyCommand:
    def test_single_suite_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "fuchs", "--trials", "25", "--seed", "1",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload[0]["suite_id"] == "fuchs"
        assert payload[0]["failures"] == 0
        assert "elapsed_ms" not in payload[0]

    def test_zero_trials_empty_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "entropy_vn", "--trials", "0", "--seed", "9",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload[0]["trials"] == 0
        assert payload[0]["failures"] == 0

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["verify", "--suite", "nonsense", "--trials", "5"])
        assert err.value.code == 2

    def test_negative_trials_usage_error(self):
        assert run(["verify", "--suite", "fuchs", "--trials", "-3"]) == 2

    def test_failing_suite_exit_one(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "mean_c_lhs_variant", "--trials", "6",
                    "--seed", "3", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload[0]["failures"] > 0

    def test_seed_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["verify", "--suite", "theorem_beta", "--trials", "20", "--seed", "42"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_operator_mean_interval_leaves_prefix_suites_alone(self, tmp_path):
        # --m/--M set the interval of the operator-mean suites only
        for suite in ("fuchs", "moment"):
            a, b = tmp_path / f"{suite}_a.csv", tmp_path / f"{suite}_b.csv"
            argv = ["verify", "--suite", suite, "--trials", "30", "--seed", "7",
                    "--format", "csv"]
            assert run(argv + ["--out", str(a)]) == 0
            assert run(argv + ["--m", "1.8", "--M", "4", "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), suite

    def test_csv_streaming_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = run(["verify", "--suite", "entropy_vn", "--trials", "8", "--seed", "2",
                    "--format", "csv", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["suite_id", "trial", "margin", "pass", "dim", "r",
                           "alpha", "eps", "seed", "inequality_id"]
        assert len(rows) == 1 + 2 * 8  # two inequalities per trial
        assert all(row[3] == "1" for row in rows[1:])

    def test_csv_stdout_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        argv = ["verify", "--suite", "moment", "--trials", "6", "--seed", "4",
                "--format", "csv"]
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_csv_of_every_suite_to_stdout_matches_out_file(self, tmp_path, capsys):
        # the text chunks reach stdout as they reach a file: CRLF rows, no
        # newline translation, the same bytes as csv.writer's
        out = tmp_path / "rows.csv"
        argv = ["verify", "--suite", "all", "--trials", "12", "--seed", "7", "--format", "csv"]
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        text = capsys.readouterr().out
        assert text.encode("utf-8") == out.read_bytes()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert {row[0] for row in rows[1:]} == set(vf.suite_ids())
        assert text.count("\r\n") == len(rows) and "\n" not in text.replace("\r\n", "")

    def test_verify_builds_no_verdicts(self, tmp_path, monkeypatch):
        # a JSON report is reduced from the margin columns and CSV rows are
        # written from them, so neither builds an InequalityVerdict
        built, verdict = [], vf.InequalityVerdict

        def counting(*args, **kwargs):
            built.append(args)
            return verdict(*args, **kwargs)

        monkeypatch.setattr(vf, "InequalityVerdict", counting)
        argv = ["verify", "--suite", "all", "--trials", "20", "--seed", "3"]
        assert run(argv + ["--out", str(tmp_path / "rep.json")]) == 0
        assert built == []
        out = tmp_path / "rows.csv"
        assert run(argv + ["--format", "csv", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            assert len(list(csv.reader(fh))) > 1
        assert built == []

    def test_dims_flag_restricts_dimensions(self, tmp_path):
        out = tmp_path / "rows.csv"
        run(["verify", "--suite", "entropy_vn", "--trials", "6", "--seed", "2",
             "--dims", "3", "--format", "csv", "--out", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {row[4] for row in rows} == {"3"}

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "fuchs", "trials": 4, "seed": 5}))
        out1 = tmp_path / "r1.json"
        assert run(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
        payload = json.loads(out1.read_text())
        assert payload[0]["suite_id"] == "fuchs"
        assert payload[0]["trials"] == 4
        out2 = tmp_path / "r2.json"
        assert run(["verify", "--config", str(cfg), "--trials", "7",
                    "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())[0]["trials"] == 7


class TestConfigIsParsedAsFlags:
    @pytest.mark.parametrize("cfg", [
        {"format": "xml"},      # not a --format choice
        {"dims": [0]},          # outside [1, 64]
        {"trails": 7},          # no such flag
        {"seed": 1.5},          # not an int
        {"seed": None},         # null is no flag value
        {"config": "other.json"},
        [4],                    # not an object
        {"tri": 3},             # flag names are exact, not prefixes
        {"alpha": "nan"},       # float flags are finite
    ], ids=["format", "dims", "typo", "seed_float", "null", "nested", "list", "abbrev",
            "nan"])
    def test_bad_config_usage_error(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "rep.json"
        argv = ["verify", "--suite", "fuchs", "--trials", "2", "--config", str(path),
                "--out", str(out)]
        assert exit_code(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "{not json", "\udcff"])
    def test_unreadable_config_usage_error(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert exit_code(["verify", "--config", str(path), "--trials", "0"]) == 2

    def test_config_strings_parse_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": "2", "dims": [2, 3], "format": "csv"}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["verify", "--suite", "entropy_vn", "--seed", "4"]
        assert run(argv + ["--config", str(cfg), "--out", str(a)]) == 0
        assert run(argv + ["--trials", "2", "--dims", "2,3", "--format", "csv",
                           "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", [
        ["constants"], ["scan", "ls_r"], ["scan", "kantorovich"], ["oracle"]])
    def test_config_gives_flag_bytes(self, tmp_path, command):
        flags = {"constants": {"eps": 0.3, "r": 2, "h": 5},
                 "scan": {"start": 0.5, "stop": 2.5, "steps": 4},
                 "oracle": {"tol": 1e-6, "format": "csv"}}[command[0]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        argv = [tok for key, value in flags.items() for tok in (f"--{key}", str(value))]
        assert run(command + ["--config", str(cfg), "--out", str(a)]) == 0
        assert run(command + argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCommandsTakeOnlyTheirFlags:
    @pytest.mark.parametrize("argv", [
        ["oracle", "--eps", "0.3"], ["oracle", "--seed", "5"], ["oracle", "--dims", "3"],
        ["constants", "--seed", "1"], ["constants", "--M", "2"], ["constants", "--dims", "2"],
        ["scan", "fannes", "--alpha", "1"], ["scan", "specht", "--seed", "1"],
        ["scan", "ls_r", "--r", "0.5"], ["scan", "ls_r", "--m", "1"],
        # each scan quantity takes only its own flags
        ["scan", "fannes", "--eps", "7", "--h", "0.5", "--steps", "2"],
        ["scan", "fannes", "--start", "9"], ["scan", "ls_r", "--h", "3"],
        ["scan", "ls_r", "--dims", "3"], ["scan", "specht", "--eps", "0.3"],
        ["scan", "specht", "--h", "3"], ["scan", "kantorovich", "--eps", "0.3"],
    ])
    def test_unread_flag_usage_error(self, argv, capsys):
        _traceless_usage_error(argv, capsys)

    def test_unread_config_key_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 0.3}))
        assert exit_code(["oracle", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("flag", ["--m", "--M"])
    def test_half_interval_usage_error(self, flag):
        assert run(["verify", "--suite", "operator_means", "--trials", "1", flag, "2"]) == 2

    def test_accepted_flags(self):
        # the flags each command, and each scan quantity, reads, and no other
        axis = {"config", "out", "format", "start", "stop", "steps"}
        want = {
            "constants": {"config", "out", "format", "eps", "r", "alpha", "h", "m"},
            "verify": {"config", "out", "format", "suite", "trials", "seed", "r", "alpha",
                       "eps", "m", "M", "dims"},
            "scan fannes": {"config", "out", "format", "dims"},
            "scan ls_r": axis | {"eps"},
            "scan specht": axis,
            "scan kantorovich": axis | {"h"},
            "oracle": {"config", "out", "format", "tol"},
        }

        def flags(parser, path=()):
            sub = [a for a in parser._actions if a.dest in ("command", "quantity")]
            if not sub:
                return {" ".join(path): {a.dest for a in parser._actions if a.dest != "help"}}
            return {name: got for word, child in sub[0].choices.items()
                    for name, got in flags(child, path + (word,)).items()}

        assert flags(cli.build_parser()) == want


class TestBadInputIsAUsageError:
    @pytest.mark.parametrize("suite", ["all"] + vf.suite_ids(include_extra=True))
    def test_negative_seed(self, suite, capsys):
        _traceless_usage_error(["verify", "--suite", suite, "--trials", "2", "--seed", "-1"],
                               capsys)

    @pytest.mark.parametrize("suite, flags", [
        ("entropy_tsallis", ["--r", "0"]),
        ("entropy_tsallis", ["--r", "1.5"]),
        ("operator_means", ["--r", "0"]),
        ("mean_limits", ["--r", "0"]),
        ("mean_c_lhs_variant", ["--r", "0"]),
        ("entropy_vn", ["--alpha", "-1"]),
        ("entropy_tsallis", ["--alpha", "-1"]),
        ("info_inequality", ["--r", "1.5"]),
        ("info_inequality", ["--r", "0"]),
        ("info_inequality", ["--r", "-1"]),
    ])
    def test_out_of_domain_suite_param(self, suite, flags, tmp_path, capsys):
        out = tmp_path / "rep.json"
        _traceless_usage_error(["verify", "--suite", suite, "--trials", "4", "--out", str(out),
                                *flags], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "entropy_vn", "--trials", "2", "--alpha", "nan"],
        ["verify", "--suite", "entropy_tsallis", "--trials", "2", "--r", "nan"],
        ["verify", "--suite", "parametric_reverse", "--trials", "2", "--r", "inf"],
        ["oracle", "--tol", "nan"],
        ["scan", "kantorovich", "--start=-inf"],
    ])
    def test_non_finite_float_flag(self, argv, capsys):
        _traceless_usage_error(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "fuchs", "--tri", "3"],
        ["constants", "--al", "2"],
        ["scan", "ls_r", "--ep", "0.3"],
        ["oracle", "--to", "1e-6"],
    ])
    def test_abbreviated_flag(self, argv, capsys):
        _traceless_usage_error(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["constants", "--h", "1e200", "--r", "3"],
        ["constants", "--h", "1e300", "--r", "2"],
        ["scan", "kantorovich", "--h", "1e200", "--start", "3", "--stop", "4", "--steps", "2"],
    ])
    def test_overflowing_constant(self, argv, tmp_path, capsys):
        # K(h, r) or C(h, r) leaves the float range: a typed error, no traceback
        out = tmp_path / "rows.json"
        _traceless_usage_error(argv + ["--out", str(out)], capsys)
        assert not out.exists()


class TestConstantsCommand:
    def test_default_rows_agree_with_oracle(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["constants", "--eps", "0.1", "--out", str(out)]) == 0
        rows = {row["name"]: row for row in json.loads(out.read_text())}
        assert rows["diff_neg_log_logS"]["abs_diff"] <= 1e-8
        assert rows["kantorovich_r_to_0"]["abs_diff"] <= 1e-5
        assert rows["linear_ratio_is_one"]["abs_diff"] <= 1e-9
        assert rows["linear_diff_is_zero"]["abs_diff"] <= 1e-9
        for row in rows.values():
            if row["name"] not in ("kantorovich_r_to_0",):
                assert row["abs_diff"] <= 1e-7, row

    def test_bad_eps_usage_error(self):
        assert run(["constants", "--eps", "1.5"]) == 2


class TestScanCommand:
    def test_fannes_crossover(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["scan", "fannes", "--dims", "1,2,3,4,5,6,7,8,9,10",
                    "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        tighter = {row["dim"]: row["tighter"] for row in rows}
        assert tighter[1] == "equal"
        assert all(tighter[d] == "ours" for d in range(2, 6))
        assert all(tighter[d] == "fannes_weak" for d in range(6, 11))

    def test_ls_r_scan_flags_bound(self, tmp_path):
        out = tmp_path / "ls.json"
        assert run(["scan", "ls_r", "--eps", "0.5", "--start", "0.1", "--stop", "2.0",
                    "--steps", "20", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 20
        assert all(row["ls_r"] >= 0.0 for row in rows)

    def test_specht_symmetry_scan(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["scan", "specht", "--start", "1.5", "--stop", "50.0",
                    "--steps", "12", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert all(row["symmetry_gap"] <= 1e-12 * row["specht"] for row in rows)

    def test_empty_range_usage_error(self):
        assert run(["scan", "ls_r", "--steps", "0"]) == 2

    def test_csv_format(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run(["scan", "kantorovich", "--h", "3.0", "--steps", "5",
                    "--format", "csv", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert {"h", "r", "kantorovich"} <= set(rows[0])


class TestOracleCommand:
    def test_default_sweep_passes(self, tmp_path):
        out = tmp_path / "o.json"
        assert run(["oracle", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["worst_abs_diff"] <= 1e-7

    def test_injected_error_exits_one(self, tmp_path, monkeypatch):
        from karabounds import verification as vf
        monkeypatch.setattr(vf.sb, "specht", lambda h: 1.0)
        out = tmp_path / "o.json"
        assert run(["oracle", "--out", str(out)]) == 1

    def test_non_finite_closed_form_fails_with_null_values(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vf.sb, "kantorovich", lambda h, r: math.nan)
        out = tmp_path / "o.json"
        assert run(["oracle", "--out", str(out)]) == 1

        def reject(token):
            raise AssertionError(f"bare {token} in the JSON")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["pass"] is False and payload["worst_abs_diff"] is None
        bad = [r for r in payload["rows"] if r["name"] == "kantorovich"]
        assert len(bad) == 49
        assert all(r["closed_form"] is None and r["abs_diff"] is None
                   and isinstance(r["oracle_value"], float) for r in bad)
        csv_out = tmp_path / "o.csv"
        assert run(["oracle", "--format", "csv", "--out", str(csv_out)]) == 1
        with open(csv_out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(r["closed_form"] == r["abs_diff"] == "nan" for r in rows) == 49


class TestReportSchema:
    @pytest.fixture
    def validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        return jsonschema.Draft202012Validator(schema)

    def test_verify_all_report_matches_schema(self, tmp_path, validator):
        out = tmp_path / "all.json"
        assert run(["verify", "--suite", "all", "--trials", "2", "--seed", "0",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [rep["suite_id"] for rep in payload] == vf.suite_ids()
        validator.validate(payload)
