"""Command-line front end: constants, verification suites, parameter scans,
and the closed-form-vs-oracle sweep.

Exit codes: 0 success, 1 inequality/oracle failures, 2 usage errors.
Reports are deterministic for a fixed --seed (timing is kept out of the
serialized output); CSV output streams one row per checked inequality.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from typing import Optional

import numpy as np

from . import scalar_bounds as sb
from . import verification as vf
from .errors import KaraboundsError
from .functions import FunctionSpec, Interval

USAGE_ERROR = 2

_DEFAULTS = {
    "trials": 100,
    "seed": 0,
    "dims": None,
    "r": None,
    "alpha": None,
    "eps": None,
    "m": None,
    "M": None,
    "out": None,
    "format": "json",
    "suite": "all",
    "start": None,
    "stop": None,
    "steps": None,
    "tol": 1e-7,
}


def _parse_dims(text):
    if text is None:
        return None
    try:
        dims = tuple(int(part) for part in str(text).replace(" ", "").split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims list: {text!r}")
    if not dims or any(d < 1 or d > 64 for d in dims):
        raise argparse.ArgumentTypeError("dims must be integers in [1, 64]")
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karabounds",
        description="Reverse Karamata/Jensen constants and inequality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None, help="root RNG seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--r", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--m", type=float, default=None,
                       help="verify: with --M, the spectral interval [m, M] of the "
                            "operator-mean suites; constants: the m of C(h, r)")
        p.add_argument("--M", type=float, default=None,
                       help="verify: with --m, the spectral interval [m, M] of the "
                            "operator-mean suites")
        p.add_argument("--dims", type=_parse_dims, default=None,
                       help="comma-separated dimensions, e.g. 2,4,8")

    p_const = sub.add_parser("constants", help="closed forms with oracle cross-checks")
    common(p_const)
    p_const.add_argument("--h", type=float, default=None)

    p_verify = sub.add_parser("verify", help="run randomized verification suites")
    common(p_verify)
    p_verify.add_argument("--suite", default=None,
                          choices=["all"] + vf.suite_ids(include_extra=True))
    p_verify.add_argument("--trials", type=int, default=None)

    p_scan = sub.add_parser("scan", help="sweep a quantity over a parameter axis")
    common(p_scan)
    p_scan.add_argument("quantity", choices=("fannes", "ls_r", "specht", "kantorovich"))
    p_scan.add_argument("--start", type=float, default=None)
    p_scan.add_argument("--stop", type=float, default=None)
    p_scan.add_argument("--steps", type=int, default=None)
    p_scan.add_argument("--h", type=float, default=None)

    p_oracle = sub.add_parser("oracle", help="closed-form vs grid-oracle sweep")
    common(p_oracle)
    p_oracle.add_argument("--tol", type=float, default=None)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(_usage(f"cannot read config {path!r}: {exc}"))
        if not isinstance(file_cfg, dict):
            raise SystemExit(_usage("config file must hold a JSON object"))
        if "dims" in file_cfg and file_cfg["dims"] is not None:
            file_cfg["dims"] = tuple(int(d) for d in file_cfg["dims"])
        cfg.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("config", "command"):
            continue
        if value is not None:
            cfg[key] = value
    return cfg


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _emit(text: str, out_path: Optional[str]):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_output(rows, cfg, fieldnames=None) -> str:
    if cfg["format"] == "csv":
        import io

        buf = io.StringIO()
        if not rows:
            return ""
        names = fieldnames or list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=names)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    return json.dumps(rows, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_constants(cfg: dict) -> int:
    eps = cfg["eps"] if cfg["eps"] is not None else 0.1
    r = cfg["r"] if cfg["r"] is not None else 0.5
    alpha = cfg["alpha"] if cfg["alpha"] is not None else 1.0
    h = cfg.get("h") if cfg.get("h") is not None else 2.0
    m = cfg["m"] if cfg["m"] is not None else 1.0
    if not 0.0 < eps < 1.0:
        return _usage(f"eps must be in (0, 1), got {eps}")
    if h <= 1.0:
        return _usage(f"h must be > 1, got {h}")
    rows = []

    def add(name, params, closed, oracle):
        rows.append({"name": name, "params": params, "closed_form": float(closed),
                     "oracle_value": float(oracle), "abs_diff": abs(closed - oracle)})

    iv01 = Interval(0.0, 1.0)
    ive = Interval(eps, 1.0)
    f_tlogt = FunctionSpec.t_log_t(iv01)
    f_neglog = FunctionSpec.neg_log(ive)
    add("beta_t_log_t", {"alpha": alpha},
        sb.beta_constant(f_tlogt, iv01, alpha), sb.beta_oracle(f_tlogt, iv01, alpha))
    if 0.0 < r <= 1.0:
        f_ts = FunctionSpec.tsallis_f(r, iv01)
        add("beta_tsallis", {"alpha": alpha, "r": r},
            sb.beta_constant(f_ts, iv01, alpha), sb.beta_oracle(f_ts, iv01, alpha))
    add("ratio_neg_log", {"eps": eps},
        sb.ratio_constant(f_neglog, ive), sb.ratio_oracle(f_neglog, ive))
    add("diff_neg_log_logS", {"eps": eps},
        math.log(sb.specht(eps)), sb.diff_oracle(f_neglog, ive))
    if r > 0.0:
        f_lnr = FunctionSpec.ln_r_reciprocal(r, ive)
        add("ratio_ln_r", {"eps": eps, "r": r},
            sb.ratio_constant(f_lnr, ive), sb.ratio_oracle(f_lnr, ive))
        add("ls_r", {"eps": eps, "r": r},
            sb.ls_r_constant(eps, r), sb.diff_oracle(f_lnr, ive))
    ivh = Interval(m, m * h)
    f_pow = FunctionSpec.power(r if r not in (0.0, 1.0) else 2.0, ivh)
    add("kantorovich", {"h": h, "r": f_pow.r},
        sb.kantorovich(h, f_pow.r), sb.ratio_oracle(f_pow, ivh))
    add("c_of_hr", {"h": h, "r": f_pow.r, "m": m},
        sb.c_of_hr(m, h, f_pow.r), sb.diff_oracle(f_pow, ivh))
    add("kantorovich_r_to_0", {"h": h, "r": 1e-6},
        1.0, sb.kantorovich(h, 1e-6))
    add("specht", {"h": h},
        sb.specht(h), math.exp(sb.diff_oracle(FunctionSpec.neg_log(Interval(1.0 / h, 1.0)),
                                              Interval(1.0 / h, 1.0))))
    f_lin = FunctionSpec.custom(lambda t: 2.0 * np.asarray(t, dtype=float) + 1.0,
                                "convex", Interval(1.0, 2.0), "2t+1")
    add("linear_ratio_is_one", {}, 1.0,
        sb.ratio_oracle(f_lin, Interval(1.0, 2.0)))
    add("linear_diff_is_zero", {}, 0.0,
        sb.diff_oracle(f_lin, Interval(1.0, 2.0)))
    _emit(_rows_to_output(rows, cfg), cfg["out"])
    return 0


def cmd_verify(cfg: dict) -> int:
    suite = cfg["suite"]
    trials = cfg["trials"]
    if trials < 0:
        return _usage(f"trials must be >= 0, got {trials}")
    known = vf.suite_ids(include_extra=True)
    if suite == "all":
        suites = vf.suite_ids(include_extra=False)
    elif suite in known:
        suites = [suite]
    else:
        return _usage(f"unknown suite {suite!r}; known: {['all'] + known}")
    params = {}
    if cfg["dims"]:
        params["dims"] = tuple(cfg["dims"])
    for key in ("r", "alpha", "eps"):
        if cfg[key] is not None:
            params_key = {"r": "rs", "alpha": "alphas"}.get(key, key)
            params[params_key] = (cfg[key],) if params_key in ("rs", "alphas") else cfg[key]
    if cfg["m"] is not None and cfg["M"] is not None:
        if not 0.0 < cfg["m"] < cfg["M"]:
            return _usage("need 0 < m < M")
        params["interval"] = (cfg["m"], cfg["M"])
    reports = []
    all_verdicts = []
    for sid in suites:
        rep = vf.run_suite(sid, trials, cfg["seed"], params, keep_verdicts=True)
        reports.append(rep)
        all_verdicts.append((sid, rep.verdicts))
        print(f"{sid}: trials={rep.trials} failures={rep.failures} "
              f"min_margin={rep.min_margin} ({rep.elapsed_ms} ms)", file=sys.stderr)
    if cfg["format"] == "csv":
        out_path = cfg["out"]
        rows_iter = (
            row
            for k, (sid, verdicts) in enumerate(all_verdicts)
            for j, row in enumerate(vf.verdict_csv_rows(sid, verdicts))
            if not (k > 0 and j == 0)  # single header
        )
        with (open(out_path, "w", encoding="utf-8", newline="") if out_path
              else contextlib.nullcontext(sys.stdout)) as fh:
            csv.writer(fh).writerows(rows_iter)
    else:
        _emit(vf.report_to_json(reports), cfg["out"])
    failures = sum(rep.failures for rep in reports)
    return 0 if failures == 0 else 1


def cmd_scan(cfg: dict, quantity: str) -> int:
    steps = cfg["steps"] if cfg["steps"] is not None else 50
    if steps < 1:
        return _usage(f"steps must be >= 1, got {steps}")
    rows = []
    if quantity == "fannes":
        dims = cfg["dims"] or tuple(range(1, 11))
        rows = vf.check_fannes_comparison(dims)
    elif quantity == "ls_r":
        eps = cfg["eps"] if cfg["eps"] is not None else 0.1
        start = cfg["start"] if cfg["start"] is not None else 0.1
        stop = cfg["stop"] if cfg["stop"] is not None else 3.0
        if not 0.0 < eps < 1.0 or start <= 0.0 or stop < start:
            return _usage("ls_r scan needs eps in (0,1) and 0 < start <= stop")
        for r in np.linspace(start, stop, steps):
            val = sb.ls_r_constant(eps, float(r))
            rows.append({"r": float(r), "eps": eps, "ls_r": val,
                         "upper_1_over_r": 1.0 / float(r),
                         "within_claimed_bounds": bool(0.0 <= val <= 1.0 / float(r) + 1e-12)})
    elif quantity == "specht":
        start = cfg["start"] if cfg["start"] is not None else 1.1
        stop = cfg["stop"] if cfg["stop"] is not None else 100.0
        if start <= 0.0 or stop < start:
            return _usage("specht scan needs 0 < start <= stop")
        for h in np.geomspace(start, stop, steps):
            s = sb.specht(float(h))
            s_inv = sb.specht(1.0 / float(h))
            rows.append({"h": float(h), "specht": s, "specht_inv": s_inv,
                         "symmetry_gap": abs(s - s_inv)})
    elif quantity == "kantorovich":
        h = cfg.get("h") if cfg.get("h") is not None else 2.0
        start = cfg["start"] if cfg["start"] is not None else -2.0
        stop = cfg["stop"] if cfg["stop"] is not None else 3.0
        if h <= 1.0 or stop < start:
            return _usage("kantorovich scan needs h > 1 and start <= stop")
        for r in np.linspace(start, stop, steps):
            rows.append({"h": h, "r": float(r), "kantorovich": sb.kantorovich(h, float(r))})
    _emit(_rows_to_output(rows, cfg), cfg["out"])
    return 0


def cmd_oracle(cfg: dict) -> int:
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-7
    rows, worst = vf.oracle_sweep()
    payload = {"rows": rows, "worst_abs_diff": worst, "tol": tol,
               "pass": bool(worst <= tol)}
    if cfg["format"] == "csv":
        flat = [{"name": r["name"], "params": json.dumps(r["params"], sort_keys=True),
                 "closed_form": r["closed_form"], "oracle_value": r["oracle_value"],
                 "abs_diff": r["abs_diff"]} for r in rows]
        _emit(_rows_to_output(flat, cfg), cfg["out"])
    else:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", cfg["out"])
    print(f"oracle sweep: {len(rows)} comparisons, worst |diff| = {worst:.3e} "
          f"(tol {tol:g})", file=sys.stderr)
    return 0 if worst <= tol else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else USAGE_ERROR
    try:
        if args.command == "constants":
            return cmd_constants(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "scan":
            return cmd_scan(cfg, args.quantity)
        if args.command == "oracle":
            return cmd_oracle(cfg)
    except KaraboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
