"""Command-line front end: constants, verification suites, parameter scans,
and the closed-form-vs-oracle sweep.

Every input reaches a command through one argparse parser.  Each command,
and each ``scan`` quantity, declares only the flags it reads, with their
defaults, so a flag that a command does not read is a usage error; flag
names must be given in full, and every float flag must be finite.
``--config FILE`` names a JSON object whose keys are flag names:
``{"trials": 4, "dims": [2, 4]}`` becomes ``--trials=4 --dims=2,4``, placed
after the command name (and a scan's quantity) and before the command line's
own flags, and the whole is parsed again.  Config values are therefore
checked exactly as flags are, and explicit flags win.

Exit codes: 0 success, 1 inequality/oracle failures, 2 usage errors.
Reports are deterministic for a fixed --seed (timing is kept out of the
serialized output); CSV output streams one row per checked inequality.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
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


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def _parse_dims(text):
    try:
        dims = tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims list: {text!r}")
    if not dims or any(d < 1 or d > 64 for d in dims):
        raise argparse.ArgumentTypeError("dims must be integers in [1, 64]")
    return dims


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: building it takes about 2 ms."""
    parser = argparse.ArgumentParser(
        prog="karabounds",
        description="Reverse Karamata/Jensen constants and inequality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, parent=sub):
        p = parent.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON object of flag values, keyed by flag "
                                         "name and checked as flags; flags win")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = command("constants", cmd_constants, "closed forms with oracle cross-checks")
    p.add_argument("--eps", type=_finite_float, default=0.1)
    p.add_argument("--r", type=_finite_float, default=0.5)
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--h", type=_finite_float, default=2.0)
    p.add_argument("--m", type=_finite_float, default=1.0, help="the m of C(h, r)")

    p = command("verify", cmd_verify, "run randomized verification suites")
    p.add_argument("--suite", default="all",
                   choices=["all"] + vf.suite_ids(include_extra=True))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")
    p.add_argument("--r", type=_finite_float)
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--eps", type=_finite_float)
    p.add_argument("--m", type=_finite_float, help="with --M, the spectral interval [m, M] "
                                                   "of the operator-mean suites")
    p.add_argument("--M", type=_finite_float, help="see --m")
    p.add_argument("--dims", type=_parse_dims,
                   help="comma-separated dimensions, e.g. 2,4,8")

    scan = sub.add_parser("scan", help="sweep a quantity over a parameter axis",
                          allow_abbrev=False).add_subparsers(dest="quantity", required=True)
    p = command("fannes", cmd_scan, "dim/e against log(dim) + 1/e per dimension", scan)
    p.add_argument("--dims", type=_parse_dims, default=tuple(range(1, 11)),
                   help="comma-separated dimensions, e.g. 2,4,8")

    def axis(name, help, start, stop):
        p = command(name, cmd_scan, help, scan)
        p.add_argument("--start", type=_finite_float, default=start)
        p.add_argument("--stop", type=_finite_float, default=stop)
        p.add_argument("--steps", type=int, default=50)
        return p

    axis("ls_r", "ls_r(eps) over r", 0.1, 3.0).add_argument(
        "--eps", type=_finite_float, default=0.1, help="the eps of ls_r")
    axis("specht", "S(h) and S(1/h) over h", 1.1, 100.0)
    axis("kantorovich", "K(h, r) over r", -2.0, 3.0).add_argument(
        "--h", type=_finite_float, default=2.0, help="the h of K(h, r)")

    p = command("oracle", cmd_oracle, "closed-form vs grid-oracle sweep")
    p.add_argument("--tol", type=_finite_float, default=1e-7)
    return parser


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list:
    """The JSON object in ``path`` as ``--key=value`` flag tokens; a list
    value is joined with commas."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config {path!r}: {exc}")
    if not isinstance(cfg, dict) or "config" in cfg:
        parser.error(f"config {path!r} must hold a JSON object of flags other than config")
    return [f"--{key}=" + (",".join(map(str, value)) if isinstance(value, list) else str(value))
            for key, value in cfg.items()]


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _emit(text: str, out_path: Optional[str]):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_output(rows, fmt: str) -> str:
    if fmt == "csv":
        if not rows:
            return ""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    return json.dumps(rows, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _constant_cases(eps, r, alpha, h, m):
    """(name, params, closed form, oracle value) of each constant that
    ``constants`` reports at the given parameters."""
    iv01 = Interval(0.0, 1.0)
    ive = Interval(eps, 1.0)
    f_tlogt = FunctionSpec.t_log_t(iv01)
    f_neglog = FunctionSpec.neg_log(ive)
    yield ("beta_t_log_t", {"alpha": alpha},
           sb.beta_constant(f_tlogt, iv01, alpha), sb.beta_oracle(f_tlogt, iv01, alpha))
    if 0.0 < r <= 1.0:
        f_ts = FunctionSpec.tsallis_f(r, iv01)
        yield ("beta_tsallis", {"alpha": alpha, "r": r},
               sb.beta_constant(f_ts, iv01, alpha), sb.beta_oracle(f_ts, iv01, alpha))
    yield ("ratio_neg_log", {"eps": eps},
           sb.ratio_constant(f_neglog, ive), sb.ratio_oracle(f_neglog, ive))
    yield ("diff_neg_log_logS", {"eps": eps},
           math.log(sb.specht(eps)), sb.diff_oracle(f_neglog, ive))
    if r > 0.0:
        f_lnr = FunctionSpec.ln_r_reciprocal(r, ive)
        yield ("ratio_ln_r", {"eps": eps, "r": r},
               sb.ratio_constant(f_lnr, ive), sb.ratio_oracle(f_lnr, ive))
        yield ("ls_r", {"eps": eps, "r": r},
               sb.ls_r_constant(eps, r), sb.diff_oracle(f_lnr, ive))
    ivh = Interval(m, m * h)
    f_pow = FunctionSpec.power(r if r not in (0.0, 1.0) else 2.0, ivh)
    yield ("kantorovich", {"h": h, "r": f_pow.r},
           sb.kantorovich(h, f_pow.r), sb.ratio_oracle(f_pow, ivh))
    yield ("c_of_hr", {"h": h, "r": f_pow.r, "m": m},
           sb.c_of_hr(m, h, f_pow.r), sb.diff_oracle(f_pow, ivh))
    yield ("kantorovich_r_to_0", {"h": h, "r": 1e-6},
           1.0, sb.kantorovich(h, 1e-6))
    yield ("specht", {"h": h},
           sb.specht(h), math.exp(sb.diff_oracle(FunctionSpec.neg_log(Interval(1.0 / h, 1.0)),
                                                 Interval(1.0 / h, 1.0))))
    f_lin = FunctionSpec.custom(lambda t: 2.0 * np.asarray(t, dtype=float) + 1.0,
                                "convex", Interval(1.0, 2.0), "2t+1")
    yield ("linear_ratio_is_one", {}, 1.0,
           sb.ratio_oracle(f_lin, Interval(1.0, 2.0)))
    yield ("linear_diff_is_zero", {}, 0.0,
           sb.diff_oracle(f_lin, Interval(1.0, 2.0)))


def cmd_constants(args: argparse.Namespace) -> int:
    eps, r, alpha, h, m = args.eps, args.r, args.alpha, args.h, args.m
    if not 0.0 < eps < 1.0:
        return _usage(f"eps must be in (0, 1), got {eps}")
    if h <= 1.0:
        return _usage(f"h must be > 1, got {h}")
    rows = [vf.oracle_row(*case) for case in _constant_cases(eps, r, alpha, h, m)]
    _emit(_rows_to_output(rows, args.format), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = vf.suite_ids(include_extra=False) if args.suite == "all" else [args.suite]
    params = {}
    if args.dims:
        params["dims"] = args.dims
    if args.r is not None:
        params["rs"] = (args.r,)
    if args.alpha is not None:
        params["alphas"] = (args.alpha,)
    if args.eps is not None:
        params["eps"] = args.eps
    if (args.m is None) != (args.M is None):
        return _usage("--m and --M go together")
    if args.m is not None:
        if not 0.0 < args.m < args.M:
            return _usage("need 0 < m < M")
        params["interval"] = (args.m, args.M)
    reports = []
    for sid in suites:
        # only CSV lists the verdicts
        rep = vf.run_suite(sid, args.trials, args.seed, params, keep_verdicts=args.format == "csv")
        reports.append(rep)
        print(f"{sid}: trials={rep.trials} failures={rep.failures} "
              f"min_margin={rep.min_margin} ({rep.elapsed_ms} ms)", file=sys.stderr)
    if args.format == "csv":
        rows_iter = (
            row
            for k, rep in enumerate(reports)
            for j, row in enumerate(vf.verdict_csv_rows(rep.suite_id, rep.verdicts))
            if not (k > 0 and j == 0)  # single header
        )
        with (open(args.out, "w", encoding="utf-8", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            csv.writer(fh).writerows(rows_iter)
    else:
        _emit(vf.report_to_json(reports), args.out)
    failures = sum(rep.failures for rep in reports)
    return 0 if failures == 0 else 1


def cmd_scan(args: argparse.Namespace) -> int:
    rows = []
    if args.quantity == "fannes":
        rows = vf.check_fannes_comparison(args.dims)
    elif args.steps < 1:
        return _usage(f"steps must be >= 1, got {args.steps}")
    elif args.quantity == "ls_r":
        eps, start, stop = args.eps, args.start, args.stop
        if not 0.0 < eps < 1.0 or start <= 0.0 or stop < start:
            return _usage("ls_r scan needs eps in (0,1) and 0 < start <= stop")
        for r in np.linspace(start, stop, args.steps):
            val = sb.ls_r_constant(eps, float(r))
            rows.append({"r": float(r), "eps": eps, "ls_r": val,
                         "upper_1_over_r": 1.0 / float(r),
                         "within_claimed_bounds": bool(0.0 <= val <= 1.0 / float(r) + 1e-12)})
    elif args.quantity == "specht":
        if args.start <= 0.0 or args.stop < args.start:
            return _usage("specht scan needs 0 < start <= stop")
        for h in np.geomspace(args.start, args.stop, args.steps):
            s = sb.specht(float(h))
            s_inv = sb.specht(1.0 / float(h))
            rows.append({"h": float(h), "specht": s, "specht_inv": s_inv,
                         "symmetry_gap": abs(s - s_inv)})
    elif args.quantity == "kantorovich":
        h = args.h
        if h <= 1.0 or args.stop < args.start:
            return _usage("kantorovich scan needs h > 1 and start <= stop")
        for r in np.linspace(args.start, args.stop, args.steps):
            rows.append({"h": h, "r": float(r), "kantorovich": sb.kantorovich(h, float(r))})
    _emit(_rows_to_output(rows, args.format), args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    tol = args.tol
    rows, worst = vf.oracle_sweep()
    payload = {"rows": rows, "worst_abs_diff": worst, "tol": tol,
               "pass": bool(worst <= tol)}
    if args.format == "csv":
        flat = [{"name": r["name"], "params": json.dumps(r["params"], sort_keys=True),
                 "closed_form": r["closed_form"], "oracle_value": r["oracle_value"],
                 "abs_diff": r["abs_diff"]} for r in rows]
        _emit(_rows_to_output(flat, args.format), args.out)
    else:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    print(f"oracle sweep: {len(rows)} comparisons, worst |diff| = {worst:.3e} "
          f"(tol {tol:g})", file=sys.stderr)
    return 0 if worst <= tol else 1


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        # config flags go after the command (and a scan's quantity) and
        # before the user's own flags
        cut = 2 if args.command == "scan" else 1
        args = parser.parse_args(argv[:cut] + _config_flags(parser, args.config) + argv[cut:])
    try:
        return args.run(args)
    except KaraboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
