"""Workloads, correctness gate and measurement loop of the karabounds benchmark.

Every workload is a list of CLI calls that ``karabounds.cli.main`` runs
in-process, each writing its report to a file.  A *pass* runs every call of
the workload once.  The module keeps three kinds of pass apart:

* the check pass, at the run's seed, which runs each suite in CSV (to count
  and inspect every verdict) and in the workload's own format;
* the reference pass, at ``DEFAULT_SEED`` in CSV, whose per-suite
  ``min_margin`` must match ``reference.json`` within the suite's tolerance;
* the measured passes, untraced for the end-to-end metrics and, in a traced
  run, each followed by a traced pass over the same inputs.  Pass i of a run
  with seed s uses seed ``s * PASS_SEED_STRIDE + i``.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

import spans as spans_mod

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
# Each measured pass draws fresh inputs.  Some samplers have heavy tails
# (scalar_corollary's coordinate solve can redraw tens of thousands of times
# in one trial), so one seed's pass time says little about another's; the
# median over a run's passes, each on its own seed, does not move with them.
PASS_SEED_STRIDE = 1000
MIN_PASSES = 3
ORACLE_ROWS = 274
ORACLE_TOL = 1e-7
OPERATOR_TOL = 1e-8
SCALAR_TOL = 1e-9
OPERATOR_SUITES = ("theorem_beta", "corollary_weighted", "operator_means", "mean_limits")
CSV_HEADER = ["suite_id", "trial", "margin", "pass", "dim", "r", "alpha", "eps", "seed",
              "inequality_id"]

# The host is shared: a co-tenant can slow this core by up to 1.7x, in
# stretches from tens of milliseconds to minutes.  A fixed kernel of small
# numpy operations and interpreter work, timed right before and right after
# every measured call, gives the core's speed during the call, and every
# reported time is scaled to the kernel's nominal duration.  CAL_NOMINAL_S is
# about the kernel's fastest time on the reference machine (2-core Xeon,
# 4 MiB L2, Python 3.11, numpy 2.4), where its median swings between 10 and
# 20 ms with the co-tenants' load; see README.md.
CAL_NOMINAL_S = 0.0100


def _calibration_kernel():
    A = np.linspace(-1.0, 1.0, 64).reshape(4, 4, 4)
    acc = 0.0
    for i in range(1600):
        B = A * 1.0001 + np.swapaxes(A, 1, 2)
        acc += float(np.abs(B).sum(axis=(1, 2)).max()) * 1e-9 + (i % 5) * 0.25
    return acc


def calibrate():
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


class Timing(NamedTuple):
    call: "Call"
    wall: float  # seconds
    cal: float  # calibration kernel seconds around the call
    ok: bool = True  # the call passed the correctness gate

    @property
    def scaled(self):
        """The call's time at the calibration kernel's nominal speed."""
        return self.wall * CAL_NOMINAL_S / self.cal


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple  # ((suite_id, trials), ...), run in this order
    fmt: str
    with_oracle: bool


# Trial counts give passes of roughly a second on a 2-core Xeon, so that a
# 25-second run holds about fifteen passes; each count is a multiple of the
# suite's parameter cycle (dims x functions x alphas x r values).
WORKLOADS = {
    w.name: w for w in (
        Workload("mean_bounds", (("operator_means", 28), ("mean_limits", 28)), "json", False),
        Workload("map_sums", (("theorem_beta", 48), ("corollary_weighted", 48),
                              ("lemma_jensen", 40), ("entropy_vn", 56),
                              ("entropy_tsallis", 84), ("eigensolver", 150)), "json", False),
        Workload("scalar_classical", (("scalar_corollary", 384), ("fuchs", 384), ("moment", 384),
                                      ("info_inequality", 384), ("reverse_shannon", 384),
                                      ("parametric_reverse", 384)), "csv", True),
    )
}

# Default matrix dimensions / vector sizes of each suite (recorded with the
# results; they come from the suite definitions in verification.py).
SUITE_DIMS = {
    "operator_means": (2, 3, 4, 6), "mean_limits": (2, 3, 4, 6),
    "theorem_beta": (2, 4, 8), "corollary_weighted": (2, 4, 8),
    "lemma_jensen": (2, 3, 4, 6, 8), "entropy_vn": tuple(range(2, 9)),
    "entropy_tsallis": tuple(range(2, 9)), "eigensolver": tuple(range(2, 17)),
    "scalar_corollary": (4,), "fuchs": (5,), "moment": (5,), "info_inequality": (2, 3, 5, 8),
    "reverse_shannon": (2, 3, 4, 6), "parametric_reverse": (2, 3, 4, 6),
}

# Verdicts per trial, from each suite's definition: the mean suites score five
# sound forms (mean_limits adds the two r -> 0 limit claims), info_inequality
# scores three forms, the entropy and reverse suites two, the rest one.
_VERDICTS_PER_TRIAL = {
    "theorem_beta": 1, "corollary_weighted": 1, "fuchs": 1, "moment": 1,
    "entropy_vn": 2, "entropy_tsallis": 2, "reverse_shannon": 2, "parametric_reverse": 2,
    "eigensolver": 2, "info_inequality": 3, "operator_means": 5, "mean_limits": 7,
}
_JENSEN_DIMS = (2, 3, 4, 6, 8)  # one verdict per basis vector plus 16 random vectors
# scalar_corollary cycles t_log_t, neg_log, power2, tsallis_05; the ratio
# form is skipped for t_log_t and tsallis_05, which are <= 0 on [0, 1].
_SCALAR_COROLLARY_FORMS = (2, 3, 3, 2)


def expected_verdicts(suite, trials):
    if suite == "lemma_jensen":
        return sum(_JENSEN_DIMS[i % len(_JENSEN_DIMS)] + 16 for i in range(trials))
    if suite == "scalar_corollary":
        return sum(_SCALAR_COROLLARY_FORMS[i % 4] for i in range(trials))
    return _VERDICTS_PER_TRIAL[suite] * trials


def suite_tol(suite):
    return OPERATOR_TOL if suite in OPERATOR_SUITES else SCALAR_TOL


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``suite`` None means ``karabounds oracle``."""

    suite: str | None
    trials: int = 0
    seed: int = 0
    fmt: str = "json"

    def argv(self, out):
        if self.suite is None:
            return ["oracle", "--out", str(out)]
        return ["verify", "--suite", self.suite, "--trials", str(self.trials),
                "--seed", str(self.seed), "--format", self.fmt, "--out", str(out)]

    @property
    def items(self):
        return ORACLE_ROWS if self.suite is None else expected_verdicts(self.suite, self.trials)

    @property
    def label(self):
        if self.suite is None:
            return "oracle"
        return f"{self.suite}/{self.fmt}/seed{self.seed}/trials{self.trials}"


class ProgramMissing(RuntimeError):
    pass


def load_program(root):
    """Import karabounds from ``root/src`` (never from an installed copy)."""
    src = (Path(root) / "src").resolve()
    if not (src / "karabounds" / "__init__.py").is_file():
        raise ProgramMissing(f"no karabounds sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("karabounds")
    importlib.import_module("karabounds.cli")
    if Path(pkg.__file__).resolve().parent != src / "karabounds":
        raise ProgramMissing(f"karabounds was imported from {pkg.__file__}, not {src}")
    return pkg


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Counts items attempted and failed; a bad call fails all its items."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, items, label, problems):
        self.attempted += items
        if problems:
            self.failed += items
            if len(self.problems) < 50:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def check_output(call, code, data):
    """Problems with one call's exit code and output, and its min margin."""
    if code != 0:
        return [f"exit {code!r}"], None
    if data is None:
        return ["no output file"], None
    try:
        if call.suite is None:
            return _check_oracle(data), None
        if call.fmt == "csv":
            return _check_csv(call, data)
        return _check_json(call, data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None


def _check_oracle(data):
    payload = json.loads(data)
    problems = []
    if len(payload["rows"]) != ORACLE_ROWS:
        problems.append(f"{len(payload['rows'])} oracle rows, expected {ORACLE_ROWS}")
    worst = payload["worst_abs_diff"]
    if not (payload["pass"] is True and worst <= ORACLE_TOL):
        problems.append(f"worst_abs_diff {worst!r} above {ORACLE_TOL}")
    return problems


def _check_json(call, data):
    reports = json.loads(data)
    if not isinstance(reports, list) or len(reports) != 1:
        return ["expected a list holding one suite report"], None
    rep = reports[0]
    problems = []
    if rep["suite_id"] != call.suite:
        problems.append(f"suite_id {rep['suite_id']!r}")
    if rep["trials"] != call.trials:
        problems.append(f"trials {rep['trials']!r}, expected {call.trials}")
    if rep["failures"] != 0:
        problems.append(f"{rep['failures']} failures")
    margin = rep["min_margin"]
    if call.trials > 0 and not (isinstance(margin, float) and math.isfinite(margin)
                                and margin >= -suite_tol(call.suite)):
        problems.append(f"min_margin {margin!r}")
    return problems, margin


def _check_csv(call, data):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or rows[0] != CSV_HEADER:
        return ["missing or wrong CSV header"], None
    body = rows[1:]
    problems = []
    if len(body) != call.items:
        problems.append(f"{len(body)} verdict rows, expected {call.items}")
    if any(len(row) != len(CSV_HEADER) or row[0] != call.suite for row in body):
        problems.append("malformed row or foreign suite id")
        return problems, None
    failed = sum(row[3] != "1" for row in body)
    if failed:
        problems.append(f"{failed} failed verdicts")
    margins = [float(row[2]) for row in body]
    return problems, min(margins) if margins else None


def load_reference():
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_problems(suite, trials, margin, reference):
    """Compare a default-seed min margin with the stored one (same trials)."""
    ref = reference["suites"].get(suite)
    if ref is None or ref["trials"] != trials:
        return []
    if margin is None or abs(margin - ref["min_margin"]) > suite_tol(suite):
        return [f"min_margin {margin!r} differs from reference {ref['min_margin']!r}"]
    return []


# ---------------------------------------------------------------------------
# running calls and passes
# ---------------------------------------------------------------------------


class Runner:
    """Runs calls of one workload against the in-process CLI."""

    def __init__(self, pkg, workload, seed, tmp, trials=None):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        self.tmp = Path(tmp)
        self.trials = dict(workload.suites)
        if trials:
            self.trials.update(trials)
        self.gate = Gate()

    def suite_calls(self, seed, fmt):
        return [Call(s, self.trials[s], seed, fmt) for s, _ in self.workload.suites]

    def pass_calls(self, index):
        """The calls of measured pass ``index``, on that pass's own seed."""
        calls = self.suite_calls(self.seed * PASS_SEED_STRIDE + index, self.workload.fmt)
        if self.workload.with_oracle:
            calls.append(Call(None))
        return calls

    def invoke(self, call):
        """Run one call; returns (exit code or error text, seconds, bytes or None)."""
        out = self.tmp / f"out.{call.fmt}"
        out.unlink(missing_ok=True)
        argv = call.argv(out)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = self.pkg.cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
        except Exception as exc:  # a crash of the program counts as a failed call
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        data = out.read_bytes() if out.exists() else None
        return code, seconds, data

    def checked(self, call):
        """Invoke and fully check a call; returns (problems, min margin, bytes)."""
        code, _, data = self.invoke(call)
        problems, margin = check_output(call, code, data)
        return problems, margin, data

    def check_pass(self, reference):
        """Check every call at the run's seed, in CSV and in the workload's
        format, and the oracle; then check the default-seed margins against
        ``reference``."""
        csv_margins = {}
        for call in self.suite_calls(self.seed, "csv"):
            problems, margin, _ = self.checked(call)
            csv_margins[call.suite] = margin
            if self.seed == DEFAULT_SEED:
                problems += reference_problems(call.suite, call.trials, margin, reference)
            self.gate.record(call.items, call.label, problems)
        if self.workload.fmt != "csv":
            for call in self.suite_calls(self.seed, self.workload.fmt):
                problems, margin, _ = self.checked(call)
                if margin != csv_margins[call.suite]:
                    problems.append(f"min_margin {margin!r} differs from the CSV "
                                    f"minimum {csv_margins[call.suite]!r}")
                self.gate.record(call.items, call.label, problems)
        call = Call(None)  # every workload reports oracle_s
        self.gate.record(call.items, call.label, self.checked(call)[0])
        if self.seed != DEFAULT_SEED:
            for call in self.suite_calls(DEFAULT_SEED, "csv"):
                problems, margin, _ = self.checked(call)
                problems += reference_problems(call.suite, call.trials, margin, reference)
                self.gate.record(call.items, call.label, problems)

    def timed_calls(self, calls, tracer=None, same_as=None):
        """Run calls with the calibration kernel between them.

        Returns a Timing per call and the outputs by call.  Every output is
        checked; with ``same_as``, the outputs of an earlier run of the same
        calls, it must also be byte-identical to it (a traced pass against
        its untraced twin)."""
        results = []
        cals = [calibrate()]
        if tracer is not None:
            tracer.install(self.pkg)
        try:
            for call in calls:
                results.append((call,) + self.invoke(call))
                cals.append(calibrate())
        finally:
            if tracer is not None:
                tracer.uninstall()
        timings, outputs = [], {}
        for i, (call, code, seconds, data) in enumerate(results):
            problems = check_output(call, code, data)[0]
            if same_as is not None and data != same_as.get(call):
                problems.append("output differs from the untraced pass")
            self.gate.record(call.items, call.label, problems)
            timings.append(Timing(call, seconds, (cals[i] + cals[i + 1]) / 2.0, not problems))
            outputs[call] = data
        return timings, outputs


def pass_trials_per_s(timings):
    """Trials of the verify calls that passed, over the time of all of them."""
    verify = [t for t in timings if t.call.suite is not None]
    return sum(t.call.trials for t in verify if t.ok) / sum(t.scaled for t in verify)


def pass_scale(timings):
    """Factor from a pass's wall seconds to nominal-speed seconds."""
    return sum(t.scaled for t in timings) / sum(t.wall for t in timings)


# ---------------------------------------------------------------------------
# set-up time, probes, environment
# ---------------------------------------------------------------------------


def timed(fn):
    """Scaled seconds of one call of ``fn``, calibrated before and after."""
    c0 = calibrate()
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    return Timing(None, wall, (c0 + calibrate()) / 2.0).scaled


def cold_start(root, suite, out):
    """Scaled time of a fresh interpreter running ``verify --trials 0``."""
    env = dict(os.environ)
    src = str(Path(root, "src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "karabounds.cli", "verify", "--suite", suite,
           "--trials", "0", "--out", str(out)]
    Path(out).unlink(missing_ok=True)
    proc = None

    def start():
        nonlocal proc
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=60, check=False)

    try:
        seconds = timed(start)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return 60.0, ["timed out"]
    problems = [] if proc.returncode == 0 else [f"exit {proc.returncode}"]
    if not problems:
        try:
            report = json.loads(Path(out).read_text(encoding="utf-8"))
            if report[0]["suite_id"] != suite or report[0]["trials"] != 0:
                problems.append("unexpected report")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable report: {exc}")
    return seconds, problems


def _median_time(fn, reps):
    return statistics.median(timed(fn) for _ in range(reps))


PROBE_DIMS = (2, 4, 8, 16)
PROBE_STACKS = (1, 100, 1000)


def probes(pkg, seed):
    """Layer rows outside any workload: eigh_stack by (d, k), one
    interval_max call and report_to_json of a 14-suite report."""
    oc, sb, vf = pkg.operator_calculus, pkg.scalar_bounds, pkg.verification
    rng = np.random.default_rng([seed, 0x70B])
    out = {}
    for d in PROBE_DIMS:
        for k in PROBE_STACKS:
            G = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
            A = (G + np.swapaxes(G, 1, 2).conj()) / 2.0
            reps = 1 if k * d * d > 50_000 else 3
            out[f"operator_calculus.eigh_stack.probe.d{d}k{k}.s"] = \
                _median_time(lambda: oc.eigh_stack(A), reps)
    f = pkg.FunctionSpec.t_log_t()
    iv = pkg.Interval(0.0, 1.0)
    chord = pkg.chord_coeffs(f, iv)
    out["scalar_bounds.interval_max.probe.s"] = _median_time(
        lambda: sb.interval_max(lambda t: chord(t) - f(t), iv), 5)
    reports = [vf.run_suite(sid, 1, seed) for sid in vf.suite_ids()]
    out["verification.report_to_json.probe.s"] = _median_time(
        lambda: vf.report_to_json(reports), 5)
    return out


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return int(fn())
    return None


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment():
    cpu_model = None
    info = _read_text("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_text(index / "level"), _read_text(index / "type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read_text(index / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    nproc = os.cpu_count()
    threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "nproc": nproc,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
        "load": {"processes": 1,
                 "blas_threads_within_nproc": threads is None or threads <= (nproc or 1)},
    }


def inputs_record(runner):
    d = max(max(SUITE_DIMS[s]) for s, _ in runner.workload.suites)
    return {
        "workload": runner.workload.name,
        "seed": runner.seed,
        "reference_seed": DEFAULT_SEED,
        "format": runner.workload.fmt,
        "oracle_in_pass": runner.workload.with_oracle,
        "trials": dict(runner.trials),
        "dims": {s: list(SUITE_DIMS[s]) for s, _ in runner.workload.suites},
        "largest_dim": d,
        "bytes_per_matrix_at_largest_dim": 16 * d * d,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_OC_COUNTED = ("mat_power", "mat_log", "sqrtm_psd", "invsqrtm_pd", "apply_map_family",
               "hermitize", "rand_unitary", "rand_hermitian_spectrum_in", "rand_density")
_GENERATORS = ("gen_equal_weighted_mean_scalars", "gen_equal_map_sum_operators",
               "gen_conditioned_prob_pair", "gen_fuchs_instance")
_EIGH_DIMS = tuple(range(2, 17))
ALL_SUITES = tuple(s for w in WORKLOADS.values() for s, _ in w.suites)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(summary):
    """Per-pass layer metrics from one traced pass's span summary."""
    calls, self_s, incl = summary["calls"], summary["self"], summary["incl"]
    by_parent = summary["calls_by_parent"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    v = {}
    eigh = "operator_calculus.eigh_stack"
    v[f"{eigh}.calls"] = c(eigh)
    v[f"{eigh}.matrices"] = summary["matrices"].get(eigh, 0)
    v[f"{eigh}.self_s"] = s(eigh)
    v[f"{eigh}.matrices_per_call"] = _ratio(v[f"{eigh}.matrices"], c(eigh))
    for d in _EIGH_DIMS:
        v[f"{eigh}.d{d}.self_s"] = summary["eigh_self_by_dim"].get(d, 0.0)
    eigvals = "operator_calculus.eigvals_stack"
    v[f"{eigvals}.calls"] = c(eigvals)
    v[f"{eigvals}.matrices"] = summary["matrices"].get(eigvals, 0)
    v["operator_calculus.apply_function_stack.self_s"] = s("operator_calculus.apply_function_stack")
    for fn in _OC_COUNTED:
        name = f"operator_calculus.{fn}"
        v[f"{name}.calls"] = c(name)
        v[f"{name}.self_s"] = s(name)

    v["verification.trial_rng.self_s"] = s("verification.trial_rng")
    for fn in ("sinkhorn_doubly_stochastic",) + _GENERATORS:
        name = f"verification.{fn}"
        v[f"{name}.calls"] = c(name)
        v[f"{name}.self_s"] = s(name)
    gen_pair = "verification.gen_conditioned_prob_pair"
    v[f"{gen_pair}.draws_per_accept"] = _ratio(
        by_parent.get(("classical_entropy.condition_tag_holds", gen_pair), 0), c(gen_pair))
    for suite in ALL_SUITES:
        v[f"verification.run_suite.{suite}.s"] = summary["suite_s"].get(suite, 0.0)
    v["verification.report_to_json.self_s"] = s("verification.report_to_json")
    v["verification.verdict_csv_rows.s"] = incl.get("verification.verdict_csv_rows", 0.0)

    v["scalar_bounds.interval_max.calls"] = c("scalar_bounds.interval_max")
    v["scalar_bounds.interval_max.self_s"] = s("scalar_bounds.interval_max")
    v["scalar_bounds.beta_constant.calls"] = c("scalar_bounds.beta_constant")
    v["scalar_bounds.beta_oracle.calls"] = c("scalar_bounds.beta_oracle")
    v["scalar_bounds.beta_constant.oracle_fallback_frac"] = _ratio(
        by_parent.get(("scalar_bounds.beta_oracle", "scalar_bounds.beta_constant"), 0),
        c("scalar_bounds.beta_constant"))
    v["scalar_bounds.ratio_constant.self_s"] = s("scalar_bounds.ratio_constant")
    for fn in ("beta_constant", "kantorovich", "c_of_hr"):
        name = f"scalar_bounds.{fn}"
        v[f"{name}.repeat_ratio"] = _ratio(summary["repeats"].get(name, 0), c(name))

    call = "functions.FunctionSpec.__call__"
    v[f"{call}.calls"] = c(call)
    v[f"{call}.self_s"] = s(call)
    v["functions.ln_r.calls"] = c("functions.ln_r")
    v["functions.chord_coeffs.calls"] = c("functions.chord_coeffs")

    for fn in ("fuchs_margin", "moment_margin"):
        v[f"majorization.{fn}.calls"] = c(f"majorization.{fn}")
        v[f"majorization.{fn}.self_s"] = s(f"majorization.{fn}")
    for fn in ("reverse_shannon_margins", "parametric_reverse_margins",
               "information_inequality_margin", "tsallis_cross_terms"):
        v[f"classical_entropy.{fn}.self_s"] = s(f"classical_entropy.{fn}")
    v["classical_entropy.condition_tag_holds.calls"] = c("classical_entropy.condition_tag_holds")
    v["cli.main.s"] = incl.get("cli.main", 0.0)
    return v


def layer_unit(name):
    """(unit, better) of a per-layer metric, from its last name part."""
    stat = name.rsplit(".", 1)[1]
    if stat in ("calls", "matrices"):
        return "count", "lower"
    if stat in ("s", "self_s"):
        return "s", "lower"
    if stat == "matrices_per_call":
        return "ratio", "higher"
    return "ratio", "lower"


def per_layer_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    empty = {"calls": {}, "self": {}, "incl": {}, "calls_by_parent": {}, "matrices": {},
             "eigh_self_by_dim": {}, "suite_s": {}, "repeats": {}}
    names = list(layer_values(empty))
    names += [f"operator_calculus.eigh_stack.probe.d{d}k{k}.s"
              for d in PROBE_DIMS for k in PROBE_STACKS]
    names += ["scalar_bounds.interval_max.probe.s", "verification.report_to_json.probe.s",
              "trace.overhead_frac"]
    return names


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def run(root, workload_name, seed, seconds, trace, tmp, trials=None):
    """One benchmark run; returns (result, record).

    ``result`` is the driver's JSON object; ``record`` adds the environment,
    inputs, per-pass samples and, for a traced run, the spans of its first
    traced pass.  ``trials`` overrides per-suite trial counts (self-tests).
    """
    pkg = load_program(root)
    workload = WORKLOADS[workload_name]
    runner = Runner(pkg, workload, seed, tmp, trials)
    runner.check_pass(load_reference())
    record = {"environment": environment(), "inputs": inputs_record(runner)}

    if not trace:
        first, cold = workload.suites[0][0], Path(tmp) / "cold.json"
        # the first start warms the page cache and is not timed
        runner.gate.record(1, "cold start 0", cold_start(root, first, cold)[1])
        # every workload reports oracle_s: where the oracle is not part of
        # the pass it runs once after it (trials_per_s counts only verify)
        extra = [] if workload.with_oracle else [Call(None)]
        tps, oracle_s, setup, walls = [], [], [], []
        deadline = time.perf_counter() + seconds
        while len(tps) < MIN_PASSES or time.perf_counter() < deadline:
            timings, _ = runner.timed_calls(runner.pass_calls(len(tps)) + extra)
            tps.append(pass_trials_per_s(timings))
            oracle_s += [t.scaled for t in timings if t.call.suite is None]
            walls.append(sum(t.wall for t in timings))
            # one start per pass, so that the starts sample the whole run
            secs, problems = cold_start(root, first, cold)
            runner.gate.record(1, f"cold start {len(tps)}", problems)
            setup.append(secs)
        values = {
            "trials_per_s": (statistics.median(tps), "1/s"),
            "oracle_s": (statistics.median(oracle_s), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "passed_frac": (1.0 - runner.gate.failed_frac, "ratio"),
        }
        record["samples"] = {"trials_per_s": tps, "oracle_s": oracle_s, "setup_s": setup,
                             "pass_wall_s": walls}
    else:
        untraced, traced, per_pass, self_check = [], [], [], []
        first_spans = None
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
            calls = runner.pass_calls(len(traced))
            timings, outputs = runner.timed_calls(calls)
            untraced.append(sum(t.scaled for t in timings))
            tracer = spans_mod.Tracer()
            timings, _ = runner.timed_calls(calls, tracer, same_as=outputs)
            traced.append(sum(t.scaled for t in timings))
            summary = spans_mod.summarize(tracer.spans)
            scale = pass_scale(timings)
            per_pass.append({k: v * scale if layer_unit(k)[0] == "s" else v
                             for k, v in layer_values(summary).items()})
            self_check.append({"wall_s": sum(t.wall for t in timings),
                               "self_total_s": summary["self_total"],
                               "root_s": summary["root_s"]})
            if first_spans is None:
                first_spans = tracer.spans
        values = {}
        for name in per_pass[0]:
            values[name] = (statistics.median(p[name] for p in per_pass), layer_unit(name)[0])
        for name, secs in probes(pkg, seed).items():
            values[name] = (secs, "s")
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        values["trace.overhead_frac"] = (overhead, "ratio")
        record["samples"] = {"untraced_pass_s": untraced, "traced_pass_s": traced,
                             "self_time_check": self_check}
        k, d = summary["largest_stack"]
        record["inputs"]["largest_eigh_stack"] = {"k": k, "d": d, "bytes": 16 * k * d * d}
        record["spans"] = first_spans

    gate = runner.gate
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    record["problems"] = gate.problems
    record["failed_frac"] = gate.failed_frac
    return result, record
