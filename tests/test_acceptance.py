"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 4b is an
intentional red: the ceiling ls_r(eps) <= 1/r is disproved by the grid
oracle for small eps (see test_criterion_04b and the notes in
scalar_bounds.ls_r_constant).
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np

from karabounds import classical_entropy as ce
from karabounds import operator_calculus as oc
from karabounds import scalar_bounds as sb
from karabounds import verification as vf
from karabounds.functions import FunctionSpec, Interval

SEED = 20240815


def _line(num, ok, text):
    print(f"ACCEPTANCE {num:>3}: {'PASS' if ok else 'FAIL'} - {text}")


def test_criterion_01_beta_closed_forms_vs_oracle():
    iv = Interval(0.0, 1.0)
    worst = 0.0
    f = FunctionSpec.t_log_t(iv)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        worst = max(worst, abs(sb.beta_constant(f, iv, alpha) - sb.beta_oracle(f, iv, alpha)))
        for r in np.arange(0.1, 0.95, 0.1):
            fr = FunctionSpec.tsallis_f(float(r), iv)
            worst = max(worst, abs(sb.beta_constant(fr, iv, alpha) - sb.beta_oracle(fr, iv, alpha)))
    ok = worst <= 1e-8
    _line(1, ok, f"beta closed forms vs oracle, worst |diff| = {worst:.3e} (tol 1e-8)")
    assert ok


def test_criterion_02_ratio_and_diff_constants_vs_oracle():
    eps_grid = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
    r_grid = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0)
    worst = 0.0
    for eps in eps_grid:
        iv = Interval(eps, 1.0)
        f = FunctionSpec.neg_log(iv)
        worst = max(worst, abs(math.log(eps) / (eps - 1.0) - sb.ratio_oracle(f, iv)))
        worst = max(worst, abs(math.log(sb.specht(eps)) - sb.diff_oracle(f, iv)))
        for r in r_grid:
            fr = FunctionSpec.ln_r_reciprocal(r, iv)
            c1 = sb.ln_r(r, 1.0 / eps) / (1.0 - eps)
            worst = max(worst, abs(c1 - sb.ratio_oracle(fr, iv)))
            worst = max(worst, abs(sb.ls_r_constant(eps, r) - sb.diff_oracle(fr, iv)))
    ok = worst <= 1e-7
    _line(2, ok, f"K/C constants vs oracle over (eps, r) grid, worst = {worst:.3e} (tol 1e-7)")
    assert ok


def test_criterion_03_kantorovich_limits_and_r2():
    h_grid = (1.1, 1.5, 2.0, 5.0, 10.0, 50.0, 100.0)
    worst_k = max(abs(sb.kantorovich(h, 1e-6) - 1.0) for h in h_grid)
    worst_c = max(abs(sb.c_of_hr(1.0, h, 1e-6)) for h in h_grid)
    worst_r2 = max(abs(sb.kantorovich(h, 2.0) - (h + 1.0) ** 2 / (4.0 * h)) for h in h_grid)
    ok = worst_k <= 1e-5 and worst_c <= 1e-5 and worst_r2 <= 1e-10
    _line(3, ok, f"Kantorovich limits: |K-1|={worst_k:.2e}, |C|={worst_c:.2e}, "
                 f"|K(h,2)-(h+1)^2/4h|={worst_r2:.2e}")
    assert ok


def test_criterion_04a_lsr_lower_bound_and_r_to_zero_limit():
    eps_grid = np.linspace(0.01, 0.99, 100)
    r_grid = np.geomspace(0.01, 10.0, 100)
    vals = np.array([[sb.ls_r_constant(float(e), float(r)) for r in r_grid]
                     for e in eps_grid])
    lower_ok = bool(np.all(vals >= -1e-12))
    limit_worst = max(abs(sb.ls_r_constant(float(e), 1e-6) - math.log(sb.specht(float(e))))
                      for e in eps_grid)
    limit_ok = limit_worst <= 1e-4
    ok = lower_ok and limit_ok
    _line("4a", ok, f"ls_r >= 0 on 100x100 grid and r->0 limit (worst {limit_worst:.2e})")
    assert ok


def test_criterion_04b_lsr_claimed_upper_bound():
    """Intentional red: the ceiling ls_r <= 1/r is false for small eps.
    ls_1(0.1) = (sqrt(10)-1)^2 = 4.675 > 1, and the grid oracle confirms the
    closed form equals the true maximum of the underlying objective, so the
    violated ceiling is a defect of the claim itself, not of this code."""
    eps_grid = np.linspace(0.01, 0.99, 100)
    r_grid = np.geomspace(0.01, 10.0, 100)
    violations = []
    for e in eps_grid:
        for r in r_grid:
            val = sb.ls_r_constant(float(e), float(r))
            if val > 1.0 / float(r) + 1e-12:
                violations.append((float(e), float(r), val))
    ok = not violations
    worst = max(violations, key=lambda t: t[2] * t[1]) if violations else None
    _line("4b", ok, f"ls_r <= 1/r on the same grid: {len(violations)} violations"
                    + (f", e.g. eps={worst[0]:.3g}, r={worst[1]:.3g}: "
                       f"ls_r={worst[2]:.4g} > {1.0 / worst[1]:.4g}" if worst else ""))
    assert ok, (f"{len(violations)} grid points violate the claimed upper bound; "
                f"worst example {worst}")


def test_criterion_05_karamata_grid_and_fuchs_suite():
    grid = np.arange(0.0, 2.25, 0.25)
    tuples = np.array(list(itertools.product(grid, repeat=3)))
    sorted_desc = -np.sort(-tuples, axis=1)
    prefix = np.cumsum(sorted_desc, axis=1)
    tol = 1e-10
    lead_ok = (prefix[:, None, :2] <= prefix[None, :, :2] + tol).all(axis=2)
    totals_eq = np.abs(prefix[:, None, 2] - prefix[None, :, 2]) <= tol
    majorized = lead_ok & totals_eq

    fam = np.stack([np.sum(tuples ** 2, axis=1),
                    np.sum(np.exp(tuples), axis=1),
                    np.sum(np.abs(tuples - 1.0), axis=1)], axis=1)
    forward_ok = (fam[:, None, :] <= fam[None, :, :] + 1e-9).all(axis=2)
    forward_violations = int(np.sum(majorized & ~forward_ok))

    hinges = np.maximum(tuples[:, :, None] - grid[None, None, :], 0.0).sum(axis=1)
    hinge_witness = (hinges[:, None, :] > hinges[None, :, :] + 1e-12).any(axis=2)
    witness = hinge_witness | ~totals_eq
    reverse_misses = int(np.sum(~majorized & ~witness))

    rep = vf.run_suite("fuchs", 10_000, SEED)
    ok = (forward_violations == 0 and reverse_misses == 0
          and rep.failures == 0 and rep.min_margin >= -1e-9)
    _line(5, ok, f"Karamata grid ({majorized.sum()} majorized pairs, "
                 f"{forward_violations} forward violations, {reverse_misses} witness "
                 f"misses) + Fuchs 10^4 (min margin {rep.min_margin:.2e})")
    assert ok


def test_criterion_06_lemma_jensen_suite():
    rep = vf.run_suite("lemma_jensen", 10_000, SEED,
                       {"dims": (2, 3, 4, 5, 6, 7, 8)})
    ok = rep.failures == 0 and rep.min_margin >= -1e-9
    _line(6, ok, f"vector-state Jensen 10^4 instances dims 2-8, "
                 f"min margin {rep.min_margin:.2e}")
    assert ok


def test_criterion_07_map_sum_and_scalar_suites():
    total_failures = 0
    worst = math.inf
    for suite in ("theorem_beta", "corollary_weighted", "scalar_corollary"):
        for dim in (2, 4, 8):
            for fname in ("t_log_t", "neg_log", "power2", "tsallis_05"):
                params = {"dims": (dim,), "fs": (fname,)}
                rep = vf.run_suite(suite, 1000, SEED, params)
                total_failures += rep.failures
                worst = min(worst, rep.min_margin)
    ok = total_failures == 0
    _line(7, ok, f"map-sum/corollary/scalar suites 36x1000 trials, "
                 f"failures={total_failures}, min margin {worst:.2e} "
                 f"(tol {vf.OPERATOR_TOL:g} map sums, {vf.SCALAR_TOL:g} scalar)")
    assert ok


def test_criterion_08_entropy_suites():
    rep_vn = vf.run_suite("entropy_vn", 10_000, SEED, {"dims": (2, 3, 4, 5, 6, 7, 8)})
    rep_ts = vf.run_suite("entropy_tsallis", 10_000, SEED,
                          {"dims": (2, 3, 4, 5, 6, 7, 8), "rs": (0.1, 0.5, 0.9)})
    worst_gap = 0.0
    for i in range(100):
        rng = vf.trial_rng(SEED, i)
        dim = (2, 3, 4, 5, 6, 7, 8)[i % 7]
        A, B = oc.rand_density(dim, rng), oc.rand_density(dim, rng)
        vn = vf.check_entropy_vonneumann(A, B, 1.0)
        ts = vf.check_entropy_tsallis(A, B, 1.0, 1e-6)
        worst_gap = max(worst_gap, *(abs(a.margin - b.margin) for a, b in zip(vn, ts)))
    ok = rep_vn.failures == 0 and rep_ts.failures == 0 and worst_gap <= 1e-3
    _line(8, ok, f"entropy bounds 10^4 pairs (vn fail={rep_vn.failures}, "
                 f"tsallis fail={rep_ts.failures}), r->0 agreement {worst_gap:.2e}")
    assert ok


def test_criterion_09_fannes_crossover():
    rows = {row["dim"]: row for row in vf.check_fannes_comparison(range(1, 11))}
    ok = (rows[1]["tighter"] == "equal"
          and all(rows[d]["tighter"] == "ours" for d in range(2, 6))
          and all(rows[d]["tighter"] == "fannes_weak" for d in range(6, 11)))
    _line(9, ok, "difference-bound crossover: ours tighter for dim <= 5, "
                 "log-dim bound tighter for dim >= 6, equal at dim 1")
    assert ok


def test_criterion_10_operator_mean_bounds():
    regimes = {"r_ge_1": (1.0, 1.7, 3.0), "r_lt_0": (-0.8, -2.0), "r_in_01": (0.3, 0.6)}
    failures = 0
    worst = math.inf
    for name, rs in regimes.items():
        rep = vf.run_suite("operator_means", 1000, SEED,
                           {"dims": (2, 3, 4, 5, 6), "rs": rs})
        failures += rep.failures
        worst = min(worst, rep.min_margin)
    rep_lim = vf.run_suite("mean_limits", 1000, SEED, {"dims": (2, 3, 4, 5, 6)})
    failures += rep_lim.failures
    worst = min(worst, rep_lim.min_margin)
    rep_flip = vf.run_suite("mean_c_lhs_variant", 1000, SEED,
                            {"dims": (2, 3, 4, 5, 6)})
    ok = failures == 0
    _line(10, ok, f"operator-mean bounds 3 regimes + limits, failures={failures}, "
                  f"min margin {worst:.2e} (tol {vf.OPERATOR_TOL:g}); flipped-C difference "
                  f"form reported separately: {rep_flip.failures}/{rep_flip.trials} failures "
                  f"(min margin {rep_flip.min_margin:.2e})")
    assert ok
    assert rep_flip.trials == 1000  # separate report exists


def test_criterion_11_reverse_suites_and_example_pairs():
    rep_rs = vf.run_suite("reverse_shannon", 20_000, SEED)
    rep_pr = vf.run_suite("parametric_reverse", 20_000, SEED)
    p1 = np.ones(3) / 3.0
    q1 = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0])
    m1 = ce.reverse_shannon_margins(p1, q1, 1.0 / 6.0, ce.CROSS_DOMINATED)
    p2 = np.array([0.25, 0.25, 0.5])
    q2 = np.array([0.1, 0.1, 0.8])
    m2 = ce.reverse_shannon_margins(p2, q2, 0.1, ce.CROSS_DOMINATED)
    pairs_ok = all(m >= -1e-12 for m in (*m1, *m2))
    ok = rep_rs.failures == 0 and rep_pr.failures == 0 and pairs_ok
    _line(11, ok, f"reverse bounds 2x10^4 conditioned pairs per suite "
                  f"(fail {rep_rs.failures}/{rep_pr.failures}); both reference "
                  f"distribution pairs pass")
    assert ok


def test_criterion_12_eigensolver_residuals():
    rep = vf.run_suite("eigensolver", 15_000, SEED,
                       {"dims": tuple(range(2, 17))})
    ok = rep.failures == 0
    _line(12, ok, f"Jacobi eigensolver 10^3 matrices per dim 2..16: "
                  f"failures={rep.failures}, min margin {rep.min_margin:.2e} "
                  f"(residual tol {vf._EIG_RESIDUAL_TOL:g})")
    assert ok


def test_criterion_13_cli_determinism_and_runtime(tmp_path):
    argv = [sys.executable, "-m", "karabounds.cli", "verify", "--suite", "all",
            "--trials", "100", "--seed", "42"]
    t0 = time.perf_counter()
    r1 = subprocess.run(argv + ["--out", str(tmp_path / "a.json")],
                        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    r2 = subprocess.run(argv + ["--out", str(tmp_path / "b.json")],
                        capture_output=True, text=True)
    identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    ok = r1.returncode == 0 and r2.returncode == 0 and identical and elapsed < 60.0
    _line(13, ok, f"verify --suite all --trials 100 --seed 42: exit {r1.returncode}, "
                  f"byte-identical={identical}, {elapsed:.1f} s (< 60 s)")
    assert ok, (r1.returncode, r2.returncode, identical, elapsed, r1.stderr[-500:])
