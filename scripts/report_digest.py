"""Print a SHA-256 digest of every report in a fixed set of CLI runs.

Run it from any directory, with no flags:

    python3 scripts/report_digest.py > digests.txt

karabounds is imported from the ``src/`` of the checkout that holds this
script.  Each line is ``<sha256>  exit=<code>  <command line>``; runs made
through ``--config`` are marked ``[config]`` and must give the digest of the
same run made with flags.  Run the script in two checkouts and ``diff`` the
two outputs: no difference means every report of the set is byte-identical.

The set: ``verify --suite all`` as JSON and as CSV at 48 and 100 trials and
seeds 0, 7 and 1000, and at 48 trials and the seeds 4294967296 and
18446744073709551619, of two and three 32-bit words; ``verify`` with every
suite parameter flag set; ``verify --suite mean_c_lhs_variant``;
``oracle``; ``constants``; every ``scan`` quantity, each at its defaults
and with its own flags; every
suite alone, as JSON and as CSV at seeds 0, 7 and 1000, at the trial count
its benchmark workload runs (``WORKLOADS`` in benchmarks/harness.py); the
two quantum entropy suites at dimensions 9, 12 and 16, whose spectra are
longer than the eight entries of numpy's unrolled pairwise sum; and the
three operator-mean suites at dimensions 2, 3 and 5, where every
dimension holds tuples of both lengths n = 1 and n = 2; and the two
eigensolver suites at dimensions 1, 2, 3 and at 5, 6, 15, 16, where the
Jacobi oracle solves odd and even dimensions in one ring-size stack.

Last come the verdict lists, which no CLI report shows whole: for every
suite, at its benchmark trial count and seed 7, the digest of
``run_suite(..., keep_verdicts=True).verdicts``, one line per verdict with
its inequality id, ``repr(margin)``, ``passed`` and its context with sorted
keys (so Jensen's ``vector``, the map sums' ``family`` and the mean suites'
``n`` count).  Each such line reads ``<sha256>  verdicts  <suite> trials=<n>
seed=7``.

Then come the public batches of one of two build and score kernels, on
draws from ``trial_rng(7, i)``: per family kind of ``FAMILY_KINDS``, the
bytes of the As and Bs of ``gen_equal_map_sum_operators`` (n = 3, the
dimension cycling through 2, 3, 4 and 8) and of ``apply_map_family`` on
each, in a line ``<sha256>  apply_map_family  <kind> trials=60 seed=7``;
and per n = 2..5 and iters 0, 1, 61 and 200, the bytes of
``sinkhorn_doubly_stochastic``, in a line ``<sha256>
sinkhorn_doubly_stochastic  n=<n> iters=<iters> trials=60 seed=7``.

Last, the public operator means, each a batch of one of the mean step of
the operator-mean suites: per mean of ``MEANS``, the bytes of its value on
positive definite pairs (X, Y) drawn from ``trial_rng(7, i)`` (spectra in
[0.3, 3], the dimension cycling through 1, 2, 3, 5 and 8) at every r of
``MEAN_RS``, in a line ``<sha256>  <mean>  trials=60 seed=7``.

Last of all, the verdicts of ``check_operator_mean_bounds``, a batch of one
of the operator-mean suites' kernel, one line per verdict with its
inequality id, ``repr(margin)`` and ``passed``: on the instances of the
mean suites' generator drawn from ``trial_rng(7, i)`` with interval
(1.7, 5.1), one per dimension 2, 3 and 5, tuple length n = 1 and 2 and r of
``MEAN_CHECK_RS``, given as X_i = Z^(1/2) A_i Z^(1/2) and Y_i likewise, in a
line ``<sha256>  check_operator_mean_bounds  limits=<bool> trials=24
seed=7`` without and with the r -> 0 limit claims.  Then the same digest of
each other checker of ``CHECKERS``, each a batch of one of its suite's
kernel, on 24 instances drawn from ``trial_rng(7, i)`` as its suite draws
trial i (the generators' instance sizes, the suite's default dims, f, alpha
and r cycles), in a line ``<sha256>  <checker>  trials=24 seed=7``.  Their
arguments are passed by position, and ``mode`` by name, which every version
of the checkers takes.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import harness  # noqa: E402
from karabounds import cli, verification  # noqa: E402
from karabounds import operator_calculus as oc  # noqa: E402
from karabounds.functions import Interval  # noqa: E402

# trials per suite in the benchmark workloads; the two suites that no
# workload runs take the count of the suite whose draws they share
SUITE_TRIALS = {
    **{suite: trials for workload in harness.WORKLOADS.values()
       for suite, trials in workload.suites},
    "mean_c_lhs_variant": 28, "eigensolver_crosscheck": 150,
}

RUNS = [
    *(["verify", "--suite", "all", "--trials", str(trials), "--seed", str(seed),
       "--format", fmt]
      for trials in (48, 100) for seed in (0, 7, 1000) for fmt in ("json", "csv")),
    *(["verify", "--suite", "all", "--trials", "48", "--seed", str(seed), "--format", fmt]
      for seed in (2**32, 2**64 + 3) for fmt in ("json", "csv")),
    ["verify", "--suite", "all", "--trials", "40", "--seed", "7", "--r", "0.5",
     "--alpha", "1", "--dims", "2,4", "--eps", "0.1", "--format", "csv"],
    ["verify", "--suite", "operator_means", "--trials", "48", "--seed", "7",
     "--m", "1.8", "--M", "4"],
    ["verify", "--suite", "mean_c_lhs_variant", "--trials", "100", "--seed", "0"],
    ["verify", "--suite", "mean_c_lhs_variant", "--trials", "100", "--seed", "0",
     "--format", "csv"],
    ["oracle"],
    ["oracle", "--tol", "1e-6", "--format", "csv"],
    ["constants"],
    ["constants", "--eps", "0.3", "--r", "2", "--alpha", "0.5", "--h", "5", "--m", "2"],
    ["constants", "--format", "csv"],
    ["scan", "fannes"],
    ["scan", "fannes", "--dims", "2,5,9", "--format", "csv"],
    ["scan", "ls_r"],
    ["scan", "ls_r", "--eps", "0.3", "--start", "0.2", "--stop", "2", "--steps", "7"],
    ["scan", "specht"],
    ["scan", "specht", "--start", "1.5", "--stop", "20", "--steps", "9", "--format", "csv"],
    ["scan", "kantorovich"],
    ["scan", "kantorovich", "--h", "3", "--start", "-1", "--stop", "2", "--steps", "6"],
    *(["verify", "--suite", suite, "--trials", str(SUITE_TRIALS[suite]), "--seed", str(seed),
       "--format", fmt]
      for suite in verification.suite_ids(include_extra=True)
      for seed in (0, 7, 1000) for fmt in ("json", "csv")),
    *(["verify", "--suite", suite, "--trials", str(SUITE_TRIALS[suite]), "--seed", "7",
       "--dims", "9,12,16", "--format", fmt]
      for suite in ("entropy_vn", "entropy_tsallis") for fmt in ("json", "csv")),
    *(["verify", "--suite", suite, "--trials", "56", "--seed", str(seed), "--dims", "2,3,5",
       "--format", fmt]
      for suite in ("operator_means", "mean_limits", "mean_c_lhs_variant")
      for seed in (0, 7) for fmt in ("json", "csv")),
    *(["verify", "--suite", suite, "--trials", "60", "--seed", str(seed), "--dims", dims]
      for suite in ("eigensolver", "eigensolver_crosscheck")
      for dims in ("1,2,3", "5,6,15,16") for seed in (0, 7)),
]


def _split(argv):
    """(command words, {flag: value}) of an argv of ``--flag value`` pairs."""
    cut = next((k for k, tok in enumerate(argv) if tok.startswith("--")), len(argv))
    flags = argv[cut:]
    return argv[:cut], dict(zip(flags[0::2], flags[1::2]))


def digest(argv, out):
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    return hashlib.sha256(out.read_bytes()).hexdigest(), code


def verdict_digest(suite, trials, seed):
    rows = (f"{v.inequality_id}\t{v.margin!r}\t{v.passed}\t{sorted(v.context.items())!r}\n"
            for v in verification.run_suite(suite, trials, seed, keep_verdicts=True).verdicts)
    return hashlib.sha256("".join(rows).encode("utf-8")).hexdigest()


def map_sum_digest(kind, trials, seed):
    iv = Interval(0.0, 1.0) if kind == "normalized_trace" else Interval(0.2, 1.5)
    sha = hashlib.sha256()
    for i in range(trials):
        As, Bs, family = verification.gen_equal_map_sum_operators(
            3, (2, 3, 4, 8)[i % 4], iv, kind, verification.trial_rng(seed, i))
        for mats in (As, Bs):
            for M in (*mats, oc.apply_map_family(family, mats)):
                sha.update(M.tobytes())
    return sha.hexdigest()


def sinkhorn_digest(n, iters, trials, seed):
    sha = hashlib.sha256()
    for i in range(trials):
        sha.update(verification.sinkhorn_doubly_stochastic(
            n, verification.trial_rng(seed, i), iters).tobytes())
    return sha.hexdigest()


MEAN_RS = (-1.0, 0.0, 1e-13, 0.3, 0.5, 1.0, 2.5)
MEANS = {
    "natural_power_mean": lambda X, Y: [oc.natural_power_mean(X, Y, r) for r in MEAN_RS],
    "relative_operator_entropy": lambda X, Y: [oc.relative_operator_entropy(X, Y)],
    "tsallis_relative_operator_entropy":
        lambda X, Y: [oc.tsallis_relative_operator_entropy(X, Y, r) for r in MEAN_RS],
}


def mean_digest(mean, trials, seed):
    iv = Interval(0.3, 3.0)
    sha = hashlib.sha256()
    for i in range(trials):
        rng = verification.trial_rng(seed, i)
        dim = (1, 2, 3, 5, 8)[i % 5]
        X, Y = (oc.rand_hermitian_spectrum_in(dim, iv, rng) for _ in range(2))
        for M in MEANS[mean](X, Y):
            sha.update(M.tobytes())
    return sha.hexdigest()


MEAN_CHECK_RS = (-0.8, 0.3, 0.6, 1.7)


def mean_check_digest(include_limits, seed):
    iv = Interval(1.7, 5.1)
    rows = []
    for i, (dim, n, r) in enumerate(itertools.product((2, 3, 5), (1, 2), MEAN_CHECK_RS)):
        Z, As, Bs, w = verification._gen_mean_instance(verification.trial_rng(seed, i), dim, iv, n)
        zs = oc.sqrtm_psd(Z)
        Xs, Ys = ([oc.hermitize(zs @ M @ zs) for M in mats] for mats in (As, Bs))
        rows += (f"{v.inequality_id}\t{v.margin!r}\t{v.passed}\n"
                 for v in verification.check_operator_mean_bounds(
                     Z, Xs, Ys, w, iv, r, include_limits=include_limits))
    return hashlib.sha256("".join(rows).encode("utf-8")).hexdigest()


FS, ALPHAS = ("t_log_t", "neg_log", "power2", "tsallis_05"), (0.0, 0.5, 1.0, 2.0)


def _f_alpha(i):
    return verification.function_catalog(FS[i % 4]), ALPHAS[i % 4]


def _theorem_beta(i, rng):
    (f, alpha), kind = _f_alpha(i), ("uniform_permutation", "doubly_stochastic_mix")[i % 2]
    As, Bs, family = verification.gen_equal_map_sum_operators(3, (2, 4, 8)[i % 3], f.domain,
                                                              kind, rng)
    return [verification.check_theorem_beta(family, As, Bs, f, alpha)]


def _corollary_weighted(i, rng):
    f, alpha = _f_alpha(i)
    As, Bs, family = verification._gen_weighted_instance(3, (2, 4, 8)[i % 3], f.domain,
                                                         f"weights_v{i % 3}", rng)
    ps = [phi.weight for phi in family.maps]
    return [verification.check_corollary_weighted(ps, As, Bs, f, alpha)]


def _lemma_jensen(i, rng):
    f, _ = _f_alpha(i)
    family, mats, vecs = verification._gen_jensen_instance(3, (2, 3, 4, 6, 8)[i % 5],
                                                           f.domain, rng)
    return verification.check_lemma_jensen(family, mats, f, vecs)


def _scalar_corollary(i, rng):
    # odd trials with a decreasing f take the relaxed mode, as the suite does
    f, alpha = _f_alpha(i)
    iv = f.domain
    if i % 2 == 1 and verification._is_decreasing(f, iv):
        x, y = rng.uniform(iv.m, iv.M, size=4), rng.uniform(iv.m, iv.M, size=4)
        p = rng.dirichlet(np.ones(4))
        if float(np.dot(p, x)) > float(np.dot(p, y)):
            x, y = y, x
        return verification.check_scalar_corollary(p, x, y, f, alpha,
                                                   mode=verification.MODE_RELAXED)
    x, y, p = verification.gen_equal_weighted_mean_scalars(4, iv, rng)
    return verification.check_scalar_corollary(p, x, y, f, alpha)


def _density_pair(i, rng):
    dim = (2, 3, 4, 5, 6, 7, 8)[i % 7]
    return oc.rand_density(dim, rng), oc.rand_density(dim, rng)


CHECKERS = {
    "check_theorem_beta": _theorem_beta,
    "check_corollary_weighted": _corollary_weighted,
    "check_lemma_jensen": _lemma_jensen,
    "check_scalar_corollary": _scalar_corollary,
    "check_entropy_vonneumann": lambda i, rng: verification.check_entropy_vonneumann(
        *_density_pair(i, rng), ALPHAS[i % 4]),
    "check_entropy_tsallis": lambda i, rng: verification.check_entropy_tsallis(
        *_density_pair(i, rng), ALPHAS[i % 4], (0.1, 0.5, 0.9)[i % 3]),
}


def checker_digest(checker, trials, seed):
    rows = (f"{v.inequality_id}\t{v.margin!r}\t{v.passed}\n" for i in range(trials)
            for v in CHECKERS[checker](i, verification.trial_rng(seed, i)))
    return hashlib.sha256("".join(rows).encode("utf-8")).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg = Path(tmp) / "out", Path(tmp) / "cfg.json"
        for argv in RUNS:
            sha, code = digest(argv, out)
            print(f"{sha}  exit={code}  {' '.join(argv)}")
            words, flags = _split(argv)
            if flags:
                cfg.write_text(json.dumps({key[2:]: value for key, value in flags.items()}))
                sha, code = digest(words + ["--config", str(cfg)], out)
                print(f"{sha}  exit={code}  {' '.join(argv)} [config]")
    for suite in verification.suite_ids(include_extra=True):
        trials = SUITE_TRIALS[suite]
        print(f"{verdict_digest(suite, trials, 7)}  verdicts  {suite} trials={trials} seed=7")
    for kind in verification.FAMILY_KINDS:
        print(f"{map_sum_digest(kind, 60, 7)}  apply_map_family  {kind} trials=60 seed=7")
    for n in (2, 3, 4, 5):
        for iters in (0, 1, 61, 200):
            print(f"{sinkhorn_digest(n, iters, 60, 7)}  sinkhorn_doubly_stochastic  "
                  f"n={n} iters={iters} trials=60 seed=7")
    for mean in MEANS:
        print(f"{mean_digest(mean, 60, 7)}  {mean}  trials=60 seed=7")
    for limits in (False, True):
        print(f"{mean_check_digest(limits, 7)}  check_operator_mean_bounds  "
              f"limits={limits} trials=24 seed=7")
    for checker in CHECKERS:
        print(f"{checker_digest(checker, 24, 7)}  {checker}  trials=24 seed=7")


if __name__ == "__main__":
    main()
