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
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import harness  # noqa: E402
from karabounds import cli, verification  # noqa: E402

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


if __name__ == "__main__":
    main()
