"""Randomized verification: hypothesis-respecting generators, margin
checkers for every inequality, and deterministic report aggregation.

A verdict is its margin: R - L for a scalar inequality L <= R, and the
smallest eigenvalue of R - L for an operator one.  It passes when the margin
is at least -tol, a constant of its kernel: OPERATOR_TOL for the map-sum and
mean forms, 0 for a margin that subtracts its own bound, SCALAR_TOL for the
rest.  A check never "fixes up" its inputs: hypothesis violations raise, and
so do parameters outside an inequality's domain, in the kernel that a suite
and its checker share.

``run_suite`` is the one trial loop.  A suite is a draw, a build and a
score function and its default params, run in three phases.  The draw
makes trial i's rng calls on its own stream, that of
``numpy.random.SeedSequence(seed, spawn_key=(i,))``, and returns raw
Gaussian and uniform arrays.  A suite seeds all its trials in one pass
(``_trial_rngs``): it hashes the seed once, the trials' spawn keys as whole
uint32 arrays, and sets each trial's PCG64 state on one reused Generator,
bit for bit the stream of numpy's own seeding, which ``trial_rng(seed, i)``
uses.  The build turns all the trials' draws into instances, the blocks of
one shape (say, the n matrices of each trial's tuple) in one stack per step
(``operator_calculus._build_haar`` and ``_build_densities``, the Sinkhorn
sweeps of all the start matrices of one n, then the mixes and weighted
means).  The score runs the suite's batch margin kernel once on all the
instances; the map sums of the map-sum and Jensen suites run in one stack
per family key (``operator_calculus._map_family_sums``), and their two
kernels check the bounds' hypotheses on each: f convex, each family unital
(``_check_unital``), and unit vectors (Jensen) or equal map sums of A and B
(map-sum); the operator-mean kernel checks equal weighted sums of the
Z-relative A_i and B_i per tuple shape, and its mean step is that of the
public means (``operator_calculus._mean_step``).  Every stacked step groups
its entries through ``_per_group``, by an optional key and by the shapes of
the entries, so a stack is rectangular and no caller builds a shape key.
A kernel decomposes each distinct input matrix once, in one LAPACK stack
per dimension, or per tuple shape (n, d) for the operator means
(``operator_calculus._eigh``), rejects a spectrum outside its interval, and
takes every spectral image of that matrix from the same (w, V); the
lambda_min reductions go through ``operator_calculus._eigvalsh``.  Every
build and kernel step gives a matrix the same bits in any stack, so reports
do not depend on batching, and the public generators are batches of one of
their draw and build.  A public ``check_*`` function validates the rest
of its input (the map checkers: Hermitian matrices, shapes, one matrix per
map, finite vectors) and runs the same kernel on a batch of one, so its
margins and spectral errors equal the suite's.  The Jacobi solver is not on
this path; the ``eigensolver`` and ``eigensolver_crosscheck`` suites
exercise it, on matrices they draw directly, and share one Jacobi run.

Eight suites share one score, ``_scalar_score``: the six scalar and
classical suites, and the two entropy suites, built into spectra.  Trials
are grouped by key and row length, each group is stacked into (k, n) arrays,
validated once and scored in one pass by the stacked kernel of
``check_scalar_corollary``, ``majorization``, ``classical_entropy`` or
``_entropy_kernel``, which computes its constants once per group and
returns (inequality id, margins, tol) columns.  Rows are reduced with
``np.sum``/``np.cumsum`` along the last axis, which gives a row the bits of
the 1-d call, so the checkers, each a batch of one of its kernel, equal the
suites bit for bit.  A hypothesis, too, has one row-wise expression:
weighted means are row sums, and the inner-product condition is
``classical_entropy._condition_gap``, in a block of draws and for one pair.
Every score returns such columns plus each row's trial, ``_table`` sorts
them into trial order, ``run_suite`` reduces them and keeps them for
``verdict_csv_rows``, and ``_view`` alone builds ``InequalityVerdict``s.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import classical_entropy as ce
from . import majorization as mj
from . import operator_calculus as oc
from . import scalar_bounds as sb
from .errors import DomainError, GeneratorExhausted, PreconditionError, ShapeError
from .functions import FunctionSpec, Interval, _open_interval

__all__ = [
    "InequalityVerdict",
    "TrialReport",
    "OPERATOR_TOL",
    "SCALAR_TOL",
    "trial_rng",
    "gen_equal_weighted_mean_scalars",
    "gen_equal_map_sum_operators",
    "gen_conditioned_prob_pair",
    "gen_fuchs_instance",
    "sinkhorn_doubly_stochastic",
    "check_lemma_jensen",
    "check_theorem_beta",
    "check_corollary_weighted",
    "check_scalar_corollary",
    "check_entropy_vonneumann",
    "check_entropy_tsallis",
    "check_fannes_comparison",
    "check_operator_mean_bounds",
    "function_catalog",
    "run_suite",
    "suite_ids",
    "oracle_row",
    "oracle_sweep",
    "report_to_json",
    "verdict_csv_rows",
]

OPERATOR_TOL = 1e-8   # eigensolver residual dominates operator margins
SCALAR_TOL = 1e-9
_EIG_RESIDUAL_TOL = 1e-10  # the largest Jacobi residual the eigensolver suite passes


@dataclass(frozen=True)
class InequalityVerdict:
    """One inequality check L <= R, scored by its margin: R - L for
    scalars, lambda_min(R - L) for operators.  ``passed`` is margin >= -tol,
    tol its kernel's constant; built only by ``_view``, from scored columns."""

    inequality_id: str
    margin: float
    passed: bool
    context: dict = field(default_factory=dict)


@dataclass
class TrialReport:
    """A suite's summary; ``_scored`` keeps its ``_table`` and trial contexts
    for ``verdict_csv_rows``, and ``to_dict`` leaves it out."""

    suite_id: str
    trials: int
    failures: int
    min_margin: Optional[float]
    worst_context: dict
    elapsed_ms: int
    _scored: Optional[tuple] = field(default=None, repr=False, compare=False)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "suite_id": self.suite_id,
            "trials": self.trials,
            "failures": self.failures,
            "min_margin": self.min_margin,
            "worst_context": self.worst_context,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def report_to_json(reports, include_timing: bool = False) -> str:
    """Deterministic JSON for a report or list of reports (timing excluded
    by default so identical seeds give byte-identical output)."""
    if isinstance(reports, TrialReport):
        reports = [reports]
    payload = [r.to_dict(include_timing) for r in reports]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_CSV_FIELDS = ("suite_id", "trial", "margin", "pass",
               "dim", "r", "alpha", "eps", "seed", "inequality_id")


def verdict_csv_rows(reports: Sequence[TrialReport]):
    """Streaming-friendly CSV rows of ``run_suite`` reports, the header once,
    then each report's rows from its scored columns and each trial's context
    cells; the inequality id comes last, after the documented columns.  A
    report that ``run_suite`` did not make has no columns: DomainError."""
    yield _CSV_FIELDS
    for rep in reports:
        if rep._scored is None:
            raise DomainError(f"suite {rep.suite_id!r}: only run_suite's reports have CSV rows")
        (trial, ids, margins, tols, _), contexts = rep._scored
        head = [(rep.suite_id, ctx.get("trial", "")) for ctx in contexts]
        tail = [tuple(ctx.get(key, "") for key in _CSV_FIELDS[4:9]) for ctx in contexts]
        for t, name, margin, passed in zip(trial.tolist(), ids, margins.tolist(),
                                           (margins >= -tols).tolist()):
            yield (*head[t], repr(margin), int(passed), *tail[t], name)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """numpy's ``default_rng(SeedSequence(seed, spawn_key=(trial,)))``, the stream
    of trial ``trial`` in ``run_suite``, which spawns that sequence's children."""
    if seed < 0 or trial < 0:
        raise DomainError(f"seed and trial must be >= 0, got seed {seed} and trial {trial}")
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(trial),)))


# numpy.random.SeedSequence's hash constants, whose outputs NEP 19 keeps
# fixed, and PCG64's 128-bit LCG multiplier
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(start: int, mult: int, count: int):
    """start and the next ``count`` hash constants, each mult times the last."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix of value with the hash constant before (xor)
    and after (mult) its step, on uint32 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays of pool words."""
    out = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return out ^ out >> 16


@functools.lru_cache(maxsize=None)
def _unseeded():
    """A seed sequence of zero words, for a bit generator whose state is set
    afterwards.  It cannot spawn, so no child of a made-up SeedSequence can
    come from that bit generator.  Made on first use: importing
    numpy.random is a cost of every cold start."""

    class Unseeded(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return Unseeded()


def _trial_rngs(seed: int, trials: range):
    """Yield one Generator, reused, set in turn to the stream of each trial
    of ``trials``: that of ``np.random.default_rng(np.random.SeedSequence(
    entropy=seed, spawn_key=(trial,)))``, bit for bit.

    The seed's w = max(4, seed words) words are hashed once, by
    ``SeedSequence(seed)``: its pool, and a hash constant 16 + 4 (w - 4)
    steps on.  Each trial's spawn-key words
    are mixed into that pool, and SeedSequence's ``generate_state(4,
    np.uint64)`` run, as whole-array uint32 steps over the trials whose keys
    have the same number of words.  PCG64 then seeds from the four words:
    state 0, inc = (initseq << 1) | 1, one step, state += initstate, one
    step.  Setting a trial's state also drops the 32-bit half that the last
    trial may have buffered."""
    if not trials:
        return
    pool0 = np.random.SeedSequence(seed).pool[:, None]
    seed_words = max(4, (int(seed).bit_length() + 31) // 32)
    hc = _INIT_A * pow(_MULT_A, 16 + 4 * (seed_words - 4), 1 << 32) & _MASK32
    out_consts = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]
    rng = np.random.Generator(np.random.PCG64(_unseeded()))
    bit_gen = rng.bit_generator
    start = trials.start
    while start < trials.stop:
        n_words = max(1, (start.bit_length() + 31) // 32)
        stop = min(trials.stop, 1 << 32 * n_words)
        keys = np.arange(start, stop, dtype=object)
        consts = np.array(_hash_constants(hc, _MULT_A, 4 * n_words), dtype=np.uint32)[:, None]
        pool = pool0
        for j in range(n_words):
            word = (keys >> 32 * j & _MASK32).astype(np.uint32)
            pool = _mix(pool, _hashmix(word, consts[4 * j:4 * j + 4], consts[4 * j + 1:4 * j + 5]))
        words = _hashmix(np.concatenate((pool, pool)), out_consts[:-1], out_consts[1:])
        words = words.astype(np.uint64)
        for init_hi, init_lo, seq_hi, seq_lo in zip(*(words[0::2] | words[1::2] << 32).tolist()):
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = (((init_hi << 64 | init_lo) + inc) * _PCG64_MULT + inc) & _MASK128
            bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            yield rng
        start = stop


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

_REDRAW_CAP = 100_000
# most doubles one block of redraws holds: 32 KB keeps the screen's
# temporaries small, and a run of all 1e5 redraws (n = 4) still takes ~8 ms
_REDRAW_BLOCK = 1 << 12
# first block of conditioned pairs: a Dirichlet call has a fixed cost of
# about a hundred rows, and about one pair in nine is accepted; first blocks
# of 8 to 32 pairs timed fastest on the reverse suites' draws (1 to 128 tried)
_PAIR_BLOCK = 16


def gen_equal_weighted_mean_scalars(n: int, iv: Interval, rng: np.random.Generator):
    """(x, y, p) with positive p summing to 1, entries in [m, M], and equal
    weighted means.  y is free; x_0 is solved for, redrawing the other
    coordinates until it lands inside the interval (cap 1e5).

    A tiny p_0 can exhaust the cap.  Then x is built one coordinate at a
    time in increasing weight, each drawn from the range that still lets the
    remaining weight reach the target, and the heaviest is solved last.
    """
    if n < 2:
        raise DomainError(f"need n >= 2 scalars, got {n}")
    p = rng.dirichlet(np.ones(n))
    y = rng.uniform(iv.m, iv.M, size=n)
    target = float(np.dot(p, y))
    x = _redraw_solved_x(n, iv, p, target, rng)
    if x is not None:
        return x, y, p
    x = np.empty(n)
    order = np.argsort(p)
    rest = np.cumsum(p[order][::-1])[::-1]  # rest[k]: weight of order[k:]
    fixed = 0.0
    for k, i in enumerate(order[:-1]):
        lo = max(iv.m, (target - fixed - iv.M * rest[k + 1]) / p[i])
        hi = min(iv.M, (target - fixed - iv.m * rest[k + 1]) / p[i])
        x[i] = min(max(rng.uniform(lo, hi), iv.m), iv.M)
        fixed += p[i] * x[i]
    last = order[-1]
    x[last] = min(max((target - fixed) / p[last], iv.m), iv.M)
    return x, y, p


def _first_accepted(rng, draw, candidates, accept, cap, first, width):
    """The first item of up to ``cap`` draws that ``accept`` takes, or None;
    the rng ends where the one-draw-at-a-time loop would.

    ``draw(k)`` makes k draws in one call, which gives the same numbers as k
    single draws, and returns them as a block.  Blocks start at ``first``
    draws and double, capped at _REDRAW_BLOCK doubles of ``width`` per draw.
    ``candidates(block)`` gives, in order, the indices of a block that may
    pass; ``accept(block, j)`` returns draw j's item, or None where the
    one-draw expression rejects it.  After an accepted
    draw j the rng is rewound and j + 1 draws are redone, which gives back
    the draws after it."""
    done, k = 0, first
    while done < cap:
        k = min(k, cap - done, max(1, _REDRAW_BLOCK // width))
        state = rng.bit_generator.state
        block = draw(k)
        for j in candidates(block):
            item = accept(block, j)
            if item is not None:
                if j + 1 < k:
                    rng.bit_generator.state = state
                    draw(j + 1)
                return item
        done += k
        k *= 2
    return None


def _redraw_solved_x(n, iv, p, target, rng):
    """The first of up to _REDRAW_CAP draws x whose solved x_0 lies in
    [m, M], with x_0 set, or None; the rng ends where the one-draw-at-a-time
    loop would.

    A block of draws is screened with a matrix-vector product.  The screen's
    slack is far above any rounding difference from the one-row expression,
    which decides acceptance and sets x_0."""
    def candidates(X):
        x0 = (target - X[:, 1:] @ p[1:]) / p[0]
        slack = 1e-9 * ((abs(target) + np.abs(X[:, 1:]) @ p[1:]) / p[0]
                        + max(abs(iv.m), abs(iv.M)))
        return np.flatnonzero((x0 >= iv.m - slack) & (x0 <= iv.M + slack))

    def accept(X, j):
        x0 = (target - float(np.dot(p[1:], X[j, 1:]))) / p[0]
        if not iv.m <= x0 <= iv.M:
            return None
        x = X[j].copy()
        x[0] = x0
        return x

    return _first_accepted(rng, lambda k: rng.uniform(iv.m, iv.M, size=(k, n)),
                           candidates, accept, _REDRAW_CAP, 1, n)


def sinkhorn_doubly_stochastic(n: int, rng: np.random.Generator, iters: int = 200) -> np.ndarray:
    """Doubly stochastic matrix via Sinkhorn normalization of a positive
    random matrix (full support): ``iters`` row-then-column sweeps and a
    final row normalization.

    The draw is ``_sinkhorn_start``; the sweeps are a batch of one of
    ``_sinkhorn``, which the suites run in their build phase on the start
    matrices of all their trials of one n."""
    return _sinkhorn(_sinkhorn_start(n, rng)[None], iters)[0]


def _sinkhorn_start(n: int, rng: np.random.Generator) -> np.ndarray:
    """The draw of ``sinkhorn_doubly_stochastic``: a positive (n, n) matrix."""
    return rng.uniform(0.5, 1.5, size=(n, n))


# the lags at which ``_sinkhorn`` compares a stack with its earlier states.
# The sweeps of an n <= 4 matrix settle into a cycle of period 1 or 2, and a
# few percent of n = 3 and 4 matrices into one of period 3 to 5 (6,000
# matrices sampled); 12 and 60 are multiples of each such period.
_SINKHORN_LAGS = (2, 12, 60)


def _sinkhorn(S, iters: int = 200) -> np.ndarray:
    """``iters`` row-then-column Sinkhorn sweeps and a final row
    normalization of each matrix of a positive (k, n, n) stack, bit for bit
    the plain loop run on each matrix alone.

    A sweep is a function of the bits of its input, and in floating point
    the iterates soon revisit an earlier state exactly and cycle from there.
    Once every matrix equals its own state from ``lag`` sweeps back, for a
    lag of ``_SINKHORN_LAGS``, the stack repeats its last ``lag`` states,
    and the loop stops with the one that sweep ``iters`` reaches.  A stack
    that does not, say one that holds a matrix of a longer period, runs all
    the sweeps."""
    recent = [S]  # the states of the last max(lags) sweeps, oldest first
    for k in range(1, iters + 1):
        S = S / S.sum(axis=-1, keepdims=True)
        S /= S.sum(axis=-2, keepdims=True)
        for lag in _SINKHORN_LAGS:
            if lag <= len(recent) and np.array_equal(S, recent[-lag]):
                S = recent[-lag + (iters - k) % lag]
                return S / S.sum(axis=-1, keepdims=True)
        recent = recent[1 - _SINKHORN_LAGS[-1]:] + [S]
    return S / S.sum(axis=-1, keepdims=True)


def _weighted_sums(W, A) -> np.ndarray:
    """hermitize(sum_j W[:, i, j] A[:, j]) for weights W (k, m, n) and matrices
    A (k, n, d, d): a (k, m, d, d) stack, summed in j order from 0 as Python's
    ``sum`` does.  With a doubly stochastic W the m = n sums keep the
    uniform-weight sum of the A_j, and their spectra stay inside any interval
    that holds the A_j's."""
    return oc.hermitize(sum(W[:, :, j, None, None] * A[:, None, j] for j in range(A.shape[1])))


def _draw_spectra(dim: int, ivs, rng: np.random.Generator):
    """(G (k, d, d), w (k, d)): the draws of k = len(ivs) matrices with
    spectra in the intervals ivs, one ``oc._draw_spectrum`` each."""
    G, w = zip(*(oc._draw_spectrum(dim, iv, rng) for iv in ivs))
    return np.stack(G), np.stack(w)


FAMILY_KINDS = ("uniform_permutation", "doubly_stochastic_mix", "normalized_trace")


def _draw_equal_map_sum(n: int, dim: int, iv: Interval, family_kind: str,
                        rng: np.random.Generator):
    """The draws of ``gen_equal_map_sum_operators``: (kind, G, w, extra) with
    the family's unitary and the A_i's Gaussians G and spectra w and the
    permutation or the Sinkhorn start matrix extra; or, for
    normalized_trace, the 2n Gaussians G of the densities and the family
    weights w."""
    if family_kind in ("uniform_permutation", "doubly_stochastic_mix"):
        G = oc._gaussian(dim, rng, 1)
        Gs, w = _draw_spectra(dim, (iv,) * n, rng)
        extra = (rng.permutation(n) if family_kind == "uniform_permutation"
                 else _sinkhorn_start(n, rng))
        return family_kind, np.concatenate([G, Gs]), w, extra
    if family_kind == "normalized_trace":
        if not (iv.m <= 0.0 + 1e-12 and iv.M >= 1.0 - 1e-12):
            raise DomainError("normalized_trace inputs are density matrices; "
                              "the interval must cover [0, 1]")
        w = rng.dirichlet(np.ones(n))
        return family_kind, oc._gaussian(dim, rng, 2 * n), w, None
    raise DomainError(f"unknown family kind {family_kind!r}")


def _build_equal_map_sums(draws) -> list:
    """(As, Bs, family) of each ``_draw_equal_map_sum`` draw.  A permuted B_i
    is the A_j object itself."""
    traced = [kind == "normalized_trace" for kind, *_ in draws]
    haar = _per_group(lambda *draw: zip(*oc._build_haar(*draw)), None,
                      [None if t else G[:1] for t, (_, G, *_) in zip(traced, draws)],
                      [G[1:] for _, G, _, _ in draws], [w for _, _, w, _ in draws])
    starts = [extra if kind == "doubly_stochastic_mix" else None for kind, *_, extra in draws]
    mixes = _per_group(_weighted_sums, None, _per_group(_sinkhorn, None, starts),
                       [None if h is None else h[1] for h in haar])
    densities = _per_group(oc._build_densities, None,
                           [G if t else None for t, (_, G, *_) in zip(traced, draws)])
    out = []
    for (kind, G, w, extra), h, B, rho in zip(draws, haar, mixes, densities):
        n, dim = len(w), G.shape[-1]
        if rho is not None:
            maps = tuple(oc.NormalizedTrace(float(wi)) for wi in w)
            As, Bs = list(rho[:n]), list(rho[n:])
        else:
            U, H = h
            maps = tuple(oc.WeightedConjugation(1.0 / n, U[0]) for _ in range(n))
            As = list(H)
            Bs = [As[k] for k in extra] if B is None else list(B)
        out.append((As, Bs, oc.MapFamily(maps, dim)))
    return out


def gen_equal_map_sum_operators(n: int, dim: int, iv: Interval, family_kind: str,
                                rng: np.random.Generator):
    """(As, Bs, family) with spectra in [m, M] and equal map-sums.

    uniform_permutation: identical conjugation maps with uniform weights,
    B a permutation of A.  doubly_stochastic_mix: same maps, B_i a doubly
    stochastic mixture of the A_j (spectra stay inside [m, M]).
    normalized_trace: trace maps with density-matrix inputs, where the
    constraint holds automatically.
    """
    return _build_equal_map_sums([_draw_equal_map_sum(n, dim, iv, family_kind, rng)])[0]


def gen_conditioned_prob_pair(n: int, eps: float, direction: str, rng: np.random.Generator,
                              cap: int = _REDRAW_CAP):
    """(p, q) with components in [eps, 1] and the declared inner-product
    condition; rejection sampling over floored Dirichlet draws (cap 1e5
    pairs).

    Pairs are drawn in blocks of doubling size from _PAIR_BLOCK, p and q
    interleaved (2k draws of size n give the same numbers as one (2k, n)
    draw).  The first row whose ``ce._condition_gap`` is at most PROB_TOL is
    taken, which is the pair ``condition_tag_holds`` takes, and the rng ends
    where the one-pair-at-a-time loop would."""
    if n * eps >= 1.0:
        raise DomainError(f"floor {eps} is infeasible for n={n}")
    ones = np.ones(n)
    pair = _first_accepted(
        rng, lambda k: eps + (1.0 - n * eps) * rng.dirichlet(ones, size=2 * k),
        lambda D: np.flatnonzero(ce._condition_gap(D[0::2], D[1::2], direction)
                                 <= ce.PROB_TOL),
        lambda D, j: (D[2 * j].copy(), D[2 * j + 1].copy()), cap, _PAIR_BLOCK, 2 * n)
    if pair is not None:
        return pair
    raise GeneratorExhausted(
        f"no ({direction}) pair with floor {eps} after {cap} draws"
    )


def gen_fuchs_instance(n: int, iv: Interval, rng: np.random.Generator):
    """(x, y, p) satisfying the weighted prefix conditions by construction:
    y decreasing, p positive, and x built from y by averaging n random
    adjacent pairs (weighted), which preserves the weighted total and can
    only lower prefix sums.  All three arrays are C-contiguous."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    y = np.sort(rng.uniform(iv.m, iv.M, size=n))[::-1].copy()
    p = rng.uniform(0.2, 1.0, size=n)
    x = y.copy()
    for i in rng.integers(0, n - 1, size=n).tolist():
        w = p[i] + p[i + 1]
        avg = (p[i] * x[i] + p[i + 1] * x[i + 1]) / w
        x[i] = avg
        x[i + 1] = avg
    return x, y, p


# ---------------------------------------------------------------------------
# margin kernels (one per inequality, shared by checkers and batched suites)
# ---------------------------------------------------------------------------


def _table(blocks):
    """Score blocks (trials, inequality id, margins, its kernel's tol[, vectors]) as columns
    (trial, id, margin, tol, vector) sorted stably by trial; vector None unless blocks have it."""
    trials, ids, margins, tols, *vectors = zip(*blocks)
    sizes = [len(m) for m in margins]
    order = np.argsort(np.concatenate(trials), kind="stable")
    return (np.concatenate(trials)[order],
            [ids[b] for b in np.repeat(np.arange(len(sizes)), sizes)[order].tolist()],
            np.concatenate(margins)[order], np.repeat(tols, sizes)[order],
            np.concatenate(vectors[0])[order] if vectors else None)


def _contexts(contexts, table, rows=slice(None)):
    """The context of each of the table's ``rows``: its trial's, plus its vector index if any."""
    trial, *_, vector = table
    if vector is None:
        return [contexts[t] for t in trial[rows].tolist()]
    return [{**contexts[t], "vector": j} for t, j in zip(trial[rows].tolist(), vector[rows].tolist())]


def _view(table, contexts) -> List[InequalityVerdict]:
    """Each row of a ``_table`` as an InequalityVerdict: the one place that builds them."""
    _, ids, margins, tols, _ = table
    return [InequalityVerdict(*row) for row in zip(
        ids, margins.tolist(), (margins >= -tols).tolist(), _contexts(contexts, table))]


def _per_group(solve, keys, *columns) -> list:
    """The results of ``solve(*stacks)``, or ``solve(key, *stacks)`` when
    ``keys`` are given, for each entry, in entry order.  An entry's group is
    its key and the shapes of its values, one per column; ``solve`` is
    called once per group, on the ``np.stack`` of the group's entries of
    each column, and returns one result per entry it was given.  Each stack
    is rectangular by construction.  An entry whose first value is None is
    left out and gets None.  Every kernel gives a row the same bits in any
    stack, so the grouping does not show."""
    out = [None] * len(columns[0])
    heads = [()] * len(out) if keys is None else [(key,) for key in keys]
    groups = defaultdict(list)
    # an array's own .shape: np.shape's dispatch would cost more per entry
    # than the rest of the grouping
    shapes = ([v.shape if type(v) is np.ndarray else () if type(v) in (float, int) else np.shape(v)
               for v in col] for col in columns)
    for j, group in enumerate(zip(heads, *shapes)):
        if columns[0][j] is not None:
            groups[group].append(j)
    for (head, *_), idxs in groups.items():
        for j, res in zip(idxs, solve(*head, *(np.stack([col[j] for j in idxs]) for col in columns))):
            out[j] = res
    return out


def _check_spectra(w, lo, hi):
    """Raise PreconditionError for the first row of the ascending spectra w
    (k, d) more than 1e-10 (``oc.apply_function_stack``'s slack) outside its
    interval [lo, hi]; the bounds are scalars or one per row."""
    bad = (w[:, 0] < lo - 1e-10) | (w[:, -1] > hi + 1e-10)
    if bad.any():
        j = np.argmax(bad)
        lo, hi = np.broadcast_to(lo, bad.shape)[j], np.broadcast_to(hi, bad.shape)[j]
        raise PreconditionError(f"spectrum [{w[j, 0]:.6g}, {w[j, -1]:.6g}] escapes [{lo}, {hi}]")


def _function_images(entries) -> list:
    """[f(M) for M in mats] for each (mats, f) entry.  Each distinct matrix
    object is decomposed once, in one ``oc._eigh`` per dimension; a spectrum
    outside f's interval raises PreconditionError (``_check_spectra``); the
    images are recomposed in one
    ``oc._function_image`` per (dimension, f).  Each step treats a matrix on
    its own, so an image does not depend on the rest of the batch."""
    # objects are keyed by id(), which hashes faster than a FunctionSpec
    distinct = {id(M): M for mats, _ in entries for M in mats}
    fs = {id(f): f for _, f in entries}
    eig = dict(zip(distinct, _per_group(lambda S: list(zip(*oc._eigh(S))), None,
                                        list(distinct.values()))))
    keys = list(dict.fromkeys((id(M), id(f)) for mats, f in entries for M in mats))

    def images(key, w, V):
        f = fs[key]
        _check_spectra(w, f.domain.m, f.domain.M)
        return oc._function_image(f, w, V)

    image = dict(zip(keys, _per_group(images, [j for _, j in keys],
                                      *zip(*(eig[i] for i, _ in keys)))))
    return [[image[id(M), id(f)] for M in mats] for mats, f in entries]


def _check_unital(families):
    """DomainError unless each family of a stack has ||sum_i Phi_i(I) - I||_F <= 1e-10."""
    res = oc._unital_residuals(families)
    if not (res <= 1e-10).all():  # so NaN fails
        raise DomainError(f"map family is not unital-sum: residual {res.max():.3e}")


def _jensen_blocks(instances) -> list:
    """A block of Jensen margins <Phi-sum of f(A) x, x> - f(<Phi-sum of A x, x>)
    and vector indices per (family, mats, vectors, f, ...) instance.  The
    instances of one family key and vector count are scored in one stack,
    after the hypotheses' checks: their map sums of A and of f(A)
    (``oc._map_family_sums``), the quadratic forms on the (k, vectors, d)
    stack of their vectors, and f on the rows of each f."""
    if not all(f.is_convex for _, _, _, f, *_ in instances):
        raise PreconditionError("the vector-state Jensen bound needs convex f")
    images = _function_images([(mats, f) for _, mats, _, f, *_ in instances])

    def margins(_, idx):
        group = [instances[j] for j in idx.tolist()]
        families = [family for family, *_ in group]
        _check_unital(families)
        X = np.array([vecs for _, _, vecs, *_ in group], dtype=complex)
        off = np.abs(np.linalg.norm(X, axis=-1) - 1.0) > 1e-10
        if off.any():
            raise PreconditionError(f"vector {np.argwhere(off)[0, 1]} is not unit norm")
        A = np.array([mats for _, mats, *_ in group])
        FA = np.array([images[j] for j in idx])
        means = _quadratic_forms(oc._map_family_sums(families, A), X)
        lifted = _quadratic_forms(oc._map_family_sums(families, FA), X)
        fs = [f for _, _, _, f, *_ in group]
        for f in {id(f): f for f in fs}.values():
            rows = np.array([g is f for g in fs])
            lifted[rows] -= f(np.clip(means[rows], f.domain.m, f.domain.M))
        return lifted

    keys = [(oc._family_key(family), len(vecs)) for family, _, vecs, *_ in instances]
    return [(np.full(len(m), j), "lemma_jensen", m, SCALAR_TOL, range(len(m)))
            for j, m in enumerate(_per_group(margins, keys, range(len(instances))))]


def _quadratic_forms(M, X) -> np.ndarray:
    """Re <M x, x> for each row x of X, or of each X (k, m, d) with its M (k, d, d)."""
    return np.real(np.sum(X.conj() * (X @ np.swapaxes(M, -1, -2)), axis=-1))


def _map_sum_blocks(instances, inequality_id) -> list:
    """The block of map-sum margins lambda_min(beta*I + alpha * Phi-sum of
    f(B) - Phi-sum of f(A)) of (As, Bs, family, f, alpha, ...) instances.
    The instances of one family key (dimension and map kinds) are scored in
    one stack: the hypotheses' three ``oc._map_family_sums`` and the
    margins' two, beta and alpha broadcast per row, and one lambda_min."""
    if not all(f.is_convex for _, _, _, f, *_ in instances):
        raise PreconditionError("the map-sum reverse bound needs convex f")
    images = _function_images([((*As, *Bs), f) for As, Bs, _, f, *_ in instances])
    # one constant per (f, alpha); id(f) hashes faster than a FunctionSpec
    betas = {(id(f), alpha): (f, alpha) for _, _, _, f, alpha, *_ in instances}
    betas = {key: sb.beta_constant(f, f.domain, alpha) for key, (f, alpha) in betas.items()}

    def margins(_, idx):
        group = [instances[j] for j in idx.tolist()]
        families = [family for _, _, family, *_ in group]
        n = len(families[0].maps)
        _check_unital(families)
        sum_a, sum_b = (oc._map_family_sums(families, np.array([inst[j] for inst in group]))
                        for j in (0, 1))
        res = oc._frob_rows(sum_a - sum_b)
        unequal = res > 1e-8 * np.maximum(1.0, oc._frob_rows(sum_a))
        if unequal.any():
            raise PreconditionError(f"map sums differ: residual {res[unequal].max():.3e}")
        img = np.array([images[j] for j in idx])
        beta = np.array([betas[id(inst[3]), inst[4]] for inst in group], dtype=float)
        alpha = np.array([inst[4] for inst in group], dtype=float)[:, None, None]
        lhs = oc._map_family_sums(families, img[:, :n])
        rhs = beta[:, None, None] * np.eye(lhs.shape[-1], dtype=complex) \
            + alpha * oc._map_family_sums(families, img[:, n:])
        return oc._eigvalsh(rhs - lhs)[:, 0]

    keys = [oc._family_key(family) for _, _, family, *_ in instances]
    lam_min = np.array(_per_group(margins, keys, range(len(instances))), dtype=float)
    return [(np.arange(len(instances)), inequality_id, lam_min, OPERATOR_TOL)]


MEAN_FORMS_SOUND = ("mean_ratio", "mean_diff", "sr_k_form", "sr_k_form_x_both", "sr_c_form")
MEAN_FORMS_LIMIT = ("s0_nonneg", "s0_pair_vs_z")
MEAN_FORM_C_LHS = "sr_c_form_lhs_variant"


def _mean_blocks(instances, forms, z_eigs=None) -> list:
    """A block of margins lambda_min(rhs - lhs) per named form of the
    operator-mean and relative-entropy bounds on (Z, As, Bs, w, r, iv)
    instances: Z-relative tuples As, Bs with weights w, equal weighted sums
    and spectra in iv, built from P = Z^(1/2) (sum w A_i^r) Z^(1/2) and Q
    likewise for B.  A form that does not apply at an instance's r gets no
    row for it.  The instances of one tuple shape (n, d) are scored in one
    stack: ``_mean_forms``, then one ``oc._eigvalsh`` over its stacks.
    ``z_eigs`` holds the (w, V) of every instance's Z when the caller has
    them.  The mean suites' score runs it on all their instances, and
    ``check_operator_mean_bounds`` on a batch of one; an instance gets the
    same bits in any batch."""
    for *_, r, iv in instances:
        if not math.isfinite(r):
            raise DomainError(f"r must be finite, got {r}")
        if abs(r) < 1e-12:
            raise DomainError("r = 0 is degenerate here; use the limit checks")
        if iv.m <= 0.0:
            raise DomainError("the interval must be positive (m > 0)")
    blocks = []

    def solve(idx, As):
        stacks = _mean_forms([instances[j] for j in idx], As, z_eigs and [z_eigs[j] for j in idx],
                             forms)
        margins = oc._eigvalsh(np.concatenate([M for *_, M in stacks]))[:, 0]
        cuts = np.cumsum([len(M) for *_, M in stacks])[:-1]
        blocks.extend((idx[rows], name, m, OPERATOR_TOL)
                      for (name, rows, _), m in zip(stacks, np.split(margins, cuts)))
        return idx

    _per_group(solve, None, range(len(instances)), [inst[1] for inst in instances])
    return blocks


def _mean_forms(group, As, z_eigs, forms) -> list:
    """(form id, rows, stack of margin matrices rhs - lhs) of each named form,
    for ``_mean_blocks``' instances of one tuple shape (n, d), with As the
    (k, n, d, d) stack of their A tuples.  The rows are all k but for the
    C-term-on-the-left form, which applies at 0 < r < 1 only.

    An instance whose Bs is its As object (n = 1 in the suites) takes
    Q = P; every other must have equal weighted sums sum w_i A_i and
    sum w_i B_i, within 1e-8 max(1, ||sum w_i A_i||_F), else
    PreconditionError.  One ``oc._eigh`` decomposes every Z (unless
    ``z_eigs`` holds their (w, V)), A_i and B_i; the spectra of the A_i and
    B_i must lie in iv (``_check_spectra``).  P, Q and, if a limit form is
    named, their log variants come from one ``oc._mean_step``; the forms are
    assembled on the stack, with r and the constants K(h, r), C(m, h, r)
    broadcast per row and each r regime a row mask.  Every step treats a
    matrix on its own, so an instance's margins do not depend on the rest of
    the batch."""
    k, include_limits = len(group), any(name in MEAN_FORMS_LIMIT for name in forms)
    Z = np.stack([np.asarray(inst[0], dtype=complex) for inst in group])
    own_b = [j for j, inst in enumerate(group) if inst[2] is not inst[1]]
    # the (n, d, d) tuples: each instance's As, then the Bs of own_b, with
    # the instance that owns each
    tuples = np.concatenate([np.asarray(As, dtype=complex)]
                            + [np.asarray(group[j][2], dtype=complex)[None] for j in own_b])
    owner = np.array([*range(k), *own_b])
    n, d = tuples.shape[1:3]
    weights = np.stack([np.asarray(inst[3], dtype=float) for inst in group])[owner]
    if own_b:
        sums = sum(weights[:, i, None, None] * tuples[:, i] for i in range(n))
        sum_a = sums[own_b]
        res = oc._frob_rows(sum_a - sums[k:])
        if not (res <= 1e-8 * np.maximum(1.0, oc._frob_rows(sum_a))).all():  # so NaN fails
            raise PreconditionError("weighted A/B sums differ in Z-relative terms")
    # rows of (w, V): the k Z's, then the tuples' matrices
    rows = tuples.reshape(-1, d, d)
    if z_eigs is None:
        w, V = oc._eigh(np.concatenate([Z, rows]))
    else:
        w, V = (np.concatenate([np.stack(z), x]) for z, x in zip(zip(*z_eigs), oc._eigh(rows)))
    spectra = w[k:]
    ivs = [inst[5] for inst in group]
    _check_spectra(spectra, *np.repeat(np.array([(iv.m, iv.M) for iv in ivs])[owner], n, 0).T)

    # one step row per tuple and exponent: each tuple's r, then with the
    # limits each tuple's log; each instance's B row is its own or its A's
    rs, m = [inst[4] for inst in group], len(owner)
    tile = np.arange(m * (2 if include_limits else 1)) % m
    z_row = owner[tile]
    S = oc._mean_step(w[z_row], V[z_row], spectra.reshape(m, n, d)[tile],
                      V[k:].reshape(m, n, d, d)[tile], weights[tile],
                      [rs[j] for j in owner] + [None] * (len(tile) - m))
    b_row = np.arange(k)
    b_row[own_b] = k + np.arange(len(own_b))
    P, Q = S[:k], S[b_row]
    r = np.array(rs, dtype=float)[:, None, None]
    h = [iv.M / iv.m for iv in ivs]
    big_k = np.array([sb.kantorovich(hj, rj) for hj, rj in zip(h, rs)])[:, None, None]
    c_const = np.array([sb.c_of_hr(iv.m, hj, rj)
                        for iv, hj, rj in zip(ivs, h, rs)])[:, None, None]
    inside = (0.0 < r) & (r < 1.0)
    above = r >= 1.0
    kq, cz = big_k * Q, c_const * Z
    sr_x, sr_y = (P - Z) / r, (Q - Z) / r
    k_q, k_p, c_r = (kq - Z) / r, (big_k * P - Z) / r, (c_const / r) * Z
    mats = {
        "mean_ratio": np.where(inside, P - kq, kq - P),
        "mean_diff": np.where(inside, P - cz - Q, cz + Q - P),
        # r < 0 or 0 < r < 1: the derived orientation keeps the C-term on the
        # right-hand side
        "sr_k_form": np.where(above, k_q - sr_x, sr_x - k_q),
        "sr_k_form_x_both": np.where(above, k_p - sr_x, sr_x - k_p),
        "sr_c_form": np.where(above, c_r + sr_y - sr_x, sr_x - c_r - sr_y),
        # C-term-on-the-left orientation, for 0 < r < 1 only; unsatisfiable
        # at X = Y since C < 0 there, so it is scored under its own id
        MEAN_FORM_C_LHS: sr_x + c_r - sr_y,
    }
    if include_limits:
        s0x, s0y = S[m:][:k], S[m:][b_row]
        mats["s0_nonneg"] = s0x
        mats["s0_pair_vs_z"] = s0x + s0y - Z
    c_lhs = np.flatnonzero(inside[:, 0, 0])
    return [(name, c_lhs, mats[name][c_lhs]) if name == MEAN_FORM_C_LHS
            else (name, slice(None), mats[name]) for name in forms]


def _entropy_kernel(r, WA, WB, alpha):
    """alpha H(B) <= H(A) + alpha c dim and |H(A) - H(B)| <= c dim for the
    stacks WA, WB (k, dim) of the spectra of density pairs (A, B), with one
    alpha per row: von Neumann's H with c = 1/e (r = None), or the Tsallis
    H_r, r in (0, 1], with c = (1-r)^((1-r)/r).  H is the classical row
    kernel of the spectra, ``ce._cross_rows(W, W)`` or
    ``oc._tsallis_spectra_rows``, so a row gets the bits of a batch of one."""
    bad = ~((0.0 <= alpha) & (alpha < math.inf)) | (r is not None and not 0.0 < r <= 1.0)
    dim, W = WA.shape[-1], np.concatenate([WA, WB])
    if r is None:
        if bad.any():
            raise DomainError("alpha must be finite and >= 0")
        ha, hb = ce._cross_rows(W, W).reshape(2, -1)
        return [("entropy_vn_alpha", ha + alpha / math.e * dim - alpha * hb, SCALAR_TOL),
                ("entropy_vn_symmetric", dim / math.e - np.abs(ha - hb), SCALAR_TOL)]
    if bad.any():
        raise DomainError(f"needs a finite alpha >= 0 and r in (0, 1], "
                          f"got {alpha[np.argmax(bad)]} and {r}")
    ha, hb = oc._tsallis_spectra_rows(W, r).reshape(2, -1)
    fac = 1.0 if abs(1.0 - r) < 1e-12 else (1.0 - r) ** ((1.0 - r) / r)
    return [("entropy_tsallis_alpha", ha + alpha * fac * dim - alpha * hb, SCALAR_TOL),
            ("entropy_tsallis_symmetric", fac * dim - np.abs(ha - hb), SCALAR_TOL)]


# ---------------------------------------------------------------------------
# checkers (single instance: validate what the kernel does not check, then
# run it on a batch of one, which sets the tolerance; kernels check spectra,
# map kernels hypotheses; a verdict's context is its checker's own keys)
# ---------------------------------------------------------------------------


def check_lemma_jensen(family: oc.MapFamily, mats, f: FunctionSpec, vectors):
    """Vector-state Jensen margins <Phi-sum of f(A) x, x> - f(<Phi-sum of A x, x>)
    for each unit vector x; nonnegative for convex f and a unital family."""
    mats = oc._family_operands(family, [oc.assert_hermitian(M) for M in mats])
    vecs = [np.asarray(x, dtype=complex) for x in vectors]
    if not vecs:
        raise PreconditionError("the vector-state Jensen bound needs at least one vector")
    dim = family.output_dim
    for j, x in enumerate(vecs):
        if x.shape != (dim,):
            raise ShapeError(f"vector {j} has shape {x.shape}, expected ({dim},)")
        if not np.isfinite(x).all():
            raise DomainError(f"vector {j} has non-finite entries")
    return _view(_table(_jensen_blocks([(family, mats, vecs, f)])), [{}])


def check_theorem_beta(family: oc.MapFamily, As, Bs, f: FunctionSpec,
                       alpha: float) -> InequalityVerdict:
    """Map-sum reverse bound: Phi-sum of f(A) <= beta*I + alpha * Phi-sum of f(B),
    given a unital family, equal map-sums, spectra in f's interval, convex f."""
    return _check_map_sum("theorem_beta", family, As, Bs, f, alpha)


def _check_map_sum(inequality_id, family, As, Bs, f, alpha) -> InequalityVerdict:
    """``check_theorem_beta``, scored under ``inequality_id``."""
    As = oc._family_operands(family, [oc.assert_hermitian(A) for A in As])
    Bs = oc._family_operands(family, [oc.assert_hermitian(B) for B in Bs])
    return _view(_table(_map_sum_blocks([(As, Bs, family, f, alpha)], inequality_id)),
                 [{"alpha": alpha, "f": f.name}])[0]


def check_corollary_weighted(ps, As, Bs, f: FunctionSpec, alpha: float) -> InequalityVerdict:
    """Scalar-weight specialization Phi_i(X) = p_i X of the map-sum bound."""
    ps = np.asarray(ps, dtype=float)
    if not np.all(ps > 0.0):  # their sum is the family's unitality, a kernel check
        raise PreconditionError("weights must be positive")
    As = [oc.assert_hermitian(A) for A in As]
    # with no matrices, a family of dimension 0 fails the count check
    family = _scalar_weight_family(ps, As[0].shape[0] if As else 0)
    return _check_map_sum("corollary_weighted", family, As, Bs, f, alpha)


def _scalar_weight_family(weights, dim: int) -> oc.MapFamily:
    """The family Phi_i(X) = w_i X on dim x dim matrices."""
    eye = np.eye(dim, dtype=complex)
    return oc.MapFamily(tuple(oc.WeightedConjugation(float(w), eye) for w in weights), dim)


MODE_EQUAL = "equal_mean"
MODE_RELAXED = "relaxed_decreasing"


@functools.lru_cache(maxsize=None)
def _is_decreasing(f: FunctionSpec, iv: Interval) -> bool:
    scan = _open_interval(f, iv)
    ts = np.linspace(scan.m, scan.M, 257)
    vals = np.asarray(f(ts), dtype=float)
    return bool(np.all(np.diff(vals) <= 1e-12))


def _check_scalar_corollary_rows(P, X, Y, f: FunctionSpec, mode: str):
    """``check_scalar_corollary``'s preconditions on (k, n) stacks of p, x
    and y, one instance per row.  Each test is written so that a NaN fails
    it."""
    if not (np.all(P > 0.0) and np.all(np.abs(np.sum(P, axis=-1) - 1.0) <= 1e-10)):
        raise PreconditionError("weights must be positive and sum to 1")
    lo, hi = f.domain.m - 1e-12, f.domain.M + 1e-12
    if not all(np.all((lo <= S) & (S <= hi)) for S in (X, Y)):
        raise PreconditionError("entries must lie in the function interval")
    if mode not in (MODE_EQUAL, MODE_RELAXED):
        raise DomainError(f"unknown mode {mode!r}")
    mx, my = np.sum(P * X, axis=-1), np.sum(P * Y, axis=-1)
    gap = np.abs(mx - my) if mode == MODE_EQUAL else mx - my
    bad = np.flatnonzero(gap > 1e-10 * np.maximum(1.0, np.abs(my)))
    if bad.size:
        mx, my = mx[bad[0]], my[bad[0]]
        raise PreconditionError(f"weighted means differ: {mx} vs {my}" if mode == MODE_EQUAL
                                else f"relaxed mode needs sum p x <= sum p y ({mx} > {my})")
    if mode == MODE_RELAXED and not _is_decreasing(f, f.domain):
        raise PreconditionError("relaxed mode needs monotone decreasing f")
    if not f.is_convex:
        raise PreconditionError("check_scalar_corollary needs convex f")


def _scalar_corollary_kernel(key, P, X, Y):
    """[(form id, margins, SCALAR_TOL)] of the beta, ratio and diff forms for the
    key (f, alpha, mode), one margin per row of (k, n) stacks of p, x and y,
    after ``_check_scalar_corollary_rows``; each constant is computed once.
    The ratio form is left out when f is not strictly positive."""
    f, alpha, mode = key
    _check_scalar_corollary_rows(P, X, Y, f, mode)
    iv = f.domain
    sum_fy = np.sum(P * f(Y), axis=-1)
    sum_fx = np.sum(P * f(X), axis=-1)
    forms = [("scalar_beta_form", sb.beta_constant(f, iv, alpha) + alpha * sum_fx)]
    try:
        forms.append(("scalar_ratio_form", sb.ratio_constant(f, iv) * sum_fx))
    except PreconditionError:
        pass
    forms.append(("scalar_diff_form", sb.diff_constant(f, iv) + sum_fx))
    return [(name, rhs - sum_fy, SCALAR_TOL) for name, rhs in forms]


def check_scalar_corollary(p, x, y, f: FunctionSpec, alpha: float, mode: str = MODE_EQUAL):
    """Scalar reverse bounds sum p f(y) <= {beta + alpha sum p f(x),
    K * sum p f(x), C + sum p f(x)} under equal weighted means (or
    sum p x <= sum p y with monotone decreasing f in relaxed mode).

    Returns beta/ratio/diff verdicts; the ratio form is skipped when f is
    not strictly positive on the interval.
    """
    row = tuple(np.asarray(a, dtype=float) for a in (p, x, y))
    if not (row[0].shape == row[1].shape == row[2].shape):
        raise ShapeError("p, x, y must share a length")
    blocks = _scalar_score(_scalar_corollary_kernel)([(row, (f, alpha, mode))])
    return _view(_table(blocks), [{"alpha": alpha, "f": f.name, "mode": mode}])


def check_entropy_vonneumann(A, B, alpha: float):
    """alpha H(B) <= H(A) + (alpha/e) dim, plus |H(A) - H(B)| <= dim/e."""
    return check_entropy_tsallis(A, B, alpha, None)


def check_entropy_tsallis(A, B, alpha: float, r: float):
    """Deformed analog: alpha H_r(B) <= H_r(A) + alpha (1-r)^((1-r)/r) dim,
    plus the symmetric difference bound; r = None gives von Neumann's.  The
    kernel runs on the spectra that the density checks of A and B compute."""
    A, wa = oc._density_evals(A, "A")
    B, wb = oc._density_evals(B, "B")
    if A.shape != B.shape:
        raise ShapeError(f"A and B must share a dimension, got {A.shape} and {B.shape}")
    ctx = {"dim": A.shape[0], "alpha": alpha, **({} if r is None else {"r": r})}
    return _view(_table(_scalar_score(_entropy_kernel)([((wa, wb, alpha), r)])), [ctx])


def check_fannes_comparison(dims: Sequence[int]):
    """Per-dimension comparison of the two |H(A) - H(B)| upper bounds at
    unit trace distance: ours = dim/e versus log(dim) + 1/e."""
    rows = []
    for dim in dims:
        if dim < 1:
            raise DomainError(f"dims must be >= 1, got {dim}")
        ours = dim / math.e
        weak = math.log(dim) + 1.0 / math.e
        tighter = ("equal" if abs(ours - weak) <= 1e-12
                   else "ours" if ours < weak else "fannes_weak")
        rows.append({"dim": int(dim), "ours": ours, "fannes_weak": weak, "tighter": tighter})
    return rows


def check_operator_mean_bounds(Z, Xs, Ys, weights, iv: Interval, r: float,
                               include_limits: bool = False):
    """Margins of the conjugation-mean bounds for weighted tuples with
    m Z <= X_i, Y_i <= M Z and equal weighted A/B sums in Z-relative terms.

    Xs/Ys may be single matrices or equal-length lists; weights must be
    positive and sum to 1.  With ``include_limits`` the two r -> 0 limit
    claims are checked as well (these need m >= 1 resp. m >= sqrt(e) to
    hold; the generator in the limits suite pins such intervals).  X_i and
    Y_i must be Hermitian, finite and of Z's shape.  One decomposition of Z
    gives the A_i = Z^(-1/2) X_i Z^(-1/2) and B_i (``oc._z_relative``) and
    Z^(1/2).  The verdicts, the sound forms, the C-term-on-the-left form at
    0 < r < 1, then the limit forms, come from the suites' kernel,
    ``_mean_blocks``, on a batch of one, which also checks the equal
    weighted sums and that the spectra of the A_i and B_i lie in iv.
    """
    Z = oc.assert_hermitian(Z, "Z")
    if isinstance(Xs, np.ndarray) and Xs.ndim == 2:
        Xs = [Xs]
    if isinstance(Ys, np.ndarray) and Ys.ndim == 2:
        Ys = [Ys]
    w = np.asarray(weights, dtype=float)
    if not (np.all(w > 0.0) and abs(w.sum() - 1.0) <= 1e-10):
        raise PreconditionError("weights must be positive and sum to 1")
    if not (len(Xs) == len(Ys) == w.size):
        raise ShapeError("Xs, Ys, weights must share a length")
    mats = [oc.assert_hermitian(M, f"{name}_{i}")
            for name, tup in (("X", Xs), ("Y", Ys)) for i, M in enumerate(tup)]
    if any(M.shape != Z.shape for M in mats):
        raise ShapeError(f"every X_i and Y_i must have Z's shape {Z.shape}")
    z_eig, rel = oc._z_relative(Z, mats)
    forms = MEAN_FORMS_SOUND + (MEAN_FORM_C_LHS,) + (MEAN_FORMS_LIMIT if include_limits else ())
    blocks = _mean_blocks([(Z, rel[:w.size], rel[w.size:], w, r, iv)], forms, [z_eig])
    return _view(_table(blocks), [{"r": r, "m": iv.m, "M": iv.M}])


# ---------------------------------------------------------------------------
# function catalog used by the suites
# ---------------------------------------------------------------------------

_CATALOG = {
    "t_log_t": FunctionSpec.t_log_t(Interval(0.0, 1.0)),
    "neg_log": FunctionSpec.neg_log(Interval(0.05, 1.0)),
    "power2": FunctionSpec.power(2.0, Interval(0.2, 2.0)),
    "tsallis_05": FunctionSpec.tsallis_f(0.5, Interval(0.0, 1.0)),
}


def function_catalog(name: str) -> FunctionSpec:
    """Named convex test functions with their standard intervals."""
    if name not in _CATALOG:
        raise DomainError(f"unknown catalog function {name!r}")
    return _CATALOG[name]


_DEFAULT_FS = tuple(_CATALOG)
_DEFAULT_ALPHAS = (0.0, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# suites: draw every trial's instance, then score them all in one batch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Suite:
    """``draw(i, rng, params, ctx)`` makes trial i's rng calls on its own rng,
    given the base context {trial, seed}, and returns the raw arrays, then the
    trial's context; ``build(draws)`` turns the draws into instances, one stack
    per step (scalar and eigensolver draws are instances); ``score(instances,
    params)`` runs the batch kernel once on them all and returns ``_table``
    blocks, instance i as trial i; ``defaults`` fill in the params left out."""

    draw: Callable
    score: Callable
    defaults: dict = field(default_factory=dict)
    build: Callable = lambda draws: draws


def _built(build):
    """The build phase of a suite whose draws are (raw, *rest): ``build``
    turns the list of raws into instance heads, and each instance is its
    head followed by the draw's rest."""
    def run(draws):
        heads = build([raw for raw, *_ in draws])
        return [(*head, *rest) for head, (_, *rest) in zip(heads, draws)]
    return run


def _cycle(seq, i):
    return seq[i % len(seq)]


# instance sizes no caller sets: matrices of a Jensen or map-sum instance,
# entries of a scalar_corollary and of a prefix (fuchs, moment) instance,
# and the cycled vector lengths of the probability suites
_MAP_N = 3
_SCALAR_N = 4
_PREFIX_N = 5
_INFO_SIZES = (2, 3, 5, 8)
_REVERSE_SIZES = (2, 3, 4, 6)
_BETA_FAMILIES = ("uniform_permutation", "doubly_stochastic_mix")
_MOMENT_ORDERS = (1, 2, 4)


def _scalar_score(kernel):
    """The score of a suite whose instances are (rows, key, ...): trials
    are grouped by key and row shape and stacked into (k, n) arrays, and
    ``kernel(key, *stacks)`` returns [(inequality id, margins, tol)], one
    margin per stacked row and the kernel's own tol, which become the
    group's blocks with its trials, stacked as one more column.  A kernel
    gives a row the bits of a batch of one, so the grouping does not show."""
    def score(instances, params=None):
        rows, keys, *_ = zip(*instances)
        blocks = []

        def solve(key, trials, *stacks):
            blocks.extend((trials, *form) for form in kernel(key, *stacks))
            return trials

        _per_group(solve, keys, range(len(rows)), *zip(*rows))
        return blocks
    return score


def _draw_jensen_instance(n, dim, iv: Interval, rng: np.random.Generator):
    """The draws of ``_gen_jensen_instance``: (weights, Gaussians of the n
    unitaries, Gaussians and spectra of the n matrices, vectors)."""
    weights = rng.dirichlet(np.ones(n))
    Gu = oc._gaussian(dim, rng, n)
    Gs, w = _draw_spectra(dim, (iv,) * n, rng)
    raw = rng.standard_normal((16, dim)) + 1j * rng.standard_normal((16, dim))
    vecs = [v for v in np.eye(dim)] + [v / np.linalg.norm(v) for v in raw]
    return weights, Gu, Gs, w, vecs


def _build_jensen_instances(draws) -> list:
    """(family, mats, vectors) of each ``_draw_jensen_instance`` draw."""
    out = []
    haar = _per_group(lambda *draw: zip(*oc._build_haar(*draw)), None,
                      *zip(*(d[1:4] for d in draws)))
    for (weights, *_, vecs), (U, H) in zip(draws, haar):
        maps = tuple(oc.WeightedConjugation(float(wi), Ui) for wi, Ui in zip(weights, U))
        out.append((oc.MapFamily(maps, U.shape[-1]), list(H), vecs))
    return out


def _gen_jensen_instance(n, dim, iv: Interval, rng: np.random.Generator):
    """(family, mats, vectors): n weighted unitary conjugations, n matrices
    with spectra in iv, the standard basis plus 16 random unit vectors."""
    return _build_jensen_instances([_draw_jensen_instance(n, dim, iv, rng)])[0]


def _draw_jensen(i, rng, params, ctx):
    dim = _cycle(params["dims"], i)
    f = function_catalog(_cycle(params["fs"], i))
    return _draw_jensen_instance(_MAP_N, dim, f.domain, rng), f, dict(ctx, dim=dim, f=f.name)


_WEIGHT_VARIANTS = ("weights_v0", "weights_v1", "weights_v2")


def _draw_weighted_instance(n, dim, iv: Interval, kind: str, rng: np.random.Generator):
    """The draws of ``_gen_weighted_instance``: (kind, weights, Gaussians and
    spectra of the A_i, Sinkhorn start matrix of the weights_v2 mix or
    None)."""
    w = rng.dirichlet(np.ones(n))
    Gs, spectra = _draw_spectra(dim, (iv,) * n, rng)
    S = None if kind in ("weights_v0", "weights_v1") else _sinkhorn_start(n, rng)
    return kind, w, Gs, spectra, S


def _build_weighted_instances(draws) -> list:
    """(As, Bs, family) of each ``_draw_weighted_instance`` draw."""
    kinds, ws, Gs, spectra, Ss = zip(*draws)
    H = [h for _, h in _per_group(lambda *draw: zip(*oc._build_haar(*draw)), None,
                                  [G[:0] for G in Gs], Gs, spectra)]
    means = _per_group(_weighted_sums, None,
                       [w[None] if kind == "weights_v0" else None for kind, w in zip(kinds, ws)], H)
    mixes = _per_group(_weighted_sums, None, _per_group(_sinkhorn, None, Ss), H)
    out = []
    for w, A, mean, mix in zip(ws, H, means, mixes):
        As = list(A)
        n, dim = len(As), A.shape[-1]
        if mean is not None:
            Bs = [mean[0]] * n
        elif mix is not None:
            # doubly stochastic mixing preserves uniform-weight sums only
            Bs = list(mix)
            w = np.full(n, 1.0 / n)
        else:
            Bs = list(As)
        out.append((As, Bs, _scalar_weight_family(w, dim)))
    return out


def _gen_weighted_instance(n, dim, iv: Interval, kind: str, rng: np.random.Generator):
    """(As, Bs, family) with scalar-weight maps Phi_i(X) = w_i X.  B is the
    all-equal-to-the-weighted-mean reduction (weights_v0), a copy of A
    (weights_v1) or a doubly stochastic mix under uniform weights
    (weights_v2)."""
    return _build_weighted_instances([_draw_weighted_instance(n, dim, iv, kind, rng)])[0]


def _draw_map_sum(i, rng, params, ctx, draw, kind):
    """A map-sum trial's draw(n, dim, f.domain, kind, rng), which the suite
    builds into (As, Bs, family)."""
    dim = _cycle(params["dims"], i)
    f = function_catalog(_cycle(params["fs"], i))
    alpha = _cycle(params["alphas"], i)
    return (draw(_MAP_N, dim, f.domain, kind, rng), f, alpha,
            dict(ctx, dim=dim, f=f.name, alpha=alpha, family=kind))


def _draw_scalar_corollary(i, rng, params, ctx):
    """Equal weighted means, or on odd trials with decreasing f the relaxed
    sum p x <= sum p y."""
    n = _SCALAR_N
    f, alpha = function_catalog(_cycle(params["fs"], i)), _cycle(params["alphas"], i)
    iv = f.domain
    if i % 2 == 1 and _is_decreasing(f, iv):
        x = rng.uniform(iv.m, iv.M, size=n)
        y = rng.uniform(iv.m, iv.M, size=n)
        p = rng.dirichlet(np.ones(n))
        if float(np.dot(p, x)) > float(np.dot(p, y)):
            x, y = y, x
        mode = MODE_RELAXED
    else:
        x, y, p = gen_equal_weighted_mean_scalars(n, iv, rng)
        mode = MODE_EQUAL
    return (p, x, y), (f, alpha, mode), dict(ctx, dim=n, alpha=alpha, f=f.name, mode=mode)


_PREFIX_INTERVAL = Interval(-1.0, 2.0)


@functools.lru_cache(maxsize=None)
def _fuchs_fs():
    """The fuchs functions, convex around _PREFIX_INTERVAL, built on first use:
    a custom FunctionSpec's convexity scan imports numpy.random."""
    dom = Interval(_PREFIX_INTERVAL.m - 0.5, _PREFIX_INTERVAL.M + 0.5)
    return tuple(FunctionSpec.custom(g, "convex", dom, name) for g, name in (
        (lambda t: np.asarray(t, dtype=float) ** 2, "t^2"),
        (lambda t: np.exp(np.asarray(t, dtype=float)), "exp(t)"),
        (lambda t: np.abs(np.asarray(t, dtype=float) - 1.0), "|t-1|")))


def _draw_fuchs(i, rng, params, ctx):
    f = _cycle(_fuchs_fs(), i)
    x_y_p = gen_fuchs_instance(_PREFIX_N, _PREFIX_INTERVAL, rng)
    return x_y_p, f, dict(ctx, dim=_PREFIX_N, f=f.name)


def _draw_moment(i, rng, params, ctx):
    order = _cycle(_MOMENT_ORDERS, i)
    x_y_p = gen_fuchs_instance(_PREFIX_N, _PREFIX_INTERVAL, rng)
    return x_y_p, order, dict(ctx, dim=_PREFIX_N, r=order)


def _draw_density_pair(i, rng, params, ctx):
    """(Gaussians of A and B, alpha, r = None, context): the draws of two
    random density matrices, which the suite builds into their spectra."""
    dim, alpha = _cycle(params["dims"], i), _cycle(params["alphas"], i)
    return oc._gaussian(dim, rng, 2), alpha, None, dict(ctx, dim=dim, alpha=alpha)


def _draw_tsallis_pair(i, rng, params, ctx):
    G, alpha, _, ctx = _draw_density_pair(i, rng, params, ctx)
    r = _cycle(params["rs"], i)
    return G, alpha, r, dict(ctx, r=r)


def _build_entropy_instances(draws) -> list:
    """((w_A, w_B, alpha), r, context) of each (G, alpha, r, context) draw:
    the spectra of its density pair, from one ``oc._build_densities`` and
    one ``oc._eigvalsh`` per dimension, on a (k, 2, d, d) stack."""
    def spectra(G):
        rho = oc._build_densities(G)
        return oc._eigvalsh(rho.reshape(-1, *rho.shape[-2:])).reshape(G.shape[:-1])
    return [((wa, wb, alpha), r, ctx) for (wa, wb), (_, alpha, r, ctx) in zip(
        _per_group(spectra, None, [G for G, *_ in draws]), draws)]


def _draw_prob_pair(i, rng, params, ctx):
    """((p, q), r, context): two Dirichlet draws floored at 1e-12."""
    n, r = _cycle(_INFO_SIZES, i), _cycle(params["rs"], i)
    p = np.maximum(rng.dirichlet(np.ones(n)), 1e-12)
    q = np.maximum(rng.dirichlet(np.ones(n)), 1e-12)
    return (p / p.sum(), q / q.sum()), r, dict(ctx, dim=n, r=r)


def _info_inequality_kernel(r, P, Q):
    """The information inequality, its r-extended form (weighted cross terms
    -sum p^(1-r) ln_r q against q = p, false for r > 1) and the agreement,
    within 1e-10, of the two r-deformed forms of the self term."""
    if not 0.0 < r <= 1.0:
        raise DomainError(f"info_inequality needs r in (0, 1], got {r}")
    info = ce._information_rows(P, Q)
    # ln_r rejects a zero of p, so every entry of p counts in the sums
    weighted_p, naive_p = ce._tsallis_rows(P, P, r)
    weighted_q, _ = ce._tsallis_cross_rows(P, Q, r)
    return [("info_inequality", info, SCALAR_TOL),
            ("r_extended_info_inequality", weighted_q - weighted_p, SCALAR_TOL),
            ("tsallis_forms_agree", 1e-10 - np.abs(weighted_p - naive_p), 0.0)]


def _draw_conditioned_pair(i, rng, params, ctx):
    """((p, q), (eps, direction), context): a floored pair whose dominance
    tag alternates."""
    n, eps = _cycle(_REVERSE_SIZES, i), params["eps"]
    direction = ce.SELF_DOMINATED if i % 2 == 0 else ce.CROSS_DOMINATED
    p, q = gen_conditioned_prob_pair(n, eps, direction, rng)
    return (p, q), (eps, direction), dict(ctx, dim=n, eps=eps, direction=direction)


def _draw_parametric_pair(i, rng, params, ctx):
    pq, (eps, direction), ctx = _draw_conditioned_pair(i, rng, params, ctx)
    r = _cycle(params["rs"], i)
    return pq, (eps, r, direction), dict(ctx, r=r)


def _ratio_diff_kernel(suite_id, rows):
    """The kernel of a reverse suite: ``rows(P, Q, *key)`` gives the ratio
    and diff margins."""
    return lambda key, P, Q: [(suite_id + form, m, SCALAR_TOL) for form, m in
                              zip(("_ratio", "_diff"), rows(P, Q, *key))]


def _draw_mean_instance(rng, dim, iv, n):
    """The draws of ``_gen_mean_instance``: Gaussians and spectra of Z and the
    A_i, and the Sinkhorn start matrix of the B_i (None for n = 1)."""
    G, w = _draw_spectra(dim, (Interval(0.5, 2.0),) + (iv,) * n, rng)
    return G, w, _sinkhorn_start(n, rng) if n > 1 else None


def _build_mean_instances(draws) -> list:
    """(Z, As, Bs, w) of each ``_draw_mean_instance`` draw, with As and Bs
    stacks (n, d, d).  With n = 1, Bs is the As object itself (which lets
    ``_mean_forms`` take Q = P); otherwise B is a doubly stochastic mix
    of the A_i under uniform weights."""
    G, w, S = zip(*draws)
    H = [h for _, h in _per_group(lambda *draw: zip(*oc._build_haar(*draw)), None,
                                  [g[:0] for g in G], G, w)]
    mixes = _per_group(_weighted_sums, None, _per_group(_sinkhorn, None, S),
                       [h[1:] for h in H])
    out = []
    for h, B in zip(H, mixes):
        As = h[1:]
        out.append((h[0], As, As, np.ones(1)) if B is None
                   else (h[0], As, B, np.full(len(As), 1.0 / len(As))))
    return out


def _gen_mean_instance(rng, dim, iv, n):
    """(Z, As, Bs, w): Z with spectrum in [0.5, 2], n matrices A_i with
    spectra in iv, and B_i with the same weighted sum."""
    return _build_mean_instances([_draw_mean_instance(rng, dim, iv, n)])[0]


def _draw_mean(i, rng, params, ctx):
    dim, r = _cycle(params["dims"], i), _cycle(params["rs"], i)
    n = 1 if i % 2 == 0 else 2
    iv = Interval(*params["interval"])
    return _draw_mean_instance(rng, dim, iv, n), r, iv, dict(ctx, dim=dim, r=r, n=n)


def _mean_score(forms):
    """Score the named ``forms`` of each built (Z, As, Bs, w, r, iv, context)
    instance, in ``_mean_blocks`` (forms that do not apply at an instance's r
    are skipped)."""
    return lambda instances, params: _mean_blocks([inst[:-1] for inst in instances], forms)


def _draw_hermitian(i, rng, params, ctx):
    """(G + G*)/2 with G complex Gaussian, dimension cycling through dims."""
    dim = _cycle(params["dims"], i)
    G = oc._gaussian(dim, rng)
    return (G + G.conj().T) / 2.0, dict(ctx, dim=dim)


_jacobi_last = {}


def _jacobi_cached(mats) -> list:
    """(w, V) of each matrix by the Jacobi oracle, in one ``oc._jacobi`` call
    (one ``oc.eigh_stack`` per ring size).  The last input and its result
    are kept: under ``--suite all`` the eigensolver and
    eigensolver_crosscheck suites solve the same draws, and Jacobi runs
    once."""
    key = (oc._jacobi, oc.eigh_stack, tuple(M.tobytes() for M in mats))
    if _jacobi_last.get("key") != key:
        _jacobi_last.update(key=key, value=oc._jacobi(mats))
    return _jacobi_last["value"]


def _jacobi_residuals(A, w, V):
    """(reconstruction, unitarity) residuals of Jacobi's (w, V) for a stack A."""
    rec = V @ (w[:, :, None] * np.swapaxes(V, 1, 2).conj()) - A
    rec_res = np.linalg.norm(rec, axis=(1, 2)) / np.maximum(
        1.0, np.linalg.norm(A, axis=(1, 2)))
    uni_res = np.linalg.norm(V @ np.swapaxes(V, 1, 2).conj() - np.eye(A.shape[1]),
                             axis=(1, 2))
    return np.stack([rec_res, uni_res], axis=1)


def _score_eigensolver(instances, params):
    # the margin is _EIG_RESIDUAL_TOL - residual, with tol 0
    mats = [M for M, *_ in instances]
    residuals = np.array(_per_group(_jacobi_residuals, None, mats, *zip(*_jacobi_cached(mats))))
    return [(np.arange(len(mats)), name, _EIG_RESIDUAL_TOL - res, 0.0)
            for name, res in zip(("eig_reconstruction", "eig_unitarity"), residuals.T)]


# Jacobi and LAPACK eigenvalues must agree within 16 d eps max(1, ||A||_F);
# the worst difference measured on this suite's matrices (1500 trials at
# each of seeds 0, 7 and 1000) is 2.10 d eps ||A||_F
_CROSSCHECK_ULPS = 16.0


def _crosscheck(A, w):
    """(max_i |w_J,i - w_L,i|, 16 d eps max(1, ||A||_F)) for a stack A with
    Jacobi eigenvalues w: Jacobi (the oracle) against LAPACK (the margin
    path) and the bound on their distance."""
    diff = np.abs(w - oc._eigvalsh(A)).max(axis=1)
    bound = _CROSSCHECK_ULPS * A.shape[1] * np.finfo(float).eps * np.maximum(
        1.0, np.linalg.norm(A, axis=(1, 2)))
    return np.stack([diff, bound], axis=1)


def _score_crosscheck(instances, params):
    mats = [M for M, *_ in instances]
    evals = [w for w, _ in _jacobi_cached(mats)]
    diff, bound = np.array(_per_group(_crosscheck, None, mats, evals)).T
    return [(np.arange(len(mats)), "eig_crosscheck", bound - diff, 0.0)]


_MAP_SUM_DEFAULTS = {"dims": (2, 4, 8), "fs": _DEFAULT_FS, "alphas": _DEFAULT_ALPHAS}
_DENSITY_DEFAULTS = {"dims": (2, 3, 4, 5, 6, 7, 8), "alphas": _DEFAULT_ALPHAS}
_REVERSE_DEFAULTS = {"eps": 0.05}
_MEAN_DEFAULTS = {"dims": (2, 3, 4, 6), "interval": (1.7, 5.1)}
_EIG_DIMS = {"dims": tuple(range(2, 17))}

# A suite's draw reads only the params it names, and no score reads any: the
# CLI passes one params dict (dims, rs, alphas, eps, interval) to every suite,
# so reverse_shannon keeps r unset, entropy_vn ignores rs, and fuchs and
# moment draw from _PREFIX_INTERVAL, not the operator-mean "interval".
_SUITES: Dict[str, _Suite] = {
    "lemma_jensen": _Suite(
        _draw_jensen, lambda insts, p: _jensen_blocks(insts),
        {"dims": (2, 3, 4, 6, 8), "fs": _DEFAULT_FS},
        _built(_build_jensen_instances)),
    "theorem_beta": _Suite(
        lambda i, rng, p, ctx: _draw_map_sum(i, rng, p, ctx, _draw_equal_map_sum,
                                             _cycle(_BETA_FAMILIES, i)),
        lambda insts, p: _map_sum_blocks(insts, "theorem_beta"),
        _MAP_SUM_DEFAULTS, _built(_build_equal_map_sums)),
    "corollary_weighted": _Suite(
        lambda i, rng, p, ctx: _draw_map_sum(i, rng, p, ctx, _draw_weighted_instance,
                                             _cycle(_WEIGHT_VARIANTS, i)),
        lambda insts, p: _map_sum_blocks(insts, "corollary_weighted"),
        _MAP_SUM_DEFAULTS, _built(_build_weighted_instances)),
    "scalar_corollary": _Suite(
        _draw_scalar_corollary, _scalar_score(_scalar_corollary_kernel),
        {"fs": _DEFAULT_FS, "alphas": _DEFAULT_ALPHAS}),
    "fuchs": _Suite(
        _draw_fuchs,
        _scalar_score(lambda f, X, Y, P: [("fuchs_margin", mj._fuchs_rows(f, X, Y, P),
                                           SCALAR_TOL)])),
    "moment": _Suite(
        _draw_moment,
        _scalar_score(lambda order, X, Y, P: [(
            "moment_margin",
            mj._moment_rows(P / np.sum(P, axis=-1, keepdims=True), X, Y, order), SCALAR_TOL)])),
    "entropy_vn": _Suite(_draw_density_pair, _scalar_score(_entropy_kernel), _DENSITY_DEFAULTS,
                         _build_entropy_instances),
    "entropy_tsallis": _Suite(_draw_tsallis_pair, _scalar_score(_entropy_kernel),
                              {**_DENSITY_DEFAULTS, "rs": (0.1, 0.5, 0.9)},
                              _build_entropy_instances),
    "info_inequality": _Suite(
        _draw_prob_pair, _scalar_score(_info_inequality_kernel),
        {"rs": (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)}),
    "reverse_shannon": _Suite(
        _draw_conditioned_pair,
        _scalar_score(_ratio_diff_kernel("reverse_shannon", ce._reverse_shannon_rows)),
        _REVERSE_DEFAULTS),
    "parametric_reverse": _Suite(
        _draw_parametric_pair,
        _scalar_score(_ratio_diff_kernel("parametric_reverse", ce._parametric_reverse_rows)),
        {**_REVERSE_DEFAULTS, "rs": (0.1, 0.5, 1.0, 2.0)}),
    "operator_means": _Suite(_draw_mean, _mean_score(MEAN_FORMS_SOUND),
                             {**_MEAN_DEFAULTS, "rs": (1.0, 1.7, 3.0, -0.8, -2.0, 0.3, 0.6)},
                             _built(_build_mean_instances)),
    # the default interval has m >= sqrt(e), so both r -> 0 limit claims hold
    "mean_limits": _Suite(_draw_mean, _mean_score(MEAN_FORMS_SOUND + MEAN_FORMS_LIMIT),
                          {**_MEAN_DEFAULTS, "rs": (0.3,)}, _built(_build_mean_instances)),
    "eigensolver": _Suite(_draw_hermitian, _score_eigensolver, _EIG_DIMS),
    "eigensolver_crosscheck": _Suite(_draw_hermitian, _score_crosscheck, _EIG_DIMS),
}

#: excluded from "all": the C-term-on-the-left orientation of the 0 < r < 1
#: difference bound fails by construction whenever X = Y (the C-term is
#: negative in this regime), and is reported separately for inspection
_EXTRA_SUITES: Dict[str, _Suite] = {
    "mean_c_lhs_variant": _Suite(_draw_mean, _mean_score((MEAN_FORM_C_LHS,)),
                                 {**_MEAN_DEFAULTS, "rs": (0.3, 0.6)},
                                 _built(_build_mean_instances)),
}


def suite_ids(include_extra: bool = False):
    return list(_SUITES) + (list(_EXTRA_SUITES) if include_extra else [])


def run_suite(suite_id: str, trials: int, seed: int, params: Optional[dict] = None,
              keep_verdicts: bool = False):
    """Run a named suite in three phases: draw ``trials`` independent
    trials, trial i from the stream of ``SeedSequence(seed,
    spawn_key=(i,))``, all the trials seeded in one pass; build their
    instances, the blocks of one shape in one stack per step; and score
    them in one batch.  Returns a TrialReport that keeps the scored columns;
    with ``keep_verdicts`` it carries the verdict list as ``report.verdicts``."""
    suite = _SUITES.get(suite_id) or _EXTRA_SUITES.get(suite_id)
    if suite is None:
        raise DomainError(f"unknown suite {suite_id!r}; known: {suite_ids(True)}")
    if trials < 0:
        raise DomainError("trials must be >= 0")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    params = {**suite.defaults, **(params or {})}
    t0 = time.perf_counter()
    draws = [suite.draw(i, rng, params, {"trial": i, "seed": seed})
             for i, rng in enumerate(_trial_rngs(seed, range(trials)))]
    table = _, _, margins, tols, _ = _table(suite.score(suite.build(draws), params) if draws
                                            else [(np.zeros(0, dtype=int), "", np.zeros(0), 0.0)])
    elapsed = int((time.perf_counter() - t0) * 1000)
    contexts = [draw[-1] for draw in draws]
    report = TrialReport(suite_id, trials, int(np.count_nonzero(~(margins >= -tols))), None, {},
                         elapsed, (table, contexts))
    if margins.size:  # the worst row: the first least margin in trial order
        worst = int(np.argmin(margins))
        report.min_margin = float(margins[worst])
        report.worst_context = dict(*_contexts(contexts, table, slice(worst, worst + 1)))
    if keep_verdicts:
        report.verdicts = _view(table, contexts)
    return report


# ---------------------------------------------------------------------------
# closed-form vs oracle sweep
# ---------------------------------------------------------------------------

_EPS_GRID = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
_R_GRID = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0)
_H_GRID = (1.1, 1.5, 2.0, 5.0, 10.0, 50.0, 100.0)


def oracle_row(name: str, params: dict, closed, oracle) -> dict:
    """A closed-form vs oracle row, both values as floats, and their distance."""
    closed, oracle = float(closed), float(oracle)
    return {"name": name, "params": params, "closed_form": closed,
            "oracle_value": oracle, "abs_diff": abs(closed - oracle)}


def _sweep_cases():
    """(name, params, closed form, oracle value) of every cataloged closed
    form.  Two closed forms of one oracle value (log S(eps) and C(eps, -log))
    share one oracle call."""
    iv01 = Interval(0.0, 1.0)
    f_tlogt = FunctionSpec.t_log_t(iv01)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        yield ("beta_t_log_t", {"alpha": alpha},
               sb.beta_constant(f_tlogt, iv01, alpha), sb.beta_oracle(f_tlogt, iv01, alpha))
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            f = FunctionSpec.tsallis_f(r, iv01)
            yield ("beta_tsallis", {"alpha": alpha, "r": r},
                   sb.beta_constant(f, iv01, alpha), sb.beta_oracle(f, iv01, alpha))
    for eps in _EPS_GRID:
        ive = Interval(eps, 1.0)
        f = FunctionSpec.neg_log(ive)
        yield ("ratio_neg_log", {"eps": eps},
               sb.ratio_constant(f, ive), sb.ratio_oracle(f, ive))
        diff = sb.diff_oracle(f, ive)
        yield ("diff_neg_log", {"eps": eps}, sb.diff_constant(f, ive), diff)
        yield ("log_specht_via_diff", {"eps": eps}, math.log(sb.specht(eps)), diff)
        for r in _R_GRID:
            fr = FunctionSpec.ln_r_reciprocal(r, ive)
            yield ("ratio_ln_r", {"eps": eps, "r": r},
                   sb.ratio_constant(fr, ive), sb.ratio_oracle(fr, ive))
            yield ("ls_r_via_diff", {"eps": eps, "r": r},
                   sb.ls_r_constant(eps, r), sb.diff_oracle(fr, ive))
    for h in _H_GRID:
        for r in (-2.0, -1.0, 0.3, 0.5, 0.7, 2.0, 3.0):
            ivh = Interval(1.0, h)
            fp = FunctionSpec.power(r, ivh)
            yield ("kantorovich", {"h": h, "r": r},
                   sb.kantorovich(h, r), sb.ratio_oracle(fp, ivh))
            yield ("c_of_hr", {"h": h, "r": r, "m": 1.0},
                   sb.c_of_hr(1.0, h, r), sb.diff_oracle(fp, ivh))


def oracle_sweep():
    """(``oracle_row`` of every cataloged closed form against the grid-zoom
    oracle ``scalar_bounds.interval_max``, worst abs_diff)."""
    rows = [oracle_row(*case) for case in _sweep_cases()]
    return rows, max(row["abs_diff"] for row in rows)
