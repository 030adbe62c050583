"""Randomized verification: hypothesis-respecting generators, margin
checkers for every inequality, and deterministic report aggregation.

A verdict is its margin: R - L for a scalar inequality L <= R, and the
smallest eigenvalue of R - L for an operator one.  It passes when the margin
is at least -tol, a constant of its kernel: OPERATOR_TOL for the map-sum and
mean forms, 0 for a margin that subtracts its own bound, SCALAR_TOL for the
rest.  A check never "fixes up" its inputs: hypothesis violations raise, and
so do parameters outside an inequality's domain, in the kernel that a suite
and its checker share.

``run_suite`` is the one trial loop.  A suite (``_Suite``) is a draw, a
build and a score function and its default params, run in three phases.
The draw alone reads params, exactly the keys its defaults name; a key no
suite reads, or a value ``_PARAM_CHECKS`` rejects, raises DomainError.  The
draw makes trial i's rng calls on its own stream, that of
``numpy.random.SeedSequence(seed, spawn_key=(i,))``, and nothing else, and
returns the raw arrays, the trial's key and its context.  A suite seeds all
its trials in one pass (``_trial_rngs``), bit for bit numpy's own seeding.

Every suite keeps its instances as stacks from build to score.  The build
(``_stacks_built``) gives each trial's key and, per row shape, the trial
indices and one array per column, made one stacked step at a time: the
Dirichlet and uniform maps of numpy's primitive draws (``_dirichlet_rows``,
``_uniform``); the rejection screens, where a trial whose first block holds
no accepted draw resumes its own stream from its saved state
(``_first_accepted``); the prefix constructions, the Sinkhorn sweeps
(``_sinkhorn``) and ``operator_calculus``' QR-built matrices and densities.
A matrix suite's build also decomposes all its matrices, one ``oc._eigh``
per dimension (``_decomposed``), and the eigensolver pair's build runs the
Jacobi oracle once for both suites (``_build_jacobi``).  ``_groups`` forms
the stacks, grouping entries by key and shape.  The score
(``_stack_score``) splits each stack by key and runs the suite's kernel
once per part, which validates the part, computes its constants once and
returns (inequality id, margins, tol) columns.  A map-sum row holds the
index of each B_i among its matrices, so a permuted B_i is its A_j, and an
operator-mean row with n = 1 has no B_i, so Q = P.  Every build and kernel
step treats a row on its own (reductions along its own axis, BLAS and LAPACK
matrix, elementwise arithmetic), so a row gets the bits of a batch of one
in any stack or part and reports do not depend on batching.  The public
generators are batches of one of their suite's draw and build on the
caller's rng, and a public ``check_*`` function validates the rest of its
input and runs its suite's kernel on a stack of one row, so its margins and
errors equal the suite's.

Every score returns such columns plus each row's trial, ``_table`` sorts
them into trial order, ``run_suite`` reduces them and keeps them for
``verdict_csv_rows``, which writes them as CSV text, and ``_view`` alone
builds ``InequalityVerdict``s.
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
from .functions import FunctionSpec, Interval, _is_int, _open_interval

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
    for ``verdict_csv_rows``, and ``to_dict`` leaves it and ``elapsed_ms``
    out."""

    suite_id: str
    trials: int
    failures: int
    min_margin: Optional[float]
    worst_context: dict
    elapsed_ms: int
    _scored: Optional[tuple] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"suite_id": self.suite_id, "trials": self.trials, "failures": self.failures,
                "min_margin": self.min_margin, "worst_context": self.worst_context}


def report_to_json(reports: Sequence[TrialReport]) -> str:
    """Deterministic JSON for a list of reports: no timing, so identical
    seeds give byte-identical output."""
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n"


_CSV_FIELDS = ("suite_id", "trial", "margin", "pass",
               "dim", "r", "alpha", "eps", "seed", "inequality_id")
_CSV_CHUNK = 1024  # rows per chunk of verdict_csv_rows' text


def _csv_cell(value) -> str:
    """A value as ``csv.writer``'s excel dialect writes it: None empty, a
    float (a numpy float64 too) by float's own ``repr``, anything else by
    ``str``, and quoted, with its quotes doubled, where it holds a comma, a
    quote or a line break."""
    text = "" if value is None else float.__repr__(value) if isinstance(value, float) else str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _context_cells(contexts, keys) -> list:
    """Each context's CSV cells of ``keys``, joined by commas.  The cells
    of one tuple of value objects are formatted once: the contexts keep
    those objects alive meanwhile, so no other tuple has their ids."""
    memo, out = {}, []
    for ctx in contexts:
        ids = tuple([id(ctx.get(key, "")) for key in keys])
        cells = memo.get(ids)
        if cells is None:
            cells = memo[ids] = ",".join([_csv_cell(ctx.get(key, "")) for key in keys])
        out.append(cells)
    return out


def verdict_csv_rows(reports: Sequence[TrialReport]):
    """CSV text of ``run_suite`` reports, byte for byte what ``csv.writer``
    writes of their rows: the header line, then each report's rows, in
    chunks of at most _CSV_CHUNK lines, each ended by CRLF.  A row is its
    report's suite id, its trial's context cells, its margin's ``repr`` and
    pass flag from the report's scored columns, and last the inequality id,
    after the documented columns; each trial's cells and each id's are
    formatted once.  A report that ``run_suite`` did not make has no
    columns: DomainError."""
    yield ",".join(_CSV_FIELDS) + "\r\n"
    flags = (",0,", ",1,")
    for rep in reports:
        if rep._scored is None:
            raise DomainError(f"suite {rep.suite_id!r}: only run_suite's reports have CSV rows")
        (trial, ids, margins, tols, _), contexts = rep._scored
        suite = _csv_cell(rep.suite_id)
        # the cells before the margin, and those after the pass flag up to the id
        heads = [f"{suite},{_csv_cell(ctx.get('trial', ''))}," for ctx in contexts]
        tails = [cells + "," for cells in _context_cells(contexts, _CSV_FIELDS[4:9])]
        ends = {name: _csv_cell(name) + "\r\n" for name in set(ids)}
        trial, margins, passed = trial.tolist(), margins.tolist(), (margins >= -tols).tolist()
        for start in range(0, len(margins), _CSV_CHUNK):
            rows = slice(start, start + _CSV_CHUNK)
            yield "".join([f"{heads[t]}{margin!r}{flags[ok]}{tails[t]}{ends[name]}"
                           for t, margin, ok, name in zip(trial[rows], margins[rows],
                                                          passed[rows], ids[rows])])


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """numpy's ``default_rng(SeedSequence(seed, spawn_key=(trial,)))``, the stream
    of trial ``trial`` in ``run_suite``, which spawns that sequence's children."""
    if not (_is_int(seed) and _is_int(trial)) or seed < 0 or trial < 0:
        raise DomainError(f"seed and trial must be integers >= 0, got seed {seed!r} "
                          f"and trial {trial!r}")
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
# first block of either rejection sampler: a standard_exponential or
# random call has a fixed cost of about 0.7 us, that of some 40 to 60 rows
# of 4 doubles, and about one pair in nine is accepted.  16 rows leave 14%
# of scalar_corollary's equal-mean trials to resume, where one row left 63%
# (20 seeds of 384 trials; 15% of pairs).  First blocks of 8 to 32 timed
# fastest on the three rejection suites (1 to 128 tried, 384 trials)
_FIRST_BLOCK = 16


def _dirichlet_rows(E) -> np.ndarray:
    """Dirichlet(1, ..., 1) rows from rows of standard exponentials E
    (..., n): each row times 1 / its sum, the sum added column by column
    in index order.  On the numbers of ``Generator.standard_exponential``
    this is bit for bit ``Generator.dirichlet`` with all-ones alpha on the
    same stream, which draws those numbers and maps each row so;
    ``np.sum``'s pairwise order gives other bits from n = 8 on."""
    acc = E[..., 0]
    for j in range(1, E.shape[-1]):
        acc = acc + E[..., j]
    return E * (1.0 / acc)[..., None]


def _uniform(U, lo: float, hi: float) -> np.ndarray:
    """lo + (hi - lo) U: on the doubles U of ``Generator.random`` this is
    bit for bit ``Generator.uniform(lo, hi)`` on the same stream.  A width
    hi - lo that overflows raises DomainError (``oc._width``)."""
    return lo + oc._width(lo, hi) * U


def _first_block(first, width):
    """The size of a rejection sampler's first block: ``first`` draws, or
    fewer where _REDRAW_CAP or _REDRAW_BLOCK doubles of ``width`` per draw
    bound it (one draw at the least, but none under a cap of 0)."""
    return min(first, _REDRAW_CAP, max(1, _REDRAW_BLOCK // width))


def _resume_rng() -> np.random.Generator:
    """A generator for the suite trials that resume: each sets its saved
    state on it."""
    return np.random.Generator(np.random.PCG64(_unseeded()))


def _first_accepted(rng, draw, screen, done, width):
    """The item of the first of draws ``done`` to _REDRAW_CAP that
    ``screen`` accepts, or None where it accepts none.  Draws 0 to ``done``
    are the first block, which the build screened, and ``rng`` stands at the
    state saved after it.

    ``draw(rng, k)`` makes k draws in one call, which gives the same numbers
    as k single draws, and returns them as a block; ``screen(block)``
    returns the block's items and the mask of those it accepts, by the
    row-wise expression that screened the first block.  The blocks double
    from the first block's size, capped at _REDRAW_BLOCK doubles of
    ``width`` per draw.  The rng ends after the last block: after the one
    that holds the item, or after draw _REDRAW_CAP, where the one-draw loop
    would end too."""
    cap, k = _REDRAW_CAP, 2 * done
    while done < cap:
        k = min(k, cap - done, max(1, _REDRAW_BLOCK // width))
        items, ok = screen(draw(rng, k))
        if ok.any():
            return items[ok.argmax()]
        done += k
        k *= 2
    return None


def _first_hits(hits) -> np.ndarray:
    """The index of the first True of each row of a (k, b) mask, -1 where
    a row has none."""
    if not hits.shape[-1]:
        return np.full(len(hits), -1)
    return np.where(hits.any(axis=-1), hits.argmax(axis=-1), -1)


def gen_equal_weighted_mean_scalars(n: int, iv: Interval, rng: np.random.Generator):
    """(x, y, p) with positive p summing to 1, entries in [m, M], and equal
    weighted means.  y is free; x_0 is solved for, redrawing the other
    coordinates until it lands inside the interval (cap 1e5).

    A tiny p_0 can exhaust the cap.  Then x is built one coordinate at a
    time in increasing weight, each drawn from the range that still lets the
    remaining weight reach the target, and the heaviest is solved last.

    A batch of one of scalar_corollary's sampler on ``rng``:
    ``_draw_equal_mean`` draws p, y and the first block of x draws, and
    ``_equal_means`` screens that block and draws further blocks while none
    is accepted.  The values are those of the one-draw loop; the rng ends
    after the last block drawn (or after the construction), which can lie
    past the one-draw loop's accepted draw.
    """
    ((_, P, X, Y),) = _equal_means([_draw_equal_mean(n, rng)], [iv], rng)
    return X[0], Y[0], P[0]


def _draw_equal_mean(n: int, rng: np.random.Generator):
    """The draw phase of the equal-mean sampler, for an integer n >= 2: the
    exponentials of p, the doubles of y and of the first block of x draws
    (k, n), and the rng state after them."""
    if not _is_int(n) or n < 2:
        raise DomainError(f"need an integer n >= 2 scalars, got {n!r}")
    return (rng.standard_exponential(n), rng.random(n),
            rng.random((_first_block(_FIRST_BLOCK, n), n)), rng.bit_generator.state)


def _x0_screen(X, P, T, iv):
    """The draws X (..., b, n) with x_0 = (t - sum_{i>0} p_i x_i) / p_0
    solved for, and the mask (..., b) of those whose x_0 lies in [m, M],
    for weights P (..., n) and targets T (...).  Row sums, not a matrix
    product: a draw gets the bits of its one-draw expression in any
    stack."""
    x0 = (T[..., None] - np.sum(P[..., None, 1:] * X[..., 1:], axis=-1)) / P[..., :1]
    X = X.copy()
    X[..., 0] = x0
    return X, (iv.m <= x0) & (x0 <= iv.M)


def _equal_means(draws, ivs, rng) -> list:
    """(trials, P, X, Y) of the ``_draw_equal_mean`` draws of each interval
    and shape, row j that of draw trials[j].

    The draws of one interval and shape are mapped in one stack, p by
    ``_dirichlet_rows`` and y and the first blocks of x by ``_uniform``,
    and the first blocks are screened in one stack (``_x0_screen``), each
    trial's target its row sum of p y.  A trial whose first block holds no
    accepted draw sets its saved state on ``rng`` and draws further blocks
    (``_first_accepted``); one that exhausts _REDRAW_CAP draws builds x
    coordinate-wise (``_construct_x``) on the same stream."""
    out = []
    for (iv,), trials, E, U, B in _groups(ivs, *([draw[c] for draw in draws] for c in range(3))):
        n = E.shape[-1]
        P, Y, B = _dirichlet_rows(E), _uniform(U, iv.m, iv.M), _uniform(B, iv.m, iv.M)
        T = np.sum(P * Y, axis=-1)
        solved, ok = _x0_screen(B, P, T, iv)
        first = _first_hits(ok)
        hit = np.flatnonzero(first >= 0)
        X = np.empty_like(P)
        X[hit] = solved[hit, first[hit]]
        for j in np.flatnonzero(first < 0).tolist():
            p, t = P[j], T[j]
            rng.bit_generator.state = draws[trials[j]][3]
            x = _first_accepted(rng, lambda rng, k: _uniform(rng.random((k, n)), iv.m, iv.M),
                                lambda block: _x0_screen(block, p, t, iv), B.shape[1], n)
            X[j] = _construct_x(iv, p, t, rng) if x is None else x
        out.append((trials, P, X, Y))
    return out


def _construct_x(iv, p, target, rng) -> np.ndarray:
    """x with sum p x = target and entries in [m, M], built one coordinate at
    a time in increasing weight, each drawn from the range that still lets
    the remaining weight reach the target; the heaviest is solved last."""
    x = np.empty(len(p))
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
    return x


def sinkhorn_doubly_stochastic(n: int, rng: np.random.Generator, iters: int = 200) -> np.ndarray:
    """Doubly stochastic matrix via Sinkhorn normalization of a positive
    random matrix (full support): ``iters`` row-then-column sweeps and a
    final row normalization.  n must be an integer >= 1 and iters an
    integer >= 0, else DomainError.

    The draw is ``_sinkhorn_start``; the sweeps are a batch of one of
    ``_sinkhorn``, which the suites run in their build phase on the start
    matrices of all their trials of one n."""
    if not (_is_int(n) and _is_int(iters)) or n < 1 or iters < 0:
        raise DomainError(f"need integers n >= 1 and iters >= 0, got n={n!r} and iters={iters!r}")
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
    spectra in the intervals ivs, the numbers of one ``oc._draw_spectrum``
    each (a Gaussian's real and imaginary parts, then the spectrum), drawn
    into preallocated buffers.  An interval whose width overflows raises
    DomainError before any draw."""
    for iv in ivs:
        oc._width(iv.m, iv.M)
    X, w = np.empty((len(ivs), 2, dim, dim)), np.empty((len(ivs), dim))
    for Xj, wj, iv in zip(X, w, ivs):
        rng.standard_normal(out=Xj)
        wj[:] = rng.uniform(iv.m, iv.M, size=dim)
    return X[:, 0] + 1j * X[:, 1], w


FAMILY_KINDS = ("uniform_permutation", "doubly_stochastic_mix", "normalized_trace")


def _draw_equal_map_sum(n: int, dim: int, iv: Interval, family_kind: str,
                        rng: np.random.Generator):
    """The draws of ``gen_equal_map_sum_operators``, for integers n, dim >= 1:
    (kind, G, w, extra) with the family's unitary and the A_i's Gaussians G
    and spectra w and the permutation or the Sinkhorn start matrix extra;
    or, for normalized_trace, the 2n Gaussians G of the densities and the
    exponentials w of the family weights."""
    if not (_is_int(n) and _is_int(dim)) or n < 1 or dim < 1:
        raise DomainError(f"need integers n >= 1 and dim >= 1, got n={n!r} and dim={dim!r}")
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
        w = rng.standard_exponential(n)
        return family_kind, oc._gaussian(dim, rng, 2 * n), w, None
    raise DomainError(f"unknown family kind {family_kind!r}")


def _build_equal_map_sums(raws) -> list:
    """(trials, M, bidx, *params) of the ``_draw_equal_map_sum`` draws of
    each kind and shape, row j that of draw trials[j].  M (k, m, d, d) holds
    a row's A_i and then those of its B_i that are no A_j, bidx (k, n) the
    index of each B_i in M (a permuted B_i is its A_j), and params is the
    family stack of the rows' maps (``oc._map_family_sums``)."""
    out = []
    for (kind,), trials, G, w in _groups([raw[0] for raw in raws], [raw[1] for raw in raws],
                                         [raw[2] for raw in raws]):
        k, n = w.shape[:2]
        own = np.broadcast_to(np.arange(n, 2 * n), (k, n))
        if kind == "normalized_trace":
            p = _dirichlet_rows(w)
            out.append((trials, oc._build_densities(G), own, *p.T))
            continue
        U, H = oc._build_haar(G[:, :1], G[:, 1:], w)
        extra = np.stack([raws[t][3] for t in trials.tolist()])
        if kind == "uniform_permutation":
            M, bidx = H, extra
        else:
            M, bidx = np.concatenate([H, _weighted_sums(_sinkhorn(extra), H)], axis=1), own
        out.append((trials, M, bidx, *[np.full(k, 1.0 / n), U[:, 0]] * n))
    return out


def _map_sum_instance(kinds, M, bidx, params):
    """(As, Bs, family) of row 0 of a map-sum stack: a batch of one back to
    its matrices and maps."""
    n = bidx.shape[1]
    return list(M[0, :n]), list(M[0, bidx[0]]), oc._family_of(kinds, params, M.shape[-1])


def gen_equal_map_sum_operators(n: int, dim: int, iv: Interval, family_kind: str,
                                rng: np.random.Generator):
    """(As, Bs, family) with spectra in [m, M] and equal map-sums.

    uniform_permutation: identical conjugation maps with uniform weights,
    B a permutation of A.  doubly_stochastic_mix: same maps, B_i a doubly
    stochastic mixture of the A_j (spectra stay inside [m, M]).
    normalized_trace: trace maps with density-matrix inputs, where the
    constraint holds automatically.  n and dim must be integers >= 1, else
    DomainError.
    """
    ((_, M, bidx, *params),) = _build_equal_map_sums(
        [_draw_equal_map_sum(n, dim, iv, family_kind, rng)])
    kind = oc.NormalizedTrace if family_kind == "normalized_trace" else oc.WeightedConjugation
    return _map_sum_instance((kind,) * n, M, bidx, params)


def gen_conditioned_prob_pair(n: int, eps: float, direction: str, rng: np.random.Generator):
    """(p, q) with components in [eps, 1] and the declared inner-product
    condition; rejection sampling over floored Dirichlet draws (at most
    _REDRAW_CAP pairs), p and q interleaved (2k draws of size n give the
    same numbers as one (2k, n) draw).  The first pair whose
    ``ce._condition_gap`` is at most PROB_TOL is taken, which is the pair
    ``condition_tag_holds`` takes.

    A batch of one of the reverse suites' sampler on ``rng``:
    ``_draw_pair_block`` draws the first block of _FIRST_BLOCK pairs, and
    ``_conditioned_pairs`` screens that block and draws further blocks
    while none is accepted.  The pair is that of the one-pair-at-a-time
    loop; the rng ends after the last block drawn, which can lie past the
    pair taken."""
    keys = [(eps, direction)]
    stacks = _conditioned_pairs([_draw_pair_block(n, eps, rng)], keys, rng)
    _check_taken(keys, stacks)
    ((_, P, Q),) = stacks
    return P[0], Q[0]


def _draw_pair_block(n: int, eps: float, rng: np.random.Generator):
    """The draw phase of the conditioned-pair sampler: the exponentials
    (2k, n) of the first block of Dirichlet draws, p and q interleaved, and
    the rng state after them.  n must be an integer >= 1 and eps a finite
    floor with 0 < eps and n eps < 1."""
    if not _is_int(n) or n < 1:
        raise DomainError(f"need an integer n >= 1, got {n!r}")
    if not (_is_real(eps) and 0.0 < eps < math.inf):
        raise DomainError(f"need a finite floor eps > 0, got {eps!r}")
    if n * eps >= 1.0:
        raise DomainError(f"floor {eps} is infeasible for n={n}")
    return (rng.standard_exponential((2 * _first_block(_FIRST_BLOCK, 2 * n), n)),
            rng.bit_generator.state)


def _pair_screen(D, eps, direction):
    """The floored pairs F (..., k, 2, n) = eps + (1 - n eps) D of blocks of
    Dirichlet draws D (..., 2k, n), p and q interleaved, and the mask
    (..., k) of the pairs whose ``ce._condition_gap`` is at most PROB_TOL."""
    n = D.shape[-1]
    F = (eps + (1.0 - n * eps) * D).reshape(*D.shape[:-2], -1, 2, n)
    return F, ce._condition_gap(F[..., 0, :], F[..., 1, :], direction) <= ce.PROB_TOL


def _conditioned_pairs(draws, keys, rng) -> list:
    """(trials, P, Q) of the ``_draw_pair_block`` draws of each key (eps,
    direction) and shape, row j that of draw trials[j]: the pair taken, or
    NaN rows where a trial takes none.  The first blocks of one key and
    shape are mapped (``_dirichlet_rows``) and screened (``_pair_screen``)
    in one stack, and a trial whose first block holds no accepted pair sets
    its saved state on ``rng`` and draws further blocks
    (``_first_accepted``)."""
    out = []
    for ((eps, direction),), trials, E in _groups(keys, [E for E, _ in draws]):
        n = E.shape[-1]
        F, ok = _pair_screen(_dirichlet_rows(E), eps, direction)
        first = _first_hits(ok)
        hit = np.flatnonzero(first >= 0)
        P, Q = np.full((len(E), n), np.nan), np.full((len(E), n), np.nan)
        P[hit], Q[hit] = F[hit, first[hit], 0], F[hit, first[hit], 1]
        for j in np.flatnonzero(first < 0).tolist():
            rng.bit_generator.state = draws[trials[j]][1]
            pair = _first_accepted(rng, lambda rng, k: _dirichlet_rows(
                                       rng.standard_exponential((2 * k, n))),
                                   lambda block: _pair_screen(block, eps, direction),
                                   F.shape[1], 2 * n)
            if pair is not None:
                P[j], Q[j] = pair
        out.append((trials, P, Q))
    return out


def _check_taken(keys, stacks):
    """GeneratorExhausted naming the key (eps, ..., direction) of the first
    trial, in trial order, whose conditioned-pair sampler took no pair:
    a NaN row of the (trials, P, ...) stacks."""
    missing = [t for trials, P, *_ in stacks for t in trials[np.isnan(P[:, 0])].tolist()]
    if missing:
        eps, *_, direction = keys[min(missing)]
        raise GeneratorExhausted(
            f"no ({direction}) pair with floor {eps} after {_REDRAW_CAP} draws")


def gen_fuchs_instance(n: int, iv: Interval, rng: np.random.Generator):
    """(x, y, p) satisfying the weighted prefix conditions by construction:
    y decreasing, p positive, and x built from y by averaging n random
    adjacent pairs (weighted), which preserves the weighted total and can
    only lower prefix sums.  All three arrays are C-contiguous.  A batch of
    one of the prefix suites' draw and build."""
    ((_, X, Y, P),) = _build_fuchs_stacks([_draw_fuchs_instance(n, rng)], iv)
    return X[0], Y[0], P[0]


def _draw_fuchs_instance(n: int, rng: np.random.Generator):
    """The draws of ``gen_fuchs_instance``, for an integer n >= 2: the
    doubles of y and of p, and the n pair indices of the averaging steps."""
    if not _is_int(n) or n < 2:
        raise DomainError(f"need an integer n >= 2, got {n!r}")
    return rng.random(n), rng.random(n), rng.integers(0, n - 1, size=n)


def _build_fuchs_stacks(draws, iv: Interval) -> list:
    """(trials, X, Y, P) of the ``_draw_fuchs_instance`` draws of each n,
    row j that of draw trials[j]: y uniform on iv (``_uniform``) and sorted
    decreasing, p uniform on [0.2, 1], and each averaging step on every
    row at once, with the one-row arithmetic."""
    out = []
    for _, trials, U, P, steps in _groups(None, *zip(*draws)):
        Y = np.ascontiguousarray(np.sort(_uniform(U, iv.m, iv.M), axis=-1)[:, ::-1])
        P = _uniform(P, 0.2, 1.0)
        X, rows = Y.copy(), np.arange(len(Y))
        for i in steps.T:
            a, b = P[rows, i], P[rows, i + 1]
            w = a + b
            avg = (a * X[rows, i] + b * X[rows, i + 1]) / w
            X[rows, i] = avg
            X[rows, i + 1] = avg
        out.append((trials, X, Y, P))
    return out


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


def _groups(keys, *columns):
    """Yield (head, entries, *stacks) for each group of entries, in the
    order of their first entries.  An entry's group is its key (when
    ``keys`` are given) and the shapes of its values, one per column; head
    is ``(key,)``, or ``()`` without keys, entries the group's entry
    indices as an int array, and each stack the ``np.stack`` of the group's
    values of a column, rectangular by construction."""
    heads = [()] * len(columns[0]) if keys is None else [(key,) for key in keys]
    groups = defaultdict(list)
    # an array's own .shape: np.shape's dispatch would cost more per entry
    # than the rest of the grouping
    shapes = ([v.shape if type(v) is np.ndarray else () if type(v) in (float, int) else np.shape(v)
               for v in col] for col in columns)
    for j, group in enumerate(zip(heads, *shapes)):
        groups[group].append(j)
    for (head, *_), idxs in groups.items():
        yield (head, np.array(idxs), *(np.stack([col[j] for j in idxs]) for col in columns))


def _check_spectra(w, lo, hi):
    """Raise PreconditionError for the first row of the ascending spectra w
    (k, d) more than 1e-10 (``oc.apply_function_stack``'s slack) outside
    [lo, hi]."""
    bad = (w[:, 0] < lo - 1e-10) | (w[:, -1] > hi + 1e-10)
    if bad.any():
        j = np.argmax(bad)
        raise PreconditionError(f"spectrum [{w[j, 0]:.6g}, {w[j, -1]:.6g}] escapes [{lo}, {hi}]")


def _decomposed(stacks) -> list:
    """(trials, M, w, V, *rest) of (trials, M, *rest) stacks: the (w, V) of
    every matrix of each M (k, m, d, d), from one ``oc._eigh`` per dimension
    over all the stacks.  A matrix gets the bits of its own decomposition in
    any stack, so the build of a batch of one gives a suite's row."""
    dims = defaultdict(list)
    for j, (_, M, *_) in enumerate(stacks):
        dims[M.shape[-1]].append(j)
    out = list(stacks)
    for d, idx in dims.items():
        w, V = oc._eigh(np.concatenate([stacks[j][1].reshape(-1, d, d) for j in idx]))
        at = 0
        for j in idx:
            trials, M, *rest = stacks[j]
            size = M.shape[0] * M.shape[1]
            out[j] = (trials, M, w[at:at + size].reshape(M.shape[:-1]),
                      V[at:at + size].reshape(M.shape), *rest)
            at += size
    return out


def _images(f, w, V) -> np.ndarray:
    """f of every matrix of a stack from its (w, V), (..., d) and (..., d,
    d), in one ``oc._function_image``, after PreconditionError for a
    spectrum outside f's interval (``_check_spectra``)."""
    d = V.shape[-1]
    w = w.reshape(-1, d)
    _check_spectra(w, f.domain.m, f.domain.M)
    return oc._function_image(f, w, V.reshape(-1, d, d)).reshape(V.shape)


def _family_sums(kinds, params, *stacks) -> list:
    """The map sums of a family stack on I and on each of ``stacks`` (k, n,
    d, d), from one ``oc._map_family_sums`` over their concatenation, after
    DomainError unless each family's sum on I lies within 1e-10 of I in
    Frobenius norm (a unital family)."""
    k, n, d = stacks[0].shape[:3]
    eye = np.broadcast_to(np.eye(d, dtype=complex), (k, n, d, d))
    sums = oc._map_family_sums(kinds, [np.concatenate([p] * (1 + len(stacks))) for p in params],
                               np.concatenate([eye, *stacks]))
    res = oc._frob_rows(sums[:k] - np.eye(sums.shape[-1]))
    if not (res <= 1e-10).all():  # so NaN fails
        raise DomainError(f"map family is not unital-sum: residual {res.max():.3e}")
    return np.split(sums[k:], len(stacks))


def _jensen_kernel(key, M, w, V, X, *params):
    """[("lemma_jensen", margins (k, v), SCALAR_TOL)] for the key (f, kinds):
    the vector-state Jensen margins <Phi-sum of f(A) x, x> - f(<Phi-sum of A
    x, x>) of each row's A_i (M, with their (w, V)), unit vectors X (k, v, d)
    and family stack (kinds, params), after the hypotheses' checks: f
    convex, each spectrum in f's interval, each family unital and each
    vector of unit norm within 1e-10."""
    f, kinds = key
    if not f.is_convex:
        raise PreconditionError("the vector-state Jensen bound needs convex f")
    sum_a, sum_fa = _family_sums(kinds, params, M, _images(f, w, V))
    off = np.abs(np.linalg.norm(X, axis=-1) - 1.0) > 1e-10
    if off.any():
        raise PreconditionError(f"vector {np.argwhere(off)[0, 1]} is not unit norm")
    means, lifted = _quadratic_forms(sum_a, X), _quadratic_forms(sum_fa, X)
    return [("lemma_jensen", lifted - f(np.clip(means, f.domain.m, f.domain.M)), SCALAR_TOL)]


def _quadratic_forms(M, X) -> np.ndarray:
    """Re <M x, x> for each row x of X, or of each X (k, m, d) with its M (k, d, d)."""
    return np.real(np.sum(X.conj() * (X @ np.swapaxes(M, -1, -2)), axis=-1))


def _map_sum_kernel(inequality_id):
    """The kernel of the map-sum reverse bound Phi-sum of f(A) <= beta*I +
    alpha * Phi-sum of f(B), scored under ``inequality_id``, for the key
    (f, alpha, kinds) on rows of M, its (w, V), bidx and the family stack
    (``_build_equal_map_sums``).  After the hypotheses' checks (f convex,
    each spectrum in f's interval, each family unital, and equal map sums
    of A and B within 1e-8 max(1, ||Phi-sum of A||_F)) each row's margin is
    lambda_min(beta*I + alpha * Phi-sum of f(B) - Phi-sum of f(A)), with
    beta computed once."""
    def kernel(key, M, w, V, bidx, *params):
        f, alpha, kinds = key
        if not f.is_convex:
            raise PreconditionError("the map-sum reverse bound needs convex f")
        images = _images(f, w, V)
        beta = sb.beta_constant(f, f.domain, alpha)
        n, b = bidx.shape[1], bidx[:, :, None, None]
        sum_a, sum_b, lhs, rhs = _family_sums(
            kinds, params, M[:, :n], np.take_along_axis(M, b, axis=1),
            images[:, :n], np.take_along_axis(images, b, axis=1))
        res = oc._frob_rows(sum_a - sum_b)
        unequal = res > 1e-8 * np.maximum(1.0, oc._frob_rows(sum_a))
        if unequal.any():
            raise PreconditionError(f"map sums differ: residual {res[unequal].max():.3e}")
        margin = beta * np.eye(lhs.shape[-1], dtype=complex) + alpha * rhs - lhs
        return [(inequality_id, oc._eigvalsh(margin)[:, 0], OPERATOR_TOL)]
    return kernel


MEAN_FORMS_SOUND = ("mean_ratio", "mean_diff", "sr_k_form", "sr_k_form_x_both", "sr_c_form")
MEAN_FORMS_LIMIT = ("s0_nonneg", "s0_pair_vs_z")
MEAN_FORM_C_LHS = "sr_c_form_lhs_variant"


def _mean_kernel(forms):
    """The kernel of the operator-mean suites: for the key iv, the margins
    lambda_min(rhs - lhs) of the named ``forms`` (``_mean_forms``), all in
    one ``oc._eigvalsh``; the C-term-on-the-left form scores only the rows
    where it applies."""
    def kernel(iv, *columns):
        stacks = _mean_forms(iv, *columns, forms)
        margins = oc._eigvalsh(np.concatenate([S for *_, S in stacks]))[:, 0]
        cuts = np.cumsum([len(S) for *_, S in stacks])[:-1]
        return [(name, m, OPERATOR_TOL, rows)
                for (name, rows, _), m in zip(stacks, np.split(margins, cuts))]
    return kernel


def _mean_forms(iv, M, w, V, weights, r, forms) -> list:
    """(form id, rows, stack of margin matrices rhs - lhs) of each named form
    of the operator-mean and relative-entropy bounds.  A row is Z, then the
    Z-relative A_1..A_n, then B_1..B_n or no B at all (Q = P), in M (k, m,
    d, d) with their (w, V), the weights (k, n) and its r, and iv holds
    every A_i's and B_i's spectrum.  The rows are all k but for the
    C-term-on-the-left form, which applies at 0 < r < 1 only.

    r must be finite and nonzero and iv positive, else DomainError; the
    weighted sums sum w_i A_i and sum w_i B_i must agree within 1e-8 max(1,
    ||sum w_i A_i||_F), else PreconditionError, and the spectra must lie in
    iv (``_check_spectra``).  P = Z^(1/2) (sum w_i A_i^r) Z^(1/2), Q likewise
    for the B_i and, if a limit form is named, their log variants come from
    one ``oc._mean_step``.  The forms are assembled on the stack, with r and
    the constants K(h, r) and C(m, h, r) broadcast per row, each constant
    computed once per distinct r, and each r regime a row mask.  Every step
    treats a matrix on its own, so a row's margins do not depend on the rest
    of the stack."""
    bad = ~np.isfinite(r) | (np.abs(r) < 1e-12)
    if bad.any():
        r_bad = r[np.argmax(bad)]
        raise DomainError(f"r must be finite, got {r_bad}" if not math.isfinite(r_bad)
                          else "r = 0 is degenerate here; use the limit checks")
    if iv.m <= 0.0:
        raise DomainError("the interval must be positive (m > 0)")
    (k, n), d = weights.shape, M.shape[-1]
    t = (M.shape[1] - 1) // n  # tuples per row: the A_i, then any B_i
    if t == 2:
        sum_a, sum_b = (sum(weights[:, i, None, None] * M[:, 1 + j * n + i] for i in range(n))
                        for j in (0, 1))
        res = oc._frob_rows(sum_a - sum_b)
        if not (res <= 1e-8 * np.maximum(1.0, oc._frob_rows(sum_a))).all():  # so NaN fails
            raise PreconditionError("weighted A/B sums differ in Z-relative terms")
    _check_spectra(w[:, 1:].reshape(-1, d), iv.m, iv.M)

    # one step row per tuple and exponent: the A tuples, then any B tuples,
    # each with its row's r, then with the limit forms the same with log
    include_limits = any(name in MEAN_FORMS_LIMIT for name in forms)
    tw = w[:, 1:].reshape(k, t, n, d).swapaxes(0, 1).reshape(t * k, n, d)
    tV = V[:, 1:].reshape(k, t, n, d, d).swapaxes(0, 1).reshape(t * k, n, d, d)
    tile = np.arange(t * k * (2 if include_limits else 1)) % (t * k)
    z_row = tile % k
    rs = r.tolist()
    S = oc._mean_step(w[z_row, 0], V[z_row, 0], tw[tile], tV[tile], weights[z_row],
                      rs * t + [None] * (len(tile) - t * k))
    Z, P, Q = M[:, 0], S[:k], S[(t - 1) * k:t * k]
    h = iv.M / iv.m
    consts = {rj: (sb.kantorovich(h, rj), sb.c_of_hr(iv.m, h, rj)) for rj in dict.fromkeys(rs)}
    big_k, c_const = (np.array(c)[:, None, None] for c in zip(*[consts[rj] for rj in rs]))
    r = r[:, None, None]
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
        logs = S[t * k:]
        s0x = logs[:k]
        mats["s0_nonneg"] = s0x
        mats["s0_pair_vs_z"] = s0x + logs[(t - 1) * k:] - Z
    c_lhs = np.flatnonzero(inside[:, 0, 0])
    return [(name, c_lhs, mats[name][c_lhs]) if name == MEAN_FORM_C_LHS
            else (name, slice(None), mats[name]) for name in forms]


def _entropy_kernel(r, WA, WB, alpha):
    """alpha H(B) <= H(A) + alpha c dim and |H(A) - H(B)| <= c dim for the
    stacks WA, WB (k, dim) of the spectra of density pairs (A, B), with one
    alpha per row: von Neumann's H with c = 1/e (r = None), or the Tsallis
    H_r, r in (0, 1], with c = (1-r)^((1-r)/r).  Both H are the entropy row
    kernel of the spectra, ``ce._cross_rows(W, W, r)``, so a row gets the
    bits of a batch of one, the public quantum entropies'."""
    bad = ~((0.0 <= alpha) & (alpha < math.inf)) | (r is not None and not 0.0 < r <= 1.0)
    if bad.any():
        raise DomainError("alpha must be finite and >= 0" if r is None else
                          f"needs a finite alpha >= 0 and r in (0, 1], "
                          f"got {alpha[np.argmax(bad)]} and {r}")
    dim, W = WA.shape[-1], np.concatenate([WA, WB])
    ha, hb = ce._cross_rows(W, W, r).reshape(2, -1)
    if r is None:
        return [("entropy_vn_alpha", ha + alpha / math.e * dim - alpha * hb, SCALAR_TOL),
                ("entropy_vn_symmetric", dim / math.e - np.abs(ha - hb), SCALAR_TOL)]
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
    kinds, params = oc._family_stack(family)
    stacks = _decomposed([(np.zeros(1, dtype=int), np.stack(mats)[None], np.stack(vecs)[None],
                           *params)])
    return _view(_table(_stack_score(_jensen_kernel)(([(f, kinds)], stacks))), [{}])


def check_theorem_beta(family: oc.MapFamily, As, Bs, f: FunctionSpec,
                       alpha: float) -> InequalityVerdict:
    """Map-sum reverse bound: Phi-sum of f(A) <= beta*I + alpha * Phi-sum of f(B),
    given a unital family, equal map-sums, spectra in f's interval, convex f."""
    return _check_map_sum("theorem_beta", family, As, Bs, f, alpha)


def _check_map_sum(inequality_id, family, As, Bs, f, alpha) -> InequalityVerdict:
    """``check_theorem_beta``, scored under ``inequality_id``: the kernel
    on the map-sum stack of one row, where a B_i equal to a matrix before it
    is that matrix's index, so it is decomposed once."""
    mats = oc._family_operands(family, [oc.assert_hermitian(A) for A in As])
    bidx = []
    for B in oc._family_operands(family, [oc.assert_hermitian(B) for B in Bs]):
        j = next((j for j, A in enumerate(mats) if np.array_equal(A, B)), len(mats))
        if j == len(mats):
            mats.append(B)
        bidx.append(j)
    kinds, params = oc._family_stack(family)
    stacks = _decomposed([(np.zeros(1, dtype=int), np.stack(mats)[None], np.array([bidx]),
                           *params)])
    blocks = _stack_score(_map_sum_kernel(inequality_id))(([(f, alpha, kinds)], stacks))
    return _view(_table(blocks), [{"alpha": alpha, "f": f.name}])[0]


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
    stacks = [(np.zeros(1, dtype=int), *(a[None] for a in row))]
    blocks = _stack_score(_scalar_corollary_kernel)(([(f, alpha, mode)], stacks))
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
    stacks = [(np.zeros(1, dtype=int), wa[None], wb[None], np.array([alpha]))]
    return _view(_table(_stack_score(_entropy_kernel)(([r], stacks))), [ctx])


def check_fannes_comparison(dims: Sequence[int]):
    """Per-dimension comparison of the two |H(A) - H(B)| upper bounds at
    unit trace distance: ours = dim/e versus log(dim) + 1/e.  Each dim must
    be an integer >= 1, else DomainError."""
    rows = []
    for dim in dims:
        if not _is_int(dim) or dim < 1:
            raise DomainError(f"dims must be integers >= 1, got {dim!r}")
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
    ``_mean_kernel``, on a stack of one row, which also checks the equal
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
    (zw, zV), rel = oc._z_relative(Z, mats)
    rw, rV = oc._eigh(np.stack(rel))
    row = (np.stack([Z, *rel])[None], np.concatenate([zw[None], rw])[None],
           np.concatenate([zV[None], rV])[None], w[None], np.array([r], dtype=float))
    forms = MEAN_FORMS_SOUND + (MEAN_FORM_C_LHS,) + (MEAN_FORMS_LIMIT if include_limits else ())
    blocks = _stack_score(_mean_kernel(forms))(([iv], [(np.zeros(1, dtype=int), *row)]))
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
    """``draw(i, rng, params)`` makes trial i's rng calls on its own rng and
    nothing else, and returns (raw, key, context): the raw arrays (numpy's
    standard exponentials for Dirichlet rows and ``random`` doubles for the
    scalar and classical suites' uniforms; a rejection sampler's first block
    of candidates, with the generator state saved after it), the trial's
    key, and its context, which ``run_suite`` puts after {trial, seed}.
    ``build(draws)`` gives the trials' keys and stacks (``_stacks_built``),
    and ``score`` scores them (``_stack_score``) and returns ``_table``
    blocks.  ``defaults`` name the params that the draw reads and fill in
    those left out; a suite not ``in_all`` runs only when named, never under
    ``--suite all``."""

    draw: Callable
    score: Callable
    defaults: dict = field(default_factory=dict)
    build: Callable = lambda draws: draws
    in_all: bool = True


def _stacks_built(build):
    """The build phase of a suite: (keys, stacks), each trial's key and the
    (trials, *columns) stacks that ``build(raws, keys)`` makes of the
    trials' raw draws, one per row shape (or per finer group), row j of each
    column that of trial trials[j].  A build maps, screens and constructs
    whole stacks, and a matrix suite's build also decomposes its matrices
    (``_decomposed``) or runs the Jacobi oracle on them (``_build_jacobi``)."""
    def run(draws):
        keys = [key for _, key, _ in draws]
        return keys, build([raw for raw, *_ in draws], keys)
    return run


def _decomposed_built(build):
    """``_stacks_built`` of a matrix suite's ``build(raws)``, decomposed."""
    return _stacks_built(lambda raws, _: _decomposed(build(raws)))


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


def _stack_score(kernel):
    """The score of a suite built by ``_stacks_built``: the rows of each
    stack are split by their trials' keys, one fancy index per column and
    key, and ``kernel(key, *columns)`` returns [(inequality id, margins,
    tol[, rows])], which become blocks with the rows' trials.  The margins
    are one per row, or one per row and vector (k, v), each with its vector
    index; ``rows`` picks the rows that a form scores, all of them when left
    out.  A kernel gives a row the bits of a batch of one, so neither the
    stacks nor the split show."""
    def score(built):
        keys, stacks = built
        blocks = []
        for trials, *columns in stacks:
            groups = defaultdict(list)
            for j, t in enumerate(trials.tolist()):
                groups[keys[t]].append(j)
            for key, rows in groups.items():
                rows = np.array(rows)
                for name, margins, tol, *sub in kernel(key, *[column[rows] for column in columns]):
                    t = trials[rows][sub[0]] if sub else trials[rows]
                    if margins.ndim == 1:
                        blocks.append((t, name, margins, tol))
                    else:
                        v = margins.shape[1]
                        blocks.append((t.repeat(v), name, margins.ravel(), tol,
                                       np.arange(v * len(t)) % v))
        return blocks
    return score


def _draw_jensen_instance(n, dim, iv: Interval, rng: np.random.Generator):
    """The draws of ``_gen_jensen_instance``: (exponentials of the weights,
    Gaussians of the n unitaries, Gaussians and spectra of the n matrices,
    the unit vectors (dim + 16, dim))."""
    weights = rng.standard_exponential(n)
    Gu = oc._gaussian(dim, rng, n)
    Gs, w = _draw_spectra(dim, (iv,) * n, rng)
    raw = rng.standard_normal((16, dim)) + 1j * rng.standard_normal((16, dim))
    vecs = np.array([*np.eye(dim)] + [v / np.linalg.norm(v) for v in raw], dtype=complex)
    return weights, Gu, Gs, w, vecs


def _build_jensen_stacks(raws) -> list:
    """(trials, M, X, *params) of the ``_draw_jensen_instance`` draws of each
    shape: the matrices M (k, n, d, d), the vectors X (k, v, d) and the
    family stack of the n weighted unitary conjugations."""
    out = []
    for _, trials, E, Gu, Gs, w, X in _groups(None, *zip(*raws)):
        U, H = oc._build_haar(Gu, Gs, w)
        W = _dirichlet_rows(E)
        out.append((trials, H, X, *[c for i in range(W.shape[1]) for c in (W[:, i], U[:, i])]))
    return out


def _gen_jensen_instance(n, dim, iv: Interval, rng: np.random.Generator):
    """(family, mats, vectors): n weighted unitary conjugations, n matrices
    with spectra in iv, the standard basis plus 16 random unit vectors."""
    ((_, M, X, *params),) = _build_jensen_stacks([_draw_jensen_instance(n, dim, iv, rng)])
    return oc._family_of((oc.WeightedConjugation,) * n, params, dim), list(M[0]), list(X[0])


_CONJUGATIONS = (oc.WeightedConjugation,) * _MAP_N  # the map kinds of every suite family


def _draw_jensen(i, rng, params):
    dim = _cycle(params["dims"], i)
    f = function_catalog(_cycle(params["fs"], i))
    return (_draw_jensen_instance(_MAP_N, dim, f.domain, rng), (f, _CONJUGATIONS),
            dict(dim=dim, f=f.name))


_WEIGHT_VARIANTS = ("weights_v0", "weights_v1", "weights_v2")


def _draw_weighted_instance(n, dim, iv: Interval, kind: str, rng: np.random.Generator):
    """The draws of ``_gen_weighted_instance``: (kind, exponentials of the
    weights, Gaussians and spectra of the A_i, Sinkhorn start matrix of the
    weights_v2 mix or None)."""
    w = rng.standard_exponential(n)
    Gs, spectra = _draw_spectra(dim, (iv,) * n, rng)
    S = None if kind in ("weights_v0", "weights_v1") else _sinkhorn_start(n, rng)
    return kind, w, Gs, spectra, S


def _build_weighted_stacks(raws) -> list:
    """(trials, M, bidx, *params) of the ``_draw_weighted_instance`` draws of
    each kind and shape, laid out as ``_build_equal_map_sums``' stacks, with
    the maps Phi_i(X) = w_i X.  The B_i are all the weighted mean of the A_i
    (weights_v0), the A_i themselves (weights_v1) or a doubly stochastic mix
    of them under uniform weights (weights_v2), which keeps only
    uniform-weight sums."""
    out = []
    for (kind,), trials, E, Gs, w in _groups([raw[0] for raw in raws],
                                             *[[raw[c] for raw in raws] for c in (1, 2, 3)]):
        (k, n), d = E.shape, w.shape[-1]
        W, (_, H) = _dirichlet_rows(E), oc._build_haar(Gs[:, :0], Gs, w)
        if kind == "weights_v0":
            M = np.concatenate([H, _weighted_sums(W[:, None], H)], axis=1)
            bidx = np.full((k, n), n)
        elif kind == "weights_v1":
            M, bidx = H, np.broadcast_to(np.arange(n), (k, n))
        else:
            S = np.stack([raws[t][4] for t in trials.tolist()])
            M = np.concatenate([H, _weighted_sums(_sinkhorn(S), H)], axis=1)
            bidx, W = np.broadcast_to(np.arange(n, 2 * n), (k, n)), np.full((k, n), 1.0 / n)
        eye = np.broadcast_to(np.eye(d, dtype=complex), (k, d, d))
        out.append((trials, M, bidx, *[c for i in range(n) for c in (W[:, i], eye)]))
    return out


def _gen_weighted_instance(n, dim, iv: Interval, kind: str, rng: np.random.Generator):
    """(As, Bs, family) with scalar-weight maps Phi_i(X) = w_i X.  B is the
    all-equal-to-the-weighted-mean reduction (weights_v0), a copy of A
    (weights_v1) or a doubly stochastic mix under uniform weights
    (weights_v2)."""
    ((_, M, bidx, *params),) = _build_weighted_stacks(
        [_draw_weighted_instance(n, dim, iv, kind, rng)])
    return _map_sum_instance((oc.WeightedConjugation,) * n, M, bidx, params)


def _draw_map_sum(i, rng, params, draw, kind):
    """A map-sum trial's draw(n, dim, f.domain, kind, rng) and its key (f,
    alpha, kinds)."""
    dim = _cycle(params["dims"], i)
    f = function_catalog(_cycle(params["fs"], i))
    alpha = _cycle(params["alphas"], i)
    return (draw(_MAP_N, dim, f.domain, kind, rng), (f, alpha, _CONJUGATIONS),
            dict(dim=dim, f=f.name, alpha=alpha, family=kind))


def _draw_scalar_corollary(i, rng, params):
    """Equal weighted means (``_draw_equal_mean``), or on odd trials with
    decreasing f the draws of the relaxed sum p x <= sum p y: the doubles
    of x and y and the exponentials of p."""
    n = _SCALAR_N
    f, alpha = function_catalog(_cycle(params["fs"], i)), _cycle(params["alphas"], i)
    iv = f.domain
    if i % 2 == 1 and _is_decreasing(f, iv):
        raw = rng.random(n), rng.random(n), rng.standard_exponential(n)
        mode = MODE_RELAXED
    else:
        raw, mode = _draw_equal_mean(n, rng), MODE_EQUAL
    return raw, (f, alpha, mode), dict(dim=n, alpha=alpha, f=f.name, mode=mode)


def _build_scalar_corollary(raws, keys) -> list:
    """(trials, P, X, Y) stacks of the scalar_corollary draws with their
    keys (f, alpha, mode): those of ``_equal_means`` for the equal-mean
    draws, and one per interval and n of the relaxed draws, mapped by
    ``_uniform`` and ``_dirichlet_rows``, each trial's row with x and y
    swapped where the row sum of p x exceeds that of p y."""
    equal = [j for j, (_, _, mode) in enumerate(keys) if mode == MODE_EQUAL]
    relaxed = [j for j, (_, _, mode) in enumerate(keys) if mode != MODE_EQUAL]
    stacks = [(np.array(equal)[trials], P, X, Y) for trials, P, X, Y in _equal_means(
        [raws[j] for j in equal], [keys[j][0].domain for j in equal], _resume_rng())]
    if relaxed:
        ivs = [keys[j][0].domain for j in relaxed]
        for (iv,), trials, X, Y, E in _groups(ivs, *zip(*(raws[j] for j in relaxed))):
            X, Y, P = _uniform(X, iv.m, iv.M), _uniform(Y, iv.m, iv.M), _dirichlet_rows(E)
            swap = (np.sum(P * X, axis=-1) > np.sum(P * Y, axis=-1))[:, None]
            stacks.append((np.array(relaxed)[trials], P,
                           np.where(swap, Y, X), np.where(swap, X, Y)))
    return stacks


_PREFIX_INTERVAL = Interval(-1.0, 2.0)


@functools.lru_cache(maxsize=None)
def _fuchs_fs():
    """The fuchs functions, the convex test family of
    ``mj.karamata_forward_holds`` on an interval around _PREFIX_INTERVAL,
    built on first use: a custom FunctionSpec's convexity scan imports
    numpy.random."""
    dom = Interval(_PREFIX_INTERVAL.m - 0.5, _PREFIX_INTERVAL.M + 0.5)
    return tuple(FunctionSpec.custom(g, "convex", dom, name)
                 for name, g in mj._FORWARD_FAMILY.items())


def _draw_fuchs(i, rng, params):
    f = _cycle(_fuchs_fs(), i)
    return _draw_fuchs_instance(_PREFIX_N, rng), f, dict(dim=_PREFIX_N, f=f.name)


def _draw_moment(i, rng, params):
    order = _cycle(_MOMENT_ORDERS, i)
    return _draw_fuchs_instance(_PREFIX_N, rng), order, dict(dim=_PREFIX_N, r=order)


def _draw_density_pair(i, rng, params):
    """((Gaussians of A and B, alpha), r = None, context): the draws of two
    random density matrices, which the suite builds into their spectra."""
    dim, alpha = _cycle(params["dims"], i), _cycle(params["alphas"], i)
    return (oc._gaussian(dim, rng, 2), alpha), None, dict(dim=dim, alpha=alpha)


def _draw_tsallis_pair(i, rng, params):
    raw, _, ctx = _draw_density_pair(i, rng, params)
    r = _cycle(params["rs"], i)
    return raw, r, dict(ctx, r=r)


def _build_entropy_stacks(raws, _) -> list:
    """(trials, W_A, W_B, alphas) of the (G, alpha) draws of each dimension:
    the spectra of the density pairs, from one ``oc._build_densities`` and
    one ``oc._eigvalsh`` on the (k, 2, d, d) stack."""
    out = []
    for _, trials, G in _groups(None, [G for G, _ in raws]):
        rho = oc._build_densities(G)
        W = oc._eigvalsh(rho.reshape(-1, *rho.shape[-2:])).reshape(G.shape[:-1])
        out.append((trials, W[:, 0], W[:, 1], np.array([raws[t][1] for t in trials.tolist()])))
    return out


def _draw_prob_pair(i, rng, params):
    """(exponentials (2, n) of the Dirichlet draws of p and q, r, context)."""
    n, r = _cycle(_INFO_SIZES, i), _cycle(params["rs"], i)
    return rng.standard_exponential((2, n)), r, dict(dim=n, r=r)


def _build_prob_pairs(raws, _) -> list:
    """(trials, P, Q) of the (2, n) blocks of exponentials of each n: their
    Dirichlet rows (``_dirichlet_rows``), floored at 1e-12 and normalized."""
    out = []
    for _, trials, E in _groups(None, raws):
        F = np.maximum(_dirichlet_rows(E), 1e-12)
        F = F / np.sum(F, axis=-1, keepdims=True)
        out.append((trials, F[:, 0], F[:, 1]))
    return out


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


def _draw_conditioned_pair(i, rng, params):
    """(first block and saved state of ``_draw_pair_block``, (eps,
    direction), context): a floored pair whose dominance tag alternates."""
    n, eps = _cycle(_REVERSE_SIZES, i), params["eps"]
    direction = ce.SELF_DOMINATED if i % 2 == 0 else ce.CROSS_DOMINATED
    return (_draw_pair_block(n, eps, rng), (eps, direction),
            dict(dim=n, eps=eps, direction=direction))


def _draw_parametric_pair(i, rng, params):
    raw, (eps, direction), ctx = _draw_conditioned_pair(i, rng, params)
    r = _cycle(params["rs"], i)
    return raw, (eps, r, direction), dict(ctx, r=r)


def _build_conditioned_pairs(raws, keys) -> list:
    """(trials, P, Q) stacks of the reverse suites' draws, keyed (eps, ...,
    direction); GeneratorExhausted where a trial takes no pair."""
    stacks = _conditioned_pairs(raws, [(key[0], key[-1]) for key in keys], _resume_rng())
    _check_taken(keys, stacks)
    return stacks


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


def _build_mean_stacks(raws) -> list:
    """(trials, M, weights) of the ``_draw_mean_instance`` draws of each
    shape: M (k, m, d, d) holds Z, then the A_i, then for n > 1 the B_i, a
    doubly stochastic mix of the A_i under uniform weights.  With n = 1 a
    row has no B_i, which makes Q = P."""
    out = []
    for _, trials, G, w in _groups(None, [raw[0] for raw in raws], [raw[1] for raw in raws]):
        n = w.shape[1] - 1
        _, H = oc._build_haar(G[:, :0], G, w)
        if n > 1:
            S = np.stack([raws[t][2] for t in trials.tolist()])
            H = np.concatenate([H, _weighted_sums(_sinkhorn(S), H[:, 1:])], axis=1)
        out.append((trials, H, np.full((len(H), n), 1.0 / n)))
    return out


def _gen_mean_instance(rng, dim, iv, n):
    """(Z, As, Bs, w): Z with spectrum in [0.5, 2], n matrices A_i with
    spectra in iv, and B_i with the same weighted sum (Bs is As for n = 1)."""
    ((_, M, weights),) = _build_mean_stacks([_draw_mean_instance(rng, dim, iv, n)])
    As = M[0, 1:n + 1]
    return M[0, 0], As, As if n == 1 else M[0, n + 1:], weights[0]


def _draw_mean(i, rng, params):
    """((the draws of ``_draw_mean_instance``, r), iv, context)."""
    dim, r = _cycle(params["dims"], i), _cycle(params["rs"], i)
    n = 1 if i % 2 == 0 else 2
    iv = Interval(*params["interval"])
    return (*_draw_mean_instance(rng, dim, iv, n), r), iv, dict(dim=dim, r=r, n=n)


def _build_mean_suite(raws, _) -> list:
    """The mean suites' stacks: those of ``_build_mean_stacks``, decomposed,
    with each row's r last."""
    return [(*stack, np.array([raws[t][3] for t in stack[0].tolist()], dtype=float))
            for stack in _decomposed(_build_mean_stacks(raws))]


def _draw_hermitian(i, rng, params):
    """(G + G*)/2 with G complex Gaussian, dimension cycling through dims."""
    dim = _cycle(params["dims"], i)
    G = oc._gaussian(dim, rng)
    return (G + G.conj().T) / 2.0, None, dict(dim=dim)


_jacobi_last = {}


def _build_jacobi(raws, _) -> list:
    """(trials, A, w, V) of the drawn matrices of each dimension, with the
    Jacobi oracle's (w, V) of each, all from one ``oc._jacobi`` call (one
    ``oc.eigh_stack`` per ring size).  The last stacks are kept and reused
    when the drawn stacks equal them: under ``--suite all`` the eigensolver
    and eigensolver_crosscheck suites draw the same matrices, and Jacobi
    runs once."""
    stacks = [(trials, A) for _, trials, A in _groups(None, raws)]
    solvers = (oc._jacobi, oc.eigh_stack)
    last = _jacobi_last.get(solvers)
    if last is None or len(last) != len(stacks) or not all(
            np.array_equal(t, u) and np.array_equal(A, B)
            for (t, A), (u, B, *_) in zip(stacks, last)):
        solved = iter(oc._jacobi([M for _, A in stacks for M in A]))
        last = [(t, A, *map(np.stack, zip(*[next(solved) for _ in A]))) for t, A in stacks]
        _jacobi_last.clear()
        _jacobi_last[solvers] = last
    return last


def _jacobi_residuals(_, A, w, V):
    """The eigensolver suite's kernel: the reconstruction and unitarity
    residuals of Jacobi's (w, V) for a stack A, each scored by its margin
    _EIG_RESIDUAL_TOL - residual with tol 0."""
    rec = V @ (w[:, :, None] * np.swapaxes(V, 1, 2).conj()) - A
    rec_res = np.linalg.norm(rec, axis=(1, 2)) / np.maximum(
        1.0, np.linalg.norm(A, axis=(1, 2)))
    uni_res = np.linalg.norm(V @ np.swapaxes(V, 1, 2).conj() - np.eye(A.shape[1]),
                             axis=(1, 2))
    return [("eig_reconstruction", _EIG_RESIDUAL_TOL - rec_res, 0.0),
            ("eig_unitarity", _EIG_RESIDUAL_TOL - uni_res, 0.0)]


# Jacobi and LAPACK eigenvalues must agree within 16 d eps max(1, ||A||_F);
# the worst difference measured on this suite's matrices (1500 trials at
# each of seeds 0, 7 and 1000) is 2.10 d eps ||A||_F
_CROSSCHECK_ULPS = 16.0


def _crosscheck(_, A, w, V):
    """The crosscheck suite's kernel: max_i |w_J,i - w_L,i| of the Jacobi
    eigenvalues w of a stack A (the oracle) against LAPACK's (the margin
    path), scored by its margin 16 d eps max(1, ||A||_F) - that, tol 0."""
    diff = np.abs(w - oc._eigvalsh(A)).max(axis=1)
    bound = _CROSSCHECK_ULPS * A.shape[1] * np.finfo(float).eps * np.maximum(
        1.0, np.linalg.norm(A, axis=(1, 2)))
    return [("eig_crosscheck", bound - diff, 0.0)]


_MAP_SUM_DEFAULTS = {"dims": (2, 4, 8), "fs": _DEFAULT_FS, "alphas": _DEFAULT_ALPHAS}
_DENSITY_DEFAULTS = {"dims": (2, 3, 4, 5, 6, 7, 8), "alphas": _DEFAULT_ALPHAS}
_REVERSE_DEFAULTS = {"eps": 0.05}
_MEAN_DEFAULTS = {"dims": (2, 3, 4, 6), "interval": (1.7, 5.1)}
_EIG_DIMS = {"dims": tuple(range(2, 17))}

# The CLI passes one params dict to every suite, and a suite's draw reads
# only the keys its defaults name: so reverse_shannon keeps r unset,
# entropy_vn ignores rs, and fuchs and moment draw from _PREFIX_INTERVAL,
# not the operator-mean "interval".  No score reads params.
_SUITES: Dict[str, _Suite] = {
    "lemma_jensen": _Suite(
        _draw_jensen, _stack_score(_jensen_kernel), {"dims": (2, 3, 4, 6, 8), "fs": _DEFAULT_FS},
        _decomposed_built(_build_jensen_stacks)),
    "theorem_beta": _Suite(
        lambda i, rng, p: _draw_map_sum(i, rng, p, _draw_equal_map_sum,
                                        _cycle(_BETA_FAMILIES, i)),
        _stack_score(_map_sum_kernel("theorem_beta")),
        _MAP_SUM_DEFAULTS, _decomposed_built(_build_equal_map_sums)),
    "corollary_weighted": _Suite(
        lambda i, rng, p: _draw_map_sum(i, rng, p, _draw_weighted_instance,
                                        _cycle(_WEIGHT_VARIANTS, i)),
        _stack_score(_map_sum_kernel("corollary_weighted")),
        _MAP_SUM_DEFAULTS, _decomposed_built(_build_weighted_stacks)),
    "scalar_corollary": _Suite(
        _draw_scalar_corollary, _stack_score(_scalar_corollary_kernel),
        {"fs": _DEFAULT_FS, "alphas": _DEFAULT_ALPHAS}, _stacks_built(_build_scalar_corollary)),
    "fuchs": _Suite(
        _draw_fuchs,
        _stack_score(lambda f, X, Y, P: [("fuchs_margin", mj._fuchs_rows(f, X, Y, P),
                                          SCALAR_TOL)]),
        build=_stacks_built(lambda raws, _: _build_fuchs_stacks(raws, _PREFIX_INTERVAL))),
    "moment": _Suite(
        _draw_moment,
        _stack_score(lambda order, X, Y, P: [(
            "moment_margin",
            mj._moment_rows(P / np.sum(P, axis=-1, keepdims=True), X, Y, order), SCALAR_TOL)]),
        build=_stacks_built(lambda raws, _: _build_fuchs_stacks(raws, _PREFIX_INTERVAL))),
    "entropy_vn": _Suite(_draw_density_pair, _stack_score(_entropy_kernel), _DENSITY_DEFAULTS,
                         _stacks_built(_build_entropy_stacks)),
    "entropy_tsallis": _Suite(_draw_tsallis_pair, _stack_score(_entropy_kernel),
                              {**_DENSITY_DEFAULTS, "rs": (0.1, 0.5, 0.9)},
                              _stacks_built(_build_entropy_stacks)),
    "info_inequality": _Suite(
        _draw_prob_pair, _stack_score(_info_inequality_kernel),
        {"rs": (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)}, _stacks_built(_build_prob_pairs)),
    "reverse_shannon": _Suite(
        _draw_conditioned_pair,
        _stack_score(_ratio_diff_kernel("reverse_shannon", ce._reverse_shannon_rows)),
        _REVERSE_DEFAULTS, _stacks_built(_build_conditioned_pairs)),
    "parametric_reverse": _Suite(
        _draw_parametric_pair,
        _stack_score(_ratio_diff_kernel("parametric_reverse", ce._parametric_reverse_rows)),
        {**_REVERSE_DEFAULTS, "rs": (0.1, 0.5, 1.0, 2.0)}, _stacks_built(_build_conditioned_pairs)),
    "operator_means": _Suite(_draw_mean, _stack_score(_mean_kernel(MEAN_FORMS_SOUND)),
                             {**_MEAN_DEFAULTS, "rs": (1.0, 1.7, 3.0, -0.8, -2.0, 0.3, 0.6)},
                             _stacks_built(_build_mean_suite)),
    # the default interval has m >= sqrt(e), so both r -> 0 limit claims hold
    "mean_limits": _Suite(_draw_mean,
                          _stack_score(_mean_kernel(MEAN_FORMS_SOUND + MEAN_FORMS_LIMIT)),
                          {**_MEAN_DEFAULTS, "rs": (0.3,)}, _stacks_built(_build_mean_suite)),
    "eigensolver": _Suite(_draw_hermitian, _stack_score(_jacobi_residuals), _EIG_DIMS,
                          _stacks_built(_build_jacobi)),
    "eigensolver_crosscheck": _Suite(_draw_hermitian, _stack_score(_crosscheck), _EIG_DIMS,
                                     _stacks_built(_build_jacobi)),
    # not in "all": the C-term-on-the-left orientation of the 0 < r < 1
    # difference bound fails by construction whenever X = Y (the C-term is
    # negative in this regime), and is reported separately for inspection
    "mean_c_lhs_variant": _Suite(_draw_mean, _stack_score(_mean_kernel((MEAN_FORM_C_LHS,))),
                                 {**_MEAN_DEFAULTS, "rs": (0.3, 0.6)},
                                 _stacks_built(_build_mean_suite), in_all=False),
}

# every key some suite reads: dims, fs, alphas, rs, eps and interval
_PARAM_KEYS = frozenset(key for suite in _SUITES.values() for key in suite.defaults)


def _is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _entries(value, ok) -> bool:
    """Whether value is a non-empty sequence, not a string, of entries that pass ``ok``."""
    return (isinstance(value, (Sequence, np.ndarray)) and not isinstance(value, (str, bytes))
            and len(value) > 0 and all(ok(v) for v in value))


# what each key's value must be, and its test.  The kernels check the
# domains of alphas and rs, which differ from suite to suite, and the mean
# kernel that m > 0, so that a suite and its checker raise one error
_PARAM_CHECKS = {
    "dims": ("a non-empty sequence of integers >= 1",
             lambda v: _entries(v, lambda d: _is_int(d) and d >= 1)),
    "fs": (f"a non-empty sequence of the names {sorted(_CATALOG)}",
           lambda v: _entries(v, lambda name: isinstance(name, str) and name in _CATALOG)),
    "alphas": ("a non-empty sequence of real numbers", lambda v: _entries(v, _is_real)),
    "rs": ("a non-empty sequence of real numbers", lambda v: _entries(v, _is_real)),
    "eps": ("a real number in (0, 1)", lambda v: _is_real(v) and 0.0 < v < 1.0),
    "interval": ("a pair (m, M) of finite reals with m < M",
                 lambda v: (_entries(v, _is_real) and len(v) == 2
                            and -math.inf < v[0] < v[1] < math.inf)),
}


def _check_params(params: dict):
    """DomainError naming the first key of ``params`` that no suite reads,
    or whose value ``_PARAM_CHECKS`` rejects."""
    unread = [key for key in params if key not in _PARAM_KEYS]
    if unread:
        raise DomainError(f"no suite reads the params {unread}; known: {sorted(_PARAM_KEYS)}")
    for key, value in params.items():
        what, ok = _PARAM_CHECKS[key]
        if not ok(value):
            raise DomainError(f"params[{key!r}] must be {what}, got {value!r}")


def suite_ids(include_extra: bool = False):
    """The suites of ``--suite all``, and with ``include_extra`` every suite."""
    return [sid for sid, suite in _SUITES.items() if include_extra or suite.in_all]


def run_suite(suite_id: str, trials: int, seed: int, params: Optional[dict] = None,
              keep_verdicts: bool = False):
    """Run a named suite in three phases: draw ``trials`` independent
    trials, trial i from the stream of ``SeedSequence(seed,
    spawn_key=(i,))``, all the trials seeded in one pass; build their
    instances, the blocks of one shape in one stack per step; and score
    them in one batch.  ``params`` may set any key that some suite reads
    (``_PARAM_KEYS``) to a value that ``_PARAM_CHECKS`` takes; any other key
    or value raises DomainError naming the key.  Returns a TrialReport
    that keeps the scored columns and trial contexts; with ``keep_verdicts``
    it carries the verdict list as ``report.verdicts``."""
    suite = _SUITES.get(suite_id)
    if suite is None:
        raise DomainError(f"unknown suite {suite_id!r}; known: {suite_ids(True)}")
    if not _is_int(trials) or trials < 0:
        raise DomainError(f"trials must be an integer >= 0, got {trials!r}")
    if not _is_int(seed) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    _check_params(params or {})
    params = {**suite.defaults, **(params or {})}
    t0 = time.perf_counter()
    draws = [suite.draw(i, rng, params) for i, rng in enumerate(_trial_rngs(seed, range(trials)))]
    table = _, _, margins, tols, _ = _table(suite.score(suite.build(draws)) if draws
                                            else [(np.zeros(0, dtype=int), "", np.zeros(0), 0.0)])
    elapsed = int((time.perf_counter() - t0) * 1000)
    contexts = [{"trial": i, "seed": seed, **draw[-1]} for i, draw in enumerate(draws)]
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
_ALPHAS = (0.0, 0.5, 1.0, 2.0)
_TSALLIS_R = (0.1, 0.3, 0.5, 0.7, 0.9)
_POWER_R = (-2.0, -1.0, 0.3, 0.5, 0.7, 2.0, 3.0)


def oracle_row(name: str, params: dict, closed, oracle) -> dict:
    """A closed-form vs oracle row, both values as floats, and their distance."""
    closed, oracle = float(closed), float(oracle)
    return {"name": name, "params": params, "closed_form": closed,
            "oracle_value": oracle, "abs_diff": abs(closed - oracle)}


def _sweep_cases():
    """(name, params, closed form, oracle value) of every cataloged closed
    form.  The oracle values of one function, one kind and one r, come
    from one stacked oracle call, a row per interval and alpha
    (``scalar_bounds._beta_rows`` and ``_ratio_rows``), on the f whose
    domain is the widest row's (f's values do not depend on its domain);
    two closed forms of one oracle value (log S(eps) and C(eps, -log))
    share one row."""
    iv01 = Interval(0.0, 1.0)
    f_tlogt = FunctionSpec.t_log_t(iv01)
    tsallis = [FunctionSpec.tsallis_f(r, iv01) for r in _TSALLIS_R]
    betas = {f: sb._beta_rows(f, [iv01] * len(_ALPHAS), _ALPHAS) for f in (f_tlogt, *tsallis)}
    for i, alpha in enumerate(_ALPHAS):
        yield ("beta_t_log_t", {"alpha": alpha},
               sb.beta_constant(f_tlogt, iv01, alpha), betas[f_tlogt][i])
        for r, f in zip(_TSALLIS_R, tsallis):
            yield ("beta_tsallis", {"alpha": alpha, "r": r},
                   sb.beta_constant(f, iv01, alpha), betas[f][i])
    ives = [Interval(eps, 1.0) for eps in _EPS_GRID]
    f_neglog = FunctionSpec.neg_log(ives[0])
    ln_rs = [FunctionSpec.ln_r_reciprocal(r, ives[0]) for r in _R_GRID]
    ratios = {f: sb._ratio_rows(f, ives) for f in (f_neglog, *ln_rs)}
    diffs = {f: sb._beta_rows(f, ives, [1.0] * len(ives)) for f in (f_neglog, *ln_rs)}
    for i, (eps, ive) in enumerate(zip(_EPS_GRID, ives)):
        yield ("ratio_neg_log", {"eps": eps},
               sb.ratio_constant(f_neglog, ive), ratios[f_neglog][i])
        yield ("diff_neg_log", {"eps": eps}, sb.diff_constant(f_neglog, ive), diffs[f_neglog][i])
        yield ("log_specht_via_diff", {"eps": eps}, math.log(sb.specht(eps)), diffs[f_neglog][i])
        for r, fr in zip(_R_GRID, ln_rs):
            yield ("ratio_ln_r", {"eps": eps, "r": r},
                   sb.ratio_constant(fr, ive), ratios[fr][i])
            yield ("ls_r_via_diff", {"eps": eps, "r": r}, sb.ls_r_constant(eps, r), diffs[fr][i])
    ivhs = [Interval(1.0, h) for h in _H_GRID]
    powers = [FunctionSpec.power(r, ivhs[-1]) for r in _POWER_R]
    ratios = {f: sb._ratio_rows(f, ivhs) for f in powers}
    diffs = {f: sb._beta_rows(f, ivhs, [1.0] * len(ivhs)) for f in powers}
    for i, h in enumerate(_H_GRID):
        for r, fp in zip(_POWER_R, powers):
            yield ("kantorovich", {"h": h, "r": r}, sb.kantorovich(h, r), ratios[fp][i])
            yield ("c_of_hr", {"h": h, "r": r, "m": 1.0}, sb.c_of_hr(1.0, h, r), diffs[fp][i])


def oracle_sweep():
    """(``oracle_row`` of every cataloged closed form against the grid-zoom
    oracle of ``scalar_bounds``, worst abs_diff).  A row whose closed form
    or oracle value is not finite has a NaN or infinite abs_diff, and the
    worst is NaN if any row's is, so such a row fails any tolerance."""
    rows = [oracle_row(*case) for case in _sweep_cases()]
    return rows, float(np.max([row["abs_diff"] for row in rows]))
