"""Randomized verification: hypothesis-respecting generators, margin
checkers for every inequality, and deterministic report aggregation.

A check never "fixes up" its inputs: hypothesis violations raise, and the
margin of an operator inequality L <= R is the smallest eigenvalue of R - L
(the tightest scalar witness).

``run_suite`` is the one trial loop.  A suite is a draw function, a score
function and its default params.  The driver draws trial i's instance from
its own generator, ``trial_rng(seed, i)`` (a ``numpy.random.SeedSequence``
spawn key), then scores all the instances with one call of the suite's
batch margin kernel.  A kernel decomposes each distinct input matrix once,
in one LAPACK stack per dimension (``operator_calculus._eigh``), and takes
every spectral image of that matrix from the same (w, V); the lambda_min
reductions go through ``operator_calculus._eigvalsh``.  Both solvers give
a matrix the same bits in any stack, so reports do not depend on batching.
A public ``check_*`` function validates its input, keeping the
decompositions the validation made, and runs the same kernel on a batch of
one, so its margins equal the suite's bit for bit.  The Jacobi solver is
not on this path; the ``eigensolver`` and ``eigensolver_crosscheck`` suites
exercise it.

The scalar and classical suites follow the same rule with vectors: trials
are grouped by length and parameters, each group is stacked into (k, n)
arrays (``_per_group``), validated once and scored in one pass by the
stacked kernel of ``check_scalar_corollary``, ``majorization`` or
``classical_entropy``, which computes its constants once per group.  Rows
are reduced with ``np.sum``/``np.cumsum`` along the last axis, which gives
a row the bits of the 1-d call, so ``check_scalar_corollary``,
``fuchs_margin``, ``moment_margin`` and the classical margins, each a batch
of one of its kernel, equal the suites bit for bit.  The conditioned pairs
of the reverse suites are drawn in blocks and screened by row sums, with
the one-pair check deciding, so they equal the one-pair-at-a-time draws.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import classical_entropy as ce
from . import majorization as mj
from . import operator_calculus as oc
from . import scalar_bounds as sb
from .errors import DomainError, GeneratorExhausted, PreconditionError, ShapeError
from .functions import FunctionSpec, Interval, ln_r

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
    "oracle_sweep",
    "report_to_json",
    "verdict_csv_rows",
]

OPERATOR_TOL = 1e-8   # eigensolver residual dominates operator margins
SCALAR_TOL = 1e-9


@dataclass(frozen=True)
class InequalityVerdict:
    """One inequality check: margin >= -tol means pass.

    For operator inequalities L <= R the margin is lambda_min(R - L) and
    lhs = rhs = 0.0; for scalars lhs and rhs are the two sides and the
    margin is R - L.  Reports serialize only the margin and the context.
    """

    inequality_id: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    context: dict = field(default_factory=dict)


@dataclass
class TrialReport:
    suite_id: str
    trials: int
    failures: int
    min_margin: Optional[float]
    worst_context: dict
    elapsed_ms: int

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


def verdict_csv_rows(suite_id: str, verdicts: Sequence[InequalityVerdict]):
    """Streaming-friendly CSV rows (header first); the documented columns
    come first, with the inequality id appended for disambiguation."""
    yield _CSV_FIELDS
    for v in verdicts:
        ctx = v.context
        yield (suite_id, ctx.get("trial", ""), repr(v.margin), int(v.passed),
               *(ctx.get(key, "") for key in ("dim", "r", "alpha", "eps", "seed")),
               v.inequality_id)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator: SeedSequence(seed) split by spawn key (trial,)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),)))


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
    ``candidates(block)`` screens a block with slack and gives, in order,
    the indices that may pass; ``accept(block, j)`` decides draw j with the
    one-draw expression and returns its item or None.  After an accepted
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

    A sweep is a function of the bits of its input, and in floating point
    the iterates soon revisit an earlier state exactly (within 50 sweeps for
    n <= 4) and cycle from there.  The loop stops at the first repeat and
    takes the state the remaining sweeps would reach, so the result equals
    the full loop's bit for bit."""
    S = rng.uniform(0.5, 1.5, size=(n, n))
    states, seen = [S], {S.tobytes(): 0}
    for k in range(1, iters + 1):
        S = S / S.sum(axis=1, keepdims=True)
        S /= S.sum(axis=0, keepdims=True)
        start = seen.setdefault(S.tobytes(), k)
        if start < k:
            S = states[start + (iters - start) % (k - start)]
            break
        states.append(S)
    return S / S.sum(axis=1, keepdims=True)


FAMILY_KINDS = ("uniform_permutation", "doubly_stochastic_mix", "normalized_trace")


def gen_equal_map_sum_operators(n: int, dim: int, iv: Interval, family_kind: str,
                                rng: np.random.Generator):
    """(As, Bs, family) with spectra in [m, M] and equal map-sums.

    uniform_permutation: identical conjugation maps with uniform weights,
    B a permutation of A.  doubly_stochastic_mix: same maps, B_i a doubly
    stochastic mixture of the A_j (spectra stay inside [m, M]).
    normalized_trace: trace maps with density-matrix inputs, where the
    constraint holds automatically.
    """
    if family_kind in ("uniform_permutation", "doubly_stochastic_mix"):
        U = oc.rand_unitary(dim, rng)
        maps = tuple(oc.WeightedConjugation(1.0 / n, U) for _ in range(n))
        As = [oc.rand_hermitian_spectrum_in(dim, iv, rng) for _ in range(n)]
        if family_kind == "uniform_permutation":
            Bs = [As[j] for j in rng.permutation(n)]
        else:
            S = sinkhorn_doubly_stochastic(n, rng)
            Bs = [oc.hermitize(sum(S[i, j] * As[j] for j in range(n))) for i in range(n)]
    elif family_kind == "normalized_trace":
        if not (iv.m <= 0.0 + 1e-12 and iv.M >= 1.0 - 1e-12):
            raise DomainError("normalized_trace inputs are density matrices; "
                              "the interval must cover [0, 1]")
        w = rng.dirichlet(np.ones(n))
        maps = tuple(oc.NormalizedTrace(float(wi)) for wi in w)
        As = [oc.rand_density(dim, rng) for _ in range(n)]
        Bs = [oc.rand_density(dim, rng) for _ in range(n)]
    else:
        raise DomainError(f"unknown family kind {family_kind!r}")
    family = oc.MapFamily(maps, dim)
    return As, Bs, family


def gen_conditioned_prob_pair(n: int, eps: float, direction: str, rng: np.random.Generator,
                              cap: int = _REDRAW_CAP):
    """(p, q) with components in [eps, 1] and the declared inner-product
    condition; rejection sampling over floored Dirichlet draws (cap 1e5
    pairs).

    Pairs are drawn in blocks of doubling size from _PAIR_BLOCK, p and q
    interleaved (2k draws of size n give the same numbers as one (2k, n)
    draw), and screened with row sums.  The one-row ``condition_tag_holds``
    decides acceptance, and the rng ends where the one-pair-at-a-time loop
    would."""
    if n * eps >= 1.0:
        raise DomainError(f"floor {eps} is infeasible for n={n}")
    ones = np.ones(n)

    def accept(D, j):
        p, q = D[2 * j], D[2 * j + 1]
        return (p.copy(), q.copy()) if ce.condition_tag_holds(p, q, direction) else None

    pair = _first_accepted(
        rng, lambda k: eps + (1.0 - n * eps) * rng.dirichlet(ones, size=2 * k),
        lambda D: np.flatnonzero(ce._condition_gap(D[0::2], D[1::2], direction)
                                 <= ce.PROB_TOL + ce.SCREEN_SLACK),
        accept, cap, _PAIR_BLOCK, 2 * n)
    if pair is not None:
        return pair
    raise GeneratorExhausted(
        f"no ({direction}) pair with floor {eps} after {cap} draws"
    )


def gen_fuchs_instance(n: int, iv: Interval, rng: np.random.Generator):
    """(x, y, p) satisfying the weighted prefix conditions by construction:
    y decreasing, p positive, and x built from y by averaging n random
    adjacent pairs (weighted), which preserves the weighted total and can
    only lower prefix sums."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    y = np.sort(rng.uniform(iv.m, iv.M, size=n))[::-1]
    p = rng.uniform(0.2, 1.0, size=n)
    x = y.copy()
    for _ in range(n):
        i = int(rng.integers(0, n - 1))
        w = p[i] + p[i + 1]
        avg = (p[i] * x[i] + p[i + 1] * x[i + 1]) / w
        x[i] = avg
        x[i + 1] = avg
    return x, y, p


# ---------------------------------------------------------------------------
# margin kernels (one per inequality, shared by checkers and batched suites)
# ---------------------------------------------------------------------------


def _scalar_verdict(inequality_id, lhs, rhs, tol, context) -> InequalityVerdict:
    margin = float(rhs - lhs)
    return InequalityVerdict(inequality_id, float(lhs), float(rhs), margin,
                             margin >= -tol, context)


def _stack(rows) -> np.ndarray:
    """np.stack of ``rows``, except that 1-d rows which all run backwards in
    memory (``[::-1]`` views, like ``gen_fuchs_instance``'s y) stack into a
    (k, n) view that runs backwards as a whole.  numpy's exp and log take
    another loop, with other last bits, on a negative stride, and they take
    it on such a view too, so each row keeps the bits of a 1-d call."""
    if all(r.ndim == 1 and r.strides[0] < 0 for r in rows):
        return np.stack([r[::-1] for r in rows[::-1]])[::-1, ::-1]
    return np.stack(rows)


def _per_group(solve, keys, *columns) -> list:
    """The results of ``solve(key, *stacks)`` for each row, in row order:
    one call per distinct key, on the ``_stack`` of that key's entries of
    each column (``solve`` returns one entry per stacked row).  Every kernel
    gives a row the same bits in any stack, so the grouping does not show."""
    groups = defaultdict(list)
    for j, key in enumerate(keys):
        groups[key].append(j)
    out = [None] * len(keys)
    for key, idxs in groups.items():
        stacks = [_stack([col[j] for j in idxs]) for col in columns]
        for j, res in zip(idxs, solve(key, *stacks)):
            out[j] = res
    return out


def _per_dim(solve, mats) -> list:
    """The results of ``solve`` for each matrix of ``mats``, from one call
    per dimension on the stack of that dimension's matrices."""
    return _per_group(lambda _, stack: solve(stack), [M.shape[0] for M in mats], mats)


def _margin_verdicts(items, tol) -> List[InequalityVerdict]:
    """Operator verdicts for (inequality_id, rhs - lhs, context) items, with
    one lambda_min stack per dimension."""
    evals = _per_dim(oc._eigvalsh, [np.asarray(mat, dtype=complex) for _, mat, _ in items])
    margins = [float(w[0]) for w in evals]
    return [InequalityVerdict(name, 0.0, 0.0, m, m >= -tol, ctx)
            for (name, _, ctx), m in zip(items, margins)]


def _eigh_distinct(mats, eig=None):
    """{id(M): (w, V)}: a copy of ``eig`` (the decompositions a caller already
    has) plus each distinct matrix object M of ``mats`` that it lacks, with
    one LAPACK stack per dimension; a matrix passed twice is decomposed once."""
    eig = dict(eig or {})
    new = {id(M): M for M in mats if id(M) not in eig}
    eig.update(zip(new, _per_dim(lambda S: list(zip(*oc._eigh(S))), list(new.values()))))
    return eig


def _function_images(eig, f, mats):
    """{id(M): f(M)} for the distinct matrix objects of ``mats``, recomposed
    from their (w, V) in one stack; callers pass one instance's matrices, so
    an image does not depend on the rest of the batch."""
    keys = list(dict.fromkeys(id(M) for M in mats))
    img = oc._function_image(f, np.stack([eig[k][0] for k in keys]),
                             np.stack([eig[k][1] for k in keys]))
    return dict(zip(keys, img))


def _jensen_verdicts(instances, tol, eig=None) -> List[InequalityVerdict]:
    """Vector-state Jensen verdicts <Phi-sum of f(A) x, x> >= f(<Phi-sum of
    A x, x>) for (family, mats, f, vectors, context) instances; ``eig`` holds
    the decompositions the caller already has."""
    eig = _eigh_distinct([M for inst in instances for M in inst[1]], eig)
    verdicts = []
    for family, mats, f, vecs, ctx in instances:
        images = _function_images(eig, f, mats)
        img = oc.apply_map_family(family, [images[id(M)] for M in mats])
        base = oc.apply_map_family(family, mats)
        X = np.stack(vecs)
        means = np.clip(_quadratic_forms(base, X), f.domain.m, f.domain.M)
        lifted = _quadratic_forms(img, X)
        for j, (lhs, rhs) in enumerate(zip(f(means), lifted)):
            verdicts.append(_scalar_verdict("lemma_jensen", lhs, rhs, tol,
                                            {**ctx, "vector": j}))
    return verdicts


def _quadratic_forms(M, X) -> np.ndarray:
    """Re <M x, x> for each row x of X."""
    return np.real(np.sum(X.conj() * (X @ M.T), axis=1))


def _map_sum_verdicts(instances, inequality_id, tol, eig=None) -> List[InequalityVerdict]:
    """Map-sum verdicts Phi-sum of f(A) <= beta*I + alpha * Phi-sum of f(B)
    for (family, As, Bs, f, alpha, context) instances.  Each distinct matrix
    object is decomposed once (a B_i that is an A_j object, or a repeated
    B_i, shares its decomposition); ``eig`` holds those the caller has."""
    eig = _eigh_distinct([M for _, As, Bs, *_ in instances for M in (*As, *Bs)], eig)
    items = []
    for family, As, Bs, f, alpha, ctx in instances:
        beta = sb.beta_constant(f, f.domain, alpha)
        images = _function_images(eig, f, (*As, *Bs))
        lhs = oc.apply_map_family(family, [images[id(A)] for A in As])
        rhs = beta * np.eye(family.output_dim, dtype=complex) \
            + alpha * oc.apply_map_family(family, [images[id(B)] for B in Bs])
        items.append((inequality_id, rhs - lhs, ctx))
    return _margin_verdicts(items, tol)


MEAN_FORMS_SOUND = ("mean_ratio", "mean_diff", "sr_k_form", "sr_k_form_x_both", "sr_c_form")
MEAN_FORMS_LIMIT = ("s0_nonneg", "s0_pair_vs_z")
MEAN_FORM_C_LHS = "sr_c_form_lhs_variant"


def _mean_margin_mats(instances, include_limits: bool, eig=None):
    """Margin matrices (rhs - lhs) of the operator-mean and relative-entropy
    bounds, one dict per (Z, As, Bs, w, r, iv) instance: Z-relative tuples
    As, Bs with weights w and spectra in iv, built from
    P = Z^(1/2) (sum w A_i^r) Z^(1/2) and Q likewise for B.  With
    ``include_limits`` the two r -> 0 limit claims are added.

    Z^(1/2), A_i^r and log A_i all come from one decomposition per matrix
    object, taken in one LAPACK stack per dimension over the whole batch
    (``eig`` holds those the caller already has).  Instances with n = 1 pass
    B as the same object as A, so it is decomposed once.  Each image is
    recomposed on its own, so the margins do not depend on the batch."""
    eig = _eigh_distinct([M for Z, As, Bs, *_ in instances for M in (Z, *As, *Bs)], eig)

    def image(M, spectral_map, *args):
        w, V = eig[id(M)]
        return oc._recompose(spectral_map(w, *args), V)

    out = []
    for Z, As, Bs, w, r, iv in instances:
        zs = image(Z, oc._sqrt_of_psd)
        P = oc.hermitize(zs @ sum(wi * image(A, oc._power_of_psd, r, True)
                                  for wi, A in zip(w, As)) @ zs)
        Q = oc.hermitize(zs @ sum(wi * image(B, oc._power_of_psd, r, True)
                                  for wi, B in zip(w, Bs)) @ zs)
        h = iv.M / iv.m
        big_k = sb.kantorovich(h, r)
        c_const = sb.c_of_hr(iv.m, h, r)
        Zc = np.asarray(Z, dtype=complex)
        if 0.0 < r < 1.0:
            mats = {"mean_ratio": P - big_k * Q, "mean_diff": P - c_const * Zc - Q}
        else:
            mats = {"mean_ratio": big_k * Q - P, "mean_diff": c_const * Zc + Q - P}
        sr_x = (P - Zc) / r
        sr_y = (Q - Zc) / r
        if r >= 1.0:
            mats["sr_k_form"] = (big_k * Q - Zc) / r - sr_x
            mats["sr_k_form_x_both"] = (big_k * P - Zc) / r - sr_x
            mats["sr_c_form"] = (c_const / r) * Zc + sr_y - sr_x
        else:
            # r < 0 or 0 < r < 1: the derived orientation keeps the C-term on
            # the right-hand side
            mats["sr_k_form"] = sr_x - (big_k * Q - Zc) / r
            mats["sr_k_form_x_both"] = sr_x - (big_k * P - Zc) / r
            mats["sr_c_form"] = sr_x - (c_const / r) * Zc - sr_y
        if 0.0 < r < 1.0:
            # C-term-on-the-left orientation; unsatisfiable at X = Y since
            # C < 0 in this regime, so it is scored under its own id
            mats[MEAN_FORM_C_LHS] = sr_x + (c_const / r) * Zc - sr_y
        if include_limits:
            s0x = oc.hermitize(zs @ sum(wi * image(A, oc._log_of_pd) for wi, A in zip(w, As)) @ zs)
            s0y = oc.hermitize(zs @ sum(wi * image(B, oc._log_of_pd) for wi, B in zip(w, Bs)) @ zs)
            mats["s0_nonneg"] = s0x
            mats["s0_pair_vs_z"] = s0x + s0y - Z
        out.append(mats)
    return out


def _entropy_evals(instances):
    """Spectra (w_A, w_B) of each instance's leading (A, B) pair, with one
    LAPACK eigenvalue stack per dimension."""
    w = _per_dim(oc._eigvalsh, [M for inst in instances for M in inst[:2]])
    return list(zip(w[0::2], w[1::2]))


def _vn_verdicts(instances, tol, evals=None) -> List[InequalityVerdict]:
    """alpha H(B) <= H(A) + (alpha/e) dim and |H(A) - H(B)| <= dim/e for
    (A, B, alpha, context) instances; ``evals`` holds the spectra (w_A, w_B)
    when the caller already has them."""
    verdicts = []
    for (A, _, alpha, ctx), (wa, wb) in zip(instances, evals or _entropy_evals(instances)):
        ha = oc.von_neumann_entropy_from_evals(wa)
        hb = oc.von_neumann_entropy_from_evals(wb)
        dim = A.shape[0]
        verdicts.append(_scalar_verdict("entropy_vn_alpha", alpha * hb,
                                        ha + alpha / math.e * dim, tol, ctx))
        verdicts.append(_scalar_verdict("entropy_vn_symmetric", abs(ha - hb),
                                        dim / math.e, tol, ctx))
    return verdicts


def _tsallis_beta_factor(r: float) -> float:
    return 1.0 if abs(1.0 - r) < 1e-12 else (1.0 - r) ** ((1.0 - r) / r)


def _tsallis_verdicts(instances, tol, evals=None) -> List[InequalityVerdict]:
    """alpha H_r(B) <= H_r(A) + alpha (1-r)^((1-r)/r) dim and the symmetric
    difference bound for (A, B, alpha, r, context) instances; ``evals`` as
    in _vn_verdicts."""
    verdicts = []
    for (A, _, alpha, r, ctx), (wa, wb) in zip(instances, evals or _entropy_evals(instances)):
        ha = oc.tsallis_entropy_from_evals(wa, r)
        hb = oc.tsallis_entropy_from_evals(wb, r)
        fac = _tsallis_beta_factor(r)
        dim = A.shape[0]
        verdicts.append(_scalar_verdict("entropy_tsallis_alpha", alpha * hb,
                                        ha + alpha * fac * dim, tol, ctx))
        verdicts.append(_scalar_verdict("entropy_tsallis_symmetric", abs(ha - hb),
                                        fac * dim, tol, ctx))
    return verdicts


# ---------------------------------------------------------------------------
# checkers (single instance: validate, then run the kernel on a batch of one)
# ---------------------------------------------------------------------------


def _validate_equal_map_sum(family, As, Bs):
    lhs = oc.apply_map_family(family, As)
    rhs = oc.apply_map_family(family, Bs)
    res = float(np.linalg.norm(lhs - rhs))
    if res > 1e-8 * max(1.0, float(np.linalg.norm(lhs))):
        raise PreconditionError(f"map sums differ: residual {res:.3e}")


def _validate_spectra(mats, iv: Interval, eig=None):
    """Decompositions {id(M): (w, V)} of the Hermitian matrices ``mats``
    (added to ``eig``), after checking that every spectrum lies in iv; the
    margin kernel reuses them."""
    eig = _eigh_distinct(mats, eig)
    w = np.concatenate([eig[id(M)][0] for M in mats])
    if w.min() < iv.m - 1e-9 or w.max() > iv.M + 1e-9:
        raise PreconditionError(
            f"spectra [{w.min():.6g}, {w.max():.6g}] escape [{iv.m}, {iv.M}]"
        )
    return eig


def check_lemma_jensen(family: oc.MapFamily, mats, f: FunctionSpec, vectors,
                       tol: float = SCALAR_TOL, context: Optional[dict] = None):
    """Vector-state Jensen margins <Phi-sum of f(A) x, x> - f(<Phi-sum of A x, x>)
    for each unit vector x; nonnegative for convex f."""
    if not f.is_convex:
        raise PreconditionError("the vector-state Jensen bound needs convex f")
    mats = [oc.assert_hermitian(M) for M in mats]
    eig = _validate_spectra(mats, f.domain)
    vecs = [np.asarray(x, dtype=complex) for x in vectors]
    if not vecs:
        raise PreconditionError("the vector-state Jensen bound needs at least one vector")
    for j, x in enumerate(vecs):
        nrm = np.linalg.norm(x)
        if abs(nrm - 1.0) > 1e-10:
            raise PreconditionError(f"vector {j} is not unit norm ({nrm})")
    return _jensen_verdicts([(family, mats, f, vecs, dict(context or {}))], tol, eig)


def check_theorem_beta(family: oc.MapFamily, As, Bs, f: FunctionSpec, alpha: float,
                       tol: float = OPERATOR_TOL, context: Optional[dict] = None) -> InequalityVerdict:
    """Map-sum reverse bound: Phi-sum of f(A) <= beta*I + alpha * Phi-sum of f(B),
    given equal map-sums, spectra in the domain interval, convex f."""
    if not f.is_convex:
        raise PreconditionError("check_theorem_beta needs convex f")
    As = [oc.assert_hermitian(A) for A in As]
    Bs = [oc.assert_hermitian(B) for B in Bs]
    eig = _validate_spectra(As + Bs, f.domain)
    _validate_equal_map_sum(family, As, Bs)
    ctx = {**(context or {}), "alpha": alpha, "f": f.name}
    return _map_sum_verdicts([(family, As, Bs, f, alpha, ctx)], "theorem_beta", tol, eig)[0]


def check_corollary_weighted(ps, As, Bs, f: FunctionSpec, alpha: float,
                             tol: float = OPERATOR_TOL, context: Optional[dict] = None) -> InequalityVerdict:
    """Scalar-weight specialization Phi_i(X) = p_i X of the map-sum bound."""
    ps = np.asarray(ps, dtype=float)
    if np.any(ps <= 0.0) or abs(ps.sum() - 1.0) > 1e-10:
        raise PreconditionError("weights must be positive and sum to 1")
    dim = np.asarray(As[0]).shape[0]
    eye = np.eye(dim, dtype=complex)
    family = oc.MapFamily(tuple(oc.WeightedConjugation(float(p), eye) for p in ps), dim)
    v = check_theorem_beta(family, As, Bs, f, alpha, tol, context)
    return replace(v, inequality_id="corollary_weighted")


MODE_EQUAL = "equal_mean"
MODE_RELAXED = "relaxed_decreasing"


def _is_decreasing(f: FunctionSpec, iv: Interval) -> bool:
    lo = iv.m if f.defined_at(iv.m) else iv.m + 1e-12
    ts = np.linspace(lo, iv.M, 257)
    vals = np.asarray(f(ts), dtype=float)
    return bool(np.all(np.diff(vals) <= 1e-12))


def _check_means(p, x, y, mode):
    """The weighted-mean precondition of one (p, x, y) row, by np.dot."""
    mx, my = float(np.dot(p, x)), float(np.dot(p, y))
    if mode == MODE_EQUAL:
        if abs(mx - my) > 1e-10 * max(1.0, abs(my)):
            raise PreconditionError(f"weighted means differ: {mx} vs {my}")
    elif mx > my + 1e-10 * max(1.0, abs(my)):
        raise PreconditionError(f"relaxed mode needs sum p x <= sum p y ({mx} > {my})")


def _check_scalar_corollary_rows(P, X, Y, f: FunctionSpec, mode: str, decreasing: bool):
    """``check_scalar_corollary``'s preconditions on (k, n) stacks of p, x
    and y, one instance per row; ``decreasing`` is ``_is_decreasing(f,
    f.domain)``, which only relaxed mode reads."""
    if np.any(P <= 0.0) or np.any(np.abs(np.sum(P, axis=-1) - 1.0) > 1e-10):
        raise PreconditionError("weights must be positive and sum to 1")
    iv = f.domain
    if min(X.min(), Y.min()) < iv.m - 1e-12 or max(X.max(), Y.max()) > iv.M + 1e-12:
        raise PreconditionError("entries must lie in the function interval")
    if mode not in (MODE_EQUAL, MODE_RELAXED):
        raise DomainError(f"unknown mode {mode!r}")
    # row sums screen the means; a row sum differs from np.dot by far less
    # than 1e-12 of the terms' magnitude, and np.dot decides near the bound
    mx, my = np.sum(P * X, axis=-1), np.sum(P * Y, axis=-1)
    gap = np.abs(mx - my) if mode == MODE_EQUAL else mx - my
    slack = 1e-12 * (np.sum(np.abs(P * X), axis=-1) + np.sum(np.abs(P * Y), axis=-1))
    for j in np.flatnonzero(gap > 1e-10 * np.maximum(1.0, np.abs(my)) - slack):
        _check_means(P[j], X[j], Y[j], mode)
    if mode == MODE_RELAXED and not decreasing:
        raise PreconditionError("relaxed mode needs monotone decreasing f")
    if not f.is_convex:
        raise PreconditionError("check_scalar_corollary needs convex f")


def _scalar_corollary_rows(P, X, Y, f: FunctionSpec, alpha: float):
    """[(form id, lhs, rhs)] of the beta, ratio and diff forms for each row
    of checked (k, n) stacks of p, x and y; each constant is computed once.
    The ratio form is left out when f is not strictly positive."""
    iv = f.domain
    sum_fy = np.sum(P * f(Y), axis=-1)
    sum_fx = np.sum(P * f(X), axis=-1)
    forms = [("scalar_beta_form", sb.beta_constant(f, iv, alpha) + alpha * sum_fx)]
    try:
        forms.append(("scalar_ratio_form", sb.ratio_constant(f, iv) * sum_fx))
    except PreconditionError:
        pass
    forms.append(("scalar_diff_form", sb.diff_constant(f, iv) + sum_fx))
    names = [name for name, _ in forms]
    return [[(name, lhs, rhs) for name, rhs in zip(names, row)]
            for lhs, *row in zip(sum_fy.tolist(), *(rhs.tolist() for _, rhs in forms))]


def check_scalar_corollary(p, x, y, f: FunctionSpec, alpha: float,
                           tol: float = SCALAR_TOL, mode: str = MODE_EQUAL,
                           context: Optional[dict] = None):
    """Scalar reverse bounds sum p f(y) <= {beta + alpha sum p f(x),
    K * sum p f(x), C + sum p f(x)} under equal weighted means (or
    sum p x <= sum p y with monotone decreasing f in relaxed mode).

    Returns beta/ratio/diff verdicts; the ratio form is skipped when f is
    not strictly positive on the interval.
    """
    P, X, Y = (np.asarray(a, dtype=float)[None] for a in (p, x, y))
    if not (P.shape == X.shape == Y.shape):
        raise ShapeError("p, x, y must share a length")
    _check_scalar_corollary_rows(P, X, Y, f, mode,
                                 mode == MODE_RELAXED and _is_decreasing(f, f.domain))
    ctx = {**(context or {}), "alpha": alpha, "f": f.name, "mode": mode}
    return [_scalar_verdict(name, lhs, rhs, tol, ctx)
            for name, lhs, rhs in _scalar_corollary_rows(P, X, Y, f, alpha)[0]]


def _density_pair(A, B):
    """(A, B, [(w_A, w_B)]) for two checked density matrices of one
    dimension; the kernels reuse the spectra the check computed."""
    A, wa = oc._density_evals(A, "A")
    B, wb = oc._density_evals(B, "B")
    if A.shape != B.shape:
        raise ShapeError(f"A and B must share a dimension, got {A.shape} and {B.shape}")
    return A, B, [(wa, wb)]


def check_entropy_vonneumann(A, B, alpha: float, tol: float = SCALAR_TOL,
                             context: Optional[dict] = None):
    """alpha H(B) <= H(A) + (alpha/e) dim, plus |H(A) - H(B)| <= dim/e."""
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    A, B, evals = _density_pair(A, B)
    ctx = {**(context or {}), "dim": A.shape[0], "alpha": alpha}
    return _vn_verdicts([(A, B, alpha, ctx)], tol, evals)


def check_entropy_tsallis(A, B, alpha: float, r: float, tol: float = SCALAR_TOL,
                          context: Optional[dict] = None):
    """Deformed analog: alpha H_r(B) <= H_r(A) + alpha (1-r)^((1-r)/r) dim,
    plus the symmetric difference bound."""
    if not 0.0 < r <= 1.0:
        raise DomainError(f"needs r in (0, 1], got {r}")
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    A, B, evals = _density_pair(A, B)
    ctx = {**(context or {}), "dim": A.shape[0], "alpha": alpha, "r": r}
    return _tsallis_verdicts([(A, B, alpha, r, ctx)], tol, evals)


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
                               tol: float = OPERATOR_TOL, context: Optional[dict] = None,
                               include_limits: bool = False):
    """Margins of the conjugation-mean bounds for weighted tuples with
    m Z <= X_i, Y_i <= M Z and equal weighted A/B sums in Z-relative terms.

    Xs/Ys may be single matrices or equal-length lists; weights must be
    positive and sum to 1.  With ``include_limits`` the two r -> 0 limit
    claims are checked as well (these need m >= 1 resp. m >= sqrt(e) to
    hold; the generator in the limits suite pins such intervals).
    """
    if abs(r) < 1e-12:
        raise DomainError("r = 0 is degenerate here; use the limit checks")
    if iv.m <= 0.0:
        raise DomainError("the interval must be positive (m > 0)")
    Z = oc.assert_hermitian(Z, "Z")
    if isinstance(Xs, np.ndarray) and Xs.ndim == 2:
        Xs = [Xs]
    if isinstance(Ys, np.ndarray) and Ys.ndim == 2:
        Ys = [Ys]
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-10:
        raise PreconditionError("weights must be positive and sum to 1")
    if not (len(Xs) == len(Ys) == w.size):
        raise ShapeError("Xs, Ys, weights must share a length")
    # each input is decomposed once: Z for Z^(-1/2) here and Z^(1/2) in the
    # kernel, the A_i and B_i for the spectra check here and the kernel
    eig = _eigh_distinct([Z])
    wz, vz = eig[id(Z)]
    zis = oc._recompose(oc._invsqrt_of_pd(wz), vz)
    As = [oc.hermitize(zis @ np.asarray(X, dtype=complex) @ zis) for X in Xs]
    Bs = [oc.hermitize(zis @ np.asarray(Y, dtype=complex) @ zis) for Y in Ys]
    eig = _validate_spectra(As + Bs, iv, eig)
    mean_a = sum(wi * Ai for wi, Ai in zip(w, As))
    mean_b = sum(wi * Bi for wi, Bi in zip(w, Bs))
    if float(np.linalg.norm(mean_a - mean_b)) > 1e-8 * max(1.0, float(np.linalg.norm(mean_a))):
        raise PreconditionError("weighted A/B sums differ in Z-relative terms")
    mats = _mean_margin_mats([(Z, As, Bs, w, r, iv)], include_limits, eig)[0]
    ctx = {**(context or {}), "r": r, "m": iv.m, "M": iv.M}
    return _margin_verdicts([(name, mat, ctx) for name, mat in mats.items()], tol)


# ---------------------------------------------------------------------------
# function catalog used by the suites
# ---------------------------------------------------------------------------


def function_catalog(name: str) -> FunctionSpec:
    """Named convex test functions with their standard intervals."""
    if name == "t_log_t":
        return FunctionSpec.t_log_t(Interval(0.0, 1.0))
    if name == "neg_log":
        return FunctionSpec.neg_log(Interval(0.05, 1.0))
    if name == "power2":
        return FunctionSpec.power(2.0, Interval(0.2, 2.0))
    if name == "tsallis_05":
        return FunctionSpec.tsallis_f(0.5, Interval(0.0, 1.0))
    raise DomainError(f"unknown catalog function {name!r}")


_DEFAULT_FS = ("t_log_t", "neg_log", "power2", "tsallis_05")
_DEFAULT_ALPHAS = (0.0, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# suites: draw every trial's instance, then score them all in one batch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Suite:
    """``draw(i, rng, params, ctx)`` builds trial i's instance from the
    trial's own rng, given the base context {trial, seed}; ``score(instances,
    params)`` runs the suite's batch kernel once on all the instances;
    ``defaults`` fill in the params the caller leaves out, and ``prepare``
    adds what a run derives from its params once, before the draws."""

    draw: Callable
    score: Callable
    defaults: dict
    prepare: Callable = dict


def _cycle(seq, i):
    return seq[i % len(seq)]


def _gen_jensen_instance(n, dim, iv: Interval, rng: np.random.Generator):
    """(family, mats, vectors): n weighted unitary conjugations, n matrices
    with spectra in iv, the standard basis plus 16 random unit vectors."""
    weights = rng.dirichlet(np.ones(n))
    maps = tuple(oc.WeightedConjugation(float(wi), oc.rand_unitary(dim, rng))
                 for wi in weights)
    family = oc.MapFamily(maps, dim)
    mats = [oc.rand_hermitian_spectrum_in(dim, iv, rng) for _ in range(n)]
    vecs = [v for v in np.eye(dim)]
    raw = rng.standard_normal((16, dim)) + 1j * rng.standard_normal((16, dim))
    vecs += [v / np.linalg.norm(v) for v in raw]
    return family, mats, vecs


def _draw_jensen(i, rng, params, ctx):
    dim = _cycle(params["dims"], i)
    f = function_catalog(_cycle(params["fs"], i))
    family, mats, vecs = _gen_jensen_instance(max(1, params["n"]), dim, f.domain, rng)
    return family, mats, f, vecs, dict(ctx, dim=dim, f=f.name)


_WEIGHT_VARIANTS = ("weights_v0", "weights_v1", "weights_v2")


def _gen_weighted_instance(n, dim, iv: Interval, kind: str, rng: np.random.Generator):
    """(As, Bs, family) with scalar-weight maps Phi_i(X) = w_i X.  B is the
    all-equal-to-the-weighted-mean reduction (weights_v0), a copy of A
    (weights_v1) or a doubly stochastic mix under uniform weights
    (weights_v2)."""
    w = rng.dirichlet(np.ones(n))
    As = [oc.rand_hermitian_spectrum_in(dim, iv, rng) for _ in range(n)]
    if kind == "weights_v0":
        mean = oc.hermitize(sum(wi * A for wi, A in zip(w, As)))
        Bs = [mean] * n
    elif kind == "weights_v1":
        Bs = list(As)
    else:
        # doubly stochastic mixing preserves uniform-weight sums only
        S = sinkhorn_doubly_stochastic(n, rng)
        w = np.full(n, 1.0 / n)
        Bs = [oc.hermitize(sum(S[k, j] * As[j] for j in range(n))) for k in range(n)]
    eye = np.eye(dim, dtype=complex)
    family = oc.MapFamily(tuple(oc.WeightedConjugation(float(wi), eye) for wi in w), dim)
    return As, Bs, family


def _draw_map_sum(i, rng, params, ctx, gen, kind):
    """A map-sum instance gen(n, dim, f.domain, kind, rng) -> (As, Bs, family)."""
    dim = _cycle(params["dims"], i)
    f = function_catalog(_cycle(params["fs"], i))
    alpha = _cycle(params["alphas"], i)
    As, Bs, family = gen(params["n"], dim, f.domain, kind, rng)
    return family, As, Bs, f, alpha, dict(ctx, dim=dim, f=f.name, alpha=alpha, family=kind)


def _with_catalog(params):
    """params plus "catalog": (FunctionSpec, is decreasing) for each name of
    params["fs"], built once per run; the draws and the score read it."""
    specs = [function_catalog(name) for name in params["fs"]]
    return {**params, "catalog": tuple((f, _is_decreasing(f, f.domain)) for f in specs)}


def _draw_scalar_corollary(i, rng, params, ctx):
    """Equal weighted means, or on odd trials with decreasing f the relaxed
    sum p x <= sum p y."""
    n = params["n"]
    f, decreasing = _cycle(params["catalog"], i)
    iv = f.domain
    if i % 2 == 1 and decreasing:
        x = rng.uniform(iv.m, iv.M, size=n)
        y = rng.uniform(iv.m, iv.M, size=n)
        p = rng.dirichlet(np.ones(n))
        if float(np.dot(p, x)) > float(np.dot(p, y)):
            x, y = y, x
        mode = MODE_RELAXED
    else:
        x, y, p = gen_equal_weighted_mean_scalars(n, iv, rng)
        mode = MODE_EQUAL
    return p, x, y, f, _cycle(params["alphas"], i), mode, dict(ctx, dim=n)


def _score_scalar_corollary(instances, params):
    decreasing = dict(params["catalog"])

    def solve(key, P, X, Y):
        _, f, alpha, mode = key
        _check_scalar_corollary_rows(P, X, Y, f, mode, decreasing[f])
        return _scalar_corollary_rows(P, X, Y, f, alpha)

    p, x, y, *_ = zip(*instances)
    keys = [(len(pi), f, alpha, mode) for pi, _, _, f, alpha, mode, _ in instances]
    verdicts = []
    for (*_, f, alpha, mode, ctx), forms in zip(instances, _per_group(solve, keys, p, x, y)):
        ctx = {**ctx, "alpha": alpha, "f": f.name, "mode": mode}
        verdicts += [_scalar_verdict(name, lhs, rhs, params["tol"], ctx)
                     for name, lhs, rhs in forms]
    return verdicts


_PREFIX_INTERVAL = Interval(-1.0, 2.0)


def _draw_prefix_instance(i, rng, params, ctx):
    n = params["n"]
    x, y, p = gen_fuchs_instance(n, _PREFIX_INTERVAL, rng)
    return x, y, p, dict(ctx, dim=n)


def _prefix_verdicts(inequality_id, instances, params, kinds, margins):
    """One verdict per (x, y, p, context) instance of the prefix suites:
    trial i has kind ``kinds[i % len(kinds)]`` and, on the stacks of its
    (n, kind) group, margin ``margins(kind, X, Y, P)``."""
    x, y, p, ctx = zip(*instances)
    keys = [(len(pi), c["trial"] % len(kinds)) for pi, c in zip(p, ctx)]
    rows = _per_group(lambda key, X, Y, P: margins(kinds[key[1]], X, Y, P).tolist(),
                      keys, x, y, p)
    return [_scalar_verdict(inequality_id, 0.0, m, params["tol"], c)
            for m, c in zip(rows, ctx)]


def _score_fuchs(instances, params):
    # a custom FunctionSpec runs a convexity scan when built: once per run
    iv = _PREFIX_INTERVAL
    dom = Interval(iv.m - 0.5, iv.M + 0.5)
    fs = [FunctionSpec.custom(g, "convex", dom, name) for g, name in (
        (lambda t: np.asarray(t, dtype=float) ** 2, "t^2"),
        (lambda t: np.exp(np.asarray(t, dtype=float)), "exp(t)"),
        (lambda t: np.abs(np.asarray(t, dtype=float) - 1.0), "|t-1|"))]
    instances = [(x, y, p, dict(ctx, f=_cycle(fs, ctx["trial"]).name))
                 for x, y, p, ctx in instances]
    return _prefix_verdicts("fuchs_margin", instances, params, fs, mj._fuchs_rows)


def _score_moment(instances, params):
    instances = [(x, y, p, dict(ctx, r=_cycle(params["orders"], ctx["trial"])))
                 for x, y, p, ctx in instances]
    return _prefix_verdicts(
        "moment_margin", instances, params, params["orders"],
        lambda order, X, Y, P: mj._moment_rows(P / np.sum(P, axis=-1, keepdims=True),
                                               X, Y, order))


def _draw_density_pair(i, rng, params, ctx):
    """(A, B, alpha, context): two random density matrices."""
    dim, alpha = _cycle(params["dims"], i), _cycle(params["alphas"], i)
    A = oc.rand_density(dim, rng)
    B = oc.rand_density(dim, rng)
    return A, B, alpha, dict(ctx, dim=dim, alpha=alpha)


def _draw_tsallis_pair(i, rng, params, ctx):
    A, B, alpha, ctx = _draw_density_pair(i, rng, params, ctx)
    r = _cycle(params["rs"], i)
    return A, B, alpha, r, dict(ctx, r=r)


def _draw_prob_pair(i, rng, params, ctx):
    """(p, q, r, context): two Dirichlet draws floored at 1e-12."""
    n, r = _cycle(params["sizes"], i), _cycle(params["rs"], i)
    p = np.maximum(rng.dirichlet(np.ones(n)), 1e-12)
    q = np.maximum(rng.dirichlet(np.ones(n)), 1e-12)
    return p / p.sum(), q / q.sum(), r, dict(ctx, dim=n, r=r)


def _info_inequality_rows(P, Q, r):
    """(information margin, -sum p^(1-r) ln_r p, -sum p^(1-r) ln_r q,
    sum p ln_r(1/p)) for each row pair of the stacks P, Q."""
    info = ce._information_rows(P, Q)
    # ln_r rejects a zero of p, so every entry of p counts in the sums
    weighted_p = -np.sum(P ** (1.0 - r) * ln_r(r, P), axis=-1)
    weighted_q, _ = ce._tsallis_cross_rows(P, Q, r)
    naive_p = np.sum(P * ln_r(r, 1.0 / P), axis=-1)
    return list(zip(info.tolist(), weighted_p.tolist(), weighted_q.tolist(),
                    naive_p.tolist()))


def _score_info_inequality(instances, params):
    tol = params["tol"]
    p, q, r, ctx = zip(*instances)
    keys = [(len(pi), ri) for pi, ri in zip(p, r)]
    rows = _per_group(lambda key, P, Q: _info_inequality_rows(P, Q, key[1]), keys, p, q)
    verdicts = []
    for (info, weighted_p, weighted_q, naive_p), c in zip(rows, ctx):
        gap = abs(weighted_p - naive_p)
        verdicts += [
            _scalar_verdict("info_inequality", 0.0, info, tol, c),
            _scalar_verdict("r_extended_info_inequality", weighted_p, weighted_q, tol, c),
            InequalityVerdict("tsallis_forms_agree", weighted_p, naive_p,
                              1e-10 - gap, gap <= 1e-10, c)]
    return verdicts


def _draw_conditioned_pair(i, rng, params, ctx):
    """(p, q, context): a floored pair whose dominance tag alternates."""
    n = _cycle(params["sizes"], i)
    direction = ce.SELF_DOMINATED if i % 2 == 0 else ce.CROSS_DOMINATED
    p, q = gen_conditioned_prob_pair(n, params["eps"], direction, rng)
    return p, q, dict(ctx, dim=n, eps=params["eps"], direction=direction)


def _draw_parametric_pair(i, rng, params, ctx):
    p, q, ctx = _draw_conditioned_pair(i, rng, params, ctx)
    return p, q, dict(ctx, r=_cycle(params["rs"], i))


def _reverse_score(suite_name, margins, key):
    """Score (p, q, context) instances by margins(key, P, Q) -> (ratio, diff)
    arrays, on the stacks of each (n, key(context)) group."""
    def score(instances, params):
        p, q, ctx = zip(*instances)
        keys = [(len(pi), key(c)) for pi, c in zip(p, ctx)]
        rows = _per_group(lambda k, P, Q: list(zip(*(m.tolist() for m in margins(k[1], P, Q)))),
                          keys, p, q)
        return [_scalar_verdict(suite_name + form, 0.0, m, params["tol"], c)
                for pair, c in zip(rows, ctx)
                for form, m in zip(("_ratio", "_diff"), pair)]
    return score


def _gen_mean_instance(rng, dim, iv, n):
    """(Z, As, Bs, w): Z with spectrum in [0.5, 2], n matrices A_i with
    spectra in iv, and B_i with the same weighted sum.  With n = 1, B is the
    same object as A (which lets _mean_margin_mats decompose it once);
    otherwise B is a doubly stochastic mix of the A_i under uniform weights."""
    Z = oc.rand_hermitian_spectrum_in(dim, Interval(0.5, 2.0), rng)
    As = [oc.rand_hermitian_spectrum_in(dim, iv, rng) for _ in range(n)]
    if n == 1:
        Bs = [As[0]]
        w = np.ones(1)
    else:
        S = sinkhorn_doubly_stochastic(n, rng)
        Bs = [oc.hermitize(sum(S[k, j] * As[j] for j in range(n))) for k in range(n)]
        w = np.full(n, 1.0 / n)
    return Z, As, Bs, w


def _draw_mean(i, rng, params, ctx):
    dim, r = _cycle(params["dims"], i), _cycle(params["rs"], i)
    n = 1 if i % 2 == 0 else 2
    iv = Interval(*params["interval"])
    Z, As, Bs, w = _gen_mean_instance(rng, dim, iv, n)
    return (Z, As, Bs, w, r, iv), dict(ctx, dim=dim, r=r, n=n)


def _mean_score(forms):
    """Score the named ``forms`` of each operator-mean instance (forms that
    do not apply at an instance's r are skipped)."""
    include_limits = any(name in forms for name in MEAN_FORMS_LIMIT)

    def score(instances, params):
        mats = _mean_margin_mats([inst for inst, _ in instances], include_limits)
        return _margin_verdicts([(name, m[name], ctx) for m, (_, ctx) in zip(mats, instances)
                                 for name in forms if name in m], params["tol"])
    return score


def _draw_hermitian(i, rng, params, ctx):
    """(G + G*)/2 with G complex Gaussian, dimension cycling through dims."""
    dim = _cycle(params["dims"], i)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (G + G.conj().T) / 2.0, dict(ctx, dim=dim)


def _solve_by_dim(solve, instances):
    """(context, solve result) per (matrix, context) instance, grouped by
    dimension in order of first appearance: the eigensolver suites' order."""
    first = {}
    instances = sorted(instances, key=lambda inst: first.setdefault(len(inst[0]), len(first)))
    return zip([ctx for _, ctx in instances], _per_dim(solve, [A for A, _ in instances]))


def _jacobi_residuals(stack):
    """(reconstruction, unitarity) residuals of the Jacobi eigensolver."""
    w, V = oc.eigh_stack(stack)
    rec = V @ (w[:, :, None] * np.swapaxes(V, 1, 2).conj()) - stack
    rec_res = np.linalg.norm(rec, axis=(1, 2)) / np.maximum(
        1.0, np.linalg.norm(stack, axis=(1, 2)))
    uni_res = np.linalg.norm(V @ np.swapaxes(V, 1, 2).conj() - np.eye(stack.shape[1]),
                             axis=(1, 2))
    return list(zip(rec_res, uni_res))


def _score_eigensolver(instances, params):
    tol = params["tol"]
    verdicts = []
    for ctx, res in _solve_by_dim(_jacobi_residuals, instances):
        for name, r in zip(("eig_reconstruction", "eig_unitarity"), res):
            m = tol - float(r)
            verdicts.append(InequalityVerdict(name, float(r), tol, m, m >= 0.0, ctx))
    return verdicts


# Jacobi and LAPACK eigenvalues must agree within 16 d eps max(1, ||A||_F);
# the worst difference measured on this suite's matrices (1500 trials at
# each of seeds 0, 7 and 1000) is 2.10 d eps ||A||_F
_CROSSCHECK_ULPS = 16.0


def _crosscheck(stack):
    """(max_i |w_J,i - w_L,i|, 16 d eps max(1, ||A||_F)): Jacobi (the oracle)
    against LAPACK (the margin path) and the bound on their distance."""
    diff = np.abs(oc.eigvals_stack(stack) - oc._eigvalsh(stack)).max(axis=1)
    bound = _CROSSCHECK_ULPS * stack.shape[1] * np.finfo(float).eps * np.maximum(
        1.0, np.linalg.norm(stack, axis=(1, 2)))
    return list(zip(diff, bound))


def _score_eigensolver_crosscheck(instances, params):
    verdicts = []
    for ctx, (diff, bound) in _solve_by_dim(_crosscheck, instances):
        m = float(bound - diff)
        verdicts.append(InequalityVerdict("eig_crosscheck", float(diff), float(bound),
                                          m, m >= 0.0, ctx))
    return verdicts


_MAP_SUM_DEFAULTS = {"dims": (2, 4, 8), "n": 3, "fs": _DEFAULT_FS,
                     "alphas": _DEFAULT_ALPHAS, "tol": OPERATOR_TOL}
_PREFIX_DEFAULTS = {"n": 5, "tol": SCALAR_TOL}
_DENSITY_DEFAULTS = {"dims": (2, 3, 4, 5, 6, 7, 8), "alphas": _DEFAULT_ALPHAS, "tol": SCALAR_TOL}
_REVERSE_DEFAULTS = {"eps": 0.05, "sizes": (2, 3, 4, 6), "tol": SCALAR_TOL}
_MEAN_DEFAULTS = {"dims": (2, 3, 4, 6), "interval": (1.7, 5.1), "tol": OPERATOR_TOL}
_EIG_DIMS = {"dims": tuple(range(2, 17))}

# A suite reads only the params its draw and score name: the CLI passes one
# params dict (dims, rs, alphas, eps, interval) to every suite, so
# reverse_shannon keeps r unset, entropy_vn ignores rs, corollary_weighted
# keeps its fixed weights_v* cycle whatever "families" says, and fuchs and
# moment draw from _PREFIX_INTERVAL, not the operator-mean "interval".
_SUITES: Dict[str, _Suite] = {
    "lemma_jensen": _Suite(
        _draw_jensen, lambda insts, p: _jensen_verdicts(insts, p["tol"]),
        {"dims": (2, 3, 4, 6, 8), "n": 3, "fs": _DEFAULT_FS, "tol": SCALAR_TOL}),
    "theorem_beta": _Suite(
        lambda i, rng, p, ctx: _draw_map_sum(i, rng, p, ctx, gen_equal_map_sum_operators,
                                             _cycle(p["families"], i)),
        lambda insts, p: _map_sum_verdicts(insts, "theorem_beta", p["tol"]),
        {**_MAP_SUM_DEFAULTS, "families": ("uniform_permutation", "doubly_stochastic_mix")}),
    "corollary_weighted": _Suite(
        lambda i, rng, p, ctx: _draw_map_sum(i, rng, p, ctx, _gen_weighted_instance,
                                             _cycle(_WEIGHT_VARIANTS, i)),
        lambda insts, p: _map_sum_verdicts(insts, "corollary_weighted", p["tol"]),
        _MAP_SUM_DEFAULTS),
    "scalar_corollary": _Suite(
        _draw_scalar_corollary, _score_scalar_corollary,
        {"n": 4, "fs": _DEFAULT_FS, "alphas": _DEFAULT_ALPHAS, "tol": SCALAR_TOL},
        _with_catalog),
    "fuchs": _Suite(_draw_prefix_instance, _score_fuchs, _PREFIX_DEFAULTS),
    "moment": _Suite(_draw_prefix_instance, _score_moment,
                     {**_PREFIX_DEFAULTS, "orders": (1, 2, 4)}),
    "entropy_vn": _Suite(_draw_density_pair, lambda insts, p: _vn_verdicts(insts, p["tol"]),
                         _DENSITY_DEFAULTS),
    "entropy_tsallis": _Suite(
        _draw_tsallis_pair, lambda insts, p: _tsallis_verdicts(insts, p["tol"]),
        {**_DENSITY_DEFAULTS, "rs": (0.1, 0.5, 0.9)}),
    "info_inequality": _Suite(
        _draw_prob_pair, _score_info_inequality,
        {"sizes": (2, 3, 5, 8), "rs": (0.1, 0.3, 0.5, 0.7, 0.9, 1.0), "tol": SCALAR_TOL}),
    "reverse_shannon": _Suite(
        _draw_conditioned_pair,
        _reverse_score("reverse_shannon",
                       lambda k, P, Q: ce._reverse_shannon_rows(P, Q, *k),
                       lambda c: (c["eps"], c["direction"])),
        _REVERSE_DEFAULTS),
    "parametric_reverse": _Suite(
        _draw_parametric_pair,
        _reverse_score("parametric_reverse",
                       lambda k, P, Q: ce._parametric_reverse_rows(P, Q, *k),
                       lambda c: (c["eps"], c["r"], c["direction"])),
        {**_REVERSE_DEFAULTS, "rs": (0.1, 0.5, 1.0, 2.0)}),
    "operator_means": _Suite(_draw_mean, _mean_score(MEAN_FORMS_SOUND),
                             {**_MEAN_DEFAULTS, "rs": (1.0, 1.7, 3.0, -0.8, -2.0, 0.3, 0.6)}),
    # the default interval has m >= sqrt(e), so both r -> 0 limit claims hold
    "mean_limits": _Suite(_draw_mean, _mean_score(MEAN_FORMS_SOUND + MEAN_FORMS_LIMIT),
                          {**_MEAN_DEFAULTS, "rs": (0.3,)}),
    "eigensolver": _Suite(_draw_hermitian, _score_eigensolver, {**_EIG_DIMS, "tol": 1e-10}),
    "eigensolver_crosscheck": _Suite(_draw_hermitian, _score_eigensolver_crosscheck, _EIG_DIMS),
}

#: excluded from "all": the C-term-on-the-left orientation of the 0 < r < 1
#: difference bound fails by construction whenever X = Y (the C-term is
#: negative in this regime), and is reported separately for inspection
_EXTRA_SUITES: Dict[str, _Suite] = {
    "mean_c_lhs_variant": _Suite(_draw_mean, _mean_score((MEAN_FORM_C_LHS,)),
                                 {**_MEAN_DEFAULTS, "rs": (0.3, 0.6)}),
}


def suite_ids(include_extra: bool = False):
    ids = list(_SUITES)
    if include_extra:
        ids += list(_EXTRA_SUITES)
    return ids


def run_suite(suite_id: str, trials: int, seed: int, params: Optional[dict] = None,
              keep_verdicts: bool = False):
    """Run a named suite: draw ``trials`` independent instances, trial i from
    its own ``trial_rng(seed, i)``, and score them in one batch.  Returns a
    TrialReport; with ``keep_verdicts`` the report carries the full verdict
    list as ``report.verdicts``."""
    suite = _SUITES.get(suite_id) or _EXTRA_SUITES.get(suite_id)
    if suite is None:
        raise DomainError(f"unknown suite {suite_id!r}; known: {suite_ids(True)}")
    if trials < 0:
        raise DomainError("trials must be >= 0")
    params = suite.prepare({**suite.defaults, **(params or {})})
    t0 = time.perf_counter()
    verdicts = []
    if trials > 0:
        instances = [suite.draw(i, trial_rng(seed, i), params, {"trial": i, "seed": seed})
                     for i in range(trials)]
        verdicts = suite.score(instances, params)
    elapsed = int((time.perf_counter() - t0) * 1000)
    failures = sum(0 if v.passed else 1 for v in verdicts)
    worst = min(verdicts, key=lambda v: v.margin, default=None)
    report = TrialReport(suite_id, trials, failures, worst.margin if worst else None,
                         dict(worst.context) if worst else {}, elapsed)
    if keep_verdicts:
        report.verdicts = verdicts
    return report


# ---------------------------------------------------------------------------
# closed-form vs oracle sweep
# ---------------------------------------------------------------------------

_EPS_GRID = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
_R_GRID = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0)
_H_GRID = (1.1, 1.5, 2.0, 5.0, 10.0, 50.0, 100.0)


def oracle_sweep():
    """Every cataloged closed form against the grid-zoom oracle
    ``scalar_bounds.interval_max``.

    Returns (rows, worst_abs_diff); each row carries name, params, both
    values and the absolute difference.  Two closed forms of one oracle
    value (log S(eps) and C(eps, -log)) share one oracle call.
    """
    rows = []

    def add(name, params, closed, oracle):
        rows.append({
            "name": name, "params": params,
            "closed_form": float(closed), "oracle_value": float(oracle),
            "abs_diff": abs(float(closed) - float(oracle)),
        })

    iv01 = Interval(0.0, 1.0)
    f_tlogt = FunctionSpec.t_log_t(iv01)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        add("beta_t_log_t", {"alpha": alpha},
            sb.beta_constant(f_tlogt, iv01, alpha), sb.beta_oracle(f_tlogt, iv01, alpha))
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            f = FunctionSpec.tsallis_f(r, iv01)
            add("beta_tsallis", {"alpha": alpha, "r": r},
                sb.beta_constant(f, iv01, alpha), sb.beta_oracle(f, iv01, alpha))
    for eps in _EPS_GRID:
        ive = Interval(eps, 1.0)
        f = FunctionSpec.neg_log(ive)
        add("ratio_neg_log", {"eps": eps},
            sb.ratio_constant(f, ive), sb.ratio_oracle(f, ive))
        diff = sb.diff_oracle(f, ive)
        add("diff_neg_log", {"eps": eps}, sb.diff_constant(f, ive), diff)
        add("log_specht_via_diff", {"eps": eps}, math.log(sb.specht(eps)), diff)
        for r in _R_GRID:
            fr = FunctionSpec.ln_r_reciprocal(r, ive)
            add("ratio_ln_r", {"eps": eps, "r": r},
                sb.ratio_constant(fr, ive), sb.ratio_oracle(fr, ive))
            add("ls_r_via_diff", {"eps": eps, "r": r},
                sb.ls_r_constant(eps, r), sb.diff_oracle(fr, ive))
    for h in _H_GRID:
        for r in (-2.0, -1.0, 0.3, 0.5, 0.7, 2.0, 3.0):
            ivh = Interval(1.0, h)
            fp = FunctionSpec.power(r, ivh)
            add("kantorovich", {"h": h, "r": r},
                sb.kantorovich(h, r), sb.ratio_oracle(fp, ivh))
            add("c_of_hr", {"h": h, "r": r, "m": 1.0},
                sb.c_of_hr(1.0, h, r), sb.diff_oracle(fp, ivh))
    worst = max(row["abs_diff"] for row in rows)
    return rows, worst
