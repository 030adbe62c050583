"""Shannon and Tsallis entropies with their reverse inequalities.

The reverse bounds trade the information inequality H(p) <= -sum p log q for
two-sided control under an inner-product condition between p and q: either
sum p_i q_i <= sum p_i^2 (``self_dominated``) or the opposite
(``cross_dominated``).  All components must live in a floor interval
[eps, 1]; the constants K(eps) = log(eps)/(eps-1), log S(eps) and their
r-deformed versions c1, ls_r come from ``scalar_bounds``.

Each margin has one kernel over stacks of probability vectors, (k, n)
arrays with one vector per row.  A kernel validates its stacks once,
computes its constants once and reduces each row with
``np.sum(..., axis=-1)``, which gives a row the bits of the 1-d sum.  A
public margin function checks that its arguments are 1-d and runs the
kernel on a batch of one, so it equals the batched suites bit for bit.
The inner-product condition, too, has one expression, ``_condition_gap``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError, DomainError, PreconditionError
from .functions import ln_r
from .scalar_bounds import ls_r_constant, specht

__all__ = [
    "SELF_DOMINATED",
    "CROSS_DOMINATED",
    "as_prob_vector",
    "condition_tag_holds",
    "shannon_entropy",
    "cross_term",
    "tsallis_entropy",
    "tsallis_cross_terms",
    "information_inequality_margin",
    "reverse_shannon_margins",
    "parametric_reverse_margins",
]

SELF_DOMINATED = "self_dominated"    # sum p_i q_i <= sum p_i^2
CROSS_DOMINATED = "cross_dominated"  # sum p_i^2  <= sum p_i q_i

PROB_TOL = 1e-12


def _as_row(p) -> np.ndarray:
    """p as a stack of one row, after the 1-d shape check."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"probability vector must be 1-d, got shape {arr.shape}")
    return arr[None]


def _check_prob_rows(P, floor: float | None = None):
    """Raise ``as_prob_vector``'s error for the first row of the stack P
    that is not a probability vector (with components in [floor, 1])."""
    if not np.isfinite(P).all():
        # NaN fails no comparison below, so it would pass as a probability
        raise DomainError(f"probabilities must be finite, got {P[~np.isfinite(P)][0]}")
    neg = np.any(P < -PROB_TOL, axis=-1)
    bad = neg | (np.abs(np.sum(P, axis=-1) - 1.0) > 1e-10)
    if bad.any():
        j = int(np.argmax(bad))
        row = P[j]
        if neg[j]:
            raise DomainError(f"negative probability {row.min()}")
        raise DomainError(f"probabilities sum to {row.sum()}, not 1")
    if floor is not None:
        if not 0.0 < floor < 1.0:
            raise DomainError(f"floor must be in (0, 1), got {floor}")
        bad = np.any(P < floor - PROB_TOL, axis=-1) | np.any(P > 1.0 + PROB_TOL, axis=-1)
        if bad.any():
            row = P[int(np.argmax(bad))]
            raise DomainError(
                f"components must lie in [{floor}, 1], got range "
                f"[{row.min()}, {row.max()}]"
            )


def _check_pair_rows(P, Q, floor: float | None = None):
    """``_check_prob_rows`` for both stacks, which must share a shape."""
    _check_prob_rows(P, floor)
    _check_prob_rows(Q, floor)
    if P.shape != Q.shape:
        raise DomainError("p and q must share a length")


def as_prob_vector(p, floor: float | None = None) -> np.ndarray:
    """Validate a probability vector; optionally require components in [floor, 1]."""
    P = _as_row(p)
    _check_prob_rows(P, floor)
    return P[0]


def condition_tag_holds(p, q, tag: str) -> bool:
    """Whether (p, q) meets the inner-product condition ``tag`` within
    PROB_TOL: sum p_i q_i <= sum p_i^2 (``self_dominated``) or the reverse
    (``cross_dominated``).  A batch of one of ``_condition_gap``."""
    return bool(_condition_gap(_as_row(p), _as_row(q), tag)[0] <= PROB_TOL)


def _condition_gap(P, Q, tag: str) -> np.ndarray:
    """Row-wise sum p(q - p) = sum pq - sum p^2 (``self_dominated``) or its
    negative (``cross_dominated``) of two stacks: the condition holds where
    the gap is at most PROB_TOL.  A row gets the same bits in any stack."""
    gap = np.sum(P * (Q - P), axis=-1)
    if tag == SELF_DOMINATED:
        return gap
    if tag == CROSS_DOMINATED:
        return -gap
    raise DomainError(f"unknown condition tag {tag!r}")


def _check_reverse_rows(P, Q, eps: float, direction: str):
    """The reverse bounds' preconditions on the stacks P, Q: probability
    rows with components in [eps, 1] that meet the declared condition."""
    _check_pair_rows(P, Q, eps)
    if np.any(_condition_gap(P, Q, direction) > PROB_TOL):
        raise PreconditionError(f"declared condition {direction!r} does not hold")


def _cross_rows(P, Q, r: float | None = None) -> np.ndarray:
    """The entropy row kernel: -sum p log q of each row pair, or for r given
    sum p ln_r(1/q) = sum p expm1(-r log q)/r, accurate as r -> 0; +inf where
    some q_i = 0 meets p_i > 0.  A row sums only its entries with p_i > 0, as
    a 1-d call on them would, so at Q = P it is the entropy H(p) or H_r(p)
    (0 log 0 = 0); every entropy of the package is a batch of one of it."""

    def sums(P, Q):
        if r is None:
            return -np.sum(P * np.log(Q), axis=-1)
        return np.sum(P * np.expm1(-r * np.log(Q)) / r, axis=-1)

    if P.min(initial=1.0) > 0.0 and Q.min(initial=1.0) > 0.0:
        return sums(P, Q)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sums(P, Q)
    for j in np.flatnonzero(np.any((P <= 0.0) | (Q <= 0.0), axis=-1)):
        mask = P[j] > 0.0
        p, q = P[j][mask], Q[j][mask]
        out[j] = math.inf if np.any(q <= 0.0) else sums(p, q)
    return out


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log p_i with 0 log 0 = 0; lives in [0, log n]."""
    P = _as_row(p)
    _check_prob_rows(P)
    return float(_cross_rows(P, P)[0])


def cross_term(p, q) -> float:
    """-sum p_i log q_i.  Returns +inf when some q_i = 0 meets p_i > 0."""
    P, Q = _as_row(p), _as_row(q)
    _check_pair_rows(P, Q)
    return float(_cross_rows(P, Q)[0])


def _tsallis_rows(P, Q, r: float):
    """Arrays (-sum p^(1-r) ln_r q, sum p ln_r(1/q)) for each row pair of
    stacks of positive entries, r != 0; at Q = P, the two forms of H_r.
    The naive form is the entropy row kernel ``_cross_rows(P, Q, r)``."""
    weighted = -np.sum(P ** (1.0 - r) * ln_r(r, Q), axis=-1)
    return weighted, _cross_rows(P, Q, r)


def tsallis_entropy(p, r: float) -> float:
    """Deformed entropy H_r(p) for r in (0, 1].

    Both displayed forms -sum p^(1-r) ln_r p and sum p ln_r(1/p) are
    computed and must agree to 1e-8 (they are algebraically identical);
    the first is returned.
    """
    p = as_prob_vector(p)
    if not 0.0 < r <= 1.0:
        raise DomainError(f"tsallis_entropy needs r in (0, 1], got {r}")
    pos = p[p > 0.0][None]
    weighted, naive = (float(t[0]) for t in _tsallis_rows(pos, pos, r))
    if abs(weighted - naive) > 1e-8:
        raise ConsistencyError(
            f"Tsallis entropy forms disagree: {weighted} vs {naive}"
        )
    return weighted


def _tsallis_cross_rows(P, Q, r: float):
    """``tsallis_cross_terms`` for each row pair of the stacks P, Q:
    arrays (weighted, naive)."""
    _check_pair_rows(P, Q)
    if np.any(Q <= 0.0):
        raise DomainError("q must be strictly positive")
    if abs(r) < 1e-15:
        cross = _cross_rows(P, Q)
        return cross, cross
    return _tsallis_rows(P, Q, r)


def tsallis_cross_terms(p, q, r: float):
    """The two r-deformed cross terms:
    weighted = -sum p_i^(1-r) ln_r q_i  and  naive = sum p_i ln_r(1/q_i).

    They agree at r = 0 (both tend to the Shannon cross term) but differ for
    r > 0 in general.
    """
    weighted, naive = _tsallis_cross_rows(_as_row(p), _as_row(q), r)
    return float(weighted[0]), float(naive[0])


def _information_rows(P, Q) -> np.ndarray:
    """``information_inequality_margin`` for each row pair of the stacks P, Q."""
    _check_pair_rows(P, Q)
    return _cross_rows(P, Q) - _cross_rows(P, P)


def information_inequality_margin(p, q) -> float:
    """Slack of H(p) <= -sum p log q; nonnegative, zero iff p = q."""
    return float(_information_rows(_as_row(p), _as_row(q))[0])


def _reverse_shannon_rows(P, Q, eps: float, direction: str):
    """``reverse_shannon_margins`` for each row pair of the stacks P, Q:
    arrays (ratio, diff), with K and log S(eps) computed once."""
    _check_reverse_rows(P, Q, eps, direction)
    big_k = math.log(eps) / (eps - 1.0)
    log_s = math.log(specht(eps))
    h = _cross_rows(P, P)
    cross = _cross_rows(P, Q)
    if direction == CROSS_DOMINATED:
        return h - cross / big_k, h + log_s - cross
    return big_k * cross - h, log_s + cross - h


def reverse_shannon_margins(p, q, eps: float, direction: str):
    """Margins of the two-sided reverse information bounds on [eps, 1].

    cross_dominated (sum p^2 <= sum pq):
        ratio:  cross_term(p, q)/K <= H(p)
        diff:   cross_term(p, q) - log S(eps) <= H(p)
    self_dominated (sum pq <= sum p^2):
        ratio:  H(p) <= K * cross_term(p, q)
        diff:   H(p) <= log S(eps) + cross_term(p, q)

    with K = log(eps)/(eps - 1) > 1.  Returns (ratio_margin, diff_margin);
    both are nonnegative when the corresponding inequalities hold.
    """
    ratio, diff = _reverse_shannon_rows(_as_row(p), _as_row(q), eps, direction)
    return float(ratio[0]), float(diff[0])


def _parametric_reverse_rows(P, Q, eps: float, r: float, direction: str):
    """``parametric_reverse_margins`` for each row pair of the stacks P, Q:
    arrays (ratio, diff), with c1 and ls_r(eps) computed once."""
    if not r > 0.0:
        raise DomainError(f"parametric reverse needs r > 0, got {r}")
    _check_reverse_rows(P, Q, eps, direction)
    c1 = ln_r(r, 1.0 / eps) / (1.0 - eps)
    c2 = ls_r_constant(eps, r)
    t_p, t_q = _cross_rows(P, P, r), _cross_rows(P, Q, r)
    if direction == SELF_DOMINATED:
        return c1 * t_q - t_p, c2 + t_q - t_p
    return t_p - t_q / c1, t_p - t_q + c2


def parametric_reverse_margins(p, q, eps: float, r: float, direction: str):
    """r-deformed analog of ``reverse_shannon_margins`` built on
    T_p = sum p_i ln_r(1/p_i) and T_q = sum p_i ln_r(1/q_i).

    self_dominated:  T_p <= c1 * T_q   and  T_p <= ls_r(eps) + T_q
    cross_dominated: T_q / c1 <= T_p   and  T_q - ls_r(eps) <= T_p

    with c1 = ln_r(1/eps)/(1 - eps).  Recovers the Shannon margins as r -> 0.
    """
    ratio, diff = _parametric_reverse_rows(_as_row(p), _as_row(q), eps, r, direction)
    return float(ratio[0]), float(diff[0])
