"""Majorization predicates and weighted convex-sum (Fuchs-type) margins.

``is_majorized`` is the classical partial order on real tuples; the weighted
variant ``is_p_majorized`` keeps the given order and admits signed weights,
so no internal sorting happens there.  ``fuchs_margin`` and ``moment_margin``
return the slack of the corresponding convex-sum inequalities, raising
precondition errors instead of reporting bogus negative margins.

The weighted predicates and margins each have one kernel over (k, n)
stacks, one tuple per row (``_fuchs_rows``, ``_moment_rows``); it validates
the stack once and reduces rows with ``np.sum``/``np.cumsum`` along the last
axis, which gives a row the bits of the 1-d call.  The public function is a
batch of one of its kernel, so it equals the batched suites bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PreconditionError, ShapeError
from .functions import FunctionSpec

__all__ = [
    "is_majorized",
    "is_p_majorized",
    "fuchs_margin",
    "moment_margin",
    "karamata_forward_holds",
    "karamata_witness",
]

PREFIX_TOL = 1e-10


def _as_1d(name, x):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ShapeError(f"{name} must be a 1-d tuple of reals, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite entries")
    return arr


def is_majorized(x, y) -> bool:
    """True iff x is majorized by y: after sorting both decreasing, every
    prefix sum of x is <= the matching prefix sum of y, and the totals agree.

    Comparisons use an absolute tolerance of 1e-10 after normalizing by
    max(1, max|y|), so the predicate is stable across scales.
    """
    x = _as_1d("x", x)
    y = _as_1d("y", y)
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch: {x.size} vs {y.size}")
    xs = np.sort(x)[::-1]
    ys = np.sort(y)[::-1]
    scale = max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    tol = PREFIX_TOL * scale
    px = np.cumsum(xs)
    py = np.cumsum(ys)
    if abs(px[-1] - py[-1]) > tol:
        return False
    return bool(np.all(px[:-1] <= py[:-1] + tol))


def _p_majorized_rows(X, Y, P) -> np.ndarray:
    """``is_p_majorized`` for each row of the (k, n) stacks X, Y, P."""
    if not (X.shape == Y.shape == P.shape):
        raise ShapeError(f"length mismatch: x {X.shape[-1]}, y {Y.shape[-1]}, p {P.shape[-1]}")
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(Y), axis=-1),
                                       np.max(np.abs(P * Y), axis=-1)))
    tol = PREFIX_TOL * scale[:, None]
    if np.any(X[:, :-1] < X[:, 1:] - tol):
        raise PreconditionError("x must be non-increasing as given")
    if np.any(Y[:, :-1] < Y[:, 1:] - tol):
        raise PreconditionError("y must be non-increasing as given")
    px = np.cumsum(P * X, axis=-1)
    py = np.cumsum(P * Y, axis=-1)
    return (np.abs(px[:, -1] - py[:, -1]) <= tol[:, 0]) & \
        np.all(px[:, :-1] <= py[:, :-1] + tol, axis=-1)


def is_p_majorized(x, y, p) -> bool:
    """Weighted prefix dominance for already-decreasing tuples.

    x and y must be non-increasing as given (the weighted conditions are
    order-sensitive, so nothing is sorted here); p may carry signed weights.
    True iff sum_{i<=k} p_i x_i <= sum_{i<=k} p_i y_i for k < n and the
    weighted totals agree, at the same normalized 1e-10 tolerance.
    """
    x = _as_1d("x", x)
    y = _as_1d("y", y)
    p = _as_1d("p", p)
    return bool(_p_majorized_rows(x[None], y[None], p[None])[0])


def _fuchs_rows(f: FunctionSpec, X, Y, P) -> np.ndarray:
    """``fuchs_margin`` for each row of the (k, n) stacks X, Y, P."""
    if not f.is_convex:
        raise PreconditionError("fuchs_margin needs a convex function")
    lo = float(min(X.min(), Y.min()))
    hi = float(max(X.max(), Y.max()))
    if not (f.domain.contains(lo, 1e-12) and f.domain.contains(hi, 1e-12)):
        raise DomainError(
            f"entries span [{lo}, {hi}], outside the function domain "
            f"[{f.domain.m}, {f.domain.M}]"
        )
    if not np.all(_p_majorized_rows(X, Y, P)):
        raise PreconditionError("weighted prefix conditions fail for (x, y, p)")
    return np.sum(P * f(Y), axis=-1) - np.sum(P * f(X), axis=-1)


def fuchs_margin(f: FunctionSpec, x, y, p) -> float:
    """Slack sum p_i f(y_i) - sum p_i f(x_i) of the weighted majorization
    inequality; nonnegative whenever the hypotheses hold.

    Requires convex f covering all entries, and the weighted prefix
    conditions (checked via ``is_p_majorized``); violations raise
    PreconditionError / DomainError rather than returning a negative margin.
    """
    x = _as_1d("x", x)
    y = _as_1d("y", y)
    p = _as_1d("p", p)
    return float(_fuchs_rows(f, x[None], y[None], p[None])[0])


def _moment_rows(P, X, Y, order: int) -> np.ndarray:
    """``moment_margin`` for each row of the (k, n) stacks P, X, Y."""
    if not (X.shape == Y.shape == P.shape):
        raise ShapeError("x, y, p must share a length")
    if order < 1:
        raise DomainError(f"moment order must be >= 1, got {order}")
    if np.any(P <= 0.0) or np.any(np.abs(np.sum(P, axis=-1) - 1.0) > 1e-12):
        raise DomainError("p must be a probability vector (positive, sum 1)")
    xc = X - np.sum(P * X, axis=-1, keepdims=True)
    yc = Y - np.sum(P * Y, axis=-1, keepdims=True)
    # simultaneous decreasing arrangement; the margin itself is order-free
    idx = np.lexsort((-yc, -xc), axis=-1)
    xs, ys, ps = (np.take_along_axis(A, idx, axis=-1) for A in (xc, yc, P))
    scale = np.maximum(1.0, np.max(np.abs(ys), axis=-1, keepdims=True))
    if np.any(ys[:, :-1] < ys[:, 1:] - PREFIX_TOL * scale):
        raise PreconditionError(
            "no simultaneous decreasing arrangement of the centered tuples"
        )
    if not np.all(_p_majorized_rows(xs, ys, ps)):
        raise PreconditionError("centered tuples fail the weighted prefix conditions")
    if order >= 3 and order % 2 == 1:
        lo = float(min(xc.min(), yc.min()))
        if lo < -PREFIX_TOL:
            raise PreconditionError(
                f"odd moment order {order}: (t - mean)^{order} is not convex below "
                f"the mean (smallest centered entry {lo})"
            )
    return np.sum(P * yc ** order, axis=-1) - np.sum(P * xc ** order, axis=-1)


def moment_margin(p, x, y, order: int) -> float:
    """Slack of the weighted central-moment comparison
    sum p_i (y_i - ybar)^m - sum p_i (x_i - xbar)^m.

    p must be a probability vector.  The inequality follows from the
    weighted majorization theorem applied to t -> (t - mean)^m, so before
    computing anything the centered tuples are brought to a simultaneous
    decreasing arrangement (sort by x, ties by y) and the weighted prefix
    conditions are validated there; odd m >= 3 additionally needs every
    entry at or above the mean for convexity on the entry hull.
    """
    x = _as_1d("x", x)
    y = _as_1d("y", y)
    p = _as_1d("p", p)
    return float(_moment_rows(p[None], x[None], y[None], order)[0])


# ---------------------------------------------------------------------------
# brute-force Karamata machinery (grid checks and convex witnesses)
# ---------------------------------------------------------------------------

_FORWARD_FAMILY = (
    lambda t: t ** 2,
    lambda t: np.exp(t),
    lambda t: np.abs(t - 1.0),
)


def karamata_forward_holds(x, y) -> bool:
    """Sum-comparison over the test family {t^2, e^t, |t-1|}: the forward
    half of the majorization equivalence."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return all(float(np.sum(f(x))) <= float(np.sum(f(y))) + 1e-9 for f in _FORWARD_FAMILY)


def karamata_witness(x, y):
    """For a non-majorized pair, a convex witness g with sum g(x) > sum g(y).

    Witnesses come from the complete family of hinges t -> max(t - c, 0)
    anchored at the entries of y, plus +/- identity for unequal totals.
    Returns (description, gap) or None when no witness exists (i.e. the pair
    is actually majorized).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sx, sy = float(x.sum()), float(y.sum())
    if sx > sy + 1e-12:
        return "t", sx - sy
    if sy > sx + 1e-12:
        return "-t", sy - sx
    anchors = np.unique(np.concatenate([x, y]))
    for c in anchors:
        gx = float(np.maximum(x - c, 0.0).sum())
        gy = float(np.maximum(y - c, 0.0).sum())
        if gx > gy + 1e-12:
            return f"hinge(t-{c:g})+", gx - gy
    return None
