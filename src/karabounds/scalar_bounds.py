"""Closed-form reverse-inequality constants and their brute-force oracle.

The additive constant ``beta_constant`` is the maximum of (chord - alpha*f)
over [m, M]; the multiplicative and difference constants K and C specialize
it.  Power functions give the generalized Kantorovich constant K(h, r) and
its difference companion C(h, r); -log gives log of the Specht ratio; the
r-deformed logarithm gives ls_r.  Every closed form here is shadowed by
``interval_max``, a dense-grid scan refined by a grid zoom, used as the
independent check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PreconditionError
from .functions import (
    ChordCoeffs,
    FunctionSpec,
    Interval,
    SINGULAR_TOL,
    _open_interval,
    chord_coeffs,
    convexity_check,
    ln_r,
)

__all__ = [
    "interval_max",
    "interval_min",
    "beta_constant",
    "beta_oracle",
    "ratio_constant",
    "ratio_oracle",
    "diff_constant",
    "diff_oracle",
    "kantorovich",
    "c_of_hr",
    "specht",
    "ls_r_constant",
    "Interval",
    "FunctionSpec",
    "ChordCoeffs",
    "chord_coeffs",
    "convexity_check",
    "ln_r",
]

GRID_POINTS = 4096
# points per zoom level: each level narrows the bracket 128-fold, so a unit
# interval takes 5 levels.  Anywhere from 129 to 1025 points timed the same
# oracle sweep within noise (fewer points need more levels, more points cost
# more per level); 4096 was about 15% slower.
ZOOM_POINTS = 257
ZOOM_XTOL = 1e-12
# what an objective raises at a point where it is undefined; anything else
# (a NameError, say) is a bug in the objective and propagates
_EVAL_ERRORS = (TypeError, ValueError, ArithmeticError)


def _eval_objective(g, ts):
    vals = None
    try:
        vals = np.asarray(g(ts), dtype=float)
        if vals.shape != ts.shape:
            vals = None
    except Exception:
        # not vectorized (or a bug, which the pointwise calls raise again)
        vals = None
    if vals is None:
        # scalar fallback; pins the offending point on failure
        vals = np.empty_like(ts)
        for i, t in enumerate(ts):
            try:
                vals[i] = float(g(float(t)))
            except _EVAL_ERRORS as exc:
                raise DomainError(f"objective undefined at t={float(t)!r}: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        bad = float(ts[np.flatnonzero(~np.isfinite(vals))[0]])
        raise DomainError(f"objective not finite at t={bad!r}")
    return vals


def interval_max(g, iv: Interval):
    """Maximize a scalar map on [m, M]: a 4096-point grid scan, then a grid
    zoom that rescans the bracket between the best point's neighbours with
    ZOOM_POINTS points until the bracket is at most ZOOM_XTOL (1e-12) wide.

    Returns (argmax, value), the best point of every scan.  Ties break
    toward the smaller t.  Every point goes through the same evaluation, so
    an undefined or non-finite value anywhere raises DomainError carrying
    the offending point.
    """
    ts = np.linspace(iv.m, iv.M, GRID_POINTS)
    arg, val = None, -math.inf
    while True:
        vals = _eval_objective(g, ts)
        best = int(np.argmax(vals))  # first max: leftmost tie
        t, v = float(ts[best]), float(vals[best])
        if v > val or (v == val and t < arg):
            arg, val = t, v
        lo, hi = ts[max(best - 1, 0)], ts[min(best + 1, len(ts) - 1)]
        # stop at the target width, or once rounding keeps the bracket from
        # shrinking (neighbouring points an ulp apart at a large t)
        if hi - lo <= ZOOM_XTOL or hi - lo >= ts[-1] - ts[0]:
            return arg, val
        ts = np.linspace(lo, hi, ZOOM_POINTS)


def interval_min(g, iv: Interval):
    """Companion minimizer: interval_max of -g with the value sign restored."""
    arg, val = interval_max(lambda t: -np.asarray(g(t), dtype=float), iv)
    return arg, -val


# ---------------------------------------------------------------------------
# chord-based objective plumbing
# ---------------------------------------------------------------------------


def beta_oracle(f: FunctionSpec, iv: Interval, alpha: float) -> float:
    """Brute-force value of max/min over [m, M] of chord(t) - alpha*f(t).

    Independent of the closed forms in ``beta_constant``: pure grid scan +
    grid zoom.  Concave f takes the dual minimum.
    """
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"alpha must be finite and >= 0, got {alpha}")
    ch = chord_coeffs(f, iv)
    scan = _open_interval(f, iv)

    def objective(t):
        return ch(t) - alpha * np.asarray(f(t), dtype=float)

    if f.is_convex:
        return interval_max(objective, scan)[1]
    return interval_min(objective, scan)[1]


def beta_constant(f: FunctionSpec, iv: Interval, alpha: float) -> float:
    """Additive reverse-Jensen constant: max over [m, M] of
    chord(t) - alpha*f(t) for convex f (min for concave f).

    Cataloged (f, interval) pairs return their closed forms; everything else
    falls back to the grid-zoom maximizer.
    """
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"alpha must be finite and >= 0, got {alpha}")
    closed = _beta_closed_form(f, iv, alpha)
    if closed is not None:
        return closed
    return beta_oracle(f, iv, alpha)


def diff_constant(f: FunctionSpec, iv: Interval) -> float:
    """Difference-type constant C(m, M, f) = max{chord(t) - f(t)}.

    Identical code path to ``beta_constant`` at alpha = 1.
    """
    return beta_constant(f, iv, 1.0)


def diff_oracle(f: FunctionSpec, iv: Interval) -> float:
    return beta_oracle(f, iv, 1.0)


def _is_unit_upper(iv: Interval) -> bool:
    return abs(iv.M - 1.0) <= 1e-9 and 0.0 <= iv.m < 1.0


def _clip(t, lo, hi):
    return min(max(t, lo), hi)


def _beta_closed_form(f: FunctionSpec, iv: Interval, alpha: float):
    """Closed forms for the cataloged (kind, interval) pairs, else None."""
    kind = f.kind
    if kind == "t_log_t" and _is_unit_upper(iv) and iv.m <= 1e-9:
        # max of -alpha t log t on (0,1] sits at t = 1/e
        return alpha / math.e
    if kind == "tsallis_f" and _is_unit_upper(iv) and iv.m <= 1e-9:
        r = f.r
        if abs(1.0 - r) < SINGULAR_TOL:
            return alpha  # limit of (1-r)^((1-r)/r) as r -> 1
        return alpha * (1.0 - r) ** ((1.0 - r) / r)
    if kind == "neg_log" and _is_unit_upper(iv) and iv.m > 0.0:
        eps = iv.m
        big_k = math.log(eps) / (eps - 1.0)
        # g(t) = K(1-t) + alpha log t is concave with stationary point alpha/K
        t_star = _clip(alpha / big_k, eps, 1.0) if alpha > 0.0 else eps
        return big_k * (1.0 - t_star) + alpha * math.log(t_star)
    if kind == "ln_r_reciprocal" and _is_unit_upper(iv) and iv.m > 0.0:
        eps, r = iv.m, f.r
        c1 = ln_r(r, 1.0 / eps) / (1.0 - eps)
        # g(t) = c1(1-t) - alpha ln_r(1/t), stationary at (alpha/c1)^(1/(r+1))
        t_star = _clip((alpha / c1) ** (1.0 / (r + 1.0)), eps, 1.0) if alpha > 0.0 else eps
        return c1 * (1.0 - t_star) - alpha * ln_r(r, 1.0 / t_star)
    if kind == "power" and iv.m > 0.0:
        r = f.r
        if abs(r) < 1e-9 or abs(r - 1.0) < 1e-9:
            return None  # degenerate exponents: let the oracle handle them
        ch = chord_coeffs(f, iv)
        ratio = ch.slope / (alpha * r) if alpha > 0.0 else None
        if ratio is not None and ratio > 0.0:
            t_star = _clip(ratio ** (1.0 / (r - 1.0)), iv.m, iv.M)
            return float(ch(t_star) - alpha * f(t_star))
        # objective is monotone: its max (convex f) or min sits at an endpoint
        ends = [ch(t) - alpha * f(t) for t in (iv.m, iv.M)]
        return float(max(ends) if f.is_convex else min(ends))
    return None


def ratio_constant(f: FunctionSpec, iv: Interval) -> float:
    """Ratio-type constant K(m, M, f) = max{chord(t)/f(t)} for convex f > 0
    (min for concave f, serving the reversed inequalities)."""
    _validate_positive(f, iv)
    closed = _ratio_closed_form(f, iv)
    if closed is not None:
        return closed
    return ratio_oracle(f, iv)


def ratio_oracle(f: FunctionSpec, iv: Interval) -> float:
    """Brute-force K(m, M, f): grid scan + grid zoom on chord/f.

    Endpoints where f vanishes are treated as open and clamped inward by
    1e-12 (the ratio extends continuously there).  The chord is evaluated
    anchored at the nearest interpolation node, which avoids catastrophic
    cancellation where chord and f vanish together."""
    _validate_positive(f, iv)
    ch = chord_coeffs(f, iv)
    fm, fM = float(f(iv.m)) if f.defined_at(iv.m) else None, float(f(iv.M))
    if fm is None:
        fm = ch.slope * iv.m + ch.intercept
    mid = 0.5 * (iv.m + iv.M)

    def chord_anchored(t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= mid,
                        fm + ch.slope * (t - iv.m),
                        fM + ch.slope * (t - iv.M))

    scan = _open_interval(f, iv)
    lo, hi = scan.m, scan.M
    # a zero of f at an endpoint is a removable 0/0 of the ratio: step one ulp
    # inward so the scan value tracks the limit instead of biasing it
    if abs(float(f(hi))) < 1e-300:
        hi = float(np.nextafter(hi, lo))
    if abs(float(f(lo))) < 1e-300:
        lo = float(np.nextafter(lo, hi))
    scan = Interval(lo, hi)

    def objective(t):
        return chord_anchored(t) / np.asarray(f(t), dtype=float)

    if f.is_convex:
        return interval_max(objective, scan)[1]
    return interval_min(objective, scan)[1]


def _validate_positive(f: FunctionSpec, iv: Interval, n: int = 1024):
    scan = _open_interval(f, iv)
    ts = np.linspace(scan.m, scan.M, n)[1:-1]  # endpoint zeros are tolerated
    vals = np.asarray(f(ts), dtype=float)
    if np.any(vals <= 0.0):
        bad = float(ts[np.flatnonzero(vals <= 0.0)[0]])
        raise PreconditionError(
            f"ratio constant needs f > 0 on the interval; {f.name or f.kind} "
            f"is non-positive at t={bad!r}"
        )


def _ratio_closed_form(f: FunctionSpec, iv: Interval):
    kind = f.kind
    if kind == "neg_log" and _is_unit_upper(iv) and iv.m > 0.0:
        eps = iv.m
        return math.log(eps) / (eps - 1.0)
    if kind == "ln_r_reciprocal" and _is_unit_upper(iv) and iv.m > 0.0:
        eps = iv.m
        return ln_r(f.r, 1.0 / eps) / (1.0 - eps)
    if kind == "power" and iv.m > 0.0:
        return kantorovich(iv.M / iv.m, f.r)
    return None


# ---------------------------------------------------------------------------
# named constants
# ---------------------------------------------------------------------------


def kantorovich(h: float, r: float) -> float:
    """Generalized Kantorovich constant
    K(h, r) = (h^r - h)/((r-1)(h-1)) * ((r-1)/r * (h^r - 1)/(h^r - h))^r.

    For r outside (0, 1) this is the maximum of chord(t)/t^r over [1, h]
    (K >= 1); inside (0, 1) the same expression is the corresponding minimum
    (K <= 1), used by the reversed inequalities.  Removable singularities at
    r in {0, 1} and h -> 1 return their limits (all equal to 1).
    """
    if not math.isfinite(h) or h <= 0.0:
        raise DomainError(f"kantorovich needs h > 1, got {h}")
    if not math.isfinite(r):
        raise DomainError(f"kantorovich needs a finite r, got {r}")
    if abs(h - 1.0) < SINGULAR_TOL:
        return 1.0
    if h < 1.0:
        raise DomainError(f"kantorovich needs h > 1, got {h}")
    if abs(r) < SINGULAR_TOL or abs(r - 1.0) < SINGULAR_TOL:
        return 1.0
    hr = h ** r
    lead = (hr - h) / ((r - 1.0) * (h - 1.0))
    inner = (r - 1.0) / r * (hr - 1.0) / (hr - h)
    return lead * inner ** r


def c_of_hr(m: float, h: float, r: float) -> float:
    """Difference companion of the Kantorovich constant:
    C(h, r) = m^r * {(h - h^r)/(h - 1) + (r-1)((h^r - 1)/(r(h - 1)))^(r/(r-1))}.

    Equals max{chord(t) - t^r} on [m, mh] for r outside (0, 1) (C >= 0) and
    the corresponding minimum for r in (0, 1) (C <= 0).  Limits fill r in
    {0, 1} and h -> 1 (all zero).
    """
    if not 0.0 < m < math.inf:
        raise DomainError(f"c_of_hr needs a finite m > 0, got {m}")
    if not math.isfinite(r):
        raise DomainError(f"c_of_hr needs a finite r, got {r}")
    if not math.isfinite(h) or h <= 0.0:
        raise DomainError(f"c_of_hr needs h > 1, got {h}")
    if abs(h - 1.0) < SINGULAR_TOL:
        return 0.0
    if h < 1.0:
        raise DomainError(f"c_of_hr needs h > 1, got {h}")
    if abs(r) < SINGULAR_TOL or abs(r - 1.0) < SINGULAR_TOL:
        return 0.0
    hr = h ** r
    inner = (hr - 1.0) / (r * (h - 1.0))
    return m ** r * ((h - hr) / (h - 1.0) + (r - 1.0) * inner ** (r / (r - 1.0)))


def specht(h: float) -> float:
    """Specht ratio S(h) = h^(1/(h-1)) / (e log h^(1/(h-1))), S(1) = 1.

    Computed as exp(u - 1)/u with u = log(h)/(h - 1), which makes the
    symmetry S(h) = S(1/h) explicit."""
    if not 0.0 < h < math.inf:
        raise DomainError(f"specht needs a finite h > 0, got {h}")
    if abs(h - 1.0) < SINGULAR_TOL:
        return 1.0
    u = math.log(h) / (h - 1.0)
    return math.exp(u - 1.0) / u


def ls_r_constant(eps: float, r: float) -> float:
    """Parametric extension of log S(eps):
    ls_r(eps) = c1 - c1^(r/(r+1)) - ln_r(c1^(1/(r+1))) with
    c1 = ln_r(1/eps)/(1 - eps).

    Always nonnegative, and increasing in c1 above 1; note that the often
    quoted ceiling 1/r only holds while c1 stays small enough, not for
    small eps (ls_1(0.1) = (sqrt(10) - 1)^2 > 1).
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"ls_r_constant needs eps in (0, 1), got {eps}")
    if not 0.0 < r < math.inf:
        raise DomainError(f"ls_r_constant needs a finite r > 0, got {r}")
    c1 = ln_r(r, 1.0 / eps) / (1.0 - eps)
    root = c1 ** (1.0 / (r + 1.0))
    return c1 - c1 ** (r / (r + 1.0)) - ln_r(r, root)
