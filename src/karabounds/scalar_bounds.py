"""Closed-form reverse-inequality constants and their brute-force oracle.

The additive constant ``beta_constant`` is the maximum of (chord - alpha*f)
over [m, M]; the multiplicative and difference constants K and C specialize
it.  Power functions give the generalized Kantorovich constant K(h, r) and
its difference companion C(h, r); -log gives log of the Specht ratio; the
r-deformed logarithm gives ls_r.  Every closed form here is shadowed by
``interval_max``, a dense-grid scan refined by a grid zoom, used as the
independent check.

There is one zoom loop, ``_zoom_max``, which maximizes a stack of maps,
each row on its own interval with its own bracket, best point and stop,
in one objective call per level (and chunk of STACK_POINTS points).  The
oracle sweep stacks the rows of one function, one kind and one r, through
``_beta_rows`` and ``_ratio_rows``, which also set up all rows in one call
of f per step.  ``interval_max``, ``interval_min``, ``beta_oracle``,
``ratio_oracle`` and ``diff_oracle`` are batches of one of these, and every
row gets the bits and the errors it gets alone.
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
    UNDEFINED_ERRORS,
    _check_rows,
    _defined,
    _open_rows,
    _values,
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
# points per objective call of a zoom stack: 4 rows of the first scan.  A
# stack of 8 such rows raised a fresh process's peak RSS by 0.5 MB, one of 4
# by nothing.
STACK_POINTS = 4 * GRID_POINTS
# points per zoom level: each level narrows the bracket 128-fold, so a unit
# interval takes 5 levels.  Anywhere from 129 to 1025 points timed the same
# oracle sweep within noise (fewer points need more levels, more points cost
# more per level); 4096 was about 15% slower.
ZOOM_POINTS = 257
ZOOM_XTOL = 1e-12
# what an objective raises at a point where it is undefined; anything else
# (a NameError, say) is a bug in the objective and propagates
_EVAL_ERRORS = (TypeError, ValueError, ArithmeticError)


def _grid(lo, hi, n):
    """A (k, n) array whose row i is ``np.linspace(lo[i], hi[i], n)``, bit
    for bit: arange(n) * step + lo, with the last point set to hi."""
    step = [(b - a) / (n - 1) for a, b in zip(lo, hi)]
    if 0.0 in step:  # a subnormal width, which linspace divides before it scales
        return np.array([np.linspace(a, b, n) for a, b in zip(lo, hi)])
    ts = np.arange(n, dtype=float) * np.array(step)[:, None]
    ts += np.array(lo)[:, None]
    ts[:, -1] = hi
    return ts


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
    if not np.isfinite(vals).all():
        bad = float(ts[np.flatnonzero(~np.isfinite(vals))[0]])
        raise DomainError(f"objective not finite at t={bad!r}")
    return vals


def _eval_rows(g, ts, rows):
    """The rows of values of the stacked map g on ts, row i at the map of
    rows[i], from one call g(ts, rows as a column).  If that call fails,
    gives the wrong shape or meets a non-finite value, or the stack has one
    row, each row is evaluated alone by ``_eval_objective``, so an error is
    the first failing row's own."""
    if len(rows) > 1:
        try:
            vals = np.asarray(g(ts, np.array(rows)[:, None]), dtype=float)
        except Exception:
            # as in _eval_objective: the row-by-row calls raise a real error again
            vals = None
        if vals is not None and vals.shape == ts.shape and np.isfinite(vals).all():
            return vals
    return [_eval_objective(lambda t: g(t, row), row_ts) for row, row_ts in zip(rows, ts)]


def _zoom_max(g, lo, hi):
    """[(argmax, max)] of a stack of scalar maps, map i on [lo[i], hi[i]]:
    the scan and zoom of ``interval_max``, with all rows of one level in one
    objective call per chunk of at most STACK_POINTS points.

    ``g(t, rows)`` gives the maps of an index column rows at a (k, n) stack
    t, and the map of an index rows at a 1-D array or a float t.  Each row
    keeps its own bracket and best point and leaves the stack when it
    stops, so its result is that of the row alone.
    """
    best = [(math.nan, -math.inf)] * len(lo)
    live, n = [(row, float(a), float(b)) for row, (a, b) in enumerate(zip(lo, hi))], GRID_POINTS
    while live:
        per, zoom = max(1, STACK_POINTS // n), []
        for c in range(0, len(live), per):
            rows, los, his = zip(*live[c:c + per])
            ts = _grid(los, his, n)
            for row, row_ts, row_vals in zip(rows, ts, _eval_rows(g, ts, rows)):
                j = int(row_vals.argmax())  # first max: leftmost tie
                t, v = float(row_ts[j]), float(row_vals[j])
                arg, val = best[row]
                if v > val or (v == val and t < arg):
                    best[row] = t, v
                a, b = float(row_ts[max(j - 1, 0)]), float(row_ts[min(j + 1, n - 1)])
                # stop at the target width, or once rounding keeps the bracket
                # from shrinking (neighbouring points an ulp apart at a large t)
                if ZOOM_XTOL < b - a < row_ts[-1] - row_ts[0]:
                    zoom.append((row, a, b))
        live, n = zoom, ZOOM_POINTS
    return best


def interval_max(g, iv: Interval):
    """Maximize a scalar map on [m, M]: a 4096-point grid scan, then a grid
    zoom that rescans the bracket between the best point's neighbours with
    ZOOM_POINTS points until the bracket is at most ZOOM_XTOL (1e-12) wide,
    or until rounding keeps it from shrinking.  A batch of one of the
    stacked zoom that the oracle sweep runs on all rows of one function.

    Returns (argmax, value), the best point of every scan.  Ties break
    toward the smaller t.  Every point goes through the same evaluation, so
    an undefined or non-finite value anywhere raises DomainError carrying
    the offending point.  g is called on 1-D arrays, and on floats when it
    fails on an array.
    """
    return _zoom_max(lambda t, rows: g(t), [iv.m], [iv.M])[0]


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
    grid zoom.  Concave f takes the dual minimum.  A batch of one of
    ``_beta_rows``.
    """
    return float(_beta_rows(f, [iv], [alpha])[0])


def _beta_rows(f: FunctionSpec, ivs, alphas):
    """``beta_oracle`` of f on each row (ivs[i], alphas[i]), with the set-up
    of all rows in one call of f per step and one zoom stack."""
    for alpha in alphas:
        if not 0.0 <= alpha < math.inf:
            raise DomainError(f"alpha must be finite and >= 0, got {alpha}")
    ends, vals, takes = _endpoints(f, ivs)
    _, _, slope, intercept = _chords(f, ivs, ends, vals)
    lo, hi = _open_rows(ends, takes)
    alpha = np.asarray(alphas, dtype=float)

    def objective(t, rows):
        return slope[rows] * t + intercept[rows] - alpha[rows] * f(t)

    return _extremes(objective, lo, hi, f.is_convex)


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
    cancellation where chord and f vanish together.  A batch of one of
    ``_ratio_rows``."""
    return float(_ratio_rows(f, [iv])[0])


def _ratio_rows(f: FunctionSpec, ivs):
    """``ratio_oracle`` of f on each interval of ivs, with the set-up of all
    rows in one call of f per step and one zoom stack."""
    ends, vals, takes = _endpoints(f, ivs)
    lo, hi = _open_rows(ends, takes)
    _validate_rows(f, lo, hi)
    fm, fM, slope, intercept = _chords(f, ivs, ends, vals)
    m, M = ends
    # where f(m) is not finite, the chord's own value at m anchors it
    fm = np.where(np.isfinite(fm), fm, slope * m + intercept)
    mid = 0.5 * (m + M)
    # a zero of f at an endpoint is a removable 0/0 of the ratio: step one ulp
    # inward so the scan value tracks the limit instead of biasing it
    hi = np.where(np.abs(_f_at(f, hi)) < 1e-300, np.nextafter(hi, lo), hi)
    lo = np.where(np.abs(_f_at(f, lo)) < 1e-300, np.nextafter(lo, hi), lo)
    _check_rows(lo, hi)

    def objective(t, rows):
        return np.where(t <= mid[rows],
                        fm[rows] + slope[rows] * (t - m[rows]),
                        fM[rows] + slope[rows] * (t - M[rows])) / f(t)

    return _extremes(objective, lo, hi, f.is_convex)


def _validate_positive(f: FunctionSpec, iv: Interval):
    ends, _, takes = _endpoints(f, [iv])
    _validate_rows(f, *_open_rows(ends, takes))


def _validate_rows(f: FunctionSpec, lo, hi, n: int = 1024):
    """PreconditionError unless f > 0 inside each row's [lo, hi], checked
    at the inner points of an n-point grid (endpoint zeros are tolerated);
    the first failing row names its first non-positive point."""
    ts = _grid(lo, hi, n)[:, 1:-1]
    bad = _f_at(f, ts) <= 0.0
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise PreconditionError(
            f"ratio constant needs f > 0 on the interval; {f.name or f.kind} "
            f"is non-positive at t={float(ts[i, j])!r}"
        )


# ---------------------------------------------------------------------------
# stacked set-up of the oracles: each step is one call of f on all rows, and
# a failing call is made again row by row, so an error is a row's own (the
# open-interval rows are ``functions._open_rows``)
# ---------------------------------------------------------------------------


def _endpoints(f: FunctionSpec, ivs):
    """The rows' endpoints as a (2, k) array [m, M], f at them from one call
    of f (None if that call fails) and which of them f takes."""
    ends = np.array([[iv.m for iv in ivs], [iv.M for iv in ivs]], dtype=float)
    try:
        vals = _values(f, ends)
    except UNDEFINED_ERRORS:
        return ends, None, _defined(f, ends)
    return ends, vals, np.isfinite(vals)


def _f_at(f: FunctionSpec, ts):
    """``_values`` of f at ts; if that call raises DomainError, f on each
    entry of ts's first axis in turn raises the first failing one's own."""
    try:
        return _values(f, ts)
    except DomainError:
        for t in ts:
            f(t)
        raise


def _chords(f: FunctionSpec, ivs, ends, vals):
    """(f(m), f(M), slope, intercept) of each row's ``chord_coeffs``, from
    ``_endpoints``."""
    if vals is None:
        for iv in ivs:
            chord_coeffs(f, iv)  # the first failing row raises its own error
        vals = np.array([[float(f(float(t))) for t in row] for row in ends])
    (m, M), (fm, fM) = ends, vals
    return fm, fM, (fM - fm) / (M - m), (M * fm - m * fM) / (M - m)


def _extremes(g, lo, hi, convex: bool):
    """The max of each row of the stacked map g (the min if not convex)."""
    if convex:
        return np.array([val for _, val in _zoom_max(g, lo, hi)])
    return -np.array([val for _, val in _zoom_max(lambda t, rows: -g(t, rows), lo, hi)])


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
    try:
        hr = h ** r
        lead = (hr - h) / ((r - 1.0) * (h - 1.0))
        inner = (r - 1.0) / r * (hr - 1.0) / (hr - h)
        return lead * inner ** r
    except OverflowError:
        raise DomainError(f"kantorovich overflows a float at h = {h}, r = {r}") from None


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
    try:
        hr = h ** r
        inner = (hr - 1.0) / (r * (h - 1.0))
        out = m ** r * ((h - hr) / (h - 1.0) + (r - 1.0) * inner ** (r / (r - 1.0)))
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise DomainError(f"c_of_hr overflows a float at m = {m}, h = {h}, r = {r}")
    return out


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
