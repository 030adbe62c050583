"""Scalar function catalog: intervals, convex test functions, chords, r-logarithm.

Every reverse-inequality constant in this package is defined through a convex
(or concave) scalar function on a closed interval [m, M] together with its
secant line.  ``FunctionSpec`` bundles the evaluator, the declared convexity
and the interval so the bound modules can stay generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, PreconditionError

__all__ = [
    "Interval",
    "ChordCoeffs",
    "FunctionSpec",
    "ln_r",
    "chord_coeffs",
    "convexity_check",
]

#: parameters closer than this to a removable singularity switch to the limit branch
SINGULAR_TOL = 1e-12

#: absolute slack for the midpoint convexity test (double-precision secant noise)
CONVEXITY_TOL = 1e-10

#: what evaluating a function where it is undefined raises (``defined_at``)
UNDEFINED_ERRORS = (DomainError, FloatingPointError, ValueError, ZeroDivisionError, OverflowError)


@dataclass(frozen=True)
class Interval:
    """Closed interval [m, M] with finite endpoints, m < M."""

    m: float
    M: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.M)):
            raise DomainError(f"interval endpoints must be finite, got [{self.m}, {self.M}]")
        if not self.m < self.M:
            raise DomainError(f"interval needs m < M, got [{self.m}, {self.M}]")

    @property
    def width(self) -> float:
        return self.M - self.m

    def contains(self, t: float, slack: float = 0.0) -> bool:
        return self.m - slack <= t <= self.M + slack


@dataclass(frozen=True)
class ChordCoeffs:
    """Secant line t -> slope*t + intercept through (m, f(m)) and (M, f(M))."""

    slope: float
    intercept: float

    def __call__(self, t):
        return self.slope * np.asarray(t, dtype=float) + self.intercept


def ln_r(r: float, t):
    """r-logarithm (t^r - 1)/r, with the r -> 0 limit log t.

    Computed as expm1(r log t)/r, which is uniformly accurate down to the
    branch switch at |r| < 1e-12.  r must be finite and t finite and
    strictly positive.
    """
    if not math.isfinite(r):
        raise DomainError(f"ln_r requires a finite r, got {r}")
    t_arr = np.asarray(t, dtype=float)
    ok = (t_arr > 0.0) & (t_arr < math.inf)
    if not np.all(ok):
        raise DomainError(f"ln_r requires finite t > 0, got {t_arr[~ok].flat[0]}")
    if abs(r) < SINGULAR_TOL:
        out = np.log(t_arr)
    else:
        out = np.expm1(r * np.log(t_arr)) / r
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function on an interval, with declared convexity.

    ``kind`` is one of ``t_log_t``, ``neg_log``, ``power``, ``tsallis_f``,
    ``ln_r_reciprocal``, ``central_moment`` or ``custom``.  Parametric kinds
    carry ``r`` (exponent/deformation) or ``moment_order``/``center``, and
    reject a non-finite ``r`` or ``center`` with DomainError; a
    ``central_moment`` order must be an integer >= 1 and its declared
    convexity the one ``_moment_convexity`` gives.
    Custom functions supply ``evaluator`` and must declare their convexity,
    which is validated by a midpoint convexity scan on ``domain``.
    """

    kind: str
    domain: Interval
    convexity: str = "convex"
    r: Optional[float] = None
    moment_order: Optional[int] = None
    center: float = 0.0
    evaluator: Optional[Callable] = None
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.convexity not in ("convex", "concave"):
            raise DomainError(f"convexity must be 'convex' or 'concave', got {self.convexity!r}")
        if self.kind in ("power", "tsallis_f", "ln_r_reciprocal") and not (
                self.r is not None and math.isfinite(self.r)):
            raise DomainError(f"{self.kind} needs a finite r, got {self.r}")
        if self.kind == "tsallis_f" and not (0.0 < self.r <= 1.0):
            raise DomainError(f"tsallis_f needs r in (0, 1], got {self.r}")
        if self.kind == "ln_r_reciprocal" and not self.r > 0.0:
            raise DomainError(f"ln_r_reciprocal needs r > 0, got {self.r}")
        if self.kind == "central_moment" and self.convexity != _moment_convexity(
                self.moment_order, self.center, self.domain):
            raise PreconditionError(f"(t-{self.center:g})^{self.moment_order} is not "
                                    f"{self.convexity} on [{self.domain.m}, {self.domain.M}]")
        if self.kind == "custom":
            if self.evaluator is None:
                raise DomainError("custom FunctionSpec needs an evaluator")
            sign = 1.0 if self.convexity == "convex" else -1.0
            if not _midpoint_convex(lambda t: sign * np.asarray(self(t), dtype=float),
                                    self.domain.m, self.domain.M, 200):
                raise PreconditionError(
                    f"declared convexity {self.convexity!r} fails the midpoint test "
                    f"on [{self.domain.m}, {self.domain.M}]"
                )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def t_log_t(domain: Interval = Interval(0.0, 1.0)) -> "FunctionSpec":
        return FunctionSpec("t_log_t", domain, "convex", name="t*log(t)")

    @staticmethod
    def neg_log(domain: Interval) -> "FunctionSpec":
        return FunctionSpec("neg_log", domain, "convex", name="-log(t)")

    @staticmethod
    def power(r: float, domain: Interval) -> "FunctionSpec":
        conv = "concave" if 0.0 < r < 1.0 else "convex"
        return FunctionSpec("power", domain, conv, r=r, name=f"t^{r:g}")

    @staticmethod
    def tsallis_f(r: float, domain: Interval = Interval(0.0, 1.0)) -> "FunctionSpec":
        return FunctionSpec("tsallis_f", domain, "convex", r=r, name=f"(t-t^(1-r))/r, r={r:g}")

    @staticmethod
    def ln_r_reciprocal(r: float, domain: Interval) -> "FunctionSpec":
        return FunctionSpec("ln_r_reciprocal", domain, "convex", r=r, name=f"ln_r(1/t), r={r:g}")

    @staticmethod
    def central_moment(order: int, mean: float, domain: Interval) -> "FunctionSpec":
        return FunctionSpec(
            "central_moment", domain, _moment_convexity(order, mean, domain),
            moment_order=order, center=mean, name=f"(t-{mean:g})^{order}",
        )

    @staticmethod
    def custom(evaluator: Callable, convexity: str, domain: Interval, name: str = "custom") -> "FunctionSpec":
        return FunctionSpec("custom", domain, convexity, evaluator=evaluator, name=name)

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        """f(t) for a scalar or an array t.  A built-in kind rejects t outside
        its domain with DomainError, in one check that NaN fails: every kind
        needs a finite t, and ``neg_log``, ``ln_r_reciprocal`` and ``power``
        with r < 0 need t > 0, ``t_log_t``, ``tsallis_f`` and ``power`` with
        r >= 0 need t >= 0.  ``custom`` evaluators are not checked."""
        t_in = t
        t = np.asarray(t, dtype=float)
        kind, r = self.kind, self.r
        if kind != "custom" and t.size:
            lo, hi = t.min(), t.max()
            if kind == "central_moment":
                rule, ok = "finite t", lo > -math.inf
            elif kind in ("neg_log", "ln_r_reciprocal") or kind == "power" and r < 0.0:
                rule, ok = "finite t > 0", lo > 0.0
            else:
                rule, ok = "finite t >= 0", lo >= 0.0
            if not (ok and hi < math.inf):
                raise DomainError(f"{self.name or kind} requires {rule}, got {hi if ok else lo}")
        if kind == "t_log_t":
            # convention 0 log 0 = 0
            safe = np.where(t > 0.0, t, 1.0)
            out = np.where(t > 0.0, t * np.log(safe), 0.0)
        elif kind == "neg_log":
            out = -np.log(t)
        elif kind == "power":
            out = np.ones_like(t) if 0.0 <= r < SINGULAR_TOL else t ** r
        elif kind == "tsallis_f":
            # f_r(t) = (t - t^(1-r))/r for t > 0, with the continuity convention
            # f_r(0) = 0 (exact for r < 1, limiting value at r = 1)
            safe = np.where(t > 0.0, t, 1.0)
            out = np.where(t > 0.0, (safe - safe ** (1.0 - r)) / r, 0.0)
        elif kind == "ln_r_reciprocal":
            # ln_r(1/t) = expm1(-r log t)/r: avoids the 1/t rounding noise near t = 1
            out = np.expm1(-r * np.log(t)) / r
        elif kind == "central_moment":
            out = (t - self.center) ** self.moment_order
        else:
            out = np.asarray(self.evaluator(t), dtype=float)
        return float(out) if np.isscalar(t_in) or t.ndim == 0 else out

    def defined_at(self, t: float) -> bool:
        """True when the evaluator accepts t (convention points included)."""
        try:
            v = self(float(t))
        except UNDEFINED_ERRORS:
            return False
        return math.isfinite(v)

    @property
    def is_convex(self) -> bool:
        return self.convexity == "convex"


def _is_int(v) -> bool:
    """Whether v is an integer, Python's or numpy's, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _moment_convexity(order, center: float, iv: Interval) -> str:
    """The convexity of (t - center)^order on iv: convex for order 1 and for
    even orders; an odd order >= 3 is convex when m >= center and concave
    when M <= center.  An order that is not an integer >= 1 or a non-finite
    center raises DomainError, and an odd order >= 3 whose center lies
    inside iv, where the curvature changes sign, PreconditionError."""
    if not _is_int(order) or order < 1:
        raise DomainError(f"central_moment needs an integer order >= 1, got {order!r}")
    if not math.isfinite(center):
        raise DomainError(f"central_moment needs a finite center, got {center}")
    if order == 1 or order % 2 == 0 or iv.m >= center:
        return "convex"
    if iv.M <= center:
        return "concave"
    raise PreconditionError(f"(t-{center:g})^{order} is neither convex nor concave on "
                            f"[{iv.m}, {iv.M}], which holds its center")


def chord_coeffs(f: FunctionSpec, iv: Interval) -> ChordCoeffs:
    """Secant coefficients of f over [m, M]: slope (f(M)-f(m))/(M-m) and the
    matching intercept (M f(m) - m f(M))/(M-m)."""
    try:
        fm = float(f(iv.m))
        fM = float(f(iv.M))
    except DomainError as exc:
        raise DomainError(f"cannot evaluate {f.name or f.kind} at an endpoint of "
                          f"[{iv.m}, {iv.M}]: {exc}") from exc
    slope = (fM - fm) / iv.width
    intercept = (iv.M * fm - iv.m * fM) / iv.width
    return ChordCoeffs(slope, intercept)


def _values(f: FunctionSpec, ts):
    """f at each entry of the array ts, from one call of f on ts flattened (a
    custom f may give one value for all)."""
    vals = np.asarray(f(ts.ravel()), dtype=float)
    return vals.reshape(ts.shape) if vals.size == ts.size else np.broadcast_to(vals, ts.shape)


def _defined(f: FunctionSpec, ts):
    """``f.defined_at`` at each entry of the array ts, from one call of f
    when that call succeeds."""
    try:
        return np.isfinite(_values(f, ts))
    except UNDEFINED_ERRORS:
        return np.array([f.defined_at(t) for t in ts.ravel()]).reshape(ts.shape)


def _check_rows(lo, hi):
    """Interval's check of each row [lo[i], hi[i]]: the first failing row
    raises its own DomainError."""
    if not (lo < hi).all():
        for a, b in zip(lo, hi):
            Interval(float(a), float(b))


#: the open-interval convention's step of the endpoints m and M inward
_INWARD = np.array([[1e-12], [-1e-12]])


def _open_rows(ends, takes):
    """(lo, hi) arrays of the rows [m[i], M[i]] of ends = [m, M] under the
    open-interval convention: each endpoint that f does not take (False in
    takes, as ``_defined`` gives it) moved 1e-12 inward."""
    lo, hi = np.where(takes, ends, ends + _INWARD)
    _check_rows(lo, hi)
    return lo, hi


def _open_interval(f: FunctionSpec, iv: Interval) -> Interval:
    """iv under the open-interval convention: a batch of one of
    ``_open_rows``."""
    ends = np.array([[iv.m], [iv.M]])
    lo, hi = _open_rows(ends, _defined(f, ends))
    return Interval(float(lo[0]), float(hi[0]))


def _midpoint_convex(eval_fn, lo: float, hi: float, n_samples: int) -> bool:
    rng = np.random.default_rng(0x5EED)
    s = rng.uniform(lo, hi, size=n_samples)
    t = rng.uniform(lo, hi, size=n_samples)
    try:
        fs = np.asarray(eval_fn(s), dtype=float)
        ft = np.asarray(eval_fn(t), dtype=float)
        fmid = np.asarray(eval_fn((s + t) / 2.0), dtype=float)
    except DomainError as exc:
        raise DomainError(f"convexity check could not evaluate the function: {exc}") from exc
    gap = (fs + ft) / 2.0 - fmid
    return bool(np.all(gap >= -CONVEXITY_TOL))


def convexity_check(f, iv: Interval, n_samples: int) -> bool:
    """Midpoint convexity test on randomly sampled pairs from [m, M].

    True iff f((s+t)/2) <= (f(s)+f(t))/2 + 1e-10 for every sampled pair.
    Deterministic (fixed internal seed).  f may be a FunctionSpec or any
    vectorized scalar callable.
    """
    if n_samples < 3:
        raise DomainError(f"convexity_check needs n_samples >= 3, got {n_samples}")
    if isinstance(f, FunctionSpec):
        iv = _open_interval(f, iv)
    return _midpoint_convex(f, iv.m, iv.M, n_samples)
