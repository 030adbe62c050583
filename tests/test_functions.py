import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karabounds.errors import DomainError, PreconditionError
from karabounds.functions import (
    ChordCoeffs,
    FunctionSpec,
    Interval,
    chord_coeffs,
    convexity_check,
    ln_r,
)

IV01 = Interval(0.0, 1.0)


class TestInterval:
    def test_rejects_bad_endpoints(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)

    def test_contains(self):
        iv = Interval(0.5, 2.0)
        assert iv.contains(0.5) and iv.contains(2.0)
        assert not iv.contains(2.0 + 1e-6)
        assert iv.contains(2.0 + 1e-6, slack=1e-5)


class TestLnR:
    def test_r_zero_is_log(self):
        assert ln_r(0.0, 2.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_r_one(self):
        assert ln_r(1.0, 2.0) == pytest.approx(1.0)

    def test_unit_argument(self):
        assert ln_r(0.5, 1.0) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ln_r(0.5, 0.0)
        with pytest.raises(DomainError):
            ln_r(0.5, -1.0)

    def test_small_r_matches_log(self):
        ts = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
        assert np.max(np.abs(ln_r(1e-8, ts) - np.log(ts))) <= 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_matches_power_formula(self, t, r):
        if abs(r) < 1e-6:
            return
        # the formula in 40 digits: in doubles, t ** r - 1 cancels about
        # 1e-10 of relative accuracy at |r| = 1e-6
        with localcontext() as ctx:
            ctx.prec = 40
            power = float((Decimal(t) ** Decimal(r) - 1) / Decimal(r))
        assert ln_r(r, t) == pytest.approx(power, rel=1e-9, abs=1e-12)


class TestFunctionSpecs:
    def test_t_log_t_convention_at_zero(self):
        f = FunctionSpec.t_log_t(IV01)
        assert f(0.0) == 0.0
        assert f(1.0) == 0.0
        assert f(0.5) == pytest.approx(0.5 * math.log(0.5))

    def test_tsallis_matches_definition(self):
        f = FunctionSpec.tsallis_f(0.4, IV01)
        t = 0.3
        assert f(t) == pytest.approx((t - t ** 0.6) / 0.4)
        assert f(0.0) == 0.0

    def test_tsallis_r_range(self):
        with pytest.raises(DomainError):
            FunctionSpec.tsallis_f(0.0, IV01)
        with pytest.raises(DomainError):
            FunctionSpec.tsallis_f(1.5, IV01)

    def test_ln_r_reciprocal(self):
        f = FunctionSpec.ln_r_reciprocal(0.7, Interval(0.1, 1.0))
        t = 0.25
        assert f(t) == pytest.approx((t ** -0.7 - 1.0) / 0.7, rel=1e-12)

    def test_power_negative_exponent_needs_positive(self):
        f = FunctionSpec.power(-1.0, Interval(0.5, 2.0))
        assert f(2.0) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            f(0.0)

    def test_power_convexity_flag(self):
        assert FunctionSpec.power(2.0, Interval(0.1, 1.0)).is_convex
        assert not FunctionSpec.power(0.5, Interval(0.1, 1.0)).is_convex
        assert FunctionSpec.power(-1.0, Interval(0.1, 1.0)).is_convex

    def test_central_moment(self):
        f = FunctionSpec.central_moment(2, 1.0, Interval(-3.0, 3.0))
        assert f(3.0) == pytest.approx(4.0)
        assert f(-1.0) == pytest.approx(4.0)

    def test_custom_validates_declared_convexity(self):
        with pytest.raises(PreconditionError):
            FunctionSpec.custom(lambda t: -np.asarray(t, dtype=float) ** 2,
                                "convex", IV01, "-t^2")
        # the same function is fine when declared concave
        FunctionSpec.custom(lambda t: -np.asarray(t, dtype=float) ** 2,
                            "concave", IV01, "-t^2")


def _formula(f, t):
    """Each built-in kind's formula on an in-domain array t, as written
    before its domain checks folded into FunctionSpec.__call__."""
    r = f.r
    if f.kind == "t_log_t":
        safe = np.where(t > 0.0, t, 1.0)
        return np.where(t > 0.0, t * np.log(safe), 0.0)
    if f.kind == "neg_log":
        return -np.log(t)
    if f.kind == "power":
        if r < 0.0:
            return t ** r
        return np.ones_like(t) if abs(r) < 1e-12 else t ** r
    if f.kind == "tsallis_f":
        safe = np.where(t > 0.0, t, 1.0)
        return np.where(t > 0.0, (safe - safe ** (1.0 - r)) / r, 0.0)
    if f.kind == "ln_r_reciprocal":
        return np.expm1(-r * np.log(t)) / r
    return (t - f.center) ** f.moment_order


@pytest.mark.parametrize("f", [
    FunctionSpec.t_log_t(IV01),
    FunctionSpec.neg_log(Interval(0.05, 1.0)),
    *(FunctionSpec.power(r, Interval(0.0, 2.0)) for r in (2.0, 0.5, 1.0, 0.0, 1e-13)),
    *(FunctionSpec.power(r, Interval(0.2, 2.0)) for r in (-1.0, -2.5, -1e-13)),
    *(FunctionSpec.tsallis_f(r, IV01) for r in (0.3, 1.0)),
    FunctionSpec.ln_r_reciprocal(0.7, Interval(0.1, 1.0)),
    FunctionSpec.central_moment(3, 0.4, Interval(-1.0, 2.0)),
], ids=lambda f: f.name)
def test_formulas_keep_their_bits(f):
    # the grid holds both interval ends, t = 0 where the kind is defined
    # there, and interior points; a scalar call gets the bits of a 0-d one
    iv = f.domain
    t = np.unique(np.concatenate([[iv.m, iv.M], np.linspace(iv.m, iv.M, 37),
                                  [0.0] if f.defined_at(0.0) else []]))
    assert f(t).tobytes() == _formula(f, t).tobytes()
    for x in t:
        assert np.float64(f(float(x))).tobytes() == _formula(f, np.asarray(x)).tobytes()


class TestChordCoeffs:
    def test_t_log_t_chord_vanishes(self):
        ch = chord_coeffs(FunctionSpec.t_log_t(IV01), IV01)
        assert ch == ChordCoeffs(0.0, 0.0)

    def test_tsallis_chord_vanishes(self):
        for r in (0.2, 0.5, 0.9):
            ch = chord_coeffs(FunctionSpec.tsallis_f(r, IV01), IV01)
            assert abs(ch.slope) < 1e-14 and abs(ch.intercept) < 1e-14

    def test_square_chord(self):
        f = FunctionSpec.custom(lambda t: np.asarray(t, dtype=float) ** 2, "convex",
                                IV01, "t^2")
        ch = chord_coeffs(f, IV01)
        assert ch.slope == pytest.approx(1.0)
        assert ch.intercept == pytest.approx(0.0)

    def test_interpolation_invariant(self):
        iv = Interval(0.3, 1.7)
        f = FunctionSpec.power(2.0, Interval(0.0, 2.0))
        ch = chord_coeffs(f, iv)
        assert ch(iv.m) == pytest.approx(f(iv.m), rel=1e-12)
        assert ch(iv.M) == pytest.approx(f(iv.M), rel=1e-12)


class TestConvexityCheck:
    def test_t_log_t_is_convex(self):
        assert convexity_check(FunctionSpec.t_log_t(IV01), IV01, 1000)

    def test_neg_log_is_convex(self):
        iv = Interval(0.05, 1.0)
        assert convexity_check(FunctionSpec.neg_log(iv), iv, 1000)

    def test_negated_square_is_not(self):
        f = FunctionSpec.custom(lambda t: -np.asarray(t, dtype=float) ** 2,
                                "concave", IV01, "-t^2")
        assert not convexity_check(f, IV01, 1000)

    def test_sample_count_guard(self):
        with pytest.raises(DomainError):
            convexity_check(FunctionSpec.t_log_t(IV01), IV01, 2)
