import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karabounds import scalar_bounds as sb
from karabounds.errors import DomainError, PreconditionError
from karabounds.functions import FunctionSpec, Interval

IV01 = Interval(0.0, 1.0)


def neg_log(eps):
    return FunctionSpec.neg_log(Interval(eps, 1.0))


class TestIntervalMax:
    def test_entropy_integrand_peak(self):
        arg, val = sb.interval_max(
            lambda t: -np.asarray(t) * np.log(np.maximum(np.asarray(t), 1e-300)),
            Interval(1e-12, 1.0))
        assert val == pytest.approx(1.0 / math.e, abs=1e-10)
        assert arg == pytest.approx(1.0 / math.e, abs=1e-6)

    def test_constant_map_ties_break_left(self):
        arg, val = sb.interval_max(lambda t: np.full_like(np.asarray(t, dtype=float), 2.5),
                                   Interval(0.25, 4.0))
        assert arg == 0.25
        assert val == 2.5

    def test_plateau_ties_break_toward_its_left_edge(self):
        # every point right of 0.5 ties; the refinement walks to the edge
        arg, val = sb.interval_max(lambda t: np.minimum(np.asarray(t), 0.5), IV01)
        assert val == 0.5
        assert 0.5 <= arg <= 0.5 + 1e-9

    def test_neg_log_shannon_reverse_value(self):
        # max of chord - f for -log on [eps, 1] equals log of the Specht ratio
        eps = 0.2
        f = neg_log(eps)
        arg, val = sb.interval_max(
            lambda t: (math.log(eps) / (eps - 1.0)) * (1.0 - np.asarray(t)) + np.log(t),
            Interval(eps, 1.0))
        assert val == pytest.approx(math.log(sb.specht(eps)), abs=1e-10)
        assert arg == pytest.approx((eps - 1.0) / math.log(eps), abs=1e-6)

    def test_error_carries_offending_point(self):
        def g(t):
            t = np.asarray(t, dtype=float)
            if np.any(t > 0.5):
                raise DomainError("boom")
            return t

        with pytest.raises(DomainError, match="t="):
            sb.interval_max(g, Interval(0.0, 1.0))

    def test_scalar_only_objective_falls_back_to_pointwise_calls(self):
        # math.log rejects the grid array with a TypeError, so each point is
        # evaluated on its own
        arg, val = sb.interval_max(lambda t: -math.log(t) - t, Interval(0.5, 2.0))
        assert arg == 0.5
        assert val == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)

    def test_objective_failing_on_arrays_falls_back_to_pointwise_calls(self):
        # float.hex exists on a float but not on the grid array, whose
        # AttributeError only means that the objective is not vectorized
        arg, val = sb.interval_max(lambda t: float.fromhex(t.hex()) * (1.0 - t),
                                   Interval(0.0, 1.0))
        assert arg == pytest.approx(0.5, abs=1e-6)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_non_finite_objective_is_domain_error(self):
        with pytest.raises(DomainError, match="not finite"):
            sb.interval_max(lambda t: np.where(np.asarray(t) > 0.5, np.inf, t),
                            Interval(0.0, 1.0))

    def test_nan_near_the_peak_is_domain_error(self):
        # the NaN lies between grid points, so only the refinement meets it
        def g(t):
            t = np.asarray(t, dtype=float)
            return np.where(np.abs(t - 0.3) < 1e-6, np.nan, -(t - 0.3) ** 2)

        with pytest.raises(DomainError, match="not finite at t="):
            sb.interval_max(g, IV01)

    def test_scalar_only_failure_near_the_peak_is_domain_error(self):
        # a ValueError met during refinement names its point like one on the grid
        def g(t):
            if abs(t - 0.3) < 1e-6:
                raise ValueError("undefined here")
            return -(t - 0.3) ** 2

        with pytest.raises(DomainError, match="undefined at t="):
            sb.interval_max(g, IV01)

    def test_peak_between_grid_points_is_located(self):
        # pi/10 is no grid point of [0, 1]; no constant offset, so the values
        # near the peak stay distinguishable down to the bracket width
        t_star = 0.1 * math.pi
        arg, val = sb.interval_max(lambda t: -(np.asarray(t) - t_star) ** 2, IV01)
        assert abs(arg - t_star) <= 1e-9
        assert val <= 0.0

    def test_programming_error_in_objective_propagates(self):
        # a bug in the objective is not an "objective undefined" DomainError
        def g(t):
            return undefined_name * t  # noqa: F821

        with pytest.raises(NameError):
            sb.interval_max(g, Interval(0.0, 1.0))

    def test_interval_min_mirrors_max(self):
        arg, val = sb.interval_min(lambda t: (np.asarray(t) - 0.3) ** 2, IV01)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert arg == pytest.approx(0.3, abs=1e-6)


# a stack of five maps min(-w (t - c)^2, cap) that stop at different zoom
# levels: a peak inside [0, 1]; a peak near t = 1e6, whose grid neighbours
# an ulp apart stop the zoom by the rounding rule; a constant map and a
# plateau, whose ties break toward the left; and a peak on a wide interval
_W = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
_C = np.array([0.1 * math.pi, 1e6 + 0.3, 0.0, 0.9, 17.0])
_CAP = np.array([np.inf, np.inf, np.inf, -0.16, np.inf])
_LO = np.array([0.0, 1e6, 0.25, 0.0, -40.0])
_HI = np.array([1.0, 1e6 + 1.0, 4.0, 1.0, 60.0])


def _stacked(t, rows):
    return np.minimum(-_W[rows] * (t - _C[rows]) ** 2, _CAP[rows])


def _alone(i):
    return lambda t: np.minimum(-_W[i] * (np.asarray(t) - _C[i]) ** 2, _CAP[i])


class TestStackedZoom:
    def test_grid_rows_are_linspace(self):
        lo = np.array([0.0, 0.3, 1e6, -2.5, 0.0])
        hi = np.array([1.0, 0.3 + 1e-11, 1e6 + 1.0, 7.0, 1e-320])  # last: subnormal step
        for n in (sb.GRID_POINTS, sb.ZOOM_POINTS, 1024):
            ts = sb._grid(lo, hi, n)
            for i in range(lo.size):
                assert ts[i].tobytes() == np.linspace(lo[i], hi[i], n).tobytes()

    def test_each_row_equals_its_batch_of_one(self):
        calls = []

        def g(t, rows):
            calls.append(np.size(rows) if np.ndim(t) == 2 else 1)
            return _stacked(t, rows)

        stacked = sb._zoom_max(g, _LO, _HI)
        for i in range(_LO.size):
            assert stacked[i] == sb.interval_max(_alone(i), Interval(_LO[i], _HI[i]))
        assert stacked[2] == (0.25, -0.0)  # the constant map's leftmost tie
        assert 0.5 <= stacked[3][0] <= 0.5 + 1e-9  # the plateau's left edge
        # the first scan runs in chunks of STACK_POINTS points (4 rows, then
        # 1), and rows leave the stack as they stop
        zoom = calls[2:]
        assert calls[:2] == [4, 1]
        assert zoom == sorted(zoom, reverse=True) and len(set(zoom)) >= 3

    def test_rounding_rule_stops_the_large_t_row(self):
        grids = []

        def g(t):
            grids.append(t)
            return _alone(1)(t)

        arg, _ = sb.interval_max(g, Interval(_LO[1], _HI[1]))
        last = grids[-1]
        j = int(np.argmax(_alone(1)(last)))
        # the last bracket is wider than ZOOM_XTOL: rounding stopped the zoom
        assert last[min(j + 1, last.size - 1)] - last[max(j - 1, 0)] > sb.ZOOM_XTOL
        assert arg == pytest.approx(1e6 + 0.3, abs=1e-9)

    def test_interval_min_equals_its_stacked_row(self):
        stacked = sb._zoom_max(_stacked, _LO, _HI)
        for i, (arg, val) in enumerate(stacked):
            assert sb.interval_min(lambda t, i=i: -_alone(i)(t),
                                   Interval(_LO[i], _HI[i])) == (arg, -val)

    def test_nan_near_a_peak_in_a_stack_is_that_rows_error(self):
        # row 1's NaN lies between grid points, so only the zoom meets it
        bad = np.array([False, True, False])
        c = np.array([0.7, 0.3, 0.1])

        def stacked(t, rows):
            return np.where(bad[rows] & (np.abs(t - c[rows]) < 1e-6), np.nan,
                            -(t - c[rows]) ** 2)

        with pytest.raises(DomainError, match="not finite at t=") as alone:
            sb.interval_max(lambda t: stacked(np.asarray(t), 1), IV01)
        with pytest.raises(DomainError) as in_stack:
            sb._zoom_max(stacked, [0.0] * 3, [1.0] * 3)
        assert str(in_stack.value) == str(alone.value)

    def test_ratio_row_failing_positivity_raises_its_own_error(self):
        f = FunctionSpec.neg_log(Interval(0.1, 2.0))
        ivs = [Interval(0.1, 1.0), Interval(0.5, 2.0), Interval(0.3, 3.0)]
        with pytest.raises(PreconditionError, match="non-positive") as alone:
            sb.ratio_oracle(f, ivs[1])
        with pytest.raises(PreconditionError) as in_stack:
            sb._ratio_rows(f, ivs)
        assert str(in_stack.value) == str(alone.value)

    def test_beta_row_failing_at_an_endpoint_raises_its_own_error(self):
        f = FunctionSpec.power(-1.0, Interval(1.0, 2.0))
        ivs = [Interval(1.0, 2.0), Interval(0.0, 2.0), Interval(1.0, 3.0)]
        with pytest.raises(DomainError, match="endpoint") as alone:
            sb.beta_oracle(f, ivs[1], 0.5)
        with pytest.raises(DomainError) as in_stack:
            sb._beta_rows(f, ivs, [0.5] * 3)
        assert str(in_stack.value) == str(alone.value)

    def test_stacked_oracles_equal_their_batches_of_one(self):
        ivs = [Interval(eps, 1.0) for eps in (0.01, 0.2, 0.9)]
        f = FunctionSpec.ln_r_reciprocal(0.7, ivs[0])
        assert list(sb._ratio_rows(f, ivs)) == [sb.ratio_oracle(f, iv) for iv in ivs]
        assert list(sb._beta_rows(f, ivs, [0.0, 1.0, 2.5])) == [
            sb.beta_oracle(f, iv, alpha) for iv, alpha in zip(ivs, (0.0, 1.0, 2.5))]


class TestBetaConstant:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_t_log_t_closed_form(self, alpha):
        f = FunctionSpec.t_log_t(IV01)
        assert sb.beta_constant(f, IV01, alpha) == pytest.approx(alpha / math.e, abs=1e-14)
        assert sb.beta_oracle(f, IV01, alpha) == pytest.approx(alpha / math.e, abs=1e-9)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_tsallis_closed_form(self, r, alpha):
        f = FunctionSpec.tsallis_f(r, IV01)
        expected = alpha * (1.0 - r) ** ((1.0 - r) / r)
        assert sb.beta_constant(f, IV01, alpha) == pytest.approx(expected, abs=1e-13)
        assert sb.beta_oracle(f, IV01, alpha) == pytest.approx(expected, abs=1e-9)

    def test_linear_chord_gives_zero(self):
        f = FunctionSpec.custom(lambda t: 2.0 * np.asarray(t, dtype=float) + 1.0,
                                "convex", IV01, "2t+1")
        assert sb.beta_constant(f, IV01, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_alpha_zero_is_endpoint_max(self):
        for f, iv in [(FunctionSpec.t_log_t(IV01), IV01),
                      (neg_log(0.2), Interval(0.2, 1.0)),
                      (FunctionSpec.power(2.0, Interval(0.3, 2.0)), Interval(0.3, 2.0))]:
            lo = iv.m if f.defined_at(iv.m) else iv.m + 1e-12
            expected = max(float(f(lo)), float(f(iv.M)))
            assert sb.beta_constant(f, iv, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            sb.beta_constant(FunctionSpec.t_log_t(IV01), IV01, -0.1)

    def test_diff_equals_beta_at_one(self):
        for eps in (0.05, 0.3):
            f = neg_log(eps)
            iv = Interval(eps, 1.0)
            assert sb.diff_constant(f, iv) == sb.beta_constant(f, iv, 1.0)

    def test_neg_log_general_alpha_matches_oracle(self):
        for eps in (0.02, 0.2, 0.6):
            iv = Interval(eps, 1.0)
            f = neg_log(eps)
            for alpha in (0.0, 0.3, 1.0, 5.0):
                closed = sb.beta_constant(f, iv, alpha)
                assert closed == pytest.approx(sb.beta_oracle(f, iv, alpha), abs=1e-8)

    def test_concave_dual_is_minimum(self):
        f = FunctionSpec.power(0.5, Interval(1.0, 4.0))
        beta = sb.beta_constant(f, Interval(1.0, 4.0), 1.0)
        assert beta == pytest.approx(sb.c_of_hr(1.0, 4.0, 0.5), abs=1e-10)
        assert beta < 0.0


class TestRatioConstant:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 0.9])
    def test_neg_log_closed_form(self, eps):
        iv = Interval(eps, 1.0)
        expected = math.log(eps) / (eps - 1.0)
        assert sb.ratio_constant(neg_log(eps), iv) == pytest.approx(expected, abs=1e-14)
        assert sb.ratio_oracle(neg_log(eps), iv) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("eps", [0.05, 0.3])
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 3.0])
    def test_ln_r_closed_form(self, eps, r):
        iv = Interval(eps, 1.0)
        f = FunctionSpec.ln_r_reciprocal(r, iv)
        expected = sb.ln_r(r, 1.0 / eps) / (1.0 - eps)
        assert sb.ratio_constant(f, iv) == pytest.approx(expected, rel=1e-12)
        assert sb.ratio_oracle(f, iv) == pytest.approx(expected, rel=1e-8)

    def test_positive_linear_gives_one(self):
        iv = Interval(1.0, 2.0)
        f = FunctionSpec.custom(lambda t: 3.0 * np.asarray(t, dtype=float) + 0.5,
                                "convex", iv, "3t+0.5")
        assert sb.ratio_oracle(f, iv) == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_function_rejected(self):
        iv = Interval(0.0, 1.0)
        f = FunctionSpec.t_log_t(iv)  # t log t <= 0 on [0, 1]
        with pytest.raises(PreconditionError):
            sb.ratio_constant(f, iv)

    def test_monotonicity_in_eps(self):
        # the -log ratio constant decreases in eps and exceeds 1
        values = [sb.ratio_constant(neg_log(e), Interval(e, 1.0))
                  for e in (0.05, 0.1, 0.3, 0.5, 0.8, 0.95)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 1.0 for v in values)


class TestKantorovich:
    def test_r_limits_are_one(self):
        for h in (1.1, 10.0, 100.0):
            assert sb.kantorovich(h, 0.0) == 1.0
            assert sb.kantorovich(h, 1.0) == 1.0
            assert abs(sb.kantorovich(h, 1e-6) - 1.0) < 1e-5

    def test_h_limit(self):
        assert sb.kantorovich(1.0 + 1e-13, 2.0) == 1.0
        assert abs(sb.kantorovich(1.0 + 1e-6, 2.0) - 1.0) < 1e-5

    @pytest.mark.parametrize("h", [1.5, 3.0, 42.0])
    def test_classical_r2_value(self, h):
        assert sb.kantorovich(h, 2.0) == pytest.approx((h + 1.0) ** 2 / (4.0 * h), abs=1e-12)

    def test_matches_oracle_both_regimes(self):
        for h in (2.0, 10.0):
            for r in (-2.0, -1.0, 0.3, 0.7, 2.0, 3.0):
                iv = Interval(1.0, h)
                oracle = sb.ratio_oracle(FunctionSpec.power(r, iv), iv)
                assert sb.kantorovich(h, r) == pytest.approx(oracle, rel=1e-9)

    def test_scale_invariance(self):
        iv = Interval(0.3, 1.2)
        got = sb.ratio_constant(FunctionSpec.power(2.0, iv), iv)
        assert got == pytest.approx(sb.kantorovich(4.0, 2.0), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sb.kantorovich(0.9, 2.0)
        with pytest.raises(DomainError):
            sb.kantorovich(-1.0, 2.0)

    @pytest.mark.parametrize("h, r", [(1e200, 3.0), (1e10, 40.0), (1e200, -3.0)])
    def test_overflow_is_a_domain_error_naming_h_and_r(self, h, r):
        # h^r, or the inner power at r < 0, leaves the float range
        with pytest.raises(DomainError, match=re.escape(f"h = {h}, r = {r}")):
            sb.kantorovich(h, r)

    @pytest.mark.parametrize("h, r", [(1e100, 3.0), (1e10, 30.0), (1e200, -1.0), (7.5, 0.3)])
    def test_large_finite_values_keep_the_closed_form(self, h, r):
        hr = h ** r
        want = (hr - h) / ((r - 1.0) * (h - 1.0)) * ((r - 1.0) / r * (hr - 1.0) / (hr - h)) ** r
        assert sb.kantorovich(h, r) == want


class TestCOfHr:
    def test_limits_vanish(self):
        for h in (1.1, 10.0, 100.0):
            assert sb.c_of_hr(1.0, h, 0.0) == 0.0
            assert sb.c_of_hr(1.0, h, 1.0) == 0.0
            assert abs(sb.c_of_hr(1.0, h, 1e-6)) < 1e-5
        assert sb.c_of_hr(2.0, 1.0 + 1e-13, 2.0) == 0.0

    def test_matches_oracle(self):
        for m in (0.5, 1.0, 2.0):
            for h in (2.0, 10.0):
                for r in (-1.0, 0.5, 2.0, 3.0):
                    iv = Interval(m, m * h)
                    oracle = sb.diff_oracle(FunctionSpec.power(r, iv), iv)
                    assert sb.c_of_hr(m, h, r) == pytest.approx(oracle, rel=1e-9, abs=1e-11)

    def test_sign_by_regime(self):
        assert sb.c_of_hr(1.0, 4.0, 2.0) > 0.0
        assert sb.c_of_hr(1.0, 4.0, -1.0) > 0.0
        assert sb.c_of_hr(1.0, 4.0, 0.5) < 0.0

    def test_m_must_be_positive(self):
        with pytest.raises(DomainError):
            sb.c_of_hr(0.0, 2.0, 2.0)

    @pytest.mark.parametrize("m, h, r", [(1.0, 1e300, 2.0), (1e300, 2.0, 2.0), (1.0, 1e10, 40.0)])
    def test_overflow_is_a_domain_error_naming_h_and_r(self, m, h, r):
        # h^r or m^r leaves the float range
        with pytest.raises(DomainError, match=re.escape(f"m = {m}, h = {h}, r = {r}")):
            sb.c_of_hr(m, h, r)

    @pytest.mark.parametrize("m, h, r", [(1e200, 1e100, 1.5),
                                         (9.392352494441158e+133, 9.206317625462599e+265,
                                          0.8562824361203099)])
    def test_overflowing_product_is_a_domain_error(self, m, h, r):
        # every power is finite, but m^r times the bracket is +inf (and -inf
        # at the second point, from a random search over finite inputs)
        with pytest.raises(DomainError, match=re.escape(f"m = {m}, h = {h}, r = {r}")):
            sb.c_of_hr(m, h, r)

    def test_finite_inputs_give_a_finite_constant_or_a_domain_error(self):
        rnd = np.random.default_rng(35)
        for h, r, m in zip(10.0 ** rnd.uniform(0, 300, 2000), rnd.uniform(-40, 40, 2000),
                           10.0 ** rnd.uniform(-300, 300, 2000)):
            try:
                assert math.isfinite(sb.c_of_hr(float(m), float(h), float(r)))
            except DomainError:
                pass

    @pytest.mark.parametrize("m, h, r", [(1.0, 1e100, 3.0), (1e100, 2.0, 2.0), (0.5, 7.5, 0.3)])
    def test_large_finite_values_keep_the_closed_form(self, m, h, r):
        hr = h ** r
        want = m ** r * ((h - hr) / (h - 1.0)
                         + (r - 1.0) * ((hr - 1.0) / (r * (h - 1.0))) ** (r / (r - 1.0)))
        assert sb.c_of_hr(m, h, r) == want


class TestSpecht:
    def test_unit_value(self):
        assert sb.specht(1.0) == 1.0
        assert sb.specht(1.0 + 1e-14) == 1.0

    def test_value_at_e(self):
        e = math.e
        expected = e ** (1.0 / (e - 1.0)) / (e / (e - 1.0))
        assert sb.specht(e) == pytest.approx(expected, rel=1e-14)

    def test_cross_check_against_diff_constant(self):
        # C(eps, 1, -log) = log S(eps) = log S(1/eps)
        for eps in (0.05, 1.0 / math.e, 0.4):
            iv = Interval(eps, 1.0)
            c = sb.diff_constant(neg_log(eps), iv)
            assert math.exp(c) == pytest.approx(sb.specht(1.0 / eps), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_symmetry_on_log_grid(self, loghe):
        h = math.exp(loghe)
        if abs(h - 1.0) < 1e-9:
            return
        s, s_inv = sb.specht(h), sb.specht(1.0 / h)
        assert abs(s - s_inv) <= 1e-12 * abs(s)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            sb.specht(0.0)

    def test_finite_where_its_exponential_overflows(self):
        # exp(u - 1) overflows below h ~ 2e-309, yet S(1e-310) ~ 5.15e306
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            h = mpmath.mpf(1e-310)
            u = mpmath.log(h) / (h - 1)
            want = float(mpmath.exp(u - 1) / u)
        assert sb.specht(1e-310) == pytest.approx(want, rel=1e-13)

    def test_overflow_is_a_domain_error(self):
        # log S(1e-320) ~ 729.2 leaves the float range
        with pytest.raises(DomainError, match="overflows"):
            sb.specht(1e-320)
        assert sb._log_specht(1e-320) == pytest.approx(729.2249, rel=1e-6)

    @pytest.mark.parametrize("h", [1e-300, 2.1e-309, 0.05, 0.5, 1.0, 1.0 + 1e-14, 3.0, 1e300])
    def test_log_is_the_log_of_the_ratio(self, h):
        assert sb._log_specht(h) == math.log(sb.specht(h))


class TestLsR:
    def test_matches_diff_constant(self):
        for eps in (0.05, 0.3, 0.8):
            for r in (0.1, 0.5, 1.0, 3.0):
                iv = Interval(eps, 1.0)
                f = FunctionSpec.ln_r_reciprocal(r, iv)
                assert sb.ls_r_constant(eps, r) == pytest.approx(
                    sb.diff_constant(f, iv), rel=1e-12, abs=1e-14)

    def test_r_to_zero_recovers_log_specht(self):
        for eps in (0.05, 0.5, 0.9):
            assert abs(sb.ls_r_constant(eps, 1e-6) - math.log(sb.specht(eps))) < 1e-4

    def test_eps_to_one_vanishes(self):
        assert abs(sb.ls_r_constant(1.0 - 1e-8, 0.5)) < 1e-6

    def test_nonnegative(self):
        for eps in np.linspace(0.01, 0.99, 25):
            for r in (0.1, 0.5, 1.0, 2.0, 5.0):
                assert sb.ls_r_constant(float(eps), r) >= -1e-14

    def test_claimed_upper_bound_fails_for_small_eps(self):
        # the advertised bound ls_r <= 1/r does not survive small eps: the
        # grid oracle confirms the closed form *is* the true maximum there
        eps, r = 0.1, 1.0
        val = sb.ls_r_constant(eps, r)
        assert val > 1.0 / r + 1.0  # 4.675... vs 1.0
        iv = Interval(eps, 1.0)
        oracle = sb.diff_oracle(FunctionSpec.ln_r_reciprocal(r, iv), iv)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sb.ls_r_constant(0.0, 1.0)
        with pytest.raises(DomainError):
            sb.ls_r_constant(0.5, 0.0)
