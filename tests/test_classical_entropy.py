import math

import numpy as np
import pytest

from karabounds import classical_entropy as ce
from karabounds import scalar_bounds as sb
from karabounds.errors import ConsistencyError, DomainError, PreconditionError
from karabounds.verification import gen_conditioned_prob_pair, trial_rng

PAIR_EQ = (np.array([1, 1, 1]) / 3.0, np.array([1 / 6, 1 / 3, 1 / 2]))
PAIR_LT = (np.array([0.25, 0.25, 0.5]), np.array([0.1, 0.1, 0.8]))


class TestShannon:
    def test_uniform(self):
        assert ce.shannon_entropy(np.ones(4) / 4) == pytest.approx(math.log(4.0))
        assert ce.shannon_entropy(np.ones(3) / 3) == pytest.approx(math.log(3.0))

    def test_deterministic(self):
        assert ce.shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(n))
            h = ce.shannon_entropy(p)
            assert -1e-12 <= h <= math.log(n) + 1e-12

    def test_rejects_non_probability(self):
        with pytest.raises(DomainError):
            ce.shannon_entropy([0.5, 0.6])
        with pytest.raises(DomainError):
            ce.shannon_entropy([1.2, -0.2])


class TestCrossTerm:
    def test_reduces_to_entropy(self):
        p = np.array([0.2, 0.3, 0.5])
        assert ce.cross_term(p, p) == pytest.approx(ce.shannon_entropy(p))

    def test_reference_pair_value(self):
        p, q = PAIR_EQ
        expected = (math.log(6.0) + math.log(3.0) + math.log(2.0)) / 3.0
        assert ce.cross_term(p, q) == pytest.approx(expected, abs=1e-14)

    def test_degenerate(self):
        assert ce.cross_term([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))

    def test_infinite_sentinel(self):
        assert ce.cross_term([0.5, 0.5], [1.0, 0.0]) == math.inf


class TestTsallis:
    def test_deterministic_is_zero(self):
        assert ce.tsallis_entropy([1.0, 0.0], 0.5) == 0.0

    def test_small_r_matches_shannon(self):
        p = np.array([0.2, 0.3, 0.5])
        assert abs(ce.tsallis_entropy(p, 1e-6) - ce.shannon_entropy(p)) < 1e-4

    def test_uniform_is_ln_r_n(self):
        for n in (2, 5, 9):
            for r in (0.2, 0.7, 1.0):
                got = ce.tsallis_entropy(np.ones(n) / n, r)
                assert got == pytest.approx(sb.ln_r(r, float(n)), rel=1e-12)

    def test_forms_agree_randomized(self):
        # both displayed forms, 10^4 random (p, r) pairs
        rng = np.random.default_rng(1)
        worst = 0.0
        for n in (2, 4, 8):
            p = rng.dirichlet(np.ones(n), size=10_000 // 3)
            r = rng.uniform(0.01, 1.0, size=p.shape[0])[:, None]
            a = -np.sum(p ** (1.0 - r) * np.expm1(r * np.log(p)) / r, axis=1)
            b = np.sum(p * np.expm1(-r * np.log(p)) / r, axis=1)
            worst = max(worst, float(np.abs(a - b).max()))
            assert np.all(a >= -1e-12)
        assert worst <= 1e-10
        assert ce.tsallis_entropy(np.array([0.2, 0.3, 0.5]), 0.4) >= 0.0

    def test_r_out_of_range(self):
        with pytest.raises(DomainError):
            ce.tsallis_entropy([0.5, 0.5], 1.2)

    def test_consistency_guard_fires_on_bad_state(self, monkeypatch):
        import karabounds.classical_entropy as mod
        monkeypatch.setattr(mod, "ln_r", lambda r, t: np.log(t) * 1.001)
        with pytest.raises(ConsistencyError):
            mod.tsallis_entropy([0.2, 0.8], 0.5)


class TestTsallisCrossTerms:
    def test_equal_arguments_give_entropy(self):
        p = np.array([0.3, 0.7])
        for r in (0.2, 0.6, 1.0):
            w, n = ce.tsallis_cross_terms(p, p, r)
            h = ce.tsallis_entropy(p, r)
            assert w == pytest.approx(h, rel=1e-12)
            assert n == pytest.approx(h, rel=1e-12)

    def test_r_to_zero_common_limit(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        w, n = ce.tsallis_cross_terms(p, q, 1e-9)
        target = ce.cross_term(p, q)
        assert w == pytest.approx(target, abs=1e-6)
        assert n == pytest.approx(target, abs=1e-6)

    def test_forms_differ_for_positive_r(self):
        w, n = ce.tsallis_cross_terms([0.5, 0.5], [0.25, 0.75], 0.5)
        assert abs(w - n) > 1e-3

    def test_naive_deformed_cross_inequality_fails_in_general(self):
        # sum p ln_r(1/p) <= sum p ln_r(1/q) has counterexamples: at r = 1
        # take q proportional to sqrt(p) for a non-uniform p
        p = np.array([0.81, 0.19])
        q = np.sqrt(p) / np.sqrt(p).sum()
        entropy_like = float(np.sum(p * (1.0 / p - 1.0)))
        _, naive_cross = ce.tsallis_cross_terms(p, q, 1.0)
        assert entropy_like > naive_cross + 1e-3
        # while the weighted form always dominates
        weighted_cross, _ = ce.tsallis_cross_terms(p, q, 1.0)
        assert weighted_cross >= ce.tsallis_entropy(p, 1.0) - 1e-12


class TestInformationInequality:
    def test_zero_iff_equal(self):
        p = np.array([0.2, 0.8])
        assert ce.information_inequality_margin(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_value(self):
        assert ce.information_inequality_margin([1.0, 0.0], [0.5, 0.5]) == \
            pytest.approx(math.log(2.0))

    def test_randomized_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n))
            q = np.maximum(rng.dirichlet(np.ones(n)), 1e-9)
            q /= q.sum()
            assert ce.information_inequality_margin(p, q) >= -1e-10

    def test_r_extended_margin_nonnegative_bulk(self):
        # -sum p^(1-r) ln_r p <= -sum p^(1-r) ln_r q over 10^4 random pairs
        rng = np.random.default_rng(3)
        for n in (2, 5, 8):
            k = 10_000 // 3
            p = np.maximum(rng.dirichlet(np.ones(n), size=k), 1e-12)
            q = np.maximum(rng.dirichlet(np.ones(n), size=k), 1e-12)
            p /= p.sum(axis=1, keepdims=True)
            q /= q.sum(axis=1, keepdims=True)
            r = rng.uniform(0.01, 1.0, size=k)[:, None]
            hp = -np.sum(p ** (1.0 - r) * np.expm1(r * np.log(p)) / r, axis=1)
            hq = -np.sum(p ** (1.0 - r) * np.expm1(r * np.log(q)) / r, axis=1)
            assert float((hq - hp).min()) >= -1e-10


class TestReverseShannon:
    def test_reference_equality_pair(self):
        p, q = PAIR_EQ
        assert float(p @ p) == pytest.approx(float(p @ q), abs=1e-15)
        ratio_m, diff_m = ce.reverse_shannon_margins(p, q, 1.0 / 6.0, ce.CROSS_DOMINATED)
        assert ratio_m >= -1e-12
        assert diff_m >= -1e-12

    def test_reference_strict_pair(self):
        p, q = PAIR_LT
        assert float(p @ p) < float(p @ q)
        ratio_m, diff_m = ce.reverse_shannon_margins(p, q, 0.1, ce.CROSS_DOMINATED)
        assert ratio_m >= -1e-12
        assert diff_m >= -1e-12

    def test_identical_distributions_self_dominated(self):
        p = np.array([0.3, 0.3, 0.4])
        eps = 0.25
        ratio_m, _ = ce.reverse_shannon_margins(p, p, eps, ce.SELF_DOMINATED)
        big_k = math.log(eps) / (eps - 1.0)
        assert ratio_m == pytest.approx((big_k - 1.0) * ce.shannon_entropy(p), rel=1e-12)
        assert ratio_m >= 0.0

    def test_tag_mismatch_rejected(self):
        p, q = PAIR_LT
        with pytest.raises(PreconditionError):
            ce.reverse_shannon_margins(p, q, 0.1, ce.SELF_DOMINATED)

    def test_floor_violation_rejected(self):
        p, q = PAIR_LT
        with pytest.raises(DomainError):
            ce.reverse_shannon_margins(p, q, 0.2, ce.CROSS_DOMINATED)

    def test_generated_pairs_hold(self):
        for i in range(300):
            rng = trial_rng(77, i)
            direction = ce.SELF_DOMINATED if i % 2 == 0 else ce.CROSS_DOMINATED
            p, q = gen_conditioned_prob_pair(4, 0.05, direction, rng)
            ratio_m, diff_m = ce.reverse_shannon_margins(p, q, 0.05, direction)
            assert ratio_m >= -1e-9 and diff_m >= -1e-9


class TestParametricReverse:
    def test_reduces_to_shannon_at_small_r(self):
        p, q = PAIR_EQ
        eps = 1.0 / 6.0
        base = ce.reverse_shannon_margins(p, q, eps, ce.CROSS_DOMINATED)
        small = ce.parametric_reverse_margins(p, q, eps, 1e-6, ce.CROSS_DOMINATED)
        assert small[0] == pytest.approx(base[0], abs=1e-4)
        assert small[1] == pytest.approx(base[1], abs=1e-4)

    def test_reference_pair_at_half(self):
        p, q = PAIR_EQ
        ratio_m, diff_m = ce.parametric_reverse_margins(p, q, 1.0 / 6.0, 0.5,
                                                        ce.CROSS_DOMINATED)
        assert ratio_m >= -1e-12
        assert diff_m >= -1e-12

    def test_self_dominated_identity_pair(self):
        p = np.array([0.3, 0.3, 0.4])
        for r in (0.2, 1.0, 2.0):
            ratio_m, diff_m = ce.parametric_reverse_margins(p, p, 0.25, r,
                                                            ce.SELF_DOMINATED)
            assert ratio_m >= -1e-12  # c1 >= 1
            assert diff_m >= -1e-12   # ls_r >= 0

    def test_generated_pairs_hold(self):
        for i in range(300):
            rng = trial_rng(99, i)
            direction = ce.SELF_DOMINATED if i % 2 == 0 else ce.CROSS_DOMINATED
            r = (0.1, 0.5, 1.0, 2.0)[i % 4]
            p, q = gen_conditioned_prob_pair(4, 0.05, direction, rng)
            ratio_m, diff_m = ce.parametric_reverse_margins(p, q, 0.05, r, direction)
            assert ratio_m >= -1e-9 and diff_m >= -1e-9

    def test_r_must_be_positive(self):
        p, q = PAIR_EQ
        with pytest.raises(DomainError):
            ce.parametric_reverse_margins(p, q, 1.0 / 6.0, 0.0, ce.CROSS_DOMINATED)


def boundary_pairs(direction, eps=0.05, ulps=6):
    """(P, Q) lists of pairs whose condition gap straddles PROB_TOL: q is p
    moved along e_0 - e_1 until sum p(q - p) is about +-PROB_TOL, then q_0
    is moved by -ulps..ulps units in the last place."""
    sign = 1.0 if direction == ce.SELF_DOMINATED else -1.0
    P, Q = [], []
    for i in range(40):
        p = gen_conditioned_prob_pair((2, 3, 4, 6)[i % 4], eps, direction, trial_rng(31, i))[0]
        t = sign * ce.PROB_TOL / (p[0] - p[1])
        base = p.copy()
        base[0] += t
        base[1] -= t
        for k in range(-ulps, ulps + 1):
            q = base.copy()
            q[0] += k * np.spacing(q[0])
            P.append(p)
            Q.append(q)
    return P, Q


class TestConditionPredicate:
    @pytest.mark.parametrize("direction", [ce.SELF_DOMINATED, ce.CROSS_DOMINATED])
    def test_one_pair_is_a_batch_of_one_of_the_row_gap(self, direction):
        # rows within a few ulps of the tolerance decide the same way alone
        # and in a stack, and both verdicts occur among them
        by_length = {}
        for p, q in zip(*boundary_pairs(direction)):
            by_length.setdefault(p.size, []).append((p, q))
        seen = set()
        for pairs in by_length.values():
            P, Q = np.stack([p for p, _ in pairs]), np.stack([q for _, q in pairs])
            stacked = ce._condition_gap(P, Q, direction) <= ce.PROB_TOL
            alone = [ce.condition_tag_holds(p, q, direction) for p, q in pairs]
            assert alone == stacked.tolist()
            seen.update(alone)
        assert seen == {True, False}

    @pytest.mark.parametrize("direction", [ce.SELF_DOMINATED, ce.CROSS_DOMINATED])
    def test_reverse_rows_reject_exactly_the_failing_rows(self, direction):
        P, Q = boundary_pairs(direction)
        for n in (2, 3, 4, 6):
            pairs = [(p, q) for p, q in zip(P, Q) if p.size == n]
            holds = [ce.condition_tag_holds(p, q, direction) for p, q in pairs]
            good = [pair for pair, ok in zip(pairs, holds) if ok]
            for (p, q), ok in zip(pairs, holds):
                Ps, Qs = np.stack([p] + [a for a, _ in good]), np.stack([q] + [b for _, b in good])
                if ok:
                    ce._check_reverse_rows(Ps, Qs, 0.05, direction)
                else:
                    with pytest.raises(PreconditionError, match="declared condition"):
                        ce._check_reverse_rows(Ps, Qs, 0.05, direction)
