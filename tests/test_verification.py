import csv
import dataclasses
import functools
import io
import math
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from karabounds import classical_entropy as ce
from karabounds import majorization as mj
from karabounds import operator_calculus as oc
from karabounds import verification as vf
from karabounds.errors import DomainError, GeneratorExhausted, PreconditionError, ShapeError
from karabounds.functions import FunctionSpec, Interval, ln_r


def count_eigh(monkeypatch, name="_eigh"):
    """{dim: [stack sizes]} of the calls to the LAPACK routine ``name``."""
    sizes = defaultdict(list)
    solve = getattr(oc, name)

    def counting(mats):
        sizes[mats.shape[1]].append(mats.shape[0])
        return solve(mats)

    monkeypatch.setattr(oc, name, counting)
    return sizes


class TestGenerators:
    def test_equal_weighted_mean_contract(self):
        iv = Interval(0.1, 1.0)
        worst = 0.0
        for i in range(10_000):
            rng = vf.trial_rng(1, i)
            x, y, p = vf.gen_equal_weighted_mean_scalars(4, iv, rng)
            assert np.all((x >= iv.m) & (x <= iv.M))
            assert np.all((y >= iv.m) & (y <= iv.M))
            worst = max(worst, abs(float(p @ x) - float(p @ y)))
        assert worst <= 1e-12

    def test_equal_weighted_mean_without_redraws(self, monkeypatch):
        # with no redraws every draw takes the coordinate-wise construction
        monkeypatch.setattr(vf, "_REDRAW_CAP", 0)
        for name in vf._DEFAULT_FS:
            iv = vf.function_catalog(name).domain
            worst = 0.0
            for i in range(2000):
                x, y, p = vf.gen_equal_weighted_mean_scalars(4, iv, vf.trial_rng(13, i))
                assert np.all((x >= iv.m) & (x <= iv.M))
                worst = max(worst, abs(float(p @ x) - float(p @ y)))
            assert worst <= 1e-12, name

    @staticmethod
    def plain_equal_weighted_mean(n, iv, rng):
        # one redraw per loop pass, then the coordinate-wise construction
        p = rng.dirichlet(np.ones(n))
        y = rng.uniform(iv.m, iv.M, size=n)
        target = np.sum(p * y)
        for _ in range(vf._REDRAW_CAP):
            x = rng.uniform(iv.m, iv.M, size=n)
            x0 = (target - np.sum(p[1:] * x[1:])) / p[0]
            if iv.m <= x0 <= iv.M:
                x[0] = x0
                return x, y, p
        x = np.empty(n)
        order = np.argsort(p)
        rest = np.cumsum(p[order][::-1])[::-1]
        fixed = 0.0
        for k, i in enumerate(order[:-1]):
            lo = max(iv.m, (target - fixed - iv.M * rest[k + 1]) / p[i])
            hi = min(iv.M, (target - fixed - iv.m * rest[k + 1]) / p[i])
            x[i] = min(max(rng.uniform(lo, hi), iv.m), iv.M)
            fixed += p[i] * x[i]
        last = order[-1]
        x[last] = min(max((target - fixed) / p[last], iv.m), iv.M)
        return x, y, p

    def assert_matches_plain_loop(self, n, iv, seed, trial):
        rng_a, rng_b = vf.trial_rng(seed, trial), vf.trial_rng(seed, trial)
        got = vf.gen_equal_weighted_mean_scalars(n, iv, rng_a)
        want = self.plain_equal_weighted_mean(n, iv, rng_b)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (n, seed, trial)

    def test_block_redraws_match_plain_loop(self):
        # seeds 1016 and 107004 of scalar_corollary include trials that need
        # hundreds of redraws (1016/167 and 107004/139 exhaust the cap)
        for seed, trials in ((1016, (20, 115, 167, 247, 366)), (107004, (2, 139, 220)),
                             (0, range(200))):
            for i in trials:
                self.assert_matches_plain_loop(4, vf.function_catalog(
                    vf._cycle(vf._DEFAULT_FS, i)).domain, seed, i)
        for n in (2, 3, 7):
            for i in range(100):
                self.assert_matches_plain_loop(n, Interval(-1.0, 2.0), n, i)

    def test_block_redraws_match_plain_loop_when_exhausted(self, monkeypatch):
        # small caps end inside a block and on a block edge (1 + 2 + 4 rows);
        # the construction after them must start from the same rng position
        iv = Interval(0.1, 1.0)
        for cap in (1, 5, 7):
            monkeypatch.setattr(vf, "_REDRAW_CAP", cap)
            for i in range(300):
                self.assert_matches_plain_loop(4, iv, 5, i)

    def test_two_point_solved_coordinate(self):
        iv = Interval(0.0, 1.0)
        rng = vf.trial_rng(2, 0)
        x, y, p = vf.gen_equal_weighted_mean_scalars(2, iv, rng)
        assert float(p @ x) == pytest.approx(float(p @ y), abs=1e-14)

    def test_sinkhorn_is_doubly_stochastic(self):
        for n in (2, 4, 7):
            S = vf.sinkhorn_doubly_stochastic(n, np.random.default_rng(3))
            assert np.allclose(S.sum(axis=0), 1.0, atol=1e-10)
            assert np.allclose(S.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(S > 0.0)

    def test_sinkhorn_cycle_stop_matches_plain_loop(self):
        # the loop stops once an iterate repeats; the plain loop below runs
        # every sweep, and both must give the same bits and leave the rng
        # at the same point
        def plain(n, rng, iters):
            S = rng.uniform(0.5, 1.5, size=(n, n))
            for _ in range(iters):
                S /= S.sum(axis=1, keepdims=True)
                S /= S.sum(axis=0, keepdims=True)
            S /= S.sum(axis=1, keepdims=True)
            return S

        for n in (2, 3, 4, 5):
            for i in range(500):
                iters = (200, 0, 1, 37, 61)[i % 5]
                rng_a, rng_b = vf.trial_rng(n, i), vf.trial_rng(n, i)
                a = vf.sinkhorn_doubly_stochastic(n, rng_a, iters)
                assert np.array_equal(a, plain(n, rng_b, iters)), (n, i, iters)
                assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stacked_sinkhorn_matches_one_call_per_matrix(self, n):
        # a k-stack of start matrices, swept whole or cut into slices in any
        # order, gives each matrix the bits of its own public call
        for iters in (0, 1, 2, 37, 61, 200):
            for seed in range(6):
                k = 2 + 7 * seed
                alone = np.stack([vf.sinkhorn_doubly_stochastic(n, vf.trial_rng(seed, i), iters)
                                  for i in range(k)])
                starts = np.stack([vf._sinkhorn_start(n, vf.trial_rng(seed, i)) for i in range(k)])
                order = np.random.default_rng(seed).permutation(k)
                for cuts in ((0, k), (0, 1, k), (0, k // 3, k // 2, k)):
                    got = np.empty_like(starts)
                    for a, b in zip(cuts, cuts[1:]):
                        got[order[a:b]] = vf._sinkhorn(starts[order[a:b]], iters)
                    assert np.array_equal(got, alone), (n, iters, seed, cuts)

    @staticmethod
    def _sinkhorn_states(S, iters):
        """The plain loop's states 0..iters of one start matrix."""
        states = [S]
        for _ in range(iters):
            S = S / S.sum(axis=1, keepdims=True)
            S /= S.sum(axis=0, keepdims=True)
            states.append(S)
        return states

    def test_stacked_sinkhorn_runs_every_sweep_of_a_stack_that_does_not_cycle(self, monkeypatch):
        # at 6 sweeps no matrix has come back to an earlier state; and with
        # lag 2 alone, a stack that holds a matrix of period 3 never stops
        # early: both run the plain loop to its end
        starts = np.stack([vf._sinkhorn_start(3, vf.trial_rng(5, i)) for i in range(40)])
        for S in starts:
            states = [s.tobytes() for s in self._sinkhorn_states(S, 6)]
            assert len(set(states)) == len(states)
        plain = [s[-1] / s[-1].sum(axis=1, keepdims=True)
                 for s in map(lambda S: self._sinkhorn_states(S, 6), starts)]
        assert np.array_equal(vf._sinkhorn(starts, 6), np.stack(plain))

        period3 = None
        for i in range(2000):
            S = vf._sinkhorn_start(3, vf.trial_rng(6, i))
            states = self._sinkhorn_states(S, 200)
            tail = [s.tobytes() for s in states[-6:]]
            if tail[0] == tail[3] and tail[0] != tail[2] and tail[0] != tail[1]:
                period3 = S
                break
        assert period3 is not None
        stack = np.concatenate([period3[None], starts])
        want = np.stack([s[-1] / s[-1].sum(axis=1, keepdims=True)
                         for s in map(lambda S: self._sinkhorn_states(S, 200), stack)])
        monkeypatch.setattr(vf, "_SINKHORN_LAGS", (2,))
        assert np.array_equal(vf._sinkhorn(stack, 200), want)

    @pytest.mark.parametrize("kind", vf.FAMILY_KINDS)
    def test_equal_map_sum_contract(self, kind):
        # 3334 draws per family kind (10^4 across the three); spectra checked
        # in one batched eigenvalue pass per dimension
        iv = Interval(0.0, 1.0) if kind == "normalized_trace" else Interval(0.2, 1.5)
        worst = 0.0
        stacks = {2: [], 3: [], 4: []}
        for i in range(3334):
            rng = vf.trial_rng(4, i)
            dim = (2, 3, 4)[i % 3]
            As, Bs, fam = vf.gen_equal_map_sum_operators(3, dim, iv, kind, rng)
            assert fam.unital_residual() <= 1e-10
            lhs = oc.apply_map_family(fam, As)
            rhs = oc.apply_map_family(fam, Bs)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
            stacks[dim].extend(As + Bs)
        assert worst <= 1e-10
        for dim, mats in stacks.items():
            w = oc.eigvals_stack(np.stack(mats))
            assert w.min() >= iv.m - 1e-10
            assert w.max() <= iv.M + 1e-10

    def test_permutation_with_single_map_is_identity(self):
        rng = vf.trial_rng(5, 0)
        As, Bs, _ = vf.gen_equal_map_sum_operators(1, 3, Interval(0.0, 1.0),
                                                   "uniform_permutation", rng)
        assert np.allclose(As[0], Bs[0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            vf.gen_equal_map_sum_operators(2, 2, Interval(0.0, 1.0), "bogus",
                                           vf.trial_rng(0, 0))

    @pytest.mark.parametrize("kind", vf.FAMILY_KINDS)
    @pytest.mark.parametrize("n, dim", [(0, 2), (2.5, 2), (True, 2), (2, 2.5), (2, -1), (2, 0),
                                        (2, True)])
    def test_equal_map_sum_operators_need_integers_of_at_least_one(self, kind, n, dim):
        with pytest.raises(DomainError, match=r"need integers n >= 1 and dim >= 1"):
            vf.gen_equal_map_sum_operators(n, dim, Interval(0.0, 1.0), kind, vf.trial_rng(0, 0))

    @pytest.mark.parametrize("kind", vf.FAMILY_KINDS)
    def test_equal_map_sum_operators_take_numpy_integers(self, kind):
        iv = Interval(0.0, 1.0)
        want = vf.gen_equal_map_sum_operators(2, 3, iv, kind, vf.trial_rng(0, 0))
        got = vf.gen_equal_map_sum_operators(np.int64(2), np.int64(3), iv, kind,
                                             vf.trial_rng(0, 0))
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert np.array_equal(a, b)
        assert got[2] == want[2] if kind == "normalized_trace" else len(got[2].maps) == 2

    def test_conditioned_pair_tags(self):
        import karabounds.classical_entropy as ce
        for i in range(2000):
            rng = vf.trial_rng(6, i)
            direction = ce.SELF_DOMINATED if i % 2 == 0 else ce.CROSS_DOMINATED
            p, q = vf.gen_conditioned_prob_pair(3, 0.05, direction, rng)
            assert ce.condition_tag_holds(p, q, direction)
            assert p.min() >= 0.05 - 1e-12 and q.min() >= 0.05 - 1e-12

    @staticmethod
    def plain_conditioned_pair(n, eps, direction, rng, cap):
        # one pair per loop pass; None where the draws run out
        for _ in range(cap):
            p = eps + (1.0 - n * eps) * rng.dirichlet(np.ones(n))
            q = eps + (1.0 - n * eps) * rng.dirichlet(np.ones(n))
            if ce.condition_tag_holds(p, q, direction):
                return p, q
        return None

    @pytest.mark.parametrize("cap", [vf._REDRAW_CAP, 0, 1, 5, 20])
    def test_block_drawn_pairs_match_plain_loop(self, cap, monkeypatch):
        # a cap of 20 ends inside the second block; 0, 1 and 5 inside the first
        monkeypatch.setattr(vf, "_REDRAW_CAP", cap)
        for n in (2, 3, 4, 6):
            for direction in (ce.SELF_DOMINATED, ce.CROSS_DOMINATED):
                for seed in range(200):
                    rng_a, rng_b = vf.trial_rng(seed, n), vf.trial_rng(seed, n)
                    want = self.plain_conditioned_pair(n, 0.05, direction, rng_b, cap)
                    if want is None:
                        with pytest.raises(GeneratorExhausted):
                            vf.gen_conditioned_prob_pair(n, 0.05, direction, rng_a)
                    else:
                        got = vf.gen_conditioned_prob_pair(n, 0.05, direction, rng_a)
                        assert all(np.array_equal(a, b) for a, b in zip(got, want)), \
                            (n, direction, seed)

    @staticmethod
    def block_end(count, width):
        """The draws up to the end of the rejection block that holds draw
        ``count`` (1-based): a first block of _FIRST_BLOCK draws, then
        blocks that double, each of at most _REDRAW_BLOCK doubles of
        ``width`` per draw and none past _REDRAW_CAP."""
        step = max(1, vf._REDRAW_BLOCK // width)
        done = min(vf._FIRST_BLOCK, vf._REDRAW_CAP, step)
        k = 2 * done
        while done < count:
            k = min(k, vf._REDRAW_CAP - done, step)
            done += k
            k *= 2
        return done

    def test_public_samplers_end_after_the_block_that_holds_their_draw(self):
        # the one-draw loops, run on a generator that counts their calls,
        # stop after the draw taken; the public samplers stop at the end of
        # its block, and after the equal-mean construction where the loop does
        cap = vf._REDRAW_CAP
        for n in (2, 3, 4, 6):
            for seed in range(100):
                direction = (ce.SELF_DOMINATED, ce.CROSS_DOMINATED)[seed % 2]
                rng_a, rng_b = vf.trial_rng(seed, n), vf.trial_rng(seed, n)
                vf.gen_conditioned_prob_pair(n, 0.05, direction, rng_a)
                counting = CountingRng(rng_b)
                self.plain_conditioned_pair(n, 0.05, direction, counting, cap)
                count = counting.calls // 2
                rng_b.dirichlet(np.ones(n), size=2 * (self.block_end(count, 2 * n) - count))
                assert rng_a.bit_generator.state == rng_b.bit_generator.state, (n, seed)
        cases = [(4, vf.function_catalog(vf._cycle(vf._DEFAULT_FS, i)).domain, seed, i)
                 for seed, trials in ((1016, (20, 115, 167, 247, 366)), (107004, (2, 139, 220)),
                                      (0, range(100))) for i in trials]
        cases += [(n, Interval(-1.0, 2.0), n, i) for n in (2, 3, 7) for i in range(100)]
        for n, iv, seed, i in cases:
            rng_a, rng_b = vf.trial_rng(seed, i), vf.trial_rng(seed, i)
            vf.gen_equal_weighted_mean_scalars(n, iv, rng_a)
            counting = CountingRng(rng_b)
            self.plain_equal_weighted_mean(n, iv, counting)
            count = counting.calls - 2  # the x draws after p and y
            if count <= cap:
                rng_b.random((self.block_end(count, n) - count, n))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state, (n, seed, i)

    def test_conditioned_pair_infeasible_floor(self):
        with pytest.raises(DomainError):
            vf.gen_conditioned_prob_pair(4, 0.3, "self_dominated", vf.trial_rng(0, 0))

    @pytest.mark.parametrize("n", [0, -2, 2.0, True])
    def test_conditioned_pair_needs_an_integer_n_of_at_least_one(self, n):
        # n = 0 divided by zero in the first block's size
        with pytest.raises(DomainError, match="integer n >= 1"):
            vf.gen_conditioned_prob_pair(n, 0.05, ce.SELF_DOMINATED, vf.trial_rng(0, 0))

    @pytest.mark.parametrize("sampler", ["gen_equal_weighted_mean_scalars", "gen_fuchs_instance"])
    @pytest.mark.parametrize("n", [2.5, 3.5, True, 1])
    def test_construction_samplers_need_an_integer_n_of_at_least_two(self, sampler, n):
        # n = 2.5 and 3.5 raised numpy's untyped TypeError, and n = True
        # passed the check as 1
        with pytest.raises(DomainError, match="integer n >= 2"):
            getattr(vf, sampler)(n, Interval(0.1, 1.0), vf.trial_rng(0, 0))

    @pytest.mark.parametrize("sampler", ["gen_equal_weighted_mean_scalars", "gen_fuchs_instance"])
    def test_construction_samplers_take_a_numpy_integer_n(self, sampler):
        iv = Interval(0.1, 1.0)
        rng_a, rng_b = vf.trial_rng(0, 0), vf.trial_rng(0, 0)
        got = getattr(vf, sampler)(np.int64(3), iv, rng_a)
        want = getattr(vf, sampler)(3, iv, rng_b)
        assert all(_bits(a) == _bits(b) for a, b in zip(got, want))
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("sampler", ["gen_equal_weighted_mean_scalars", "gen_fuchs_instance"])
    def test_construction_samplers_reject_an_interval_whose_width_overflows(self, sampler):
        # numpy's uniform raised an untyped OverflowError here
        with pytest.raises(DomainError, match="overflows"):
            getattr(vf, sampler)(3, Interval(-1e308, 1e308), vf.trial_rng(0, 0))

    def test_conditioned_pair_needs_a_finite_floor(self, monkeypatch):
        # a NaN floor accepts no pair, so it drew all _REDRAW_CAP pairs
        monkeypatch.setattr(vf, "_REDRAW_CAP", 1)
        for eps in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite floor"):
                vf.gen_conditioned_prob_pair(3, eps, ce.SELF_DOMINATED, vf.trial_rng(0, 0))

    @pytest.mark.parametrize("eps", [-1.0, 0.0, -0.0])
    def test_conditioned_pair_needs_a_positive_floor(self, eps):
        # eps = -1 gave p = [1.48, -0.43, -0.06] at n = 3
        with pytest.raises(DomainError, match="eps > 0"):
            vf.gen_conditioned_prob_pair(3, eps, ce.SELF_DOMINATED, vf.trial_rng(0, 0))

    def test_generator_exhaustion_reported(self, monkeypatch):
        monkeypatch.setattr(vf, "_REDRAW_CAP", 0)
        with pytest.raises(GeneratorExhausted, match="after 0 draws"):
            vf.gen_conditioned_prob_pair(3, 0.05, ce.SELF_DOMINATED, vf.trial_rng(0, 0))

    def test_fuchs_instance_contract(self):
        from karabounds.majorization import is_p_majorized
        for i in range(2000):
            rng = vf.trial_rng(7, i)
            x, y, p = vf.gen_fuchs_instance(5, Interval(-1.0, 2.0), rng)
            assert np.all(np.diff(y) <= 1e-12)
            assert np.all(np.diff(x) <= 1e-12)
            assert is_p_majorized(x, y, p)
            assert x.flags.c_contiguous and y.flags.c_contiguous and p.flags.c_contiguous

    @staticmethod
    def plain_fuchs_instance(n, iv, rng):
        # one rng.integers call per averaging step
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

    def test_fuchs_indices_in_one_draw_match_plain_loop(self):
        iv = Interval(-1.0, 2.0)
        for n in (2, 3, 4, 5, 8):
            for seed in range(300):
                rng_a, rng_b = vf.trial_rng(seed, n), vf.trial_rng(seed, n)
                got = vf.gen_fuchs_instance(n, iv, rng_a)
                want = self.plain_fuchs_instance(n, iv, rng_b)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (n, seed)
                assert rng_a.random() == rng_b.random(), (n, seed)

    @staticmethod
    def suite_prefix_draws(n, rng):
        """(U, P, steps) of a prefix suite trial of size n on ``rng``,
        drawn by the suites' fill: raw words where n - 1 is a power of two."""
        raw = not (n - 1) & (n - 2)
        ((_, _, _, U, P, S),), _ = vf._drawn_one(vf._fill_prefix, rng, raw,
                                                 vf._prefix_columns(n, raw))
        return U[0], P[0], S

    @pytest.mark.parametrize("n", range(2, 18))
    def test_suite_prefix_steps_are_numpys_integers(self, n):
        # the prefix suites draw raw words where n - 1 is a power of two
        # (n = 2, 3, 5, 9, 17) and call integers elsewhere; on the trials'
        # own streams, both give the steps of rng.integers(0, n - 1, size=n)
        # and leave the stream where that call does
        for seed in (0, 7, 2**40 + 1):
            draws, nexts = [], []
            for rng in vf._trial_rngs(seed, range(200)):
                draws.append(self.suite_prefix_draws(n, rng))
                nexts.append(rng.random())
            got = vf._steps(np.concatenate([steps for *_, steps in draws]), n)
            assert got.shape == (200, n)
            for i, (U, P, _) in enumerate(draws):
                rng = vf.trial_rng(seed, i)
                assert _bits(U) == _bits(rng.random(n)) and _bits(P) == _bits(rng.random(n))
                assert got[i].tolist() == rng.integers(0, n - 1, size=n).tolist(), (n, seed, i)
                assert rng.random() == nexts[i], (n, seed, i)
        # a first word with low half 0, which Lemire's map rejects unless
        # n - 1 is a power of two: integers then takes one more half
        for word in (0, 5 << 32, 1 << 63):
            # the fill's 2n doubles of y and p come first
            rng_a, rng_b = _pcg64_before(word, skip=2 * n), _pcg64_before(word, skip=2 * n)
            rng_b.random(2 * n)
            got = vf._steps(self.suite_prefix_draws(n, rng_a)[2], n)[0]
            assert got.tolist() == rng_b.integers(0, n - 1, size=n).tolist(), (n, word)
            assert rng_a.random() == rng_b.random(), (n, word)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_public_fuchs_instance_keeps_integers_stream(self, n):
        # gen_fuchs_instance takes its steps from rng.integers for every n,
        # on any generator: a fresh one, and one holding a buffered 32-bit
        # half, which raw words would skip
        def old(n, iv, rng):
            U, P, steps = rng.random(n), rng.random(n), rng.integers(0, n - 1, size=n)
            y = np.sort(iv.m + (iv.M - iv.m) * U)[::-1]
            p = 0.2 + (1.0 - 0.2) * P
            x = y.copy()
            for i in steps.tolist():
                w = p[i] + p[i + 1]
                x[i] = x[i + 1] = (p[i] * x[i] + p[i + 1] * x[i + 1]) / w
            return x, y, p

        iv = Interval(-1.0, 2.0)
        for buffered in (False, True):
            for i in range(50):
                rng_a, rng_b = vf.trial_rng(3, i), vf.trial_rng(3, i)
                if buffered:
                    rng_a.integers(0, 7)
                    rng_b.integers(0, 7)
                got, want = vf.gen_fuchs_instance(n, iv, rng_a), old(n, iv, rng_b)
                assert all(_bits(a) == _bits(b) for a, b in zip(got, want)), (n, buffered, i)
                assert (rng_a.integers(0, 1000, size=3).tolist()
                        == rng_b.integers(0, 1000, size=3).tolist()), (n, buffered, i)
                assert rng_a.random() == rng_b.random(), (n, buffered, i)


class TestPrimitiveMaps:
    # the draws make numpy's primitive calls and the builds map them; if a
    # numpy release changes how Generator.dirichlet or Generator.uniform
    # map those numbers, these fail instead of the reports moving silently
    @pytest.mark.parametrize("n", range(1, 12))
    def test_dirichlet_rows_are_numpys_dirichlet(self, n):
        for seed in range(20):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            for s in (1, 2, 16, 32):
                got = vf._dirichlet_rows(rng_a.standard_exponential((s, n)))
                assert _bits(got) == _bits(rng_b.dirichlet(np.ones(n), size=s)), (n, seed, s)
                assert got.shape == (s, n)
            assert rng_a.random() == rng_b.random(), (n, seed)

    @pytest.mark.parametrize("bounds", [*((f.domain.m, f.domain.M) for f in vf._CATALOG.values()),
                                        (-1.0, 2.0), (0.2, 1.0), (1.7, 5.1)])
    def test_uniform_is_numpys_uniform(self, bounds):
        lo, hi = bounds
        for seed in range(20):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (1, 4, (16, 5), 1000):
                got = vf._uniform(rng_a.random(size), lo, hi)
                assert _bits(got) == _bits(rng_b.uniform(lo, hi, size)), (bounds, seed, size)
            assert rng_a.random() == rng_b.random(), (bounds, seed)


class TestSuiteSamplers:
    # the rejection-sampled suites draw each trial's first block, screen all
    # the blocks in one stack and resume a trial that found nothing from
    # the state saved after its block; trial by trial, they must give the
    # public samplers' instances and exhaust where those do
    SUITES = ("reverse_shannon", "parametric_reverse", "scalar_corollary")
    CAP = vf._REDRAW_CAP

    @staticmethod
    def public_rows(suite, seed, i):
        """Trial i's rows from the public sampler, or None for a relaxed
        scalar_corollary trial, which draws no sample to reject."""
        rng = vf.trial_rng(seed, i)
        if suite == "scalar_corollary":
            f = vf.function_catalog(vf._cycle(vf._DEFAULT_FS, i))
            if i % 2 == 1 and vf._is_decreasing(f, f.domain):
                return None
            x, y, p = vf.gen_equal_weighted_mean_scalars(vf._SCALAR_N, f.domain, rng)
            return p, x, y
        direction = ce.SELF_DOMINATED if i % 2 == 0 else ce.CROSS_DOMINATED
        return vf.gen_conditioned_prob_pair(vf._cycle(vf._REVERSE_SIZES, i), 0.05, direction, rng)

    @staticmethod
    def suite_rows(monkeypatch, suite, seed, trials):
        """Each trial's rows as run_suite scores them, and the items of the
        trials that resumed."""
        scored, resumed = [], []
        inner, first_accepted = vf._SUITES[suite], vf._first_accepted

        def score(built):
            keys, stacks = built
            rows = {t: tuple(column[j] for column in columns)
                    for trials, *columns in stacks for j, t in enumerate(trials.tolist())}
            scored.extend(rows[t] for t in range(len(keys)))
            return inner.score(built)

        def recording(*args):
            item = first_accepted(*args)
            resumed.append(item)
            return item

        monkeypatch.setitem(vf._SUITES, suite, dataclasses.replace(inner, score=score))
        monkeypatch.setattr(vf, "_first_accepted", recording)
        vf.run_suite(suite, trials, seed)
        return scored, resumed

    @pytest.mark.parametrize("cap", [0, 1, 5, 20, CAP])
    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_draws_honour_the_cap_and_the_first_block(self, suite, cap, monkeypatch):
        # a cap of 0 draws nothing, 1 and 5 end inside the first block, 20
        # inside the first resumed block; scalar_corollary never exhausts, it
        # builds x coordinate-wise on the trial's stream
        monkeypatch.setattr(vf, "_REDRAW_CAP", cap)
        seed, trials = 5, 96
        want, exhausted = [], False
        for i in range(trials):
            try:
                want.append(self.public_rows(suite, seed, i))
            except GeneratorExhausted:
                exhausted = True
        if exhausted:
            with pytest.raises(GeneratorExhausted):
                vf.run_suite(suite, trials, seed)
            return
        got, resumed = self.suite_rows(monkeypatch, suite, seed, trials)
        assert len(got) == trials
        for i, (rows, public) in enumerate(zip(got, want)):
            if public is not None:
                assert all(np.array_equal(a, b) for a, b in zip(rows, public)), (suite, cap, i)
        if cap == self.CAP:
            # some trial found no accepted draw in its first block and took
            # one from the blocks after it
            assert any(item is not None for item in resumed), suite

    @pytest.mark.parametrize("suite", ["reverse_shannon", "parametric_reverse"])
    def test_exhaustion_names_the_first_trial_that_took_no_pair(self, suite, monkeypatch):
        # with a cap of 0 no trial takes a pair; trial 0 is self-dominated
        monkeypatch.setattr(vf, "_REDRAW_CAP", 0)
        with pytest.raises(GeneratorExhausted,
                           match=r"^no \(self_dominated\) pair with floor 0.05 after 0 draws$"):
            vf.run_suite(suite, 8, 3)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_acceptance_expressions_give_a_row_the_same_bits_in_any_layout(self, n):
        # the Dirichlet and uniform maps, the equal-mean target and solve,
        # the pair screen and the relaxed build give a row the same bits on
        # a view of a block row (at an offset of 8 n bytes, which shifts its
        # alignment where n is odd), on a fresh copy of it and inside a
        # stack of other rows
        f = vf.function_catalog("neg_log")  # decreasing, so relaxed draws take it
        rng, iv, k, b = np.random.default_rng(n), f.domain, 9, 5
        EP, UY = rng.standard_exponential((k, n)), rng.random((k, n))
        UX, ED = rng.random((k, b, n)), rng.standard_exponential((k, 2 * b, n))
        P, Y = vf._dirichlet_rows(EP), vf._uniform(UY, iv.m, iv.M)
        X, D = vf._uniform(UX, iv.m, iv.M), vf._dirichlet_rows(ED)
        T = np.sum(P * Y, axis=-1)
        solved, ok = vf._x0_screen(X, P, T, iv)
        direction = (ce.SELF_DOMINATED, ce.CROSS_DOMINATED)[n % 2]
        F, hits = vf._pair_screen(D, 0.5 / n, direction)
        gaps = ce._condition_gap(F[..., 0, :], F[..., 1, :], direction)
        group, keys = (vf.MODE_RELAXED, iv), [(f, 0.5, vf.MODE_RELAXED)] * k
        ((_, _, SX, SY),) = vf._build_scalar_corollary(
            keys, [(np.arange(k), group, np.zeros((k, 0)), UX[:, 0], UX[:, 1], EP)], {})
        for j in range(k):
            for layout in (lambda a: a, np.copy):
                assert _bits(vf._dirichlet_rows(layout(EP[j]))) == _bits(P[j]), (n, j)
                assert _bits(vf._dirichlet_rows(layout(ED[j]))) == _bits(D[j]), (n, j)
                assert _bits(vf._uniform(layout(UX[j]), iv.m, iv.M)) == _bits(X[j]), (n, j)
                p, x, d = layout(P[j]), layout(X[j]), layout(D[j])
                t = np.sum(p * layout(Y[j]))
                assert _bits(t) == _bits(T[j]), (n, j)
                row, row_ok = vf._x0_screen(x, p, t, iv)
                assert _bits(row) == _bits(solved[j]) and row_ok.tolist() == ok[j].tolist()
                for i in range(b):
                    x0 = (t - np.sum(p[1:] * layout(X[j, i])[1:])) / p[0]
                    assert _bits(x0) == _bits(solved[j, i, 0]), (n, j, i)
                f, f_ok = vf._pair_screen(d, 0.5 / n, direction)
                assert _bits(f) == _bits(F[j]) and f_ok.tolist() == hits[j].tolist()
                gap = ce._condition_gap(f[..., 0, :], f[..., 1, :], direction)
                assert _bits(gap) == _bits(gaps[j]), (n, j)
                ((_, _, sx, sy),) = vf._build_scalar_corollary(keys[:1], [(
                    np.arange(1), group, np.zeros((1, 0)),
                    *(layout(a[j])[None] for a in (UX[:, 0], UX[:, 1], EP)))], {})
                assert _bits(sx) == _bits(SX[j]) and _bits(sy) == _bits(SY[j]), (n, j)
                assert _bits(np.sum(p * x[0])) == _bits(np.sum(P * X[:, 0], axis=-1)[j])

    def test_infeasible_floor_raises_a_domain_error(self):
        # eps = 0.4 leaves no room at n = 3, the second trial's size
        with pytest.raises(DomainError, match="infeasible"):
            vf.run_suite("reverse_shannon", 4, 0, {"eps": 0.4})
        with pytest.raises(DomainError, match="infeasible"):
            vf.gen_conditioned_prob_pair(3, 0.4, ce.SELF_DOMINATED, vf.trial_rng(0, 0))


# the work of the kernel test below: scalar_corollary's CSV, then each
# public rejection sampler's values and the rng's next double after it
_SAMPLER_WORK = """
import sys
import numpy as np
from karabounds import cli, verification as vf
from karabounds.functions import Interval
cli.main(["verify", "--suite", "scalar_corollary", "--trials", "96", "--format", "csv"])
for n in (2, 3, 4, 7):
    for i in range(100):
        for direction in ("self_dominated", "cross_dominated"):
            rng = vf.trial_rng(n, i)
            pair = vf.gen_conditioned_prob_pair(n, 0.05, direction, rng)
            print(*(a.tobytes().hex() for a in pair), np.float64(rng.random()).tobytes().hex())
        rng = vf.trial_rng(n, i)
        xyp = vf.gen_equal_weighted_mean_scalars(n, Interval(-1.0, 2.0), rng)
        print(*(a.tobytes().hex() for a in xyp), np.float64(rng.random()).tobytes().hex())
"""


def test_samplers_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE=Prescott selects OpenBLAS's SSE2 kernels, under
    # which a BLAS dot of a short vector depends on its operand's alignment;
    # the rejection samplers and scalar_corollary call no BLAS, so their
    # bytes are the same under the machine's kernels and under those
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    runs = [subprocess.Popen([sys.executable, "-c", _SAMPLER_WORK], env=dict(env, **extra),
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"})]
    (out, _), (prescott, _) = (run.communicate(timeout=60) for run in runs)
    assert [run.returncode for run in runs] == [0, 0]
    # a header, 240 verdict rows and 1,200 sampler lines
    assert out.count(b"\n") == 1 + 240 + 1200 and out == prescott


class CountingRng:
    """A generator's proxy that counts the draw calls made through it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _pcg64_before(word, inc=0xDA3E39CB94B95BDB, skip=0):
    """A Generator whose raw PCG64 word after the next ``skip`` ones is
    ``word`` (< 2^64): its state is 1 + skip LCG steps before the state
    with high half 0 and low half ``word``, which PCG64's XSL RR output
    returns unrotated."""
    modulus = 1 << 128
    state = word
    for _ in range(1 + skip):
        state = (state - inc) * pow(vf._PCG64_MULT, -1, modulus) % modulus
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def _seed_sequence_rng(seed, trial):
    """The generator numpy seeds for a trial, the seeder's reference."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


class TestTrialSeeds:
    # one-word seeds and seeds of two, three and five 32-bit words (the
    # last is longer than SeedSequence's four-word pool)
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11)
    # spawn keys of one word and of two
    TRIALS = (0, 1, 383, 2**32 - 1, 2**32)

    @staticmethod
    def assert_same_stream(rng, seed, trial):
        want = _seed_sequence_rng(seed, trial)
        assert rng.bit_generator.state == want.bit_generator.state, (seed, trial)
        for draw in (lambda g: g.standard_normal(3), lambda g: g.dirichlet(np.ones(4)),
                     lambda g: g.integers(0, 1000, size=5)):
            assert draw(rng).tolist() == draw(want).tolist(), (seed, trial)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeder_matches_seed_sequence(self, seed):
        # one batch per word count, and one batch that holds both
        for trials in (range(384), range(2**32, 2**32 + 3), range(2**32 - 2, 2**32 + 2)):
            for trial, rng in zip(trials, vf._trial_rngs(seed, trials)):
                self.assert_same_stream(rng, seed, trial)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_rng_matches_seed_sequence(self, seed):
        # trial_rng is numpy's own seeding, and the seeder run on the one
        # trial gives the same stream
        for trial in self.TRIALS:
            self.assert_same_stream(vf.trial_rng(seed, trial), seed, trial)
            self.assert_same_stream(next(vf._trial_rngs(seed, range(trial, trial + 1))),
                                    seed, trial)

    def test_a_buffered_32_bit_half_does_not_reach_the_next_trial(self):
        # three float32 draws use one and a half 64-bit outputs, so PCG64
        # holds the other half of the second for the next 32-bit draw
        for trial, rng in enumerate(vf._trial_rngs(7, range(5))):
            want = _seed_sequence_rng(7, trial)
            assert rng.random(3, dtype=np.float32).tolist() == \
                want.random(3, dtype=np.float32).tolist(), trial
            assert rng.bit_generator.state["has_uint32"] == 1

    def test_trial_rng_returns_independent_generators(self):
        rng_a, rng_b = vf.trial_rng(5, 3), vf.trial_rng(5, 3)
        assert rng_a is not rng_b and rng_a.bit_generator is not rng_b.bit_generator
        want = _seed_sequence_rng(5, 3).standard_normal(8).tolist()
        head = rng_a.standard_normal(4).tolist()
        vf.trial_rng(5, 4).standard_normal(4)
        # drawing from rng_a left rng_b alone, and neither the draws nor
        # another trial's generator moved rng_a
        assert rng_b.standard_normal(8).tolist() == want
        assert head + rng_a.standard_normal(4).tolist() == want

    def test_a_cold_run_of_no_trials_does_not_import_numpy_random(self, tmp_path):
        # the benchmark's setup_s times a cold `verify --trials 0`, and
        # importing numpy.random adds about 10 ms to it
        out = str(tmp_path / "report.json")
        code = ("import sys; from karabounds import cli; "
                f"code = cli.main(['verify', '--suite', 'all', '--trials', '0', '--out', {out!r}]); "
                "sys.exit(code or 'numpy.random' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_trial_rng_spawns_the_children_of_its_seed_sequence(self):
        children = vf.trial_rng(5, 3).spawn(2)
        want = np.random.SeedSequence(5, spawn_key=(3,)).spawn(2)
        assert len(children) == 2
        for got, seq in zip(children, want):
            assert got.standard_normal(4).tolist() == \
                np.random.default_rng(seq).standard_normal(4).tolist()

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (-(2**40), 2**40)])
    def test_negative_seed_or_trial_raises_a_typed_error(self, seed, trial):
        # numpy's SeedSequence raises a bare ValueError here
        with pytest.raises(DomainError):
            vf.trial_rng(seed, trial)

    @pytest.mark.parametrize("seed, trial", [(1.5, 0), (0, 1.5), (1.0, 0), (True, 0), (0, False)])
    def test_a_seed_or_trial_that_is_not_an_integer_raises_a_typed_error(self, seed, trial):
        # trial_rng(1.5, 0) would otherwise give seed 1's stream
        with pytest.raises(DomainError, match="integers"):
            vf.trial_rng(seed, trial)


class TestCheckers:
    def test_lemma_eigenvector_margin_zero(self):
        # for an eigenvector of a single diagonal operator the bound is tight
        f = vf.function_catalog("power2")
        A = np.diag([0.5, 1.0, 1.5]).astype(complex)
        fam = oc.MapFamily((oc.WeightedConjugation(1.0, np.eye(3, dtype=complex)),), 3)
        verdicts = vf.check_lemma_jensen(fam, [A], f, list(np.eye(3)))
        for v in verdicts:
            assert abs(v.margin) <= 1e-12

    def test_lemma_linear_function_margin_zero(self):
        f = FunctionSpec.custom(lambda t: 2.0 * np.asarray(t, dtype=float) - 0.5,
                                "convex", Interval(-5.0, 5.0), "2t-0.5")
        rng = vf.trial_rng(8, 0)
        fam = oc.MapFamily((oc.WeightedConjugation(0.5, oc.rand_unitary(3, rng)),
                            oc.WeightedConjugation(0.5, oc.rand_unitary(3, rng))), 3)
        mats = [oc.rand_hermitian_spectrum_in(3, Interval(-1.0, 1.0), rng)
                for _ in range(2)]
        raw = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        vecs = [v / np.linalg.norm(v) for v in raw]
        for v in vf.check_lemma_jensen(fam, mats, f, vecs):
            assert abs(v.margin) <= 1e-10

    def test_lemma_rejects_non_unit_vector(self):
        f = vf.function_catalog("power2")
        fam = oc.MapFamily((oc.WeightedConjugation(1.0, np.eye(2, dtype=complex)),), 2)
        with pytest.raises(PreconditionError):
            vf.check_lemma_jensen(fam, [np.eye(2, dtype=complex)], f, [np.array([1.0, 1.0])])

    def test_theorem_beta_alpha_zero_is_chord_bound(self):
        f = vf.function_catalog("power2")
        rng = vf.trial_rng(9, 1)
        As, Bs, fam = vf.gen_equal_map_sum_operators(3, 4, f.domain,
                                                     "doubly_stochastic_mix", rng)
        v = vf.check_theorem_beta(fam, As, Bs, f, 0.0)
        chord_max = max(float(f(f.domain.m)), float(f(f.domain.M)))
        lhs = oc.apply_map_family(fam, [oc.apply_function(f, A) for A in As])
        direct = chord_max - float(oc.eigvals_stack(lhs[None])[0][-1])
        assert v.margin == pytest.approx(direct, abs=1e-10)
        assert v.margin >= -1e-10

    def test_theorem_beta_identical_tuples(self):
        f = vf.function_catalog("t_log_t")
        rng = vf.trial_rng(9, 2)
        As, _, fam = vf.gen_equal_map_sum_operators(2, 3, f.domain,
                                                    "uniform_permutation", rng)
        v = vf.check_theorem_beta(fam, As, As, f, 1.0)
        assert v.margin >= -1e-12

    def test_theorem_beta_rejects_unequal_sums(self):
        f = vf.function_catalog("power2")
        rng = vf.trial_rng(9, 3)
        fam = oc.MapFamily((oc.WeightedConjugation(1.0, np.eye(2, dtype=complex)),), 2)
        A = oc.rand_hermitian_spectrum_in(2, f.domain, rng)
        B = A + 0.05 * np.eye(2)
        with pytest.raises(PreconditionError):
            vf.check_theorem_beta(fam, [A], [B], f, 1.0)

    @pytest.mark.parametrize("count", [0, 2])
    def test_checkers_need_one_matrix_per_map(self, count):
        f = vf.function_catalog("power2")
        fam = oc.MapFamily((oc.WeightedConjugation(1.0, np.eye(2, dtype=complex)),), 2)
        mats = [np.diag([1.0, 1.5]).astype(complex)] * count
        with pytest.raises(ShapeError):
            vf.check_lemma_jensen(fam, mats, f, list(np.eye(2)))
        with pytest.raises(ShapeError):
            vf.check_theorem_beta(fam, mats, mats, f, 1.0)
        with pytest.raises(ShapeError):
            vf.check_corollary_weighted([1.0], mats, mats, f, 1.0)

    @pytest.mark.parametrize("maps", [
        pytest.param(lambda: (oc.WeightedConjugation(1.0, 2.0 * _EYE2),), id="U=2I"),
        pytest.param(lambda: (oc.WeightedConjugation(1.0, 0.5 * _EYE2),), id="U=I/2"),
        pytest.param(lambda: (oc.WeightedConjugation(_NAN, _EYE2),), id="nan-weight"),
        pytest.param(lambda: (oc.KrausMap((0.6 * _EYE2, 0.6 * _EYE2)),), id="kraus-0.72I"),
        pytest.param(lambda: (oc.NormalizedTrace(0.4), oc.NormalizedTrace(0.5)), id="trace-0.9"),
    ])
    def test_non_unital_family_raises(self, maps):
        # sum_i Phi_i(I) != I in the maps' own Phi(I), although the weights
        # of the first two sum to 1
        f = vf.function_catalog("power2")
        fam = oc.MapFamily(maps(), 2)
        mats = [np.diag([1.0, 1.5]).astype(complex)] * len(fam.maps)
        with pytest.raises(DomainError):
            vf.check_theorem_beta(fam, mats, mats, f, 1.0)
        with pytest.raises(DomainError):
            vf.check_lemma_jensen(fam, mats, f, list(np.eye(fam.output_dim)))

    def test_theorem_beta_kraus_family_surface(self):
        f = vf.function_catalog("tsallis_05")
        rng = vf.trial_rng(9, 4)
        n, dim = 3, 3
        U = oc.rand_unitary(dim, rng)
        maps = tuple(oc.KrausMap((math.sqrt(1.0 / n) * U,)) for _ in range(n))
        fam = oc.MapFamily(maps, dim)
        As = [oc.rand_hermitian_spectrum_in(dim, f.domain, rng) for _ in range(n)]
        perm = rng.permutation(n)
        Bs = [As[j] for j in perm]
        v = vf.check_theorem_beta(fam, As, Bs, f, 1.0)
        assert v.passed

    def test_corollary_weighted_mean_reduction(self):
        f = vf.function_catalog("neg_log")
        rng = vf.trial_rng(10, 0)
        n, dim = 3, 4
        w = rng.dirichlet(np.ones(n))
        As = [oc.rand_hermitian_spectrum_in(dim, f.domain, rng) for _ in range(n)]
        mean = oc.hermitize(sum(wi * A for wi, A in zip(w, As)))
        Bs = [mean] * n
        v = vf.check_corollary_weighted(w, As, Bs, f, 1.0)
        assert v.passed

    def test_scalar_corollary_reference_pair(self):
        eps = 1.0 / 6.0
        f = FunctionSpec.neg_log(Interval(eps, 1.0))
        p = np.ones(3) / 3.0
        x = np.ones(3) / 3.0
        q = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0])
        for alpha in (0.0, 1.0, 2.0):
            verdicts = vf.check_scalar_corollary(p, x, q, f, alpha)
            assert {v.inequality_id for v in verdicts} == {
                "scalar_beta_form", "scalar_ratio_form", "scalar_diff_form"}
            assert all(v.passed for v in verdicts)

    def test_scalar_corollary_constant_x_reduction(self):
        # x_i all equal to the weighted mean of y: the reverse-Jensen case
        f = vf.function_catalog("power2")
        rng = vf.trial_rng(10, 5)
        n = 4
        p = rng.dirichlet(np.ones(n))
        y = rng.uniform(f.domain.m, f.domain.M, size=n)
        x = np.full(n, float(p @ y))
        for alpha in (0.0, 1.0, 2.0):
            assert all(v.passed for v in vf.check_scalar_corollary(p, x, y, f, alpha))

    def test_scalar_corollary_skips_ratio_for_signed_f(self):
        f = vf.function_catalog("t_log_t")
        rng = vf.trial_rng(10, 1)
        x, y, p = vf.gen_equal_weighted_mean_scalars(3, f.domain, rng)
        verdicts = vf.check_scalar_corollary(p, x, y, f, 1.0)
        assert {v.inequality_id for v in verdicts} == {"scalar_beta_form",
                                                       "scalar_diff_form"}

    def test_scalar_corollary_relaxed_needs_decreasing(self):
        f = vf.function_catalog("power2")  # increasing on [0.2, 2]
        p = np.ones(2) / 2
        with pytest.raises(PreconditionError):
            vf.check_scalar_corollary(p, [0.3, 0.4], [0.5, 0.6], f, 1.0,
                                      mode=vf.MODE_RELAXED)

    def test_scalar_corollary_relaxed_neg_log(self):
        eps = 0.05
        f = FunctionSpec.neg_log(Interval(eps, 1.0))
        p = np.array([0.5, 0.5])
        x = np.array([0.3, 0.4])
        y = np.array([0.9, 0.2])  # sum p x = 0.35 <= 0.55 = sum p y
        verdicts = vf.check_scalar_corollary(p, x, y, f, 1.0, mode=vf.MODE_RELAXED)
        assert all(v.passed for v in verdicts)

    @pytest.mark.parametrize("mode", [vf.MODE_EQUAL, vf.MODE_RELAXED])
    def test_scalar_corollary_means_bound(self, mode):
        # x = y + gap moves the weighted mean of x by gap: both modes reject
        # sum p x - sum p y = 2e-10 and accept 5e-11 (the bound is 1e-10)
        f = FunctionSpec.neg_log(Interval(0.05, 1.0))
        p = np.array([0.1, 0.2, 0.3, 0.4])
        y = np.array([0.3, 0.7, 0.5, 0.6])
        with pytest.raises(PreconditionError):
            vf.check_scalar_corollary(p, y + 2e-10, y, f, 1.0, mode=mode)
        assert vf.check_scalar_corollary(p, y + 5e-11, y, f, 1.0, mode=mode)
        assert vf.check_scalar_corollary(p, y - 5e-11, y, f, 1.0, mode=mode)
        if mode == vf.MODE_EQUAL:
            with pytest.raises(PreconditionError):
                vf.check_scalar_corollary(p, y - 2e-10, y, f, 1.0, mode=mode)
        else:
            assert vf.check_scalar_corollary(p, y - 2e-10, y, f, 1.0, mode=mode)

    def test_entropy_vonneumann_nonnegativity_at_alpha_zero(self):
        rng = vf.trial_rng(11, 0)
        A, B = oc.rand_density(4, rng), oc.rand_density(4, rng)
        v_alpha, v_sym = vf.check_entropy_vonneumann(A, B, 0.0)
        assert v_alpha.margin == pytest.approx(oc.von_neumann_entropy(A), abs=1e-12)
        assert v_sym.passed

    def test_entropy_equal_states_margin_is_dim_over_e(self):
        rng = vf.trial_rng(11, 1)
        A = oc.rand_density(3, rng)
        v_alpha, _ = vf.check_entropy_vonneumann(A, A, 1.0)
        assert v_alpha.margin == pytest.approx(3.0 / math.e, abs=1e-12)

    def test_entropy_checkers_reject_mismatched_dimensions(self):
        rng = vf.trial_rng(11, 3)
        A, B = oc.rand_density(2, rng), oc.rand_density(3, rng)
        with pytest.raises(ShapeError):
            vf.check_entropy_vonneumann(A, B, 1.0)
        with pytest.raises(ShapeError):
            vf.check_entropy_tsallis(A, B, 1.0, 0.5)

    def test_entropy_tsallis_limit_matches_vn(self):
        rng = vf.trial_rng(11, 2)
        A, B = oc.rand_density(5, rng), oc.rand_density(5, rng)
        vn = vf.check_entropy_vonneumann(A, B, 1.0)
        ts = vf.check_entropy_tsallis(A, B, 1.0, 1e-6)
        for a, b in zip(vn, ts):
            assert a.margin == pytest.approx(b.margin, abs=1e-3)

    def test_fannes_rows(self):
        rows = vf.check_fannes_comparison(range(1, 11))
        by_dim = {row["dim"]: row for row in rows}
        assert by_dim[1]["tighter"] == "equal"
        for d in (2, 3, 4, 5):
            assert by_dim[d]["tighter"] == "ours"
        for d in (6, 7, 8, 9, 10):
            assert by_dim[d]["tighter"] == "fannes_weak"
        assert by_dim[5]["ours"] == pytest.approx(5.0 / math.e)
        assert by_dim[5]["fannes_weak"] == pytest.approx(math.log(5.0) + 1.0 / math.e)

    def test_operator_mean_bounds_x_equals_y(self):
        iv = Interval(1.7, 5.1)
        rng = vf.trial_rng(12, 0)
        Z = oc.rand_hermitian_spectrum_in(3, Interval(0.5, 2.0), rng)
        A = oc.rand_hermitian_spectrum_in(3, iv, rng)
        zs = oc.sqrtm_psd(Z)
        X = oc.hermitize(zs @ A @ zs)
        for r in (2.0, -1.0, 0.4):
            verdicts = vf.check_operator_mean_bounds(Z, X, X, [1.0], iv, r,
                                                     include_limits=True)
            for v in verdicts:
                if v.inequality_id == vf.MEAN_FORM_C_LHS:
                    assert not v.passed  # the flipped C-term orientation fails at X = Y
                else:
                    assert v.passed, v

    def test_operator_mean_bounds_k_margin_formula(self):
        # X = Y makes the ratio-form margin lambda_min((K-1) * Z natural_r Y)
        iv = Interval(2.0, 4.0)
        rng = vf.trial_rng(12, 1)
        Z = oc.rand_hermitian_spectrum_in(3, Interval(0.5, 1.5), rng)
        A = oc.rand_hermitian_spectrum_in(3, iv, rng)
        zs = oc.sqrtm_psd(Z)
        X = oc.hermitize(zs @ A @ zs)
        r = 2.0
        verdicts = {v.inequality_id: v for v in
                    vf.check_operator_mean_bounds(Z, X, X, [1.0], iv, r)}
        from karabounds.scalar_bounds import kantorovich
        K = kantorovich(iv.M / iv.m, r)
        mean = oc.natural_power_mean(Z, X, r)
        expected = (K - 1.0) * float(oc.eigvals_stack(mean[None])[0][0])
        assert verdicts["mean_ratio"].margin == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("r", [2.0, -0.8, 0.3])
    def test_operator_mean_bounds_match_power_means_of_distinct_tuples(self, r):
        # n = 2 with B a mix of A: P and Q are the weighted sums of the
        # natural power means Z #_r X_i and Z #_r Y_i, which another path
        # (one decomposition per mean) computes
        from karabounds.scalar_bounds import c_of_hr, kantorovich
        iv = Interval(1.7, 5.1)
        Z, As, Bs, w = vf._gen_mean_instance(vf.trial_rng(12, 3), 3, iv, 2)
        zs = oc.sqrtm_psd(Z)
        Xs, Ys = ([oc.hermitize(zs @ M @ zs) for M in Ms] for Ms in (As, Bs))
        P, Q = (sum(wi * oc.natural_power_mean(Z, X, r) for wi, X in zip(w, Ms))
                for Ms in (Xs, Ys))
        K, C = kantorovich(iv.M / iv.m, r), c_of_hr(iv.m, iv.M / iv.m, r)
        sign = 1.0 if 0.0 < r < 1.0 else -1.0
        expected = {"mean_ratio": sign * (P - K * Q), "mean_diff": sign * (P - C * Z - Q),
                    "sr_c_form": (1.0 if r < 1.0 else -1.0) * (P - C * Z - Q) / r}
        verdicts = {v.inequality_id: v.margin
                    for v in vf.check_operator_mean_bounds(Z, Xs, Ys, w, iv, r)}
        for name, mat in expected.items():
            want = float(np.linalg.eigvalsh(oc.hermitize(mat))[0])
            assert verdicts[name] == pytest.approx(want, abs=1e-9), (name, r)

    def test_operator_mean_rejects_mismatched_sums(self):
        iv = Interval(1.5, 3.0)
        rng = vf.trial_rng(12, 2)
        Z = np.eye(2, dtype=complex)
        X = oc.rand_hermitian_spectrum_in(2, iv, rng)
        Y = oc.rand_hermitian_spectrum_in(2, iv, rng)
        with pytest.raises(PreconditionError):
            vf.check_operator_mean_bounds(Z, X, Y, [1.0], iv, 2.0)


# the verdict ids of the operator bounds, whose lambda_min margins pass at
# -1e-8, and of the margins that subtract their own bound and pass at 0; the
# rest pass at -1e-9
_OPERATOR_IDS = {"theorem_beta", "corollary_weighted", *vf.MEAN_FORMS_SOUND,
                 *vf.MEAN_FORMS_LIMIT, vf.MEAN_FORM_C_LHS}
_EXACT_IDS = {"eig_reconstruction", "eig_unitarity", "eig_crosscheck", "tsallis_forms_agree"}


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            vf.run_suite("nope", 10, 0)

    def test_negative_seed(self):
        with pytest.raises(DomainError, match="seed"):
            vf.run_suite("fuchs", 2, -1)

    @pytest.mark.parametrize("trials", [1.5, 2.0, True, "2"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(DomainError, match="trials must be an integer"):
            vf.run_suite("fuchs", trials, 0)

    @pytest.mark.parametrize("seed", [1.5, 0.0, False, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            vf.run_suite("fuchs", 2, seed)

    def test_numpy_integers_are_integers(self):
        want = vf.run_suite("fuchs", 4, 3)
        got = vf.run_suite("fuchs", np.int64(4), np.uint32(3))
        assert (got.trials, got.min_margin) == (want.trials, want.min_margin)

    @pytest.mark.parametrize("suite, params, check", [
        ("entropy_vn", {"alphas": (-1.0,)},
         lambda A, B, Z, iv: vf.check_entropy_vonneumann(A, B, -1.0)),
        # trial 0 of entropy_tsallis has alpha = 0 and r = 0.1 by default
        ("entropy_tsallis", {"alphas": (-1.0,)},
         lambda A, B, Z, iv: vf.check_entropy_tsallis(A, B, -1.0, 0.1)),
        ("entropy_tsallis", {"rs": (0.0,)},
         lambda A, B, Z, iv: vf.check_entropy_tsallis(A, B, 0.0, 0.0)),
        ("entropy_tsallis", {"rs": (1.5,)},
         lambda A, B, Z, iv: vf.check_entropy_tsallis(A, B, 0.0, 1.5)),
        ("operator_means", {"rs": (0.0,)},
         lambda A, B, Z, iv: vf.check_operator_mean_bounds(Z, Z, Z, [1.0], iv, 0.0)),
        ("mean_limits", {"rs": (0.0,)}, None),
        ("mean_c_lhs_variant", {"rs": (0.0,)}, None),
        ("operator_means", {"interval": (0.0, 2.0)},
         lambda A, B, Z, iv: vf.check_operator_mean_bounds(Z, Z, Z, [1.0], Interval(0.0, 2.0),
                                                           0.5)),
        # info_inequality needs r in (0, 1]: its r-extended form is false for r > 1
        ("info_inequality", {"rs": (1.5,)}, None),
        ("info_inequality", {"rs": (0.0,)}, None),
        ("info_inequality", {"rs": (-1.0,)}, None),
    ])
    def test_suite_and_checker_reject_a_param_outside_the_domain(self, suite, params, check):
        # the domain checks live in the kernel both share, so both raise the
        # same DomainError instead of scoring the input
        with pytest.raises(DomainError) as from_suite:
            vf.run_suite(suite, 2, 0, params)
        if check is not None:
            rng = vf.trial_rng(5, 0)
            A, B = oc.rand_density(2, rng), oc.rand_density(2, rng)
            with pytest.raises(DomainError) as from_checker:
                check(A, B, np.eye(2, dtype=complex), Interval(0.5, 2.0))
            assert str(from_checker.value) == str(from_suite.value)

    def test_zero_trials_empty_report(self):
        rep = vf.run_suite("fuchs", 0, 123)
        assert rep.trials == 0
        assert rep.failures == 0
        assert rep.min_margin is None

    @pytest.mark.parametrize("suite, message", [
        ("theorem_beta", "map sums differ"),
        ("operator_means", "weighted A/B sums differ"),
        ("mean_limits", "weighted A/B sums differ"),
    ], ids=["theorem_beta", "operator_means", "mean_limits"])
    def test_suite_rejects_unequal_map_sums(self, monkeypatch, suite, message):
        # row-stochastic mixes keep the B_i's spectra in their interval but
        # not the uniform-weight sum, which the kernel checks per stack
        monkeypatch.setattr(vf, "_sinkhorn",
                            lambda S, iters=200: S / S.sum(axis=-1, keepdims=True))
        with pytest.raises(PreconditionError, match=message):
            vf.run_suite(suite, 4, 0)

    def test_determinism_byte_identical(self):
        a = vf.run_suite("theorem_beta", 30, 42)
        b = vf.run_suite("theorem_beta", 30, 42)
        assert vf.report_to_json([a]) == vf.report_to_json([b])
        c = vf.run_suite("theorem_beta", 30, 43)
        assert vf.report_to_json([a]) != vf.report_to_json([c])

    def test_all_sound_suites_pass_briefly(self):
        for sid in vf.suite_ids():
            rep = vf.run_suite(sid, 24, 7)
            assert rep.failures == 0, f"{sid}: {rep}"

    def test_c_lhs_variant_fails(self):
        rep = vf.run_suite("mean_c_lhs_variant", 24, 7)
        assert rep.failures > 0
        assert rep.min_margin < -1e-6

    @pytest.mark.parametrize("suite", vf.suite_ids(include_extra=True))
    def test_suite_does_not_depend_on_its_batch(self, suite):
        # trial i draws from its own rng and the kernels score each instance
        # on its own, so the first 24 trials of a 48-trial run keep the
        # margins of a 24-trial run
        def margins(trials):
            rep = vf.run_suite(suite, trials, 7, keep_verdicts=True)
            kept = [v for v in rep.verdicts if v.context["trial"] < 24]
            out = {(v.context["trial"], v.inequality_id, v.context.get("vector")): v.margin
                   for v in kept}
            assert len(out) == len(kept) > 0
            return out

        assert margins(24) == margins(48)

    @pytest.mark.parametrize("suite", ["scalar_corollary", "fuchs", "moment", "info_inequality",
                                       "reverse_shannon", "parametric_reverse", "entropy_vn",
                                       "entropy_tsallis", "lemma_jensen", "theorem_beta",
                                       "corollary_weighted", "operator_means", "mean_limits",
                                       "mean_c_lhs_variant", "eigensolver",
                                       "eigensolver_crosscheck"])
    def test_scalar_score_does_not_depend_on_its_stacks(self, suite, monkeypatch):
        # one build scored whole, in halves of each stack and one row at a
        # time gives every row the same margin bits; at seed 7 some trial of
        # each rejection-sampled suite resumes after its first block, and
        # writes its row into its stack on its own
        resumed, first_accepted = [], vf._first_accepted

        def recording(*args):
            resumed.append(args)
            return first_accepted(*args)

        monkeypatch.setattr(vf, "_first_accepted", recording)
        spec = vf._SUITES[suite]
        keys, _, stacks = vf._suite_stacks(spec, 7, range(48), dict(spec.defaults))
        assert bool(resumed) == (suite in ("scalar_corollary", "reverse_shannon",
                                           "parametric_reverse"))
        halves = [(trials[rows], *(column[rows] for column in columns))
                  for trials, *columns in stacks
                  for rows in (slice(None, len(trials) // 2), slice(len(trials) // 2, None))]
        rows = [(trials[j:j + 1], *(column[j:j + 1] for column in columns))
                for trials, *columns in stacks for j in range(len(trials))]
        whole, *split = (vf._table(spec.score((keys, parts))) for parts in (stacks, halves, rows))
        assert sorted(set(whole[0].tolist())) == list(range(48))
        for table in split:
            assert table[0].tolist() == whole[0].tolist() and table[1] == whole[1]
            assert table[2].view(np.uint64).tolist() == whole[2].view(np.uint64).tolist()
            assert table[3].tolist() == whole[3].tolist()

    @pytest.mark.parametrize("suite", vf.suite_ids(include_extra=True))
    @pytest.mark.parametrize("seed", [7, 1000])
    def test_report_is_the_reduction_of_its_verdicts(self, suite, seed):
        # run_suite reduces the margin columns; a plain reduction of its own
        # verdict list gives the same report, the worst row being the first
        # least margin in list order.  mean_c_lhs_variant has failing rows
        rep = vf.run_suite(suite, 24, seed, keep_verdicts=True)
        least = min(v.margin for v in rep.verdicts)
        worst = next(v for v in rep.verdicts if v.margin == least)
        assert rep.failures == sum(not v.passed for v in rep.verdicts)
        assert repr(rep.min_margin) == repr(worst.margin)
        assert rep.worst_context == dict(worst.context)
        assert (rep.failures > 0) == (suite == "mean_c_lhs_variant")

    def test_rows_are_sorted_by_trial_and_ties_go_to_the_first(self, monkeypatch):
        # blocks may list their trials in any order: the rows are sorted by
        # trial, each trial's rows in block order, and of equal least
        # margins the first in that order is the worst
        def score(instances):
            return [(np.array([1, 0]), "a", np.array([-1.0, 0.0]), 0.0),
                    (np.array([0, 1]), "b", np.array([-1.0, -1.0]), 0.0)]

        monkeypatch.setitem(vf._SUITES, "ties", vf._Suite(
            lambda i, params: (None, {}, None, (), ()), lambda rngs, rows: None,
            lambda keys, stacks, saved: stacks, score))
        rep = vf.run_suite("ties", 2, 0, keep_verdicts=True)
        assert [(v.context["trial"], v.inequality_id, v.margin, v.passed) for v in rep.verdicts] \
            == [(0, "a", 0.0, True), (0, "b", -1.0, False), (1, "a", -1.0, False),
                (1, "b", -1.0, False)]
        assert (rep.failures, rep.min_margin, rep.worst_context) == (3, -1.0, {"trial": 0, "seed": 0})

    @pytest.mark.parametrize("suite", vf.suite_ids(include_extra=True))
    @pytest.mark.parametrize("seed", [7, 1000])
    def test_built_stacks_match_each_trial_alone(self, suite, seed, monkeypatch):
        # a run lays its trials out into classes, fills their rows of the
        # classes' stacks on the trials' own streams and builds whole
        # stacks; each trial built as a batch of one, from its own layout
        # and stream, has the bits of its rows.  At seed 7 some trial of
        # each rejection-sampled suite resumes after its first block
        resumed, first_accepted = [], vf._first_accepted

        def recording(*args):
            item = first_accepted(*args)
            resumed.append(item)
            return item

        monkeypatch.setattr(vf, "_first_accepted", recording)
        spec, trials = vf._SUITES[suite], 48
        params = dict(spec.defaults)
        keys, classes, stacks = vf._suite_stacks(spec, seed, range(trials), params)
        rows = {t: [column[j] for column in columns]
                for ts, *columns in stacks for j, t in enumerate(ts.tolist())}
        assert sorted(rows) == list(range(trials))
        if seed == 7 and suite in TestSuiteSamplers.SUITES:
            assert any(item is not None for item in resumed), suite
        for i in range(trials):
            (key,), (ctx,), alone = vf._suite_stacks(spec, seed, range(i, i + 1), params)
            ((t, *columns),) = alone
            assert t.tolist() == [0] and key == keys[i], (suite, i)
            assert ctx == classes[i % len(classes)], (suite, i)
            assert len(columns) == len(rows[i])
            for a, b in zip(columns, rows[i]):
                assert a.shape[1:] == b.shape and a.dtype == b.dtype, (suite, i)
                assert a[0].tobytes() == b.tobytes(), (suite, seed, i)

    @pytest.mark.parametrize("suite, forms", [("eigensolver", 2), ("eigensolver_crosscheck", 1)])
    def test_eigensolver_suites_list_verdicts_in_trial_order(self, suite, forms):
        rep = vf.run_suite(suite, 40, 3, keep_verdicts=True)
        assert [v.context["trial"] for v in rep.verdicts] == \
            [i for i in range(40) for _ in range(forms)]

    @pytest.mark.parametrize("suite, unread", [
        ("reverse_shannon", {"rs": (0.7,)}),
        ("entropy_vn", {"rs": (0.7,)}),
        ("scalar_corollary", {"dims": (3,)}),
        ("fuchs", {"dims": (3,)}),
        # --m/--M set the operator-mean interval, which the prefix suites ignore
        ("fuchs", {"interval": (1.8, 4.0)}),
        ("moment", {"interval": (1.8, 4.0)}),
    ])
    def test_params_a_suite_does_not_read_leave_its_verdicts_unchanged(self, suite, unread):
        # the CLI passes one params dict (dims, rs, alphas, eps, interval) to
        # every suite, so a suite must ignore the keys it has no use for
        def verdicts(params):
            rep = vf.run_suite(suite, 24, 7, params, keep_verdicts=True)
            return [(v.inequality_id, v.margin, v.passed, v.context) for v in rep.verdicts]

        assert verdicts(unread) == verdicts(None)

    @pytest.mark.parametrize("suite", vf.suite_ids(include_extra=True))
    def test_run_suite_rejects_params_no_suite_reads(self, suite):
        # a suite reads exactly the keys its defaults name, and run_suite
        # takes any key some suite reads; every other key raises, naming
        # itself: a misspelt key, a tolerance (each kernel owns its own),
        # and the instance sizes, vector lengths, moment orders and map
        # families, which are module constants
        for unread, key in [({"tol": 1e-8}, "tol"), ({"dim": (2,)}, "dim"),
                            ({"alpha": 1.0}, "alpha"), ({"n": 7}, "n"),
                            ({"sizes": (9,)}, "sizes"), ({"orders": (3,)}, "orders"),
                            ({"families": ("normalized_trace",)}, "families"),
                            ({"rs": (0.5,), "tol": 1e-8}, "tol")]:
            with pytest.raises(DomainError, match=f"'{key}'"):
                vf.run_suite(suite, 2, 0, unread)
        known = {"dims": (2, 3), "fs": ("power2",), "alphas": (0.5,), "rs": (0.5,),
                 "eps": 0.1, "interval": (1.7, 5.1)}
        assert set(known) == vf._PARAM_KEYS
        assert set(vf._SUITES[suite].defaults) <= vf._PARAM_KEYS
        assert vf.run_suite(suite, 4, 0, known).trials == 4

    @pytest.mark.parametrize("suite, params, key", [
        # each of these used to fail with an untyped error inside a draw
        ("eigensolver", {"dims": ()}, "dims"),
        ("entropy_tsallis", {"rs": ()}, "rs"),
        ("eigensolver", {"dims": 3}, "dims"),
        ("operator_means", {"interval": (2.0,)}, "interval"),
        ("entropy_vn", {"dims": (0,)}, "dims"),
        ("entropy_vn", {"dims": (2.5,)}, "dims"),
        ("entropy_vn", {"dims": (True,)}, "dims"),
        ("lemma_jensen", {"dims": "23"}, "dims"),
        ("lemma_jensen", {"fs": ()}, "fs"),
        ("lemma_jensen", {"fs": ("exp",)}, "fs"),
        ("scalar_corollary", {"fs": "power2"}, "fs"),
        ("scalar_corollary", {"alphas": ()}, "alphas"),
        ("scalar_corollary", {"alphas": ("1",)}, "alphas"),
        ("parametric_reverse", {"rs": 0.5}, "rs"),
        ("reverse_shannon", {"eps": 0.0}, "eps"),
        ("reverse_shannon", {"eps": 1.0}, "eps"),
        ("reverse_shannon", {"eps": float("nan")}, "eps"),
        ("reverse_shannon", {"eps": (0.1,)}, "eps"),
        ("operator_means", {"interval": (3.0, 2.0)}, "interval"),
        ("operator_means", {"interval": (float("nan"), 2.0)}, "interval"),
        ("operator_means", {"interval": (1.0, float("inf"))}, "interval"),
        ("operator_means", {"interval": (1.0, 2.0, 3.0)}, "interval"),
        # a value is checked even where the suite does not read its key
        ("fuchs", {"dims": ()}, "dims"),
    ])
    def test_run_suite_rejects_bad_param_values(self, suite, params, key):
        with pytest.raises(DomainError, match=f"params\\['{key}'\\]"):
            vf.run_suite(suite, 3, 0, params)

    def test_every_param_key_has_a_value_check(self):
        assert set(vf._PARAM_CHECKS) == vf._PARAM_KEYS
        # the defaults pass their own checks, as numpy scalars do
        for suite in vf._SUITES.values():
            for key, value in suite.defaults.items():
                assert vf._PARAM_CHECKS[key][1](value), key
        assert vf.run_suite("entropy_vn", 3, 0, {"dims": np.array([2, 3]),
                                                 "alphas": [np.float64(0.5)]}).trials == 3

    def test_batched_suite_matches_per_instance_checker(self):
        # each suite and its checker share one kernel, and eigh_stack results
        # do not depend on the stack, so a checker run on a suite's instance
        # (a batch of one) reproduces the suite's margins bit for bit
        seed = 2024
        fs, alphas = vf._DEFAULT_FS, vf._DEFAULT_ALPHAS
        map_kinds = ("uniform_permutation", "doubly_stochastic_mix")

        def theorem_beta(i, rng):
            f, alpha = vf.function_catalog(fs[i % 4]), alphas[i % 4]
            As, Bs, fam = vf.gen_equal_map_sum_operators(3, (2, 4, 8)[i % 3], f.domain,
                                                         map_kinds[i % 2], rng)
            return [vf.check_theorem_beta(fam, As, Bs, f, alpha)]

        def corollary_weighted(i, rng):
            f, alpha = vf.function_catalog(fs[i % 4]), alphas[i % 4]
            As, Bs, fam = vf._gen_weighted_instance(3, (2, 4, 8)[i % 3], f.domain,
                                                    f"weights_v{i % 3}", rng)
            ps = [phi.weight for phi in fam.maps]
            return [vf.check_corollary_weighted(ps, As, Bs, f, alpha)]

        def lemma_jensen(i, rng):
            f = vf.function_catalog(fs[i % 4])
            fam, mats, vecs = vf._gen_jensen_instance(3, (2, 3, 4, 6, 8)[i % 5],
                                                      f.domain, rng)
            return vf.check_lemma_jensen(fam, mats, f, vecs)

        def entropy_vn(i, rng):
            dim = (2, 3, 4, 5, 6, 7, 8)[i % 7]
            A, B = oc.rand_density(dim, rng), oc.rand_density(dim, rng)
            return vf.check_entropy_vonneumann(A, B, alphas[i % 4])

        def entropy_tsallis(i, rng):
            dim = (2, 3, 4, 5, 6, 7, 8)[i % 7]
            A, B = oc.rand_density(dim, rng), oc.rand_density(dim, rng)
            return vf.check_entropy_tsallis(A, B, alphas[i % 4], (0.1, 0.5, 0.9)[i % 3])

        def scalar_corollary(i, rng):
            f, alpha = vf.function_catalog(fs[i % 4]), alphas[i % 4]
            iv = f.domain
            if i % 2 == 1 and vf._is_decreasing(f, iv):
                x = rng.uniform(iv.m, iv.M, size=4)
                y = rng.uniform(iv.m, iv.M, size=4)
                p = rng.dirichlet(np.ones(4))
                if float(np.dot(p, x)) > float(np.dot(p, y)):
                    x, y = y, x
                return vf.check_scalar_corollary(p, x, y, f, alpha, mode=vf.MODE_RELAXED)
            x, y, p = vf.gen_equal_weighted_mean_scalars(4, iv, rng)
            return vf.check_scalar_corollary(p, x, y, f, alpha)

        prefix_fs = [FunctionSpec.custom(g, "convex", Interval(-1.5, 2.5), name) for g, name in (
            (lambda t: np.asarray(t, dtype=float) ** 2, "t^2"),
            (lambda t: np.exp(np.asarray(t, dtype=float)), "exp(t)"),
            (lambda t: np.abs(np.asarray(t, dtype=float) - 1.0), "|t-1|"))]

        def fuchs(i, rng):
            x, y, p = vf.gen_fuchs_instance(5, Interval(-1.0, 2.0), rng)
            return [vf.InequalityVerdict("fuchs_margin",
                                         mj.fuchs_margin(prefix_fs[i % 3], x, y, p), True)]

        def moment(i, rng):
            x, y, p = vf.gen_fuchs_instance(5, Interval(-1.0, 2.0), rng)
            return [vf.InequalityVerdict("moment_margin",
                                         mj.moment_margin(p / p.sum(), x, y, (1, 2, 4)[i % 3]),
                                         True)]

        def info_inequality(i, rng):
            n, r = (2, 3, 5, 8)[i % 4], (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)[i % 6]
            p = np.maximum(rng.dirichlet(np.ones(n)), 1e-12)
            q = np.maximum(rng.dirichlet(np.ones(n)), 1e-12)
            p, q = p / p.sum(), q / q.sum()
            weighted_p, _ = ce.tsallis_cross_terms(p, p, r)
            weighted_q, _ = ce.tsallis_cross_terms(p, q, r)
            naive_p = float(np.sum(p * np.expm1(-r * np.log(p)) / r))
            return [vf.InequalityVerdict(name, m, True) for name, m in (
                ("info_inequality", ce.information_inequality_margin(p, q)),
                ("r_extended_info_inequality", weighted_q - weighted_p),
                ("tsallis_forms_agree", 1e-10 - abs(weighted_p - naive_p)))]

        def reverse_pair(i, rng):
            direction = ce.SELF_DOMINATED if i % 2 == 0 else ce.CROSS_DOMINATED
            p, q = vf.gen_conditioned_prob_pair((2, 3, 4, 6)[i % 4], 0.05, direction, rng)
            return p, q, direction

        def reverse_shannon(i, rng):
            p, q, direction = reverse_pair(i, rng)
            return [vf.InequalityVerdict("reverse_shannon" + form, m, True)
                    for form, m in zip(("_ratio", "_diff"),
                                       ce.reverse_shannon_margins(p, q, 0.05, direction))]

        def parametric_reverse(i, rng):
            p, q, direction = reverse_pair(i, rng)
            margins = ce.parametric_reverse_margins(p, q, 0.05, (0.1, 0.5, 1.0, 2.0)[i % 4],
                                                    direction)
            return [vf.InequalityVerdict("parametric_reverse" + form, m, True)
                    for form, m in zip(("_ratio", "_diff"), margins)]

        for checker, trials in ((theorem_beta, 48), (corollary_weighted, 48),
                                (lemma_jensen, 40), (entropy_vn, 56),
                                (entropy_tsallis, 84), (scalar_corollary, 384), (fuchs, 384),
                                (moment, 384), (info_inequality, 384), (reverse_shannon, 384),
                                (parametric_reverse, 384)):
            rep = vf.run_suite(checker.__name__, trials, seed, keep_verdicts=True)
            direct = [v for i in range(trials) for v in checker(i, vf.trial_rng(seed, i))]
            assert [(v.inequality_id, v.margin) for v in rep.verdicts] == \
                [(v.inequality_id, v.margin) for v in direct], checker.__name__

    def test_scalar_suites_keep_the_one_row_arithmetic(self):
        # inline copies of the one-instance formulas that the stacked kernels
        # replaced: the suites' margins must keep their bits
        seed, trials, eps = 11, 96, 0.05
        fs, alphas = vf._DEFAULT_FS, vf._DEFAULT_ALPHAS
        want = defaultdict(list)
        for i in range(trials):
            f, alpha = vf.function_catalog(fs[i % 4]), alphas[i % 4]
            rng = vf.trial_rng(seed, i)
            if i % 2 == 1 and vf._is_decreasing(f, f.domain):
                x = rng.uniform(f.domain.m, f.domain.M, size=4)
                y = rng.uniform(f.domain.m, f.domain.M, size=4)
                p = rng.dirichlet(np.ones(4))
                if float(np.dot(p, x)) > float(np.dot(p, y)):
                    x, y = y, x
            else:
                x, y, p = vf.gen_equal_weighted_mean_scalars(4, f.domain, rng)
            sum_fy, sum_fx = float(np.sum(p * f(y))), float(np.sum(p * f(x)))
            rhs = [vf.sb.beta_constant(f, f.domain, alpha) + alpha * sum_fx]
            if f.name in ("-log(t)", "t^2"):  # f > 0: the ratio form applies
                rhs.append(vf.sb.ratio_constant(f, f.domain) * sum_fx)
            rhs.append(vf.sb.diff_constant(f, f.domain) + sum_fx)
            want["scalar_corollary"] += [float(r - sum_fy) for r in rhs]

            x, y, p = vf.gen_fuchs_instance(5, Interval(-1.0, 2.0), vf.trial_rng(seed, i))
            g = (np.square, np.exp, lambda t: np.abs(t - 1.0))[i % 3]
            want["fuchs"].append(float(np.sum(p * g(y)) - np.sum(p * g(x))))
            order, p = (1, 2, 4)[i % 3], p / p.sum()
            xc, yc = x - float(np.sum(p * x)), y - float(np.sum(p * y))
            want["moment"].append(float(np.sum(p * yc ** order) - np.sum(p * xc ** order)))

            rng = vf.trial_rng(seed, i)
            n, r = (2, 3, 5, 8)[i % 4], (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)[i % 6]
            p = np.maximum(rng.dirichlet(np.ones(n)), 1e-12)
            q = np.maximum(rng.dirichlet(np.ones(n)), 1e-12)
            p, q = p / p.sum(), q / q.sum()
            h, cross = float(-np.sum(p * np.log(p))), float(-np.sum(p * np.log(q)))
            weighted_p = float(-np.sum(p ** (1.0 - r) * ln_r(r, p)))
            weighted_q = float(-np.sum(p ** (1.0 - r) * ln_r(r, q)))
            naive_p = float(np.sum(p * np.expm1(-r * np.log(p)) / r))
            want["info_inequality"] += [cross - h, weighted_q - weighted_p,
                                        1e-10 - abs(weighted_p - naive_p)]

            direction = ce.SELF_DOMINATED if i % 2 == 0 else ce.CROSS_DOMINATED
            self_dominated = direction == ce.SELF_DOMINATED
            for suite in ("reverse_shannon", "parametric_reverse"):
                p, q = vf.gen_conditioned_prob_pair((2, 3, 4, 6)[i % 4], eps, direction,
                                                    vf.trial_rng(seed, i))
                if suite == "reverse_shannon":
                    h, cross = float(-np.sum(p * np.log(p))), float(-np.sum(p * np.log(q)))
                    k, log_s = math.log(eps) / (eps - 1.0), math.log(vf.sb.specht(eps))
                    want[suite] += ([k * cross - h, log_s + cross - h] if self_dominated
                                    else [h - cross / k, h + log_s - cross])
                else:
                    r = (0.1, 0.5, 1.0, 2.0)[i % 4]
                    c1 = ln_r(r, 1.0 / eps) / (1.0 - eps)
                    c2 = vf.sb.ls_r_constant(eps, r)
                    t_p = float(np.sum(p * np.expm1(-r * np.log(p)) / r))
                    t_q = float(np.sum(p * np.expm1(-r * np.log(q)) / r))
                    want[suite] += ([c1 * t_q - t_p, c2 + t_q - t_p] if self_dominated
                                    else [t_p - t_q / c1, t_p - t_q + c2])
        for suite, margins in want.items():
            rep = vf.run_suite(suite, trials, seed, keep_verdicts=True)
            assert [v.margin for v in rep.verdicts] == margins, suite

    def test_entropy_row_kernels_keep_the_one_row_arithmetic(self):
        # inline copies of the one-spectrum formulas that the row kernels
        # replaced.  The spectra have exact zeros and -1e-17 entries, which
        # take the per-row fallback to the positive entries, and d up to 16,
        # where numpy's pairwise sum unrolls; no suite draw reaches either
        def vn(w):
            pos = w[w > 0.0]
            return float(-np.sum(pos * np.log(pos)))

        def tsallis(w, r):
            pos = w[w > 0.0]
            return float(np.sum(pos * np.expm1(-r * np.log(pos)) / r))

        rng = np.random.default_rng(18)
        alphas = np.array([0.0, 0.5, 1.0, 2.0])
        fallbacks = 0
        for d in range(2, 17):
            lows = [low for low in ([], [0.0], [-1e-17, 0.0], [-1e-17, 0.0, 0.0]) if len(low) < d]
            W = np.stack([np.sort(np.concatenate([low, rng.dirichlet(np.ones(d - len(low)))]))
                          for low in lows])
            fallbacks += int(np.sum(np.any(W <= 0.0, axis=-1)))
            WA, WB, alpha = W, np.roll(W, 1, axis=0), alphas[:len(W)]
            for r in (None, 0.1, 0.5, 0.9, 1.0):
                if r is None:
                    h, names = vn, ("entropy_vn_alpha", "entropy_vn_symmetric")
                    assert [oc.von_neumann_entropy_from_evals(w) for w in W] == list(map(vn, W))
                else:
                    h = functools.partial(tsallis, r=r)
                    fac = 1.0 if r == 1.0 else (1.0 - r) ** ((1.0 - r) / r)
                    names = ("entropy_tsallis_alpha", "entropy_tsallis_symmetric")
                    assert [oc.tsallis_entropy_from_evals(w, r) for w in W] == list(map(h, W))
                want = []
                for wa, wb, a in zip(WA, WB, alpha.tolist()):
                    ha, hb = h(wa), h(wb)
                    if r is None:
                        want.append([ha + a / math.e * d - a * hb, d / math.e - abs(ha - hb)])
                    else:
                        want.append([ha + a * fac * d - a * hb, fac * d - abs(ha - hb)])
                kernel = vf._entropy_kernel(r, WA, WB, alpha)
                assert [name for name, *_ in kernel] == list(names)
                assert [list(row) for row in zip(*(m.tolist() for _, m, _ in kernel))] == want
                for wa, wb, a, margins in zip(WA, WB, alpha.tolist(), want):
                    A, B = np.diag(wa).astype(complex), np.diag(wb).astype(complex)
                    verdicts = (vf.check_entropy_vonneumann(A, B, a) if r is None
                                else vf.check_entropy_tsallis(A, B, a, r))
                    assert [v.margin for v in verdicts] == margins, (d, r)
        assert fallbacks == 42

    def test_batched_operator_means_match_checker(self):
        # the checker rebuilds A = Z^(-1/2) X Z^(-1/2) from X = Z^(1/2) A Z^(1/2),
        # which moves the margins by rounding only
        trials, seed = 28, 2024
        iv = Interval(1.7, 5.1)
        for suite, rs, include_limits in (
                ("operator_means", (1.0, 1.7, 3.0, -0.8, -2.0, 0.3, 0.6), False),
                ("mean_limits", (0.3,), True)):
            rep = vf.run_suite(suite, trials, seed, keep_verdicts=True)
            direct = []
            for i in range(trials):
                Z, As, Bs, w = vf._gen_mean_instance(vf.trial_rng(seed, i),
                                                     (2, 3, 4, 6)[i % 4], iv,
                                                     1 if i % 2 == 0 else 2)
                zs = oc.sqrtm_psd(Z)
                Xs = [oc.hermitize(zs @ A @ zs) for A in As]
                Ys = [oc.hermitize(zs @ B @ zs) for B in Bs]
                direct += [v for v in vf.check_operator_mean_bounds(
                               Z, Xs, Ys, w, iv, rs[i % len(rs)],
                               include_limits=include_limits)
                           if v.inequality_id != vf.MEAN_FORM_C_LHS]
            assert [v.inequality_id for v in rep.verdicts] == \
                [v.inequality_id for v in direct], suite
            for a, b in zip(rep.verdicts, direct):
                assert a.margin == pytest.approx(b.margin, abs=1e-10), suite

    @pytest.mark.parametrize("suite, rs, forms", [
        ("operator_means", (1.0, 1.7, 3.0, -0.8, -2.0, 0.3, 0.6), vf.MEAN_FORMS_SOUND),
        ("mean_limits", (0.3,), vf.MEAN_FORMS_SOUND + vf.MEAN_FORMS_LIMIT),
        ("mean_c_lhs_variant", (0.3, 0.6), (vf.MEAN_FORM_C_LHS,)),
    ])
    def test_mean_suites_independent_of_batching(self, suite, rs, forms):
        # a suite decomposes all its trials in one stack per tuple shape
        # (n, d); each trial built and scored on its own gives the same
        # margins.  Dims (2, 3, 5) against the even/odd n = 1, 2 cycle put
        # both tuple lengths into every dimension; the default dims never
        # mix them
        spec = vf._SUITES[suite]
        for dims, trials, seed in (((2, 3, 4, 6), 28, 2024), ((2, 3, 5), 30, 0),
                                   ((2, 3, 5), 30, 2024)):
            rep = vf.run_suite(suite, trials, seed, {"dims": dims}, keep_verdicts=True)
            alone = []
            for i in range(trials):
                keys, (ctx,), stacks = vf._suite_stacks(spec, seed, range(i, i + 1),
                                                 {**spec.defaults, "dims": dims})
                assert ctx["r"] == rs[i % len(rs)]
                blocks = spec.score((keys, stacks))
                assert [name for _, name, *_ in blocks] == list(forms)
                alone += [(name, margin) for _, name, margins, _ in blocks
                          for margin in margins.tolist()]
            assert [(v.inequality_id, v.margin) for v in rep.verdicts] == alone, (dims, seed)

    @pytest.mark.parametrize("suite", ["operator_means", "mean_limits"])
    def test_mean_suites_decompose_each_matrix_once(self, suite, monkeypatch):
        # 28 trials: 28 Z, one A (and no B) in each of the 14
        # n = 1 trials and A_1, A_2, B_1, B_2 in each of the 14 n = 2 trials.
        # Z^(1/2), A^r and log A all come from that one decomposition; the
        # lambda_min reduction goes through _eigvalsh and is not counted.
        sizes = count_eigh(monkeypatch)
        vf.run_suite(suite, 28, 2024)
        assert sum(sum(k) for k in sizes.values()) == 28 + 70
        assert sorted(sizes) == [2, 3, 4, 6]
        assert all(len(k) <= 2 for k in sizes.values())

    @pytest.mark.parametrize("suite, distinct", [("theorem_beta", 216),
                                                 ("corollary_weighted", 208)])
    def test_map_sum_suites_decompose_each_matrix_once(self, suite, distinct, monkeypatch):
        # 48 trials of n = 3: a uniform_permutation B_i is an index of an A_j
        # (3 matrices), a doubly_stochastic_mix has 6 (theorem_beta: 72 +
        # 144); weights_v0 repeats the mean (4), weights_v1 reuses the A_i
        # (3) and weights_v2 mixes them (6) (corollary_weighted: 64 + 48 + 96)
        sizes = count_eigh(monkeypatch)
        vf.run_suite(suite, 48, 1000)
        assert sum(sum(k) for k in sizes.values()) == distinct
        assert {d: len(k) for d, k in sizes.items()} == {2: 1, 4: 1, 8: 1}

    @pytest.mark.parametrize("suite, trials, groups", [
        ("theorem_beta", 48, 12), ("corollary_weighted", 48, 12), ("lemma_jensen", 40, 20)])
    def test_map_sum_suites_recompose_once_per_dimension_and_function(
            self, suite, trials, groups, monkeypatch):
        # dims and functions cycle together: 3 dims by 4 functions give 12
        # (d, f) pairs, and the Jensen suite's 5 dims give 20
        calls = []
        image = oc._function_image

        def counting(f, w, V, *args):
            calls.append((w.shape[1], f))
            return image(f, w, V, *args)

        monkeypatch.setattr(oc, "_function_image", counting)
        sizes = count_eigh(monkeypatch)
        vf.run_suite(suite, trials, 1000)
        assert len(calls) == len(set(calls)) == groups
        assert all(len(k) == 1 for k in sizes.values())

    def test_checkers_decompose_each_input_once(self, monkeypatch):
        # the map-sum and Jensen kernels decompose their own inputs; the
        # density checks hand their spectra to the entropy kernel, and the
        # mean checker hands Z's (w, V) to its kernel; each margin matrix of
        # an operator bound gets one lambda_min solve
        eigh_sizes = count_eigh(monkeypatch)
        eigvalsh_sizes = count_eigh(monkeypatch, "_eigvalsh")

        def solved():
            out = (sum(map(sum, eigh_sizes.values())), sum(map(sum, eigvalsh_sizes.values())))
            eigh_sizes.clear()
            eigvalsh_sizes.clear()
            return out

        rng = vf.trial_rng(21, 0)
        f = vf.function_catalog("power2")
        As, Bs, fam = vf.gen_equal_map_sum_operators(3, 4, f.domain,
                                                     "doubly_stochastic_mix", rng)
        vf.check_theorem_beta(fam, As, Bs, f, 1.0)
        assert solved() == (6, 1)
        vf.check_theorem_beta(fam, As, As, f, 1.0)
        assert solved() == (3, 1)
        vf.check_corollary_weighted(np.ones(3) / 3, As, Bs, f, 0.5)
        assert solved() == (6, 1)
        fam, mats, vecs = vf._gen_jensen_instance(3, 4, f.domain, rng)
        vf.check_lemma_jensen(fam, mats, f, vecs)
        assert solved() == (3, 0)
        A, B = oc.rand_density(4, rng), oc.rand_density(4, rng)
        vf.check_entropy_vonneumann(A, B, 1.0)
        assert solved() == (0, 2)
        vf.check_entropy_tsallis(A, B, 1.0, 0.5)
        assert solved() == (0, 2)
        iv = Interval(1.7, 5.1)
        Z, As, Bs, w = vf._gen_mean_instance(rng, 3, iv, 2)
        zs = oc.sqrtm_psd(Z)
        Xs, Ys = ([oc.hermitize(zs @ M @ zs) for M in Ms] for Ms in (As, Bs))
        solved()
        # Z, A_1, A_2, B_1 and B_2 once; one lambda_min per form (five at
        # r = 1.7; at r = 0.3 also the C-term-on-the-left form and two limits)
        vf.check_operator_mean_bounds(Z, Xs, Ys, w, iv, 1.7)
        assert solved() == (5, 5)
        vf.check_operator_mean_bounds(Z, Xs, Ys, w, iv, 0.3, include_limits=True)
        assert solved() == (5, 8)

    def test_checkers_keep_their_typed_errors(self):
        f = vf.function_catalog("power2")
        rng = vf.trial_rng(21, 1)
        As, Bs, fam = vf.gen_equal_map_sum_operators(2, 3, f.domain,
                                                     "doubly_stochastic_mix", rng)
        skew = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
        with pytest.raises(DomainError):
            vf.check_theorem_beta(fam, [skew, As[1]], Bs, f, 1.0)
        with pytest.raises(PreconditionError):
            vf.check_theorem_beta(fam, [As[0] + 5.0 * np.eye(3), As[1]],
                                  [Bs[0] + 5.0 * np.eye(3), Bs[1]], f, 1.0)
        with pytest.raises(PreconditionError):
            vf.check_lemma_jensen(fam, [10.0 * np.eye(3)] * 2, f, [np.eye(3)[0]])
        with pytest.raises(DomainError):
            vf.check_lemma_jensen(fam, [skew] * 2, f, [np.eye(3)[0]])
        with pytest.raises(PreconditionError):
            vf.check_lemma_jensen(fam, As, f, [])
        with pytest.raises(DomainError):
            vf.check_entropy_vonneumann(np.eye(2, dtype=complex), np.eye(2) / 2, 1.0)
        with pytest.raises(DomainError):
            vf.check_entropy_tsallis(np.diag([1.5, -0.5]), np.eye(2) / 2, 1.0, 0.5)

    @pytest.mark.parametrize("seed", [0, 7, 1000])
    def test_verdicts_agree_across_eigensolver_backends(self, seed, monkeypatch):
        # margins come from LAPACK; swapping in the Jacobi solver must give
        # the same verdicts with margins that move by rounding only
        suites = (("theorem_beta", 48), ("corollary_weighted", 48), ("lemma_jensen", 40),
                  ("entropy_vn", 56), ("entropy_tsallis", 84), ("operator_means", 28),
                  ("mean_limits", 28))

        def verdicts():
            return {sid: vf.run_suite(sid, trials, seed, keep_verdicts=True).verdicts
                    for sid, trials in suites}

        lapack = verdicts()
        monkeypatch.setattr(oc, "_eigh", oc.eigh_stack)
        monkeypatch.setattr(oc, "_eigvalsh", oc.eigvals_stack)
        jacobi = verdicts()
        for sid, _ in suites:
            assert [(v.inequality_id, v.context, v.passed) for v in lapack[sid]] == \
                [(v.inequality_id, v.context, v.passed) for v in jacobi[sid]], sid
            worst = max(abs(a.margin - b.margin) for a, b in zip(lapack[sid], jacobi[sid]))
            assert worst <= 1e-11, (sid, worst)

    def test_eigensolver_crosscheck_passes(self):
        rep = vf.run_suite("eigensolver_crosscheck", 1500, 0)
        assert rep.failures == 0
        assert 0.0 < rep.min_margin

    def test_eigensolver_crosscheck_catches_a_skewed_solver(self, monkeypatch):
        # an eigenvalue off by 32 d eps max(1, ||A||_F) exceeds the bound
        def skewed(mats):
            w = np.linalg.eigvalsh(mats)
            scale = np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))
            return w + 32.0 * mats.shape[1] * np.finfo(float).eps * scale[:, None]

        monkeypatch.setattr(oc, "_eigvalsh", skewed)
        rep = vf.run_suite("eigensolver_crosscheck", 30, 0)
        assert rep.failures == 30

    def test_eigensolver_pair_runs_jacobi_once(self, monkeypatch):
        # a draw set is solved in one Jacobi call over all its dimensions,
        # with one eigh_stack per ring size n = d + d % 2; under --suite all
        # both suites solve the same draws, and the crosscheck reads the
        # eigenvalues of the eigensolver's Jacobi run
        solved, rings = [], []
        solve, stack = oc._jacobi, oc.eigh_stack

        def counting(mats, *args):
            solved.append(len(mats))
            return solve(mats, *args)

        def ring(mats, *args):
            rings.append(mats.shape)
            return stack(mats, *args)

        monkeypatch.setattr(oc, "_jacobi", counting)
        monkeypatch.setattr(oc, "eigh_stack", ring)
        monkeypatch.setattr(oc, "eigvals_stack", None)
        vf.run_suite("eigensolver", 45, 3)
        assert solved == [45]
        assert sorted(rings) == [(3, 2, 2)] + [(6, n, n) for n in range(4, 17, 2)]
        alone = vf.run_suite("eigensolver_crosscheck", 45, 3, keep_verdicts=True)
        assert solved == [45]
        vf.run_suite("eigensolver", 30, 3)
        assert solved == [45, 30]
        monkeypatch.setattr(oc, "_jacobi", solve)
        fresh = vf.run_suite("eigensolver_crosscheck", 45, 3, keep_verdicts=True)
        assert [v.margin for v in alone.verdicts] == [v.margin for v in fresh.verdicts]

    def test_scalar_corollary_sampler_seeds_that_exhausted_redraws(self):
        # trial 167 of seed 1016 draws p_0 = 3.96e-7; the redraw loop runs
        # out and the coordinate-wise construction takes over
        for seed in (1016, 107004):
            rep = vf.run_suite("scalar_corollary", 384, seed)
            assert rep.failures == 0

    def test_soundness_halved_beta_fails(self, monkeypatch):
        orig = vf.sb.beta_constant
        monkeypatch.setattr(vf.sb, "beta_constant",
                            lambda f, iv, a: 0.5 * orig(f, iv, a))
        rep = vf.run_suite("theorem_beta", 60, 5)
        assert rep.failures > 0

    def test_soundness_halved_ratio_and_diff_fail(self, monkeypatch):
        orig_k = vf.sb.ratio_constant
        orig_c = vf.sb.diff_constant
        monkeypatch.setattr(vf.sb, "ratio_constant", lambda f, iv: 0.5 * orig_k(f, iv))
        monkeypatch.setattr(vf.sb, "diff_constant", lambda f, iv: 0.5 * orig_c(f, iv))
        rep = vf.run_suite("scalar_corollary", 60, 5)
        assert rep.failures > 0

    def test_soundness_too_small_reverse_constants_fail(self, monkeypatch):
        # log S(eps) -> 0 leaves the cross_dominated diff margin H(p) - cross,
        # and ls_r -> -1 the self_dominated one t_q - t_p - 1: both fail on
        # most draws, so the suites must take the constants they are given
        monkeypatch.setattr(ce, "_log_specht", lambda h: 0.0)
        assert vf.run_suite("reverse_shannon", 60, 5).failures > 0
        monkeypatch.setattr(ce, "ls_r_constant", lambda eps, r: -1.0)
        assert vf.run_suite("parametric_reverse", 60, 5).failures > 0

    def test_csv_rows_shape(self):
        rep = vf.run_suite("entropy_vn", 5, 0, keep_verdicts=True)
        chunks = list(vf.verdict_csv_rows([rep]))
        assert chunks[0] == "suite_id,trial,margin,pass,dim,r,alpha,eps,seed,inequality_id\r\n"
        rows = list(csv.reader(io.StringIO("".join(chunks), newline="")))
        assert len(rows) == 1 + len(rep.verdicts)

    @staticmethod
    def csv_writer_text(rows):
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        return buf.getvalue()

    def test_csv_rows_match_the_verdicts(self):
        # the text comes from each report's scored columns; it is csv.writer's
        # text of the rows written from its verdict list, one verdict at a time
        suites = vf.suite_ids(include_extra=True)
        for seed in (0, 7):
            reports = [vf.run_suite(suite, 14, seed, keep_verdicts=True) for suite in suites]
            want = [("suite_id", "trial", "margin", "pass", "dim", "r",
                     "alpha", "eps", "seed", "inequality_id")]
            for rep in reports:
                want += [(rep.suite_id, v.context.get("trial", ""), repr(v.margin), int(v.passed),
                          *(v.context.get(key, "") for key in ("dim", "r", "alpha", "eps", "seed")),
                          v.inequality_id) for v in rep.verdicts]
            assert "".join(vf.verdict_csv_rows(reports)) == self.csv_writer_text(want)
            assert {row[0] for row in want[1:]} == set(suites)

    def test_csv_cells_are_quoted_as_csv_writer_quotes_them(self):
        # a hand-made report whose cells hold commas, quotes, line breaks,
        # empty values, None and floats of both kinds
        table = vf._table([(np.array([1, 0, 1]), 'id "a", b', np.array([0.5, -1e-12, -2.0]), 1e-9),
                           (np.array([0]), "plain", np.array([3.0]), 0.0)])
        # a run's (seed, class contexts): trial t of class t % 2
        classes = [{"dim": "2,3", "r": '"q"', "alpha": "", "eps": None},
                   {"dim": 4, "r": np.float64(0.25), "alpha": -0.0, "eps": "line\nbreak\r"}]
        rep = vf.TrialReport('suite, "x"', 2, 1, -2.0, {}, 0, (table, (5, classes)))
        want = [vf._CSV_FIELDS]
        for t, name, margin, tol in zip(table[0].tolist(), table[1], table[2].tolist(),
                                        table[3].tolist()):
            ctx = {"trial": t, "seed": 5, **classes[t]}
            want.append((rep.suite_id, ctx["trial"], repr(margin), int(margin >= -tol),
                         *(ctx.get(key, "") for key in ("dim", "r", "alpha", "eps", "seed")),
                         name))
        text = "".join(vf.verdict_csv_rows([rep]))
        assert text == self.csv_writer_text(want)
        assert '"2,3","""q""",,,5,"id ""a"", b"' in text and ",4,0.25,-0.0," in text

    def test_csv_cell_matches_csv_writer(self):
        values = [None, "", " ", "a b", "a,b", 'a"b', "a\rb", "a\nb", "\r\n", "é;ü\t", 0, -3,
                  True, 1.0, -0.0, 1e300, 5e-324, float("nan"), float("-inf"), np.float64(0.1),
                  np.float32(0.1), np.int64(7), (1, 2), [0.5]]
        for value in values:
            assert vf._csv_cell(value) + ",\r\n" == self.csv_writer_text([(value, "")]), value

    def test_csv_of_no_trials_is_the_header(self):
        rep = vf.run_suite("fuchs", 0, 3)
        assert list(vf.verdict_csv_rows([rep])) == [self.csv_writer_text([vf._CSV_FIELDS])]

    def test_csv_rows_come_in_bounded_chunks(self):
        # 400 info_inequality trials give 1,200 rows: a chunk of 1,024 and one of 176
        rep = vf.run_suite("info_inequality", 400, 2)
        chunks = list(vf.verdict_csv_rows([rep, rep]))
        assert [chunk.count("\r\n") for chunk in chunks] == [1, 1024, 176, 1024, 176]
        assert all(chunk.endswith("\r\n") for chunk in chunks)

    def test_csv_rows_of_a_report_without_columns_raise_a_typed_error(self):
        # only run_suite keeps a report's scored columns
        with pytest.raises(DomainError, match="'fuchs'"):
            list(vf.verdict_csv_rows([vf.TrialReport("fuchs", 0, 0, None, {}, 0)]))

    @pytest.mark.parametrize("suite", vf.suite_ids(include_extra=True))
    def test_each_verdict_passes_by_its_inequalitys_fixed_tolerance(self, suite):
        # the pass rule margin >= -tol has one tol per inequality id, fixed
        # in its kernel
        def tol(inequality_id):
            return (1e-8 if inequality_id in _OPERATOR_IDS
                    else 0.0 if inequality_id in _EXACT_IDS else 1e-9)

        for seed in (0, 7):
            rep = vf.run_suite(suite, 24, seed, keep_verdicts=True)
            assert rep.verdicts
            assert [v.passed for v in rep.verdicts] == \
                [v.margin >= -tol(v.inequality_id) for v in rep.verdicts]
            (_, ids, _, tols, _), _ = rep._scored
            assert tols.tolist() == [tol(name) for name in ids]

    def test_report_json_excludes_timing(self):
        # the report keeps its time for the CLI's stderr line, and no JSON
        # holds it
        rep = vf.run_suite("fuchs", 5, 0)
        assert isinstance(rep.elapsed_ms, int)
        assert "elapsed_ms" not in vf.report_to_json([rep])


# lambda_min is unitarily invariant and every form is built covariantly, so a
# change of basis V moves a margin by rounding only: at most
# _ROTATION_ULPS d eps max(1, ||M||_F) for the margin matrix M.  The worst
# move measured is 20 d eps ||M||_F on the mean suites (3,000 trials at seeds
# 11-13), 3.1 on theorem_beta (960 trials at seeds 11 and 12) and 5.9
# d eps max(1, ||f(A_i)||_F) on lemma_jensen (1,040 trials at seeds 7, 11,
# 12 and 1000).
_ROTATION_ULPS = 64.0


def _rotated(V, M):
    return oc.hermitize(V @ M @ V.conj().T)


def _rotation_bound(dim, M):
    return _ROTATION_ULPS * dim * np.finfo(float).eps * max(1.0, float(np.linalg.norm(M)))


class TestUnitaryInvariance:
    @pytest.mark.parametrize("suite", ["operator_means", "mean_limits"])
    @pytest.mark.parametrize("seed", [7, 1000])
    def test_mean_margins_survive_a_change_of_basis(self, suite, seed):
        # Z and every A_i and B_i move to V M V*; P = Z^(1/2) (sum w A_i^r) Z^(1/2)
        # then moves to V P V*, and so does every margin matrix
        params = vf._SUITES[suite].defaults
        iv = Interval(*params["interval"])
        forms = vf.MEAN_FORMS_SOUND + (vf.MEAN_FORM_C_LHS,) \
            + (vf.MEAN_FORMS_LIMIT if suite == "mean_limits" else ())
        for i in range(56):
            dim, r = params["dims"][i % len(params["dims"])], params["rs"][i % len(params["rs"])]
            n = 1 if i % 2 == 0 else 2
            Z, As, Bs, w = vf._gen_mean_instance(vf.trial_rng(seed, i), dim, iv, n)
            V = oc.rand_unitary(dim, vf.trial_rng(seed + 1, i))
            moved_as = [_rotated(V, A) for A in As]
            moved_bs = [] if n == 1 else [_rotated(V, B) for B in Bs]

            def margin_mats(*mats):
                # one row of Z, the A_i and, for n = 2, the B_i
                wm, Vm = oc._eigh(np.stack(mats))
                return vf._mean_forms(iv, np.stack(mats)[None], wm[None], Vm[None], w[None],
                                      np.array([r]), forms)

            mats = margin_mats(Z, *As, *([] if n == 1 else Bs))
            moved = margin_mats(_rotated(V, Z), *moved_as, *moved_bs)
            assert [(name, len(M)) for name, _, M in mats] == \
                [(name, len(M)) for name, _, M in moved]
            for (name, _, Ms), (_, _, Ns) in zip(mats, moved):
                for M, a, b in zip(Ms, oc._eigvalsh(Ms)[:, 0], oc._eigvalsh(Ns)[:, 0]):
                    assert abs(a - b) <= _rotation_bound(dim, M), (suite, i, name, a - b)

    @pytest.mark.parametrize("seed", [7, 1000])
    def test_theorem_beta_margins_survive_a_change_of_basis(self, seed):
        # A_i -> V A_i V* and U_i -> V U_i leave every U_i* f(A_i) U_i as it was
        params = vf._SUITES["theorem_beta"].defaults
        for i in range(48):
            dim = params["dims"][i % len(params["dims"])]
            f, alpha = vf.function_catalog(params["fs"][i % 4]), params["alphas"][i % 4]
            As, Bs, fam = vf.gen_equal_map_sum_operators(vf._MAP_N, dim, f.domain,
                                                         vf._BETA_FAMILIES[i % 2],
                                                         vf.trial_rng(seed, i))
            V = oc.rand_unitary(dim, vf.trial_rng(seed + 1, i))
            moved_fam = oc.MapFamily(tuple(oc.WeightedConjugation(phi.weight, V @ phi.unitary)
                                           for phi in fam.maps), dim)
            a = vf.check_theorem_beta(fam, As, Bs, f, alpha).margin
            b = vf.check_theorem_beta(moved_fam, [_rotated(V, A) for A in As],
                                      [_rotated(V, B) for B in Bs], f, alpha).margin
            images = [oc.apply_map_family(fam, [oc.apply_function(f, M) for M in mats])
                      for mats in (As, Bs)]
            M = vf.sb.beta_constant(f, f.domain, alpha) * np.eye(dim) + alpha * images[1] - images[0]
            assert abs(a - b) <= _rotation_bound(dim, M), (i, a - b)

    @pytest.mark.parametrize("seed", [7, 1000])
    def test_lemma_jensen_margins_survive_a_change_of_basis(self, seed):
        # A_i -> V A_i V*, U_i -> V U_i W and x -> W* x turn the Phi-sums of
        # f(A) and of A into W* S W, and leave every <S x, x> as it was
        params = vf._SUITES["lemma_jensen"].defaults
        for i in range(40):
            dim = params["dims"][i % len(params["dims"])]
            f = vf.function_catalog(params["fs"][i % len(params["fs"])])
            fam, mats, vecs = vf._gen_jensen_instance(vf._MAP_N, dim, f.domain,
                                                      vf.trial_rng(seed, i))
            V = oc.rand_unitary(dim, vf.trial_rng(seed + 1, i))
            W = oc.rand_unitary(dim, vf.trial_rng(seed + 2, i))
            moved_fam = oc.MapFamily(tuple(oc.WeightedConjugation(phi.weight,
                                                                  V @ phi.unitary @ W)
                                           for phi in fam.maps), dim)
            a = [v.margin for v in vf.check_lemma_jensen(fam, mats, f, vecs)]
            b = [v.margin for v in vf.check_lemma_jensen(
                moved_fam, [_rotated(V, A) for A in mats], f, [W.conj().T @ x for x in vecs])]
            M = max((oc.apply_function(f, A) for A in mats), key=np.linalg.norm)
            worst = max(abs(x - y) for x, y in zip(a, b))
            assert worst <= _rotation_bound(dim, M), (i, worst)


# Permuting the entries of (p, x, y) or (p, q) jointly reorders the terms of
# each sum in a margin and nothing else, so it moves a margin by rounding
# only: two orders of n summands differ by at most 2 (n - 1) eps times the
# sum of their magnitudes, and the margin's last additions round once more.
# The bound is _PERMUTATION_ULPS n eps max(1, S), with S the sum of |term|
# over every summand (times the largest coefficient it is scaled by) and
# every constant of the margin.  The worst move measured is 0.27 n eps S
# (1,200 draws of each suite at seeds 11-13).
_PERMUTATION_ULPS = 4.0


def _permutation_bound(n, *terms):
    total = sum(float(np.sum(np.abs(t))) for t in terms)
    return _PERMUTATION_ULPS * n * np.finfo(float).eps * max(1.0, total)


def _suite_instance(suite_id, seed, i):
    """(rows, key, context) of trial i of a suite at its default params:
    its draw on the trial's stream, built as a batch of one."""
    suite = vf._SUITES[suite_id]
    (key,), (ctx,), ((_, *columns),) = vf._suite_stacks(suite, seed, range(i, i + 1),
                                                 dict(suite.defaults))
    return tuple(column[0] for column in columns), key, ctx


def _permuted(seed, i, *entries):
    perm = vf.trial_rng(seed + 1, i).permutation(len(entries[0]))
    return [e[perm] for e in entries]


class TestPermutationInvariance:
    TRIALS = 96

    @pytest.mark.parametrize("seed", [7, 1000])
    def test_scalar_corollary_margins_survive_a_permutation(self, seed):
        for i in range(self.TRIALS):
            (p, x, y), (f, alpha, mode), _ = _suite_instance("scalar_corollary", seed, i)
            a, b = ([v.margin for v in vf.check_scalar_corollary(*pxy, f, alpha, mode=mode)]
                    for pxy in ((p, x, y), _permuted(seed, i, p, x, y)))
            try:
                big_k = vf.sb.ratio_constant(f, f.domain)
            except PreconditionError:
                big_k = 1.0
            coef = max(1.0, alpha, abs(big_k))
            bound = _permutation_bound(len(p), coef * p * f(x), p * f(y),
                                       vf.sb.beta_constant(f, f.domain, alpha),
                                       vf.sb.diff_constant(f, f.domain))
            assert len(a) == len(b)
            assert max(abs(u - v) for u, v in zip(a, b)) <= bound, (i, f.name, a, b)

    @pytest.mark.parametrize("seed", [7, 1000])
    def test_info_inequality_margins_survive_a_permutation(self, seed):
        for i in range(self.TRIALS):
            (p, q), r, _ = _suite_instance("info_inequality", seed, i)
            a, b = ([ce.information_inequality_margin(u, v), *ce.tsallis_cross_terms(u, v, r)]
                    for u, v in ((p, q), _permuted(seed, i, p, q)))
            bound = _permutation_bound(len(p), p * np.log(p), p * np.log(q),
                                       p ** (1.0 - r) * ln_r(r, q), p * ln_r(r, 1.0 / q))
            assert max(abs(u - v) for u, v in zip(a, b)) <= bound, (i, a, b)

    @pytest.mark.parametrize("seed", [7, 1000])
    def test_reverse_shannon_margins_survive_a_permutation(self, seed):
        for i in range(self.TRIALS):
            (p, q), (eps, direction), _ = _suite_instance("reverse_shannon", seed, i)
            a, b = (ce.reverse_shannon_margins(u, v, eps, direction)
                    for u, v in ((p, q), _permuted(seed, i, p, q)))
            big_k = math.log(eps) / (eps - 1.0)
            bound = _permutation_bound(len(p), big_k * p * np.log(p), big_k * p * np.log(q),
                                       math.log(vf.sb.specht(eps)))
            assert max(abs(u - v) for u, v in zip(a, b)) <= bound, (i, a, b)

    @pytest.mark.parametrize("seed", [7, 1000])
    def test_parametric_reverse_margins_survive_a_permutation(self, seed):
        for i in range(self.TRIALS):
            (p, q), (eps, r, direction), _ = _suite_instance("parametric_reverse", seed, i)
            a, b = (ce.parametric_reverse_margins(u, v, eps, r, direction)
                    for u, v in ((p, q), _permuted(seed, i, p, q)))
            c1 = ln_r(r, 1.0 / eps) / (1.0 - eps)
            coef = max(c1, 1.0 / c1)
            bound = _permutation_bound(len(p), coef * p * ln_r(r, 1.0 / p),
                                       coef * p * ln_r(r, 1.0 / q),
                                       vf.sb.ls_r_constant(eps, r))
            assert max(abs(u - v) for u, v in zip(a, b)) <= bound, (i, a, b)


_NAN, _INF = float("nan"), float("inf")
_PAIR = Interval(0.2, 2.0)
_EYE2 = np.eye(2, dtype=complex)
_DIAG23, _DIAG41 = np.diag([2.0, 3.0]).astype(complex), np.diag([4.0, 1.0]).astype(complex)


def _jensen_on(x, A=_EYE2):
    """check_lemma_jensen of one vector x under the identity map on A."""
    fam = oc.MapFamily((oc.WeightedConjugation(1.0, _EYE2),), 2)
    return vf.check_lemma_jensen(fam, [A], vf.function_catalog("power2"), [x])


def _map_sum_of(*maps):
    """apply_map_family of the family of ``maps`` on I_2, one I_2 per map."""
    return oc.apply_map_family(oc.MapFamily(maps, 2), [_EYE2] * len(maps))


def _mean_bounds_at(r, X=2.0 * _EYE2, Y=2.0 * _EYE2):
    return vf.check_operator_mean_bounds(_EYE2, [X], [Y], [1.0], Interval(1.7, 5.1), r)


# every built-in FunctionSpec kind with a domain check, by name
_CHECKED_SPECS = {
    "t_log_t": FunctionSpec.t_log_t(),
    "neg_log": FunctionSpec.neg_log(_PAIR),
    "power2": FunctionSpec.power(2.0, _PAIR),
    "power-1": FunctionSpec.power(-1.0, _PAIR),
    "tsallis_f": FunctionSpec.tsallis_f(0.5),
    "ln_r_reciprocal": FunctionSpec.ln_r_reciprocal(0.5, Interval(0.1, 1.0)),
    "central_moment": FunctionSpec.central_moment(2, 1.0, _PAIR),
}
_NON_FINITE = {"nan": _NAN, "inf": _INF, "-inf": -_INF}
# 2 x 2 matrices with a non-finite value on the diagonal, above it only, or
# above and below it, by name
_NON_FINITE_MATRICES = {
    f"{label}-{where}": M for label, x in _NON_FINITE.items() for where, M in (
        ("diagonal", np.diag([x, 1.0])), ("upper", np.array([[1.0, x], [0.0, 1.0]])),
        ("both", np.array([[1.0, x], [x, 1.0]])))}
# a FunctionSpec of each built-in kind as a function of each parameter it
# reads, keyed by the start of the test id
_SPEC_PARAMETERS = {
    "power(r": lambda r: FunctionSpec.power(r, _PAIR),
    "tsallis_f(r": lambda r: FunctionSpec.tsallis_f(r),
    "ln_r_reciprocal(r": lambda r: FunctionSpec.ln_r_reciprocal(r, _PAIR),
    "central_moment(center": lambda c: FunctionSpec.central_moment(2, c, _PAIR),
    "central_moment(order": lambda k: FunctionSpec.central_moment(k, 1.0, _PAIR),
}

_HUGE = Interval(-1e308, 1e308)  # finite ends, but the width overflows a float


def _rng():
    return np.random.default_rng(0)


# (id, call, error) of public boundaries that take a size, an order, an
# exponent, an interval or a pair of tuples, each at a value it must reject
_BAD_BOUNDARY_CALLS = [
    ("von_neumann_entropy_from_evals-empty", lambda: oc.von_neumann_entropy_from_evals([]),
     DomainError),
    ("tsallis_entropy_from_evals-empty", lambda: oc.tsallis_entropy_from_evals([], 0.5),
     DomainError),
    ("moment_margin-order-2.5", lambda: mj.moment_margin([0.5, 0.5], [1, 0], [1, 0], 2.5),
     DomainError),
    ("moment_margin-order-True", lambda: mj.moment_margin([0.5, 0.5], [1, 0], [1, 0], True),
     DomainError),
    ("mat_power-inf", lambda: oc.mat_power(2.0 * _EYE2, _INF), DomainError),
    ("mat_power-nan", lambda: oc.mat_power(_EYE2, _NAN), DomainError),
    ("sinkhorn-n-2.5", lambda: vf.sinkhorn_doubly_stochastic(2.5, _rng()), DomainError),
    ("sinkhorn-n-True", lambda: vf.sinkhorn_doubly_stochastic(True, _rng()), DomainError),
    ("sinkhorn-n-0", lambda: vf.sinkhorn_doubly_stochastic(0, _rng()), DomainError),
    ("sinkhorn-iters--1", lambda: vf.sinkhorn_doubly_stochastic(2, _rng(), -1), DomainError),
    ("sinkhorn-iters-2.5", lambda: vf.sinkhorn_doubly_stochastic(2, _rng(), 2.5), DomainError),
    ("rand_density-2.5", lambda: oc.rand_density(2.5, _rng()), DomainError),
    ("rand_density-0", lambda: oc.rand_density(0, _rng()), DomainError),
    ("rand_unitary--1", lambda: oc.rand_unitary(-1, _rng()), DomainError),
    ("fannes-2.5", lambda: vf.check_fannes_comparison([2.5]), DomainError),
    ("fannes-True", lambda: vf.check_fannes_comparison([True]), DomainError),
    ("fannes-nan", lambda: vf.check_fannes_comparison([_NAN]), DomainError),
    ("matrix_from_json-dim-2.5",
     lambda: oc.matrix_from_json({"dim": 2.5, "re": [1.0] * 4, "im": [0.0] * 4}), DomainError),
    ("matrix_from_json-no-im", lambda: oc.matrix_from_json({"dim": 1, "re": [1.0]}),
     DomainError),
    ("rand_hermitian_spectrum_in-overflow",
     lambda: oc.rand_hermitian_spectrum_in(2, _HUGE, _rng()), DomainError),
    *((f"gen_equal_map_sum_operators-{kind}-overflow",
       lambda kind=kind: vf.gen_equal_map_sum_operators(2, 2, _HUGE, kind, _rng()), DomainError)
      for kind in ("uniform_permutation", "doubly_stochastic_mix")),
    ("karamata_witness-nan", lambda: mj.karamata_witness([_NAN], [1.0]), DomainError),
    ("karamata_forward_holds-nan", lambda: mj.karamata_forward_holds([_NAN], [1.0]),
     DomainError),
    ("karamata_witness-lengths", lambda: mj.karamata_witness([1.0, 0.0], [1.0]), ShapeError),
    ("karamata_forward_holds-lengths", lambda: mj.karamata_forward_holds([1.0], [1.0, 0.0]),
     ShapeError),
]


@pytest.mark.parametrize("call, error", [
    (lambda: ce.as_prob_vector([_NAN]), DomainError),
    (lambda: ce.shannon_entropy([_NAN, 0.5]), DomainError),
    (lambda: ce.information_inequality_margin([0.5, _NAN], [0.5, 0.5]), DomainError),
    (lambda: ce.tsallis_entropy([_NAN], 0.5), DomainError),
    (lambda: ce.reverse_shannon_margins([0.5, _NAN], [0.5, 0.5], 0.1, ce.SELF_DOMINATED),
     DomainError),
    (lambda: vf.sb.beta_constant(FunctionSpec.power(2.0, _PAIR), _PAIR, _NAN), DomainError),
    (lambda: vf.sb.beta_constant(FunctionSpec.power(2.0, _PAIR), _PAIR, _INF), DomainError),
    (lambda: vf.sb.beta_oracle(FunctionSpec.power(2.0, _PAIR), _PAIR, _NAN), DomainError),
    (lambda: vf.sb.kantorovich(2.0, _NAN), DomainError),
    (lambda: vf.sb.c_of_hr(1.0, 2.0, _NAN), DomainError),
    (lambda: vf.sb.c_of_hr(_INF, 2.0, 0.5), DomainError),
    (lambda: vf.sb.specht(_INF), DomainError),
    (lambda: vf.sb.ls_r_constant(_NAN, 0.5), DomainError),
    (lambda: vf.sb.ls_r_constant(0.1, _INF), DomainError),
    (lambda: ln_r(0.5, _NAN), DomainError),
    (lambda: ln_r(_NAN, 2.0), DomainError),
    (lambda: ln_r(0.5, _INF), DomainError),
    (lambda: ln_r(0.5, np.array([2.0, _NAN])), DomainError),
    (lambda: ce.tsallis_cross_terms([0.5, 0.5], [0.5, 0.5], _NAN), DomainError),
    (lambda: oc.tsallis_entropy_from_evals([0.5, 0.5], _NAN), DomainError),
    (lambda: oc.quantum_tsallis_entropy(np.eye(2) / 2, _NAN), DomainError),
    (lambda: vf.check_scalar_corollary([_NAN, 0.5], [0.5, 0.5], [0.5, 0.5],
                                       vf.function_catalog("power2"), 1.0), PreconditionError),
    (lambda: vf.check_scalar_corollary([0.5, 0.5], [_NAN, 0.5], [0.5, 0.5],
                                       vf.function_catalog("power2"), 1.0), PreconditionError),
    (lambda: vf.check_corollary_weighted([_NAN, 0.5], [np.eye(2)] * 2, [np.eye(2)] * 2,
                                         vf.function_catalog("power2"), 1.0), PreconditionError),
    (lambda: vf.check_entropy_vonneumann(np.eye(2) / 2, np.eye(2) / 2, _NAN), DomainError),
    (lambda: vf.check_entropy_tsallis(np.eye(2) / 2, np.eye(2) / 2, _INF, 0.5), DomainError),
    (lambda: _jensen_on(np.array([_NAN, 0.0])), DomainError),
    (lambda: _jensen_on(np.array([1.0, 0.0, 0.0])), ShapeError),
    (lambda: _jensen_on(np.array([[1.0], [0.0]])), ShapeError),
    (lambda: _map_sum_of(oc.WeightedConjugation(_NAN, _EYE2)), DomainError),
    (lambda: _map_sum_of(oc.WeightedConjugation(1.0, np.full((2, 2), _NAN))), DomainError),
    (lambda: _map_sum_of(oc.KrausMap((np.diag([_INF, 1.0]),))), DomainError),
    (lambda: _mean_bounds_at(_NAN), DomainError),
    (lambda: _mean_bounds_at(_INF), DomainError),
    (lambda: _mean_bounds_at(-_INF), DomainError),
    (lambda: _mean_bounds_at(0.5, X=np.diag([2.0, _NAN])), DomainError),
    (lambda: _mean_bounds_at(0.5, Y=np.full((2, 2), _NAN)), DomainError),
    (lambda: _mean_bounds_at(0.5, X=2.0 * np.eye(3), Y=2.0 * np.eye(3)), ShapeError),
    (lambda: _mean_bounds_at(0.5, Y=2.0 * np.eye(3)), ShapeError),
    (lambda: _mean_bounds_at(0.5, X=np.array([2.0, 2.0])), ShapeError),
    (lambda: _mean_bounds_at(0.5, Y=np.array([2.0, 2.0])), ShapeError),
    (lambda: oc.von_neumann_entropy_from_evals([-0.5, 1.5]), DomainError),
    (lambda: oc.von_neumann_entropy_from_evals([_NAN, 1.0]), DomainError),
    (lambda: oc.tsallis_entropy_from_evals([-0.5, 1.5], 0.5), DomainError),
    (lambda: oc.tsallis_entropy_from_evals([_NAN, 1.0], 0.5), DomainError),
    (lambda: oc.natural_power_mean(_DIAG23, _DIAG41, _NAN), DomainError),
    (lambda: oc.tsallis_relative_operator_entropy(_DIAG23, _DIAG41, _INF), DomainError),
    (lambda: oc.matrix_from_json({"dim": 1, "re": [_NAN], "im": [0.0]}), DomainError),
    *(pytest.param(call, error, id=name) for name, call, error in _BAD_BOUNDARY_CALLS),
    *(pytest.param(lambda M=M: oc.assert_hermitian(M), DomainError, id=f"assert_hermitian-{name}")
      for name, M in _NON_FINITE_MATRICES.items()),
    *(pytest.param(lambda M=M: oc.hermitize(np.stack([_EYE2, M])), DomainError,
                   id=f"hermitize-{name}") for name, M in _NON_FINITE_MATRICES.items()),
    *(pytest.param(lambda M=M: _jensen_on(_EYE2[0], M), DomainError,
                   id=f"check_lemma_jensen-{name}") for name, M in _NON_FINITE_MATRICES.items()),
    *(pytest.param(lambda f=f, t=t: f(t), DomainError, id=f"{name}({label}){form}")
      for name, f in _CHECKED_SPECS.items() for label, x in _NON_FINITE.items()
      for form, t in (("", x), ("-array", np.array([0.5, x])))),
    *(pytest.param(lambda make=make, x=x: make(x)(1.0), DomainError, id=f"{name}={label})")
      for name, make in _SPEC_PARAMETERS.items() for label, x in _NON_FINITE.items()),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_input_raises_a_typed_error(call, error):
    # NaN compares false both ways, so a check that tests for the bad case
    # (p < 0, alpha < 0) lets it through and the margin comes out NaN or 0;
    # the typed error comes before any arithmetic on the bad value warns
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("name", _NON_FINITE_MATRICES)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermitian_boundary_names_the_non_finite_entries(name):
    # a non-finite matrix is not Hermitian, and the boundary checks name its
    # non-finite entries where a residual of inf or NaN would compare false
    M = _NON_FINITE_MATRICES[name]
    where = re.escape(str([tuple(ix) for ix in np.argwhere(~np.isfinite(M)).tolist()]))
    assert not oc.is_hermitian(M)
    for call in (lambda: oc.assert_hermitian(M, "A"), lambda: oc.hermitize(M),
                 lambda: _jensen_on(_EYE2[0], M)):
        with pytest.raises(DomainError, match=f"has non-finite entries at {where}"):
            call()


@pytest.mark.parametrize("name", _CHECKED_SPECS)
@pytest.mark.parametrize("label", _NON_FINITE)
def test_function_specs_are_not_defined_at_non_finite_t(name, label):
    assert not _CHECKED_SPECS[name].defined_at(_NON_FINITE[label])


@pytest.mark.parametrize("delta, error", [(5e-11, None), (5e-10, PreconditionError),
                                          (2e-9, PreconditionError)])
def test_spectra_have_one_threshold(delta, error):
    # a spectrum may leave f's interval [0.2, 2] by 1e-10, the slack of
    # oc.apply_function_stack; beyond it the kernel raises PreconditionError,
    # and the spectral image it then recomposes only clips.  The
    # operator-mean kernel checks its A_i and B_i against iv with the same
    # slack
    f = vf.function_catalog("power2")
    mats = [np.diag([2.0 + delta, 1.0]).astype(complex), np.diag([1.0, 0.5]).astype(complex)]
    fam = oc.MapFamily(tuple(oc.WeightedConjugation(0.5, _EYE2) for _ in mats), 2)
    calls = (lambda: [vf.check_theorem_beta(fam, mats, mats, f, 1.0)],
             lambda: vf.check_lemma_jensen(fam, mats, f, list(_EYE2)),
             lambda: vf.check_operator_mean_bounds(_EYE2, mats[0], mats[0], [1.0], f.domain, 1.7))
    for call in calls:
        if error is None:
            assert all(v.passed for v in call())
        else:
            with pytest.raises(error):
                call()


class TestOracleSweep:
    def test_sweep_passes(self):
        rows, worst = vf.oracle_sweep()
        assert worst <= 1e-7
        assert len(rows) > 200

    def test_sweep_detects_injected_error(self, monkeypatch):
        monkeypatch.setattr(vf.sb, "kantorovich", lambda h, r: 1.0)
        _, worst = vf.oracle_sweep()
        assert worst > 1e-7

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_sweep_fails_on_a_non_finite_closed_form(self, monkeypatch, value):
        # 49 kantorovich rows are non-finite; a NaN that is not the first
        # row's must still reach the worst
        monkeypatch.setattr(vf.sb, "kantorovich", lambda h, r: value)
        rows, worst = vf.oracle_sweep()
        assert rows[0]["name"] != "kantorovich"
        assert not math.isfinite(worst) and not worst <= 1e-7
        assert sum(not math.isfinite(row["abs_diff"]) for row in rows) == 49

    def test_sweep_oracle_values_equal_the_one_row_oracles(self):
        # every oracle value of the stacked sweep, against the public oracle
        # on the same (f, interval, alpha), one row at a time
        sb = vf.sb
        for row in vf.oracle_sweep()[0]:
            name, p = row["name"], row["params"]
            if name in ("beta_t_log_t", "beta_tsallis"):
                iv = Interval(0.0, 1.0)
                f = FunctionSpec.t_log_t(iv) if "r" not in p else FunctionSpec.tsallis_f(p["r"], iv)
                oracle = sb.beta_oracle(f, iv, p["alpha"])
            elif "eps" in p:
                iv = Interval(p["eps"], 1.0)
                f = (FunctionSpec.neg_log(iv) if "r" not in p
                     else FunctionSpec.ln_r_reciprocal(p["r"], iv))
                oracle = (sb.ratio_oracle if name.startswith("ratio") else sb.diff_oracle)(f, iv)
            else:
                iv = Interval(1.0, p["h"])
                f = FunctionSpec.power(p["r"], iv)
                oracle = (sb.ratio_oracle if name == "kantorovich" else sb.diff_oracle)(f, iv)
            assert row["oracle_value"] == oracle, row
