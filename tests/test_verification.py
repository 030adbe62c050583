import functools
import math
import re
import subprocess
import sys
from collections import defaultdict

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
        target = float(np.dot(p, y))
        for _ in range(vf._REDRAW_CAP):
            x = rng.uniform(iv.m, iv.M, size=n)
            x0 = (target - float(np.dot(p[1:], x[1:]))) / p[0]
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
        assert rng_a.random() == rng_b.random()

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
    def test_block_drawn_pairs_match_plain_loop(self, cap):
        # a cap of 20 ends inside the second block; 0, 1 and 5 inside the first
        for n in (2, 3, 4, 6):
            for direction in (ce.SELF_DOMINATED, ce.CROSS_DOMINATED):
                for seed in range(200):
                    rng_a, rng_b = vf.trial_rng(seed, n), vf.trial_rng(seed, n)
                    want = self.plain_conditioned_pair(n, 0.05, direction, rng_b, cap)
                    if want is None:
                        with pytest.raises(GeneratorExhausted):
                            vf.gen_conditioned_prob_pair(n, 0.05, direction, rng_a, cap)
                    else:
                        got = vf.gen_conditioned_prob_pair(n, 0.05, direction, rng_a, cap)
                        assert all(np.array_equal(a, b) for a, b in zip(got, want)), \
                            (n, direction, seed)
                    assert rng_a.random() == rng_b.random(), (n, direction, seed)

    def test_conditioned_pair_infeasible_floor(self):
        with pytest.raises(DomainError):
            vf.gen_conditioned_prob_pair(4, 0.3, "self_dominated", vf.trial_rng(0, 0))

    def test_generator_exhaustion_reported(self):
        import karabounds.classical_entropy as ce
        with pytest.raises(GeneratorExhausted):
            vf.gen_conditioned_prob_pair(3, 0.05, ce.SELF_DOMINATED,
                                         vf.trial_rng(0, 0), cap=0)

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
        assert vf.report_to_json(a) == vf.report_to_json(b)
        c = vf.run_suite("theorem_beta", 30, 43)
        assert vf.report_to_json(a) != vf.report_to_json(c)

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
        def score(instances, params):
            return [(np.array([1, 0]), "a", np.array([-1.0, 0.0]), 0.0),
                    (np.array([0, 1]), "b", np.array([-1.0, -1.0]), 0.0)]

        monkeypatch.setitem(vf._SUITES, "ties", vf._Suite(lambda i, rng, p, ctx: (ctx,), score, {}))
        rep = vf.run_suite("ties", 2, 0, keep_verdicts=True)
        assert [(v.context["trial"], v.inequality_id, v.margin, v.passed) for v in rep.verdicts] \
            == [(0, "a", 0.0, True), (0, "b", -1.0, False), (1, "a", -1.0, False),
                (1, "b", -1.0, False)]
        assert (rep.failures, rep.min_margin, rep.worst_context) == (3, -1.0, {"trial": 0, "seed": 0})

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_per_group_stacks_each_shape_apart(self, seed):
        # one key over rows of lengths 2 and 3: one solve per length, on a
        # rectangular stack, results in entry order (shuffled but for seed
        # None), and None for the entry whose first value is None
        rows = [np.arange(n, dtype=float) + j for j, n in enumerate((2, 3, 2, 3, 3))] + [None]
        order = range(len(rows)) if seed is None else \
            np.random.default_rng(seed).permutation(len(rows)).tolist()
        calls = []

        def solve(key, X, tags):
            calls.append((key, X.shape))
            return [(key, x.tolist(), t) for x, t in zip(X, tags.tolist())]

        out = vf._per_group(solve, ["k"] * len(rows), [rows[j] for j in order], list(order))
        assert sorted(calls) == [("k", (2, 2)), ("k", (3, 3))]
        assert out == [None if rows[j] is None else ("k", rows[j].tolist(), j) for j in order]
        # without keys, solve gets the stacks alone
        sums = vf._per_group(lambda X: X.sum(axis=-1).tolist(), None, [rows[j] for j in order])
        assert sums == [None if rows[j] is None else rows[j].sum() for j in order]

    @pytest.mark.parametrize("suite, forms", [("eigensolver", 2), ("eigensolver_crosscheck", 1)])
    def test_eigensolver_suites_list_verdicts_in_trial_order(self, suite, forms):
        rep = vf.run_suite(suite, 40, 3, keep_verdicts=True)
        assert [v.context["trial"] for v in rep.verdicts] == \
            [i for i in range(40) for _ in range(forms)]

    @pytest.mark.parametrize("suite, unread", [
        ("reverse_shannon", {"rs": (0.7,)}),
        ("entropy_vn", {"rs": (0.7,)}),
        ("corollary_weighted", {"families": ("normalized_trace",)}),
        ("scalar_corollary", {"dims": (3,)}),
        ("fuchs", {"dims": (3,)}),
        # --m/--M set the operator-mean interval, which the prefix suites ignore
        ("fuchs", {"interval": (1.8, 4.0)}),
        ("moment", {"interval": (1.8, 4.0)}),
        ("eigensolver_crosscheck", {"tol": -1.0}),
        # instance sizes, vector lengths, moment orders and map families are
        # module constants, not params
        ("theorem_beta", {"n": 7}),
        ("scalar_corollary", {"n": 7}),
        ("fuchs", {"n": 7}),
        ("info_inequality", {"sizes": (9,)}),
        ("reverse_shannon", {"sizes": (9,)}),
        ("moment", {"orders": (3,)}),
        ("theorem_beta", {"families": ("normalized_trace",)}),
        # each kernel owns its tolerance, so a "tol" param moves no passed
        # flag and no eigensolver margin
        ("theorem_beta", {"tol": -1.0}),
        ("entropy_vn", {"tol": -1.0}),
        ("eigensolver", {"tol": 1e-6}),
    ])
    def test_params_a_suite_does_not_read_leave_its_verdicts_unchanged(self, suite, unread):
        # the CLI passes one params dict (dims, rs, alphas, eps, interval) to
        # every suite, so a suite must ignore the keys it has no use for
        def verdicts(params):
            rep = vf.run_suite(suite, 24, 7, params, keep_verdicts=True)
            return [(v.inequality_id, v.margin, v.passed, v.context) for v in rep.verdicts]

        assert verdicts(unread) == verdicts(None)

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
            return float((np.sum(pos ** (1 - r)) - 1) / r)

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
        # (n, d); the kernel run on each trial's instance alone gives the
        # same margins.  Dims (2, 3, 5) against the even/odd n = 1, 2 cycle
        # put both tuple lengths into every dimension; the default dims never
        # mix them
        iv = Interval(1.7, 5.1)
        for dims, trials, seed in (((2, 3, 4, 6), 28, 2024), ((2, 3, 5), 30, 0),
                                   ((2, 3, 5), 30, 2024)):
            rep = vf.run_suite(suite, trials, seed, {"dims": dims}, keep_verdicts=True)
            alone = []
            for i in range(trials):
                Z, As, Bs, w = vf._gen_mean_instance(vf.trial_rng(seed, i), dims[i % len(dims)],
                                                     iv, 1 if i % 2 == 0 else 2)
                blocks = vf._mean_blocks([(Z, As, Bs, w, rs[i % len(rs)], iv)], forms)
                alone += [(name, margin) for _, name, margins, _ in blocks
                          for margin in margins.tolist()]
            assert [(v.inequality_id, v.margin) for v in rep.verdicts] == alone, (dims, seed)

    @pytest.mark.parametrize("suite", ["operator_means", "mean_limits"])
    def test_mean_suites_decompose_each_matrix_once(self, suite, monkeypatch):
        # 28 trials: 28 Z, one A (B is the same object) in each of the 14
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
        # 48 trials of n = 3: a uniform_permutation B_i is an A_j object
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
        monkeypatch.setattr(ce, "specht", lambda h: 1.0)
        assert vf.run_suite("reverse_shannon", 60, 5).failures > 0
        monkeypatch.setattr(ce, "ls_r_constant", lambda eps, r: -1.0)
        assert vf.run_suite("parametric_reverse", 60, 5).failures > 0

    def test_csv_rows_shape(self):
        rep = vf.run_suite("entropy_vn", 5, 0, keep_verdicts=True)
        rows = list(vf.verdict_csv_rows([rep]))
        assert rows[0] == ("suite_id", "trial", "margin", "pass", "dim", "r",
                           "alpha", "eps", "seed", "inequality_id")
        assert len(rows) == 1 + len(rep.verdicts)

    def test_csv_rows_match_the_verdicts(self):
        # the rows come from each report's scored columns; they equal the
        # rows written from its verdict list, one verdict at a time
        suites = vf.suite_ids(include_extra=True)
        for seed in (0, 7):
            reports = [vf.run_suite(suite, 14, seed, keep_verdicts=True) for suite in suites]
            want = [("suite_id", "trial", "margin", "pass", "dim", "r",
                     "alpha", "eps", "seed", "inequality_id")]
            for rep in reports:
                want += [(rep.suite_id, v.context.get("trial", ""), repr(v.margin), int(v.passed),
                          *(v.context.get(key, "") for key in ("dim", "r", "alpha", "eps", "seed")),
                          v.inequality_id) for v in rep.verdicts]
            assert list(vf.verdict_csv_rows(reports)) == want
            assert {row[0] for row in want[1:]} == set(suites)

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

    def test_report_json_excludes_timing_by_default(self):
        rep = vf.run_suite("fuchs", 5, 0)
        assert "elapsed_ms" not in vf.report_to_json(rep)
        assert "elapsed_ms" in vf.report_to_json(rep, include_timing=True)


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
            moved_bs = moved_as if n == 1 else [_rotated(V, B) for B in Bs]
            mats, moved = (vf._mean_forms([inst], np.array([inst[1]]), None, forms)
                           for inst in ((Z, As, Bs, w, r, iv),
                                        (_rotated(V, Z), moved_as, moved_bs, w, r, iv)))
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


def _permuted(seed, i, *entries):
    perm = vf.trial_rng(seed + 1, i).permutation(len(entries[0]))
    return [e[perm] for e in entries]


class TestPermutationInvariance:
    TRIALS = 96

    @pytest.mark.parametrize("seed", [7, 1000])
    def test_scalar_corollary_margins_survive_a_permutation(self, seed):
        params = vf._SUITES["scalar_corollary"].defaults
        for i in range(self.TRIALS):
            (p, x, y), (f, alpha, mode), _ = vf._draw_scalar_corollary(
                i, vf.trial_rng(seed, i), params, {})
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
        params = vf._SUITES["info_inequality"].defaults
        for i in range(self.TRIALS):
            (p, q), r, _ = vf._draw_prob_pair(i, vf.trial_rng(seed, i), params, {})
            a, b = ([ce.information_inequality_margin(u, v), *ce.tsallis_cross_terms(u, v, r)]
                    for u, v in ((p, q), _permuted(seed, i, p, q)))
            bound = _permutation_bound(len(p), p * np.log(p), p * np.log(q),
                                       p ** (1.0 - r) * ln_r(r, q), p * ln_r(r, 1.0 / q))
            assert max(abs(u - v) for u, v in zip(a, b)) <= bound, (i, a, b)

    @pytest.mark.parametrize("seed", [7, 1000])
    def test_reverse_shannon_margins_survive_a_permutation(self, seed):
        params = vf._SUITES["reverse_shannon"].defaults
        for i in range(self.TRIALS):
            (p, q), (eps, direction), _ = vf._draw_conditioned_pair(
                i, vf.trial_rng(seed, i), params, {})
            a, b = (ce.reverse_shannon_margins(u, v, eps, direction)
                    for u, v in ((p, q), _permuted(seed, i, p, q)))
            big_k = math.log(eps) / (eps - 1.0)
            bound = _permutation_bound(len(p), big_k * p * np.log(p), big_k * p * np.log(q),
                                       math.log(vf.sb.specht(eps)))
            assert max(abs(u - v) for u, v in zip(a, b)) <= bound, (i, a, b)

    @pytest.mark.parametrize("seed", [7, 1000])
    def test_parametric_reverse_margins_survive_a_permutation(self, seed):
        params = vf._SUITES["parametric_reverse"].defaults
        for i in range(self.TRIALS):
            (p, q), (eps, r, direction), _ = vf._draw_parametric_pair(
                i, vf.trial_rng(seed, i), params, {})
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
