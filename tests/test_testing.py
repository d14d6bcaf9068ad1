"""Local sums, testing constants, operator norms, tracked-constant checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import STRATEGIES, level_arrays, make_instance, random_corpus
from sparsebump import (CubeId, SparseFamily, TreeGeometry, WeightPair, apply_sparse, carleson_embedding_ratio, dyadic_maximal,
                        cov_sides, eset_split_check, hytonen_ratio, local_sum,
                        lp_norm, maximal_norm_lower, operator_norm, operator_norm_lower,
                        operator_norm_p2, prop31_bound, prop32_check,
                        prop33_check, sawyer_sum_bound, testing_constant,
                        theorem_main_ratio, generate_sparse, nu_constant)
from sparsebump.bumps import BumpSpec, check_bump, nu_lambdas
from sparsebump.dyadic import DomainError, NumericError, _select
from sparsebump import testing
from sparsebump.search import SearchConfig, _sub_ap_fraction, random_instance
from sparsebump.testing import (CheckReport, CHECK_CSV_HEADER, MAXIMAL_SEED, MAXIMAL_TRIALS,
                                _level, _indicator_ratios, _sums_inside, cov_bracket_report,
                                lemma_reports, realized_levels)

ROOT = CubeId(0, 0)


class TestLocalSums:
    def test_instance_a_root(self, instance_a):
        f = local_sum(instance_a.family, instance_a.pair, ROOT)
        assert np.allclose(f, [8.25, 4.25, 1.75, 1.75])

    def test_instance_a_half(self, instance_a):
        f = local_sum(instance_a.family, instance_a.pair, CubeId(1, 0))
        assert np.allclose(f, [6.5, 2.5, 0.0, 0.0])

    def test_single_cube_family(self):
        inst = make_instance(3, np.ones(8), np.arange(1.0, 9.0), 2.0)
        fam = SparseFamily.build([ROOT], inst.pair.geometry)
        f = local_sum(fam, inst.pair, ROOT)
        assert np.allclose(f, inst.pair.sigma_avgs[0][0])

    def test_matches_brute_force(self):
        for inst in random_corpus(30, seed=2, depths=(2, 3, 4, 5)):
            cubes = [(c.level, c.index) for c in inst.family.cubes]
            for R in inst.family.sorted_cubes()[:3]:
                ref = oracles.brute_local_sum(cubes, inst.pair.sigma_leaves,
                                              (R.level, R.index),
                                              inst.pair.geometry.depth)
                f = local_sum(inst.family, inst.pair, R)
                assert np.allclose(f, ref, rtol=1e-12)


class TestLpNorm:
    def test_flat(self):
        assert lp_norm(np.ones(8), np.ones(8), 2.0) == pytest.approx(1.0)

    def test_instance_a_value(self, instance_a):
        f = local_sum(instance_a.family, instance_a.pair, ROOT)
        val = lp_norm(f, instance_a.pair.w_leaves, 2.0)
        assert val == pytest.approx(math.sqrt(23.0625), rel=1e-12)

    @given(st.floats(0.001, 1000.0))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, c):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(8)
        w = np.exp(rng.standard_normal(8))
        a = lp_norm(c * vals, w, 1.5)
        b = c * lp_norm(vals, w, 1.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal(64)
        w = np.exp(rng.standard_normal(64))
        for p in (1.5, 2.0, 3.0):
            ref = oracles.brute_lp_norm(vals, w, p, 6)
            assert lp_norm(vals, w, p) == pytest.approx(ref, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            lp_norm(np.ones(8), np.ones(4), 2.0)


class TestTestingConstant:
    def test_flat_single_cube(self):
        inst = make_instance(3, np.ones(8), np.ones(8), 2.0)
        fam = SparseFamily.build([ROOT], inst.pair.geometry)
        val, argmax = testing_constant(inst.pair, fam)
        assert val == pytest.approx(1.0, rel=1e-12)
        assert argmax == ROOT

    def test_empty_family(self, instance_a):
        empty = SparseFamily(np.zeros(7, dtype=bool))
        assert testing_constant(instance_a.pair, empty) == (-math.inf, None)

    def test_instance_a(self, instance_a):
        val, argmax = testing_constant(instance_a.pair, instance_a.family)
        assert val == pytest.approx(math.sqrt(23.0625 / 1.75), rel=1e-12)
        assert argmax == ROOT

    def test_matches_brute_force(self):
        separated = 0
        for inst in random_corpus(100, seed=3, depths=(2, 3, 4, 5)):
            cubes = [(c.level, c.index) for c in inst.family.cubes]
            args = (cubes, inst.pair.w_leaves, inst.pair.sigma_leaves, inst.pair.p,
                    inst.pair.geometry.depth)
            ref, ref_arg = oracles.brute_testing(*args)
            val, argmax = testing_constant(inst.pair, inst.family)
            assert val == pytest.approx(ref, rel=1e-12)
            # the maximizer is determined wherever rounding cannot reorder R's
            runner_up = max((r for R, r in oracles.brute_testing_ratios(*args).items()
                             if R != ref_arg), default=0.0)
            if ref > runner_up * (1.0 + 1e-9):
                assert (argmax.level, argmax.index) == ref_arg
                separated += 1
        assert separated >= 90

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("family, expected", [
        ([(1, 0), (2, 2), (3, 7)], (1, 0)),  # the coarsest cube
        ([(2, 3), (2, 1)], (2, 1)),  # within a level, the leftmost
    ])
    def test_exact_ties_go_to_smallest_level_index(self, p, family, expected):
        # constant weights on a disjoint family: every R has the same ratio
        # (3 * 0.7^{p-1})^{1/p}, bit for bit
        g = TreeGeometry(4)
        pair = WeightPair(g, np.full(16, 3.0), np.full(16, 0.7), p)
        cubes = [CubeId(*c) for c in family]
        singles = {testing_constant(pair, SparseFamily.build([c], g))[0] for c in cubes}
        assert len(singles) == 1
        val, argmax = testing_constant(pair, SparseFamily.build(cubes, g))
        assert val in singles
        assert val == pytest.approx((3.0 * 0.7 ** (p - 1.0)) ** (1.0 / p), rel=1e-12)
        assert argmax == CubeId(*expected)

    def test_refinement_to_depth_12(self):
        # splitting every leaf of a depth-6 instance into 64 equal leaves
        # keeps every local sum and sigma(R) of the same cubes, so the
        # testing constants of the pair and of its dual and their maximizing
        # cubes stay; each cube's sum now runs over 64 times the leaves
        fine = TreeGeometry(12)
        for inst in random_corpus(12, seed=43, depths=(6,)):
            pair, S = inst.pair, inst.family
            fine_pair = WeightPair(fine, oracles.refine(pair.w_leaves, 6),
                                   oracles.refine(pair.sigma_leaves, 6), pair.p)
            fine_S = SparseFamily.build(S.cubes, fine)
            for coarse, refined in ((pair, fine_pair), (pair.swapped(), fine_pair.swapped())):
                val, argmax = testing_constant(coarse, S)
                fine_val, fine_argmax = testing_constant(refined, fine_S)
                assert fine_argmax == argmax
                assert fine_val == pytest.approx(val, rel=1e-12, abs=0.0)

    def test_exact_scaling_laws(self, instance_a):
        pair = instance_a.pair
        fam = instance_a.family
        base, _ = testing_constant(pair, fam)
        g = pair.geometry
        for c in (1e-6, 1e6):
            sig, _ = testing_constant(
                WeightPair(g, pair.w_leaves, c * pair.sigma_leaves, 2.0), fam)
            assert sig == pytest.approx(c ** 0.5 * base, rel=1e-10)
            ws, _ = testing_constant(
                WeightPair(g, c * pair.w_leaves, pair.sigma_leaves, 2.0), fam)
            assert ws == pytest.approx(c ** 0.5 * base, rel=1e-10)


class TestSparseOperator:
    def test_apply_sparse_linearity(self, instance_a):
        rng = np.random.default_rng(4)
        f1 = rng.standard_normal(4)
        f2 = rng.standard_normal(4)
        both = apply_sparse(instance_a.family, f1 + 2.0 * f2)
        parts = apply_sparse(instance_a.family, f1) \
            + 2.0 * apply_sparse(instance_a.family, f2)
        assert np.allclose(both, parts, rtol=1e-12)

    def test_apply_sparse_rejects_wrong_length(self, instance_a):
        for n in (1, 3, 8):
            with pytest.raises(DomainError):
                apply_sparse(instance_a.family, np.ones(n))

    def test_norm_flat_root(self):
        inst = make_instance(3, np.ones(8), np.ones(8), 2.0)
        fam = SparseFamily.build([ROOT], inst.pair.geometry)
        assert operator_norm_p2(fam, inst.pair) == pytest.approx(1.0, rel=1e-9)

    def test_power_iteration_matches_dense(self):
        for inst in random_corpus(30, seed=9, depths=(2, 3, 4, 5, 6),
                                  ps=(2.0,)):
            iterative = operator_norm_p2(inst.family, inst.pair)
            dense = np.linalg.svd(oracles.dense_operator(
                inst.pair.geometry.depth, inst.family.masks, inst.pair.w_leaves,
                inst.pair.sigma_leaves, 2.0), compute_uv=False)[0]
            assert iterative == pytest.approx(dense, rel=1e-6)

    @staticmethod
    def _bracket_cases(p):
        """(S, pair): random_corpus draws, then at depths 0-6 every strategy
        and law on one pair each, plus an explicit family without the root
        or the last quarter's cubes, whose uncovered leaves put zeros in f
        and whose halves are two blocks."""
        for inst in random_corpus(70, seed=17, depths=(2, 3, 4, 5, 6), ps=(p,)):
            yield inst.family, inst.pair
        for depth, law in itertools.product(range(7), LAWS):
            for strategy in STRATEGIES:  # the pair is the same for every strategy
                inst = random_instance(SearchConfig(depth=depth, eta=0.25, strategy=strategy,
                                                    dist=law, seed=depth + 7), p)
                yield inst.family, inst.pair
            if depth:
                yield SparseFamily.build(
                    [CubeId(1, 0)] + [c for c in inst.family.cubes
                                      if c.level >= 2 and c.index < 3 << (c.level - 2)],
                    inst.pair.geometry), inst.pair

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_norms_inside_the_dense_bracket(self, p):
        # the certified bracket closes to 1e-10 and overlaps the dense
        # matrix's Boyd/Collatz-Wielandt bracket to 1e-12
        for S, pair in self._bracket_cases(p):
            lo, hi = oracles.bracket(oracles.dense_operator(
                pair.geometry.depth, S.masks, pair.w_leaves, pair.sigma_leaves, p), p)
            lower, upper = operator_norm(S, pair)
            assert upper - lower <= 1e-10 * lower
            assert lo * (1.0 - 1e-12) <= upper and lower <= hi * (1.0 + 1e-12)

    def test_overflow_raises(self):
        # w A_S(f sigma) near 1e375 overflows: NumericError, never the 0.0
        # that only a zero image may return
        for p, norm in ((1.5, operator_norm), (2.0, operator_norm_p2), (3.0, operator_norm)):
            inst = make_instance(3, np.full(8, 1e250), np.full(8, 1e250), p)
            with pytest.raises(NumericError):
                norm(inst.family, inst.pair)

    def test_dual_brackets_overlap(self):
        # ||A_S(. sigma)||_{L^p(sigma) -> L^p(w)} is the norm of its adjoint
        # A_S(. w) from L^p'(w) to L^p'(sigma): the two brackets overlap
        for inst in random_corpus(30, seed=12, depths=(0, 2, 4, 6, 8), ps=(1.5, 2.0, 3.0)):
            lower, upper = operator_norm(inst.family, inst.pair)
            dual_lower, dual_upper = operator_norm(inst.family, inst.pair.swapped())
            assert lower <= dual_upper * (1.0 + 1e-12) and dual_lower <= upper * (1.0 + 1e-12)

    def test_zero_image_gives_zero(self, instance_a):
        assert operator_norm(SparseFamily(np.zeros(7, dtype=bool)), instance_a.pair) == (0.0, 0.0)

    def test_step_cap_raises(self, instance_a, monkeypatch):
        # a bracket that never closes stops at the 100 000-step cap
        monkeypatch.setattr(testing, "_boyd", lambda S, pair, f: (1.0, 2.0, f))
        with pytest.raises(NumericError, match="did not close"):
            operator_norm(instance_a.family, instance_a.pair)

    def test_lower_bound_below_norm(self):
        # both names are views of the bracket's lower end
        for inst in random_corpus(30, seed=10, depths=(2, 3, 4), ps=(2.0,)):
            lower, upper = operator_norm(inst.family, inst.pair)
            assert lower <= upper * (1.0 + 1e-12)
            assert operator_norm_p2(inst.family, inst.pair) == lower
            for budget, seed in ((1, 0), (6, 0), (64, 5)):
                assert operator_norm_lower(inst.family, inst.pair, budget, seed) == lower

    def test_norm_dominates_both_testing_constants(self):
        for inst in random_corpus(30, seed=11, depths=(2, 3, 4, 5), ps=(1.5, 2.0, 3.0)):
            upper = operator_norm(inst.family, inst.pair)[1]
            t1, _ = testing_constant(inst.pair, inst.family)
            t2, _ = testing_constant(inst.pair.swapped(), inst.family)
            assert max(t1, t2) <= upper * (1.0 + 1e-12)

    def test_rejects_other_exponents(self, instance_a):
        pair = WeightPair(instance_a.pair.geometry, instance_a.pair.w_leaves,
                          instance_a.pair.sigma_leaves, 3.0)
        with pytest.raises(DomainError):
            operator_norm_p2(instance_a.family, pair)


class TestCov:
    @staticmethod
    def _setup(inst, rng):
        fam = inst.family.cubes
        a = {q: float(np.abs(rng.standard_normal()) + 0.01) for q in fam}
        return fam, a

    def test_instance_a_sides(self, instance_a):
        lhs, rhs = cov_sides(instance_a.family, instance_a.pair.sigma_avgs,
                             instance_a.pair.w_leaves, 2.0,
                             instance_a.pair.geometry)
        assert lhs ** 2 == pytest.approx(23.0625, rel=1e-12)
        assert rhs ** 2 == pytest.approx(16.625, rel=1e-12)

    def test_p2_exact_identity(self):
        # lhs^2 = 2 rhs^2 - sum a_Q^2 w(Q), which forces the sqrt(2) bracket
        rng = np.random.default_rng(12)
        for inst in random_corpus(50, seed=12, ps=(2.0,), depths=(2, 3, 4, 5)):
            fam, a = self._setup(inst, rng)
            lhs, rhs = cov_sides(inst.family, level_arrays(a, inst.pair.geometry.depth),
                                 inst.pair.w_leaves, 2.0, inst.pair.geometry)
            tail = sum(a[q] ** 2 * inst.pair.w_mass_flat[q.flat_index] for q in fam)
            assert lhs ** 2 == pytest.approx(2.0 * rhs ** 2 - tail, rel=1e-9)

    def test_p2_bracket_hard(self):
        rng = np.random.default_rng(13)
        for inst in random_corpus(50, seed=13, ps=(2.0,), depths=(2, 3, 4, 5)):
            fam, a = self._setup(inst, rng)
            rep = cov_bracket_report(inst.family, level_arrays(a, inst.pair.geometry.depth),
                                     inst.pair.w_leaves, 2.0, inst.pair.geometry)
            assert rep.passed, rep

    def test_a_of_another_depth_rejected(self, instance_a):
        # one level short, one level extra, and a level of the wrong length
        levels = instance_a.pair.sigma_avgs
        for a in (levels[:2], levels + [np.ones(8)], [levels[0], np.ones(3), levels[2]]):
            with pytest.raises(DomainError):
                cov_sides(instance_a.family, a, instance_a.pair.w_leaves, 2.0,
                          instance_a.pair.geometry)

    def test_other_p_reported_not_asserted(self, instance_a):
        a = {q: 1.0 for q in instance_a.family.cubes}
        lhs, rhs = cov_sides(instance_a.family, level_arrays(a, 2),
                             instance_a.pair.w_leaves, 3.0,
                             instance_a.pair.geometry)
        assert lhs > 0.0 and rhs > 0.0


class TestEmbeddings:
    def test_carleson_single_cube_ratio_one(self):
        inst = make_instance(3, np.ones(8), np.ones(8), 2.0)
        fam = SparseFamily.build([ROOT], inst.pair.geometry)
        rep = carleson_embedding_ratio(fam, inst.pair.w_leaves, 0.5, ROOT,
                                       inst.pair.geometry)
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)

    def test_carleson_scale_invariance(self):
        for inst in random_corpus(20, seed=14, depths=(3, 4, 5)):
            for s in (0.25, 0.5, 0.75):
                base = carleson_embedding_ratio(inst.family, inst.pair.w_leaves,
                                                s, ROOT, inst.pair.geometry)
                scaled = carleson_embedding_ratio(
                    inst.family, 1e4 * inst.pair.w_leaves, s, ROOT,
                    inst.pair.geometry)
                assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_hytonen_instance_a(self, instance_a):
        rep = hytonen_ratio(instance_a.family, instance_a.pair, ROOT)
        assert rep.ratio == pytest.approx(1.44140625, rel=1e-12)


class TestLevelSets:
    def test_partition(self):
        for inst in random_corpus(40, seed=15, depths=(2, 3, 4, 5)):
            s = _select(inst.pair.sigma_avg_flat, inst.family)
            seen = np.zeros(s.shape, dtype=int)  # level sets holding each cube of S
            for k in realized_levels(inst.family, inst.pair):
                assert (_level(s) == k).any(), k
                seen += _level(s) == k
            assert (seen == 1).all()
            assert _level(s).tolist() == [oracles.brute_level(x) for x in s]

    def test_boundary_convention(self):
        # sigma_Q = 1 must land in k = -1 under the strict/weak convention
        inst = make_instance(2, np.ones(4), np.ones(4), 2.0, strategy="tower")
        assert realized_levels(inst.family, inst.pair) == [-1]

    def test_boundary_values_one_ulp_apart(self):
        # constant sigma makes every cube average exactly the leaf value
        for k in (-3, -1, 0, 1, 4):
            edge = 2.0 ** k
            for value, level in ((np.nextafter(edge, 0.0), k - 1), (edge, k - 1),
                                 (np.nextafter(edge, np.inf), k)):
                inst = make_instance(3, np.ones(8), np.full(8, value), 2.0,
                                     strategy="all_above_level", eta=0.25)
                fam, pair = inst.family, inst.pair
                assert len(fam.cubes) == 15
                assert realized_levels(fam, pair) == [level], (k, value)
                s = _select(pair.sigma_avg_flat, fam)
                assert [oracles.brute_level(x) for x in s] == [level] * 15
                assert (_level(s) == level).all()
                for other in (level - 1, level + 1):
                    assert prop32_check(fam, pair, ROOT, other).lhs == 0.0
                assert prop32_check(fam, pair, ROOT, level).lhs == \
                    pytest.approx(4.0 * value, rel=1e-15)

    def test_level_matches_the_integer_oracle(self):
        # random values over the whole float range, every power of two with
        # its neighbours one ulp away, and subnormals
        rng = np.random.default_rng(27)
        edges = np.ldexp(1.0, np.arange(-1074, 1024))
        mantissas, exponents = rng.uniform(0.5, 1.0, 20000), rng.integers(-1073, 1025, 20000)
        s = np.concatenate([np.ldexp(mantissas, exponents), edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf), rng.uniform(0.0, 2.0 ** -1022, 200),
                            [np.finfo(float).max]])
        s = s[s > 0]  # the neighbour below 2^-1074 is 0
        assert _level(s).tolist() == [oracles.brute_level(x) for x in s]

    @pytest.mark.filterwarnings("error")
    def test_huge_averages_level_without_overflow(self):
        # sigma averages at and above 2^1023, where 2^{k+1} is not a float
        for value, level in ((2.0 ** 1023, 1022), (np.nextafter(2.0 ** 1023, np.inf), 1023),
                             (np.finfo(float).max, 1023)):
            inst = make_instance(2, np.ones(4), np.full(4, value), 2.0, strategy="tower")
            assert realized_levels(inst.family, inst.pair) == [level]

    @pytest.mark.filterwarnings("error")
    def test_overflowed_level_set_sum_raises(self):
        # sigma at the largest float: the level-1023 sum of sigma(Q) inside the
        # root overflows, so NumericError and no RuntimeWarning, never lhs = inf
        # failing a hard check whose true ratio is 1.75 against the bound 3.5
        inst = make_instance(2, np.ones(4), np.full(4, np.finfo(float).max), 2.0,
                             strategy="tower")
        with pytest.raises(NumericError, match="overflowed"):
            prop32_check(inst.family, inst.pair, ROOT, 1023)


class TestCheckersAgainstOracles:
    """Every checker's sums against plain-Python sums over leaf lists, for
    every R of each corpus family."""
    SPEC = BumpSpec()

    def test_every_checker_at_every_R(self):
        for inst in random_corpus(56, seed=19):
            self._check_instance(inst)

    def _check_instance(self, inst):
        pair, fam, spec = inst.pair, inst.family, self.SPEC
        depth, p, pd = pair.geometry.depth, pair.p, pair.p_dual
        w, sigma = list(pair.w_leaves), list(pair.sigma_leaves)
        cubes = [(c.level, c.index) for c in fam.sorted_cubes()]
        s_avg = {q: oracles.brute_average(sigma, q[0], q[1], depth) for q in cubes}
        w_avg = {q: oracles.brute_average(w, q[0], q[1], depth) for q in cubes}
        s_mass = {q: s_avg[q] * 2.0 ** -q[0] for q in cubes}
        w_mass = {q: w_avg[q] * 2.0 ** -q[0] for q in cubes}
        psi = {q: float(oracles.mp_psi(s_avg[q])) for q in cubes}
        ap = {q: w_avg[q] * s_avg[q] ** (p - 1.0) for q in cubes}
        E = [q for q in cubes if ap[q] >= 1.0]
        table = nu_lambdas(pair, spec, fam)
        lam = dict(zip(cubes, table.tolist()))

        levels = sorted({oracles.brute_level(s_avg[q]) for q in cubes})
        assert realized_levels(fam, pair) == levels
        assert _level(_select(pair.sigma_avg_flat, fam)).tolist() == \
            [oracles.brute_level(s_avg[q]) for q in cubes]
        assert _sub_ap_fraction(inst, p) == sum(ap[q] < 1.0 for q in cubes) / len(cubes)

        def near(got, want):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

        lam1 = {q: max(lam[q], 1.0) for q in cubes}
        near(prop31_bound(pair, fam, table, spec, testing_constant(pair, fam)[0]).rhs,
             max(w_avg[q] ** (1.0 / p) * s_avg[q] ** (1.0 / pd) * lam1[q] ** (1.0 / p)
                 * float(oracles.mp_phi(lam1[q])) ** (1.0 / pd) for q in cubes))
        a = {q: s_avg[q] for q in cubes}
        got = cov_sides(fam, level_arrays({CubeId(*q): a[q] for q in cubes}, depth),
                        pair.w_leaves, p, pair.geometry)
        for g, want in zip(got, oracles.brute_cov_sides(cubes, a, w, p, depth)):
            near(g, want)

        sawyer_sup = max(ap[q] * psi[q] for q in cubes)
        # the lambda condition's sums for every R: sigma(Q) / lambda_Q inside R
        lam_inside = _sums_inside(fam, _select(pair.sigma_mass_flat, fam) / table)
        for R, lam_sum in zip(fam.sorted_cubes(), lam_inside.tolist()):
            r = (R.level, R.index)

            def inside(term):
                return oracles.brute_family_sum_inside(cubes, r, term)

            for k in levels:
                near(prop32_check(fam, pair, R, k).lhs,
                     inside(lambda q: s_mass[q] if oracles.brute_level(s_avg[q]) == k else 0.0))
            near(prop33_check(fam, pair, spec, R).lhs, inside(lambda q: s_mass[q] / psi[q]))
            near(lam_sum / pair.sigma_mass_flat[R.flat_index],
                 inside(lambda q: s_mass[q] / lam[q]) / s_mass[r])
            sawyer = inside(lambda q: s_avg[q] ** p * w_mass[q])
            rep = sawyer_sum_bound(pair, fam, spec, R)
            near(rep.lhs, sawyer)
            near(rep.rhs, sawyer_sup * s_mass[r])
            rep = hytonen_ratio(fam, pair, R)
            near(rep.lhs, oracles.brute_lp_norm(
                oracles.brute_local_sum(cubes, sigma, r, depth), w, p, depth) ** p)
            near(rep.rhs, max(ap.values()) * inside(lambda q: s_mass[q]))
            split, member = eset_split_check(pair, fam, R)
            near(split.lhs, oracles.brute_lp_norm(
                oracles.brute_local_sum(E, sigma, r, depth), w, p, depth) ** p)
            near(split.rhs, max(ap.values()) * sawyer)
            near(member.lhs, max((s_mass[q] / (s_avg[q] ** p * w_mass[q]) for q in E),
                                 default=0.0))
            for s in (0.25, 0.5):
                rep = carleson_embedding_ratio(fam, pair.w_leaves, s, R, pair.geometry)
                near(rep.lhs, inside(lambda q: w_avg[q] ** s * 2.0 ** -q[0]))
                near(rep.rhs, w_avg[r] ** s * 2.0 ** -r[0])


class TestTrackedConstants:
    SPEC = BumpSpec()

    def test_prop32_instance_a(self, instance_a):
        rep = prop32_check(instance_a.family, instance_a.pair, ROOT, 1)
        assert rep.ratio == pytest.approx(2.25 / 1.75, rel=1e-12)
        assert rep.bound == pytest.approx(2.0 * instance_a.family.packing)
        assert rep.passed

    def test_prop33_uses_tail_sum_bound(self, instance_a):
        rep = prop33_check(instance_a.family, instance_a.pair, self.SPEC, ROOT)
        s_psi = check_bump(self.SPEC).s_psi
        assert rep.bound == pytest.approx(2.0 * instance_a.family.packing * s_psi)
        assert rep.passed

    def test_hard_checks_on_corpus(self):
        for inst in random_corpus(150, seed=16):
            pair = inst.pair
            fam = inst.family
            R = max(fam.cubes, key=lambda q: -q.level)
            for k in realized_levels(fam, pair)[:3]:
                assert prop32_check(fam, pair, R, k).passed
            assert prop33_check(fam, pair, self.SPEC, R).passed
            assert sawyer_sum_bound(pair, fam, self.SPEC, R).passed
            _, member = eset_split_check(pair, fam, R)
            assert member.passed

    def test_lambda_condition_matches_prop33(self, instance_a):
        fam, pair = instance_a.family, instance_a.pair
        table = nu_lambdas(pair, self.SPEC, fam)
        c = _sums_inside(fam, _select(pair.sigma_mass_flat, fam) / table, ROOT) \
            / pair.sigma_mass_flat[0]
        rep = prop33_check(fam, pair, self.SPEC, ROOT)
        assert c == pytest.approx(rep.ratio, rel=1e-12)

    def test_prop31_report(self, instance_a):
        table = nu_lambdas(instance_a.pair, self.SPEC, instance_a.family)
        tc, _ = testing_constant(instance_a.pair, instance_a.family)
        rep = prop31_bound(instance_a.pair, instance_a.family, table, self.SPEC, tc)
        assert rep.lhs > 0.0 and rep.rhs > 0.0

    def test_theorem_ratio_components(self, instance_a):
        tc, _ = testing_constant(instance_a.pair, instance_a.family)
        r1, r2 = theorem_main_ratio(instance_a.pair, instance_a.family, self.SPEC, tc)
        from sparsebump.bumps import nu_constant
        nu = nu_constant(instance_a.pair, self.SPEC, instance_a.family)
        assert r1.ratio == pytest.approx(tc / nu ** 0.5, rel=1e-12)
        assert r2.lhs == pytest.approx(
            testing_constant(instance_a.pair.swapped(), instance_a.family)[0],
            rel=1e-12)


class TestMaximal:
    def test_full_maximal_matches_brute(self):
        rng = np.random.default_rng(18)
        f = np.exp(rng.standard_normal(16))
        ref = oracles.brute_dyadic_maximal(f, 0, 0, 4)
        assert np.allclose(dyadic_maximal(f, 4), ref, rtol=1e-12)

    def test_maximal_lower_positive(self, instance_a):
        # the bound is the best of the oracle's largest indicator ratio
        # (Sawyer's testing constant for M) and the seeded random trials
        pairs = [instance_a.pair] + [inst.pair for inst in random_corpus(
            6, seed=19, depths=(1, 3, 5))]
        for pair in pairs:
            w, sigma, p, depth = pair.w_leaves, pair.sigma_leaves, pair.p, pair.geometry.depth
            sawyer = oracles.brute_indicator_ratios(w, sigma, p, depth).max()
            rng = np.random.default_rng(np.uint64(MAXIMAL_SEED))
            trials = []
            for _ in range(MAXIMAL_TRIALS):
                f = rng.exponential(1.0, 1 << depth)
                mf = oracles.brute_dyadic_maximal(f * sigma, 0, 0, depth)
                trials.append(oracles.brute_lp_norm(mf, w, p, depth)
                              / oracles.brute_lp_norm(f, sigma, p, depth))
            val = maximal_norm_lower(pair)
            assert val == pytest.approx(max(sawyer, *trials), rel=1e-13)
            assert val >= sawyer * (1.0 - 1e-13) > 0.0


LAWS = ("lognormal", "spike", "mixed")


class TestIndicatorRatios:
    """testing._indicator_ratios, the closed form of every cube's
    indicator ratio for M."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_match_the_brute_oracle(self, p):
        # the brute maximal function of sigma chi_Q, every cube at depths 0-6
        for depth, law in itertools.product(range(7), LAWS):
            config = SearchConfig(depth=depth, eta=0.25, dist=law, seed=depth + 7)
            pair = random_instance(config, p).pair
            np.testing.assert_allclose(
                _indicator_ratios(pair),
                oracles.brute_indicator_ratios(pair.w_leaves, pair.sigma_leaves, p, depth),
                rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_reflection_and_refinement(self, p):
        # at depths 8-12, where the oracle is too slow: mirroring the pair
        # mirrors the buffer, and splitting every leaf in two leaves every
        # original cube's ratio as it was
        for depth, law in itertools.product(range(8, 13), LAWS):
            config = SearchConfig(depth=depth, eta=0.25, dist=law, seed=depth)
            pair = random_instance(config, p).pair
            w, sigma = pair.w_leaves, pair.sigma_leaves
            mirror = WeightPair(pair.geometry, w[::-1], sigma[::-1], p)
            fine = WeightPair(TreeGeometry(depth + 1), oracles.refine(w, 1),
                              oracles.refine(sigma, 1), p)
            ratios = _indicator_ratios(pair)
            np.testing.assert_allclose(_indicator_ratios(mirror), oracles.reflect(ratios),
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(_indicator_ratios(fine)[:ratios.size], ratios,
                                       rtol=1e-13, atol=0)


class TestCheckReport:
    def test_csv_row_format(self):
        rep = CheckReport.make("demo", 1.0, 2.0, bound=1.0, hard=True)
        row = rep.csv_row()
        assert row.startswith("demo,")
        assert row.split(",")[-1] in {"true", "false"}
        assert len(row.split(",")) == len(CHECK_CSV_HEADER.split(","))

    def test_pass_semantics(self):
        assert CheckReport.make("x", 1.0, 1.0, bound=1.0).passed
        assert not CheckReport.make("x", 2.0, 1.0, bound=1.0).passed
        # report-only checks carry no pass verdict semantics beyond ratio
        rep = CheckReport.make("x", 2.0, 1.0)
        assert rep.ratio == pytest.approx(2.0)
        # a two-sided bound: lower is inclusive, and a report-only check never passes
        assert CheckReport.make("x", 0.9, 1.0, bound=1.0, lower=0.9).passed
        assert not CheckReport.make("x", 0.8, 1.0, bound=1.0, lower=0.9).passed
        assert not CheckReport.make("x", 2.0, 1.0, bound=1.0, lower=0.9).passed
        assert not CheckReport.make("x", 0.95, 1.0, lower=0.9).passed


class TestDepthMismatch:
    @pytest.mark.parametrize("family_depth, pair_depth", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("call", [
        lambda S, pair: testing_constant(pair, S),
        lambda S, pair: lemma_reports(S, pair, [0], BumpSpec()),
        lambda S, pair: nu_constant(pair, BumpSpec(), S),
        lambda S, pair: local_sum(S, pair, ROOT),
        # a fits the family, so only the geometry is of another depth
        lambda S, pair: cov_sides(S, [np.ones(1 << level) for level in range(S.depth + 1)],
                                  pair.w_leaves, pair.p, pair.geometry),
        lambda S, pair: eset_split_check(pair, S, ROOT),
    ], ids=["testing_constant", "lemma_reports", "nu_constant", "local_sum", "cov_sides",
            "eset_split_check"])
    def test_family_of_another_depth_rejected(self, call, family_depth, pair_depth):
        S = generate_sparse(TreeGeometry(family_depth), "all_above_level", 0.25, 0)
        pair = make_instance(pair_depth, np.ones(1 << pair_depth),
                             np.arange(1.0, (1 << pair_depth) + 1.0), 2.0).pair
        with pytest.raises(DomainError):
            call(S, pair)
