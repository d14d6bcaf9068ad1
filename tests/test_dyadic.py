"""Tree geometry, mass pyramids, packing, generators, instance IO."""

import json
import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import STRATEGIES, make_instance
from sparsebump import (CubeId, DomainError, Instance, SparseFamily,
                        TreeGeometry, WeightPair, generate_sparse,
                        instance_from_dict, load_instance, packing_constant,
                        stopping_time_family)
from sparsebump.dyadic import _select, subtree_sums
from sparsebump.testing import testing_constant


def sigma_avgs(sigma, geometry):
    """The per-level sigma averages a WeightPair holds."""
    return WeightPair(geometry, np.ones(geometry.n_leaves), sigma, 2.0).sigma_avgs


class TestGeometry:
    def test_counts(self):
        g = TreeGeometry(5)
        assert g.n_leaves == 32
        assert len(list(g.cubes())) == 2 ** 6 - 1

    def test_depth_zero(self):
        g = TreeGeometry(0)
        assert g.n_leaves == 1
        assert list(g.cubes()) == [CubeId(0, 0)]

    def test_invalid_depth(self):
        with pytest.raises(DomainError):
            TreeGeometry(-1)

    def test_parent_children_roundtrip(self):
        for cube in TreeGeometry(4).cubes():
            if cube.level > 0:
                assert cube in cube.parent.children
            for child in cube.children:
                assert child.parent == cube

    def test_containment_matches_interval_logic(self):
        g = TreeGeometry(4)
        for a in g.cubes():
            for b in g.cubes():
                expected = oracles.contains((a.level, a.index), (b.level, b.index))
                assert a.contains_cube(b) == expected

    def test_leaf_slice(self):
        c = CubeId(2, 3)
        assert c.leaf_slice(5) == slice(24, 32)
        assert c.measure == 0.25


class TestMassPyramid:
    @given(st.integers(0, 6), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_average_matches_brute_force(self, depth, seed):
        rng = np.random.default_rng(seed)
        g = TreeGeometry(depth)
        w, sigma = oracles.random_pair(rng, depth)
        pair = WeightPair(g, w, sigma, 2.0)
        for cube in g.cubes():
            ref = oracles.brute_average(w, cube.level, cube.index, depth)
            assert pair.w_avgs[cube.level][cube.index] == pytest.approx(ref, rel=1e-12)
            ref = oracles.brute_average(sigma, cube.level, cube.index, depth)
            assert pair.sigma_avgs[cube.level][cube.index] == pytest.approx(ref, rel=1e-12)

    def test_mass_additivity(self):
        rng = np.random.default_rng(7)
        g = TreeGeometry(6)
        w, sigma = oracles.random_pair(rng, 6)
        pair = WeightPair(g, w, sigma, 2.0)
        for cube in g.cubes():
            if cube.level == g.depth:
                continue
            mass = pair.sigma_masses[cube.level][cube.index]
            total = sum(pair.sigma_masses[c.level][c.index] for c in cube.children)
            assert mass == pytest.approx(total, rel=1e-12)
            assert pair.sigma_avgs[cube.level][cube.index] * cube.measure == pytest.approx(
                mass, rel=1e-12)

    @pytest.mark.parametrize("depth", [0, 1, 5, 9])
    def test_flat_buffers_and_their_level_views(self, depth):
        # each pyramid is one flat (level, index) buffer equal bit for bit to
        # subtree_sums of the leaf masses; the per-level lists are views into
        # it, and the averages are the masses times 2**level, bit for bit
        rng = np.random.default_rng(depth)
        g = TreeGeometry(depth)
        w, sigma = oracles.random_pair(rng, depth)
        pair = WeightPair(g, w, sigma, 2.0)
        for leaves, flat, levels, avg_flat, avgs in (
                (w, pair.w_mass_flat, pair.w_masses, pair.w_avg_flat, pair.w_avgs),
                (sigma, pair.sigma_mass_flat, pair.sigma_masses, pair.sigma_avg_flat,
                 pair.sigma_avgs)):
            ref = np.zeros((2 << depth) - 1)
            ref[(1 << depth) - 1:] = leaves * 2.0 ** (-depth)
            ref = subtree_sums(ref, depth)
            assert np.array_equal(flat, ref)
            assert np.array_equal(_select(levels, "all"), flat)
            assert np.array_equal(_select(avgs, "all"), avg_flat)
            assert len(levels) == len(avgs) == depth + 1
            for level in range(depth + 1):
                assert levels[level].base is flat and avgs[level].base is avg_flat
                assert np.array_equal(levels[level], ref[(1 << level) - 1:(2 << level) - 1])
                assert np.array_equal(avgs[level], levels[level] * 2.0 ** level)

    def test_coverage_is_built_once_per_family(self, monkeypatch):
        # constants reads the testing constant of the pair and of its dual,
        # check six of them: all reuse one (level, leaf) membership table
        built = []
        coverage = SparseFamily.__dict__["coverage"]
        counting = cached_property(lambda S: built.append(S) or coverage.func(S))
        counting.__set_name__(SparseFamily, "coverage")
        monkeypatch.setattr(SparseFamily, "coverage", counting)
        inst = make_instance(6, *oracles.random_pair(np.random.default_rng(3), 6), 3.0)
        pair, S = inst.pair, inst.family
        for p in (pair, pair.swapped(), pair, pair.swapped()):
            testing_constant(p, S)
        assert built == [S]
        inside, leaf, owner = S.coverage
        up = (1 << np.arange(7))[:, None] - 1 + (np.arange(64) >> (6 - np.arange(7))[:, None])
        assert np.array_equal(inside, S.flat_mask[up])
        assert np.array_equal(leaf, np.nonzero(inside)[1])
        assert np.array_equal(owner, up[inside])
        assert not inside.flags.writeable

    def test_swapped_pair_is_dual(self):
        rng = np.random.default_rng(11)
        g = TreeGeometry(4)
        w, sigma = oracles.random_pair(rng, 4)
        pair = WeightPair(g, w, sigma, 3.0)
        dual = pair.swapped()
        assert dual.p == pytest.approx(1.5)
        assert np.allclose(dual.w_leaves, sigma)
        assert np.allclose(dual.sigma_leaves, w)

    def test_rejects_bad_inputs(self):
        g = TreeGeometry(2)
        with pytest.raises(DomainError):
            WeightPair(g, np.ones(3), np.ones(4), 2.0)
        with pytest.raises(DomainError):
            WeightPair(g, np.ones(4), np.ones(4), 1.0)
        with pytest.raises(DomainError):
            WeightPair(g, -np.ones(4), np.ones(4), 2.0)


class TestPacking:
    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            depth = int(rng.integers(1, 7))
            g = TreeGeometry(depth)
            pool = list(g.cubes())
            k = int(rng.integers(1, len(pool) + 1))
            picks = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
            fast = packing_constant(picks, g)
            slow = oracles.brute_packing([(c.level, c.index) for c in picks], depth)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(5)
        g = TreeGeometry(5)
        pool = list(g.cubes())
        for trial in range(100):
            k = int(rng.integers(1, len(pool)))
            picks = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
            extra = pool[int(rng.integers(len(pool)))]
            before = packing_constant(picks, g)
            after = packing_constant(set(picks) | {extra}, g)
            assert after >= before - 1e-15

    def test_tower_packing(self):
        g = TreeGeometry(4)
        chain = [CubeId(l, 0) for l in range(5)]
        # sum over the chain inside the leaf-most cube is a geometric series
        assert packing_constant(chain, g) == pytest.approx(
            sum(2.0 ** (-l) for l in range(5)) / 1.0)

    def test_rejects_cubes_outside_the_tree(self):
        g = TreeGeometry(2)
        # index -4 would wrap to cube (2, 0); level 3 lies below the leaves
        for cubes in ([CubeId(1, 0), CubeId(2, -4)], [CubeId(3, 0)]):
            with pytest.raises(DomainError):
                packing_constant(cubes, g)


class TestGenerators:
    def test_generated_families_respect_eta(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            depth = int(rng.integers(2, 11))
            eta = float(rng.choice([0.25, 0.5, 0.9]))
            strategy = STRATEGIES[checked % len(STRATEGIES)]
            g = TreeGeometry(depth)
            sigma = np.exp(rng.standard_normal(g.n_leaves))
            fam = generate_sparse(g, strategy, eta, checked, sigma_avgs=sigma_avgs(sigma, g))
            assert fam.packing <= 1.0 / eta + 1e-12
            assert fam.sorted_cubes() == sorted(fam.cubes)
            assert fam.packing == packing_constant(fam.cubes, g)
            checked += 1

    def test_generators_match_their_definitions(self):
        for depth in range(10):
            g = TreeGeometry(depth)
            for eta in (0.25, 0.3, 0.5, 0.7, 0.9, 1.0):
                def cubes(strategy, seed=0):
                    fam = generate_sparse(g, strategy, eta, seed)
                    return sorted((c.level, c.index) for c in fam.cubes)

                for seed in range(8):
                    assert cubes("random_greedy", seed) == \
                        oracles.brute_random_greedy(eta, seed, depth)
                # tower: the root chain while its measures total at most 1/eta
                assert cubes("tower") == [
                    (l, 0) for l in range(depth + 1)
                    if math.fsum(2.0 ** (-i) for i in range(l + 1)) <= 1.0 / eta + 1e-12]
                # all_above_level:<m>: every cube of level <= m, packing m + 1
                for m in range(depth + 1):
                    if m + 1 <= 1.0 / eta:
                        assert cubes(f"all_above_level:{m}") == oracles.all_cubes(m)
                default = max(0, min(depth, math.floor(1.0 / eta + 1e-12) - 1))
                assert cubes("all_above_level") == oracles.all_cubes(default)

    def test_determinism(self):
        g = TreeGeometry(6)
        sigma = np.exp(np.random.default_rng(1).standard_normal(64))
        a = generate_sparse(g, "random_greedy", 0.5, 9, sigma_avgs=sigma_avgs(sigma, g))
        b = generate_sparse(g, "random_greedy", 0.5, 9, sigma_avgs=sigma_avgs(sigma, g))
        assert a.cubes == b.cubes

    def test_tower_is_a_root_chain(self):
        g = TreeGeometry(3)
        fam = generate_sparse(g, "tower", 0.5, 0)
        levels = sorted(c.level for c in fam.cubes)
        assert levels == list(range(len(fam.cubes)))
        chain = fam.sorted_cubes()
        for outer, inner in zip(chain, chain[1:]):
            assert outer.contains_cube(inner)

    def test_stopping_time_family_is_sparse(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            depth = int(rng.integers(2, 8))
            g = TreeGeometry(depth)
            sigma = np.exp(2.0 * rng.standard_normal(g.n_leaves))
            a = 2.0
            fam = stopping_time_family(sigma_avgs(sigma, g), a)
            assert fam.packing <= 1.0 / (1.0 - 1.0 / a) + 1e-12

    @pytest.mark.parametrize("law", ["lognormal", "spike", "constant"])
    @pytest.mark.parametrize("a", [4.0 / 3.0, 2.0, 4.0])
    def test_stopping_time_matches_brute_recursion(self, law, a):
        rng = np.random.default_rng(41)
        for depth in range(9):
            n = 1 << depth
            if law == "lognormal":
                sigma = np.exp(1.5 * rng.standard_normal(n))
            elif law == "spike":
                # mass on a random run of leaves, the rest at the density floor
                sigma = np.full(n, 1e-12)
                start = int(rng.integers(n))
                width = int(rng.integers(1, n - start + 1))
                sigma[start:start + width] = n / width
            else:
                sigma = np.full(n, 3.0)
            fam = stopping_time_family(sigma_avgs(sigma, TreeGeometry(depth)), a)
            got = sorted((c.level, c.index) for c in fam.cubes)
            assert got == oracles.brute_stopping_time(sigma, a, depth)

    def test_stopping_threshold_is_strict(self):
        # sigma = (3, 1) has root average 2 and 1.5 * 2 = 3 exactly, so the
        # left child sits on the threshold and is not selected
        g = TreeGeometry(1)
        for sigma, want in (([3.0, 1.0], [(0, 0)]), ([3.5, 1.0], [(0, 0), (1, 0)])):
            fam = stopping_time_family(sigma_avgs(np.array(sigma), g), 1.5)
            assert sorted((c.level, c.index) for c in fam.cubes) == want
            assert want == oracles.brute_stopping_time(sigma, 1.5, 1)

    def test_unknown_strategy(self):
        with pytest.raises(DomainError):
            generate_sparse(TreeGeometry(2), "nope", 0.5, 0)


class TestInstanceIO:
    def test_roundtrip(self, instance_a):
        data = json.loads(instance_a.dumps())
        back = instance_from_dict(data)
        assert back.pair.geometry.depth == 2
        assert np.allclose(back.pair.sigma_leaves, [4, 1, 1, 1])
        assert back.family.cubes == instance_a.family.cubes

    def test_explicit_cube_list(self):
        data = {"depth": 2, "p": 2.0, "w_leaves": [1, 1, 1, 1],
                "sigma_leaves": [1, 1, 1, 1],
                "sparse": {"cubes": [[0, 0], [1, 1]], "eta": 0.5}}
        inst = instance_from_dict(data)
        assert CubeId(1, 1) in inst.family.cubes

    def test_clamp_records_count(self):
        data = {"depth": 1, "p": 2.0, "w_leaves": [0.0, 1.0],
                "sigma_leaves": [1.0, 0.0],
                "sparse": {"cubes": [[0, 0]], "eta": 1.0}}
        inst = instance_from_dict(data)
        assert inst.clamped == 2
        assert inst.pair.w_leaves.min() == pytest.approx(1e-12)

    def test_negative_density_rejected(self):
        data = {"depth": 1, "p": 2.0, "w_leaves": [-1.0, 1.0],
                "sigma_leaves": [1.0, 1.0], "sparse": {"cubes": [[0, 0]], "eta": 1.0}}
        with pytest.raises(DomainError):
            instance_from_dict(data)

    def test_load_from_file(self, tmp_path, instance_a):
        path = tmp_path / "inst.json"
        path.write_text(instance_a.dumps())
        inst = load_instance(path)
        assert np.allclose(inst.pair.sigma_leaves, [4, 1, 1, 1])
        # the same instance behind a config header line, as the CLI writes
        path.write_text('# config {"cmd": "gen"}\n' + instance_a.dumps())
        inst = load_instance(path)
        assert np.allclose(inst.pair.sigma_leaves, [4, 1, 1, 1])

    def test_empty_family_rejected(self):
        with pytest.raises(DomainError):
            SparseFamily.build([], TreeGeometry(2))
