"""Tree geometry, mass pyramids, packing, generators, instance IO."""

import json
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import STRATEGIES
from sparsebump import (BumpSpec, CubeId, DomainError, Instance, SparseFamily,
                        TreeGeometry, WeightPair, ap_constant, carleson_embedding_ratio,
                        entropy_constant, generate_sparse, instance_from_dict, load_instance,
                        nu_constant, packing_constant, stopping_time_family, testing_constant)
from sparsebump.dyadic import (DENSITY_FLOOR, ancestor_accumulate, ancestor_table,
                               subtree_sums)


def sigma_avg_flat(sigma, geometry):
    """The flat sigma averages a WeightPair holds."""
    return WeightPair(geometry, np.ones(geometry.n_leaves), sigma, 2.0).sigma_avg_flat


class TestGeometry:
    def test_counts(self):
        g = TreeGeometry(5)
        assert g.n_leaves == 32
        cubes = list(oracles.cube_ids(5))
        assert len(cubes) == 2 ** 6 - 1 and all(map(g.contains, cubes))
        assert [c.flat_index for c in cubes] == list(range(2 ** 6 - 1))
        assert not g.contains(CubeId(6, 0)) and not g.contains(CubeId(5, 32))

    def test_depth_zero(self):
        g = TreeGeometry(0)
        assert g.n_leaves == 1
        assert list(oracles.cube_ids(0)) == [CubeId(0, 0)] and g.contains(CubeId(0, 0))
        assert not g.contains(CubeId(1, 0))

    def test_invalid_depth(self):
        with pytest.raises(DomainError):
            TreeGeometry(-1)

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
        for cube in oracles.cube_ids(g.depth):
            ref = oracles.brute_average(w, cube.level, cube.index, depth)
            assert pair.w_avg_flat[cube.flat_index] == pytest.approx(ref, rel=1e-12)
            ref = oracles.brute_average(sigma, cube.level, cube.index, depth)
            assert pair.sigma_avg_flat[cube.flat_index] == pytest.approx(ref, rel=1e-12)

    def test_mass_additivity(self):
        rng = np.random.default_rng(7)
        g = TreeGeometry(6)
        w, sigma = oracles.random_pair(rng, 6)
        pair = WeightPair(g, w, sigma, 2.0)
        for cube in oracles.cube_ids(g.depth):
            if cube.level == g.depth:
                continue
            k = cube.flat_index  # its children sit at 2k + 1 and 2k + 2
            mass = pair.sigma_mass_flat[k]
            total = pair.sigma_mass_flat[2 * k + 1] + pair.sigma_mass_flat[2 * k + 2]
            assert mass == pytest.approx(total, rel=1e-12)
            assert pair.sigma_avg_flat[k] * cube.measure == pytest.approx(mass, rel=1e-12)

    @pytest.mark.parametrize("depth", [0, 1, 5, 9])
    def test_flat_buffers_and_their_level_views(self, depth):
        # each pyramid is one flat (level, index) buffer equal bit for bit to
        # subtree_sums of the leaf masses, and the averages are the masses
        # times 2**level, bit for bit; sigma_avgs are views into its buffer
        rng = np.random.default_rng(depth)
        g = TreeGeometry(depth)
        w, sigma = oracles.random_pair(rng, depth)
        pair = WeightPair(g, w, sigma, 2.0)
        size = (2 << depth) - 1
        for leaves, flat, avg_flat in ((w, pair.w_mass_flat, pair.w_avg_flat),
                                       (sigma, pair.sigma_mass_flat, pair.sigma_avg_flat)):
            ref = np.zeros(size)
            ref[(1 << depth) - 1:] = leaves * 2.0 ** (-depth)
            ref = subtree_sums(ref, depth)
            assert np.array_equal(flat, ref)
            for level in range(depth + 1):
                sl = slice((1 << level) - 1, (2 << level) - 1)
                assert np.array_equal(avg_flat[sl], ref[sl] * 2.0 ** level)
        assert len(pair.sigma_avgs) == depth + 1
        for level, view in enumerate(pair.sigma_avgs):
            assert view.base is pair.sigma_avg_flat
            assert np.array_equal(view, pair.sigma_avg_flat[(1 << level) - 1:(2 << level) - 1])
        # every generator and build give one read-only bool flat mask, and
        # the per-level masks are views into it
        families = [generate_sparse(g, strategy, 0.25, depth, sigma_avg_flat=pair.sigma_avg_flat)
                    for strategy in STRATEGIES]
        families.append(SparseFamily.build([CubeId(depth, 0), CubeId(0, 0)], g))
        for S in families:
            assert S.flat_mask.dtype == bool and S.flat_mask.shape == (size,)
            assert not S.flat_mask.flags.writeable and S.depth == depth
            assert len(S.masks) == depth + 1
            for level, m in enumerate(S.masks):
                assert m.base is S.flat_mask and m.shape == (1 << level,)
        assert [c.flat_index for c in families[-1].sorted_cubes()] == sorted({0, (1 << depth) - 1})

    @pytest.mark.parametrize("depth", [0, 1, 4, 8, 12])
    def test_ancestor_accumulate_matches_brute_folds(self, depth):
        # the in-place top-down pass leaves, at every leaf, the sum and the
        # max of the values on its root chain, bit for bit
        values = np.random.default_rng(depth).standard_normal((2 << depth) - 1)
        for op, fold in ((np.add, operator.add), (np.maximum, max)):
            got = ancestor_accumulate(values.copy(), depth, op)[(1 << depth) - 1:]
            ref = [oracles.brute_ancestor_fold(values, depth, x, fold)
                   for x in range(1 << depth)]
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("depth", [0, 1, 4, 8, 12])
    def test_ancestor_table_matches_brute_folds(self, depth):
        # row r at leaf x folds the values of x's ancestors at level >= r,
        # from the leaf up, bit for bit, and leaves the input unchanged
        values = np.random.default_rng(depth).standard_normal((2 << depth) - 1)
        before = values.copy()
        for op, fold in ((np.add, operator.add), (np.maximum, max)):
            got = ancestor_table(values, depth, op)
            assert got.shape == (depth + 1, 1 << depth)
            assert np.array_equal(values, before)
            for r in range(depth + 1):
                ref = [oracles.brute_ancestor_table_entry(values, depth, r, x, fold)
                       for x in range(1 << depth)]
                assert np.array_equal(got[r], ref)

    def test_swapped_pair_is_dual(self):
        rng = np.random.default_rng(11)
        g = TreeGeometry(4)
        w, sigma = oracles.random_pair(rng, 4)
        pair = WeightPair(g, w, sigma, 3.0)
        dual = pair.swapped()
        assert dual.p == pytest.approx(1.5)
        assert np.allclose(dual.w_leaves, sigma)
        assert np.allclose(dual.sigma_leaves, w)
        # the dual's pyramids are bit for bit the pair's, swapped, and those
        # of a pair built from (sigma, w) afresh
        fresh = WeightPair(g, sigma, w, pair.p_dual)
        for name, mine in (("w_mass_flat", pair.sigma_mass_flat),
                           ("sigma_mass_flat", pair.w_mass_flat),
                           ("w_avg_flat", pair.sigma_avg_flat),
                           ("sigma_avg_flat", pair.w_avg_flat)):
            assert getattr(dual, name).tobytes() == mine.tobytes()
            assert getattr(dual, name).tobytes() == getattr(fresh, name).tobytes()
        assert dual.p == fresh.p and dual.geometry == fresh.geometry
        assert [v.tolist() for v in dual.sigma_avgs] == [v.tolist() for v in fresh.sigma_avgs]

    def test_rejects_bad_inputs(self):
        g = TreeGeometry(2)
        with pytest.raises(DomainError):
            WeightPair(g, np.ones(3), np.ones(4), 2.0)
        with pytest.raises(DomainError):
            WeightPair(g, np.ones(4), np.ones(4), 1.0)
        with pytest.raises(DomainError):
            WeightPair(g, -np.ones(4), np.ones(4), 2.0)

    def test_holds_read_only_copies_of_the_leaves(self):
        # writing into the caller's arrays afterwards changes no constant,
        # and the pair's own leaf vectors (its dual's too) refuse writes
        rng = np.random.default_rng(5)
        g = TreeGeometry(4)
        w, sigma = oracles.random_pair(rng, 4)
        pair = WeightPair(g, w, sigma, 2.0)
        S = generate_sparse(g, "stopping_time", 0.5, 0, sigma_avg_flat=pair.sigma_avg_flat)

        def constants():
            return (testing_constant(pair, S)[0], testing_constant(pair.swapped(), S)[0],
                    ap_constant(pair), nu_constant(pair, BumpSpec()),
                    entropy_constant(pair, BumpSpec()))

        before = constants()
        w[:], sigma[:] = 100.0, 100.0
        assert constants() == before
        for leaves in (pair.w_leaves, pair.sigma_leaves, pair.swapped().w_leaves):
            with pytest.raises(ValueError):
                leaves[0] = 1.0


class TestPacking:
    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            depth = int(rng.integers(1, 7))
            g = TreeGeometry(depth)
            pool = list(oracles.cube_ids(g.depth))
            k = int(rng.integers(1, len(pool) + 1))
            picks = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
            fast = packing_constant(picks, g)
            slow = oracles.brute_packing([(c.level, c.index) for c in picks], depth)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(5)
        g = TreeGeometry(5)
        pool = list(oracles.cube_ids(g.depth))
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
        # a cube R outside the tree is rejected before any of its sums is read
        S = SparseFamily.build([CubeId(0, 0)], g)
        for R in (CubeId(5, 0), CubeId(1, 7)):
            with pytest.raises(DomainError):
                carleson_embedding_ratio(S, np.ones(4), 0.5, R, g)

    @pytest.mark.parametrize("mask", [np.ones(6, bool), np.ones(7), np.ones((3, 7), bool),
                                      np.ones(0, bool), [True] * 7])
    def test_mask_must_be_a_flat_bool_tree_buffer(self, mask):
        # wrong size, wrong dtype, 2-D, empty, and not an array
        with pytest.raises(DomainError):
            SparseFamily(mask)


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
            fam = generate_sparse(g, strategy, eta, checked,
                                  sigma_avg_flat=sigma_avg_flat(sigma, g))
            assert fam.packing <= 1.0 / eta + 1e-12
            # sorted_cubes() lists the flat mask's cubes in _select order
            flat = [c.flat_index for c in fam.sorted_cubes()]
            assert flat == np.flatnonzero(fam.flat_mask).tolist()
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
                # all_above_level: every cube of level <= m, packing m + 1 <= 1/eta
                m = min(depth, math.floor(1.0 / eta + 1e-12) - 1)
                assert cubes("all_above_level") == oracles.all_cubes(m)

    def test_determinism(self):
        g = TreeGeometry(6)
        sigma = np.exp(np.random.default_rng(1).standard_normal(64))
        a = generate_sparse(g, "random_greedy", 0.5, 9, sigma_avg_flat=sigma_avg_flat(sigma, g))
        b = generate_sparse(g, "random_greedy", 0.5, 9, sigma_avg_flat=sigma_avg_flat(sigma, g))
        assert a.cubes == b.cubes

    def test_tower_is_a_root_chain(self):
        g = TreeGeometry(3)
        fam = generate_sparse(g, "tower", 0.5, 0)
        levels = sorted(c.level for c in fam.cubes)
        assert levels == list(range(len(fam.cubes)))
        chain = fam.sorted_cubes()
        for outer, inner in zip(chain, chain[1:]):
            assert oracles.contains((outer.level, outer.index), (inner.level, inner.index))

    def test_stopping_time_family_is_sparse(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            depth = int(rng.integers(2, 8))
            g = TreeGeometry(depth)
            sigma = np.exp(2.0 * rng.standard_normal(g.n_leaves))
            a = 2.0
            fam = stopping_time_family(sigma_avg_flat(sigma, g), a)
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
            fam = stopping_time_family(sigma_avg_flat(sigma, TreeGeometry(depth)), a)
            got = sorted((c.level, c.index) for c in fam.cubes)
            assert got == oracles.brute_stopping_time(sigma, a, depth)

    def test_stopping_threshold_is_strict(self):
        # sigma = (3, 1) has root average 2 and 1.5 * 2 = 3 exactly, so the
        # left child sits on the threshold and is not selected
        g = TreeGeometry(1)
        for sigma, want in (([3.0, 1.0], [(0, 0)]), ([3.5, 1.0], [(0, 0), (1, 0)])):
            fam = stopping_time_family(sigma_avg_flat(np.array(sigma), g), 1.5)
            assert sorted((c.level, c.index) for c in fam.cubes) == want
            assert want == oracles.brute_stopping_time(sigma, 1.5, 1)

    def test_unknown_strategy(self):
        # and every other input the generator rejects, each for its own reason
        geometry = TreeGeometry(2)
        avgs = WeightPair(geometry, np.ones(4), np.ones(4), 2.0).sigma_avg_flat
        rejected = [
            ("unknown strategy", lambda: generate_sparse(geometry, "nope", 0.5, 0)),
            ("eta must lie", lambda: generate_sparse(geometry, "tower", 0.0, 0)),
            ("eta must lie", lambda: generate_sparse(geometry, "tower", 1.5, 0)),
            ("needs sigma_avg_flat", lambda: generate_sparse(geometry, "stopping_time", 0.5, 0)),
            ("needs eta < 1", lambda: generate_sparse(geometry, "stopping_time", 1.0, 0,
                                                      sigma_avg_flat=avgs)),
            ("unknown strategy", lambda: generate_sparse(geometry, "all_above_level:2",
                                                         0.5, 0)),
            ("must exceed 1", lambda: stopping_time_family(avgs, 1.0)),
            ("must exceed 1", lambda: stopping_time_family(avgs, 0.5)),
        ]
        for reason, call in rejected:
            with pytest.raises(DomainError, match=reason):
                call()


class TestInstanceIO:
    def test_roundtrip(self, instance_a):
        data = json.loads(json.dumps(instance_a.to_json_dict()))
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

    def test_zero_leaves_load_at_the_floor(self):
        data = {"depth": 1, "p": 2.0, "w_leaves": [0.0, 1.0],
                "sigma_leaves": [1.0, 0.0],
                "sparse": {"cubes": [[0, 0]], "eta": 1.0}}
        inst = instance_from_dict(data)
        assert inst.pair.w_leaves.tolist() == [DENSITY_FLOOR, 1.0]
        assert inst.pair.sigma_leaves.tolist() == [1.0, DENSITY_FLOOR]

    def test_negative_density_rejected(self):
        data = {"depth": 1, "p": 2.0, "w_leaves": [-1.0, 1.0],
                "sigma_leaves": [1.0, 1.0], "sparse": {"cubes": [[0, 0]], "eta": 1.0}}
        with pytest.raises(DomainError):
            instance_from_dict(data)

    def test_load_from_file(self, tmp_path, instance_a):
        path = tmp_path / "inst.json"
        text = json.dumps(instance_a.to_json_dict(), sort_keys=True)
        path.write_text(text)
        inst = load_instance(path)
        assert np.allclose(inst.pair.sigma_leaves, [4, 1, 1, 1])
        # the same instance behind a config header line, as the CLI writes
        path.write_text('# config {"cmd": "gen"}\n' + text)
        inst = load_instance(path)
        assert np.allclose(inst.pair.sigma_leaves, [4, 1, 1, 1])

    def test_sparse_config_is_the_instance_own(self, instance_a):
        # neither the caller's input dict nor a returned dict edits the instance
        data = instance_a.to_json_dict()
        inst = instance_from_dict(data)
        data["sparse"]["seed"] = 99
        inst.to_json_dict()["sparse"]["eta"] = 0.9
        assert inst.sparse_config == {"strategy": "tower", "eta": 0.5, "seed": 0}
        instance_a.to_json_dict()["sparse"]["sed"] = 5
        assert "sed" not in instance_a.sparse_config

    @pytest.mark.parametrize("outer, key", [(False, "W_leaves"), (True, "sed")])
    def test_unknown_keys_rejected(self, instance_a, outer, key):
        # a misspelt key is an error, not a silent default (seed 0 for "sed")
        data = instance_a.to_json_dict()
        (data["sparse"] if outer else data)[key] = 5
        with pytest.raises(DomainError, match="unknown spec keys"):
            instance_from_dict(data)

    @pytest.mark.parametrize("text", ['{"depth": 1, "p": 2', '{"depth": 1, "p": 2}',
                                      '{"depth": 1, "p": 2, "w_leaves": [1, 1], '
                                      '"sigma_leaves": [1, 1], "sparse": {"cubes": [["a", 0]]}}',
                                      '[1, 2]'] + [
        # literals the reader rejects, where json would read nan and inf leaves
        f'{{"depth": 1, "p": 2, "w_leaves": [{x}, 1], "sigma_leaves": [1, 1], '
        f'"sparse": {{"cubes": [[0, 0]]}}}}' for x in ("NaN", "Infinity", "1e400")])
    def test_malformed_file_is_a_domain_error_naming_it(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(DomainError, match="bad.json"):
            load_instance(path)

    @given(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=16, max_size=16))
    @example([0.0, -0.0, 5e-324, 2.2e-308, 1e-12, 1e-12 * (1 + 2 ** -52),
              sys.float_info.max, 0.1] * 2)
    @settings(max_examples=200, deadline=None)
    def test_leaves_read_to_the_bits_json_reads(self, tmp_path_factory, leaves):
        # every finite density json.dumps writes reads back as json.loads
        # reads it, after the DENSITY_FLOOR clamp
        path = tmp_path_factory.getbasetemp() / "leaves.json"
        text = json.dumps({"depth": 3, "p": 2.0, "w_leaves": leaves[:8],
                           "sigma_leaves": leaves[8:], "sparse": {"cubes": [[0, 0]]}})
        path.write_text(text)
        pair, data = load_instance(path).pair, json.loads(text)
        for got, key in ((pair.w_leaves, "w_leaves"), (pair.sigma_leaves, "sigma_leaves")):
            want = np.maximum(np.array(data[key]), DENSITY_FLOOR)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_empty_family_rejected(self):
        with pytest.raises(DomainError):
            SparseFamily.build([], TreeGeometry(2))
