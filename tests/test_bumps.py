"""Bump families, admissibility, Young machinery, bump constants."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_instance, random_corpus
from sparsebump import (CubeId, TreeGeometry, WeightPair, ap_constant,
                        check_bump, dyadic_maximal,
                        entropy_constant, entropy_lambda,
                        maximal_bound_constant, nu_constant,
                        orlicz_lacey_constant, orlicz_li_constant, prop31_bound,
                        testing_constant)
from sparsebump import bumps
from sparsebump.bumps import (AdmissibilityError, BumpSpec, ConjugateTable,
                              YoungSpec, _conjugate, _conjugate_table, _luxemburg_norms,
                              ensure_admissible, ensure_young, entropy_lambdas,
                              nu_lambdas, sepcon_constant)
from sparsebump.dyadic import (DomainError, NumericError, SparseFamily, _avg_pyramid, _select,
                              ancestor_table)
from sparsebump.search import Objective, SearchConfig, anneal, random_instance

GRID = [1e-6, 1e-3, 0.3, 0.9, 1.0, 1.7, 4.0, 1e3, 1e6]


def conjugate_at(young, s):
    """Abar(s) at one point s > 0: the conjugate search on a one-point array."""
    return float(_conjugate(young, np.array([s], dtype=float))[0])


def gauge_levels(f, young):
    """Every level's Luxemburg norms of f, root first, from one leaves-up pass."""
    return np.split(_luxemburg_norms(f, young), [(1 << level) - 1
                                                  for level in range(1, len(f).bit_length())])


def cube_gauge(f, cube, young, depth):
    """The Luxemburg gauge of f on one cube: the root of the pass over its leaves."""
    return float(_luxemburg_norms(f[cube.leaf_slice(depth)], young)[0])


class TestPsiPhi:
    @pytest.mark.parametrize("family", ["log_power", "log_loglog"])
    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_psi_matches_multiprecision(self, family, eps):
        spec = BumpSpec(psi_family=family, psi_eps=eps)
        for t in GRID:
            ref = float(oracles.mp_psi(t, eps, family))
            assert spec.psi(t) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("family", ["log_power", "log_loglog"])
    def test_phi_matches_multiprecision(self, family):
        spec = BumpSpec(phi_family=family, phi_eps=1.0)
        for t in [1.0, 1.5, 4.0, 1e4]:
            ref = float(oracles.mp_phi(t, 1.0, family))
            assert spec.phi(t) == pytest.approx(ref, rel=1e-12)

    def test_nu_matches_multiprecision(self):
        spec = BumpSpec()
        for p in (1.5, 2.0, 3.0):
            for t in GRID:
                ref = float(oracles.mp_nu(p, t))
                assert spec.nu_p(p, t) == pytest.approx(ref, rel=1e-12)

    def test_nu_at_one_uses_upper_branch(self):
        spec = BumpSpec()
        assert spec.nu_p(2.0, 1.0) == pytest.approx(spec.psi(1.0), rel=1e-15)
        assert spec.psi(1.0) == pytest.approx(math.log(math.e + 1.0) ** 2, rel=1e-14)

    def test_vectorized_evaluation(self):
        spec = BumpSpec()
        t = np.array(GRID)
        scalar = np.array([spec.psi(x) for x in GRID])
        assert np.allclose(spec.psi(t), scalar, rtol=1e-14)

    def test_domain_errors(self):
        spec = BumpSpec()
        with pytest.raises(DomainError):
            spec.psi(0.0)
        with pytest.raises(DomainError):
            spec.phi(0.5)
        with pytest.raises(DomainError):
            spec.nu_p(1.0, 2.0)


class TestAdmissibility:
    @pytest.mark.parametrize("psi", ["log_power", "log_loglog"])
    @pytest.mark.parametrize("phi", ["log_power", "log_loglog"])
    def test_builtin_eps1_accepted(self, psi, phi):
        rep = check_bump(BumpSpec(psi_family=psi, phi_family=phi))
        assert rep.ok, rep.reasons
        assert 0.0 < rep.s_psi < math.inf

    def test_pure_log_rejected(self):
        # 1/psi(2^-k) ~ 1/k: the small-t dyadic tail is harmonic
        fn = lambda t: np.where(t < 1.0, np.log(math.e + 1.0 / t),
                                np.log(math.e + t))
        rep = check_bump(BumpSpec(psi_family="custom", psi_fn=fn))
        assert not rep.ok
        assert any("tail" in r or "diverg" in r for r in rep.reasons)

    def test_family_names_checked(self):
        # psi's "custom" needs its callable, phi has none, and neither has a JSON form
        for kwargs in ({"psi_family": "nonsense"}, {"phi_family": "log"},
                       {"psi_family": "custom"}, {"phi_family": "custom"}):
            with pytest.raises(DomainError):
                BumpSpec(**kwargs)
        data = BumpSpec().to_json_dict()
        assert BumpSpec.from_json_dict(data) == BumpSpec()
        data["psi"]["family"] = "custom"
        with pytest.raises(DomainError):
            BumpSpec.from_json_dict(data)

    def test_eps0_loglog_rejected(self):
        rep = check_bump(BumpSpec(psi_family="log_loglog", psi_eps=0.0))
        assert not rep.ok

    def test_ensure_raises(self):
        with pytest.raises(AdmissibilityError):
            ensure_admissible(BumpSpec(psi_family="log_power", psi_eps=0.0))

    def test_cache_not_fooled_by_a_reused_function_id(self):
        # a freed custom psi's id can be handed to the next function made;
        # the inadmissible spec must not inherit the admissible report
        base = BumpSpec()
        for _ in range(50):
            good = BumpSpec(psi_family="custom", psi_fn=lambda t: base.psi(t))
            ensure_admissible(good)
            del good
            bad = BumpSpec(psi_family="custom", psi_fn=lambda t: np.ones_like(t))
            with pytest.raises(AdmissibilityError):
                ensure_admissible(bad)

    def test_tail_sum_dominates_direct_partial_sum(self):
        rep = check_bump(BumpSpec())
        spec = BumpSpec()
        direct = sum(1.0 / min(spec.psi(2.0 ** k), spec.psi(2.0 ** (k + 1)))
                     for k in range(-40, 40))
        assert rep.s_psi >= direct - 1e-12


class TestYoung:
    def test_power_conjugate_closed_form(self):
        young = YoungSpec("power", 2.0, 0.0)
        for s in (0.25, 1.0, 3.0, 40.0):
            # conjugate of t^2 is s^2/4
            assert conjugate_at(young, s) == pytest.approx(s * s / 4.0, rel=1e-9)
            assert conjugate_at(young, s) == pytest.approx(
                oracles.brute_conjugate(lambda t: t ** 2, s), rel=1e-6)

    def test_conjugate_against_search_oracle(self):
        young = YoungSpec("power_over_log", 2.0, 1.0)
        A = young.A
        for s in (0.1, 1.0, 7.0, 300.0):
            ref = oracles.brute_conjugate(lambda t: float(A(float(t))), s)
            assert conjugate_at(young, s) == pytest.approx(ref, rel=1e-5, abs=1e-9)

    @given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_fenchel_young_inequality(self, s, t):
        young = YoungSpec("power_over_log", 2.0, 1.0)
        lhs = s * t
        rhs = float(young.A(t)) + conjugate_at(young, s)
        assert lhs <= rhs * (1.0 + 1e-8) + 1e-9

    def test_convexity_check_rejects_concave(self):
        bad = YoungSpec("power", 0.5, 0.0)
        with pytest.raises(AdmissibilityError):
            ensure_young(bad)

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            YoungSpec("custom")

    def test_ensure_young_caches_a_passing_verdict(self, monkeypatch):
        # the grid check runs once per spec that passes; one that fails is
        # checked and raises again on every call
        grid_checks, real_A = [], YoungSpec.A
        monkeypatch.setattr(YoungSpec, "A",
                            lambda self, t: grid_checks.append(self) or real_A(self, t))
        ensure_young.cache_clear()
        good, bad = YoungSpec("power_over_log", 2.5, 0.5), YoungSpec("power", 0.5, 0.0)
        for _ in range(3):
            ensure_young(good)
            with pytest.raises(AdmissibilityError, match="not above 1"):
                ensure_young(bad)
        assert grid_checks.count(good) == 1 and grid_checks.count(bad) == 3

    def test_json_keys(self):
        # missing q and eps keep their defaults; a key not in the spec is an error
        assert YoungSpec.from_json_dict({"family": "power_over_log"}) == \
            YoungSpec("power_over_log", 2.0, 1.0)
        for data in ({"family": "power", "Q": 3}, {"family": "power", "q": 2, "p": 2}):
            with pytest.raises(DomainError, match="unknown spec keys"):
                YoungSpec.from_json_dict(data)
        data = BumpSpec().to_json_dict()
        for outer, key in ((data, "chi"), (data["psi"], "epsilon"), (data["phi"], "q")):
            outer[key] = 1.0
            with pytest.raises(DomainError, match="unknown spec keys"):
                BumpSpec.from_json_dict(data)
            del outer[key]
        assert BumpSpec.from_json_dict(data) == BumpSpec()

    ELASTICITY_GAUGES = [YoungSpec("power", 1.5, 0.0), YoungSpec("power", 3.0, 0.0),
                         YoungSpec("power_over_log", 2.0, 1.0),
                         YoungSpec("power_over_log", 3.0, 0.5)]

    @pytest.mark.parametrize("young", ELASTICITY_GAUGES)
    def test_elasticity_matches_central_difference(self, young):
        # e = d log A / d log t against (log A(t e^h) - log A(t e^-h)) / 2h
        u, h = np.linspace(-30.0, 30.0, 241), 1e-4
        _, e = young.A_and_elasticity(np.exp(u))
        diff = (np.log(young.A(np.exp(u + h))) - np.log(young.A(np.exp(u - h)))) / (2 * h)
        assert e == pytest.approx(diff, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("young", ELASTICITY_GAUGES[2:])
    def test_conjugate_table_elasticity_matches_central_difference(self, young):
        # segment midpoints, away from the nodes, plus points below and above the grid
        table = ConjugateTable(young)
        ls, h = table.log_s, 1e-4
        u = np.concatenate([0.5 * (ls[:-1] + ls[1:]), [ls[0] - 5.0, ls[-1] + 5.0]])
        _, e = table.A_and_elasticity(np.exp(u))
        log_a = [np.log(table.A_and_elasticity(np.exp(u + d))[0]) for d in (h, -h)]
        diff = (log_a[0] - log_a[1]) / (2 * h)
        assert e == pytest.approx(diff, rel=1e-6, abs=1e-6)
        assert e[-2] == 0.0 and table.A_and_elasticity(0.0)[1] == 0.0

    def test_power_over_log_q2_accepted(self):
        ensure_young(YoungSpec("power_over_log", 2.0, 1.0))

    @pytest.mark.parametrize("family, q, eps, p, member", [
        # A(t) = t^q gives the integral 1/(p - q) for q < p, and diverges at q = p
        ("power", 1.9, 0.0, 2.0, True),
        ("power", 2.0, 0.0, 2.0, False),
        # close to q = p, where the integral converges or diverges slowly
        ("power_over_log", 1.5, 0.1, 1.5, True),
        ("power_over_log", 1.9, 0.1, 1.9, True),
        ("power_over_log", 1.95, 1.0, 1.9, False),
        ("power", 1.95, 1.0, 2.0, True),
        ("power", 1.99, 1.0, 2.0, True),
        ("power_over_log", 2.0, 0.1, 2.0, True),
        ("power", 1.95, 1.0, 2.01, True),
        ("power", 1.99, 1.0, 2.01, True),
        ("power", 2.0, 1.0, 2.01, True),
        # the analytic boundary: int_1^inf dt / (t log^{1+eps} t) is finite iff eps > 0
        ("power", 3.0, 1.0, 3.0, False),
        ("power_over_log", 2.0, 0.0, 2.0, False),
        ("power_over_log", 2.0, 1.0, 2.0, True),
        ("power", 2.01, 1.0, 2.0, False),
        ("power_over_log", 2.05, 1.0, 2.0, False),
    ])
    def test_bp_membership_exact(self, family, q, eps, p, member):
        assert YoungSpec(family, q, eps).in_bp(p) is member

    def test_conjugate_table_accuracy(self):
        young = YoungSpec("power_over_log", 2.0, 1.0)
        table = ConjugateTable(young)
        rng = np.random.default_rng(0)
        for s in np.exp(rng.uniform(math.log(1e-5), math.log(1e5), 100)):
            ref = conjugate_at(young, float(s))
            got = float(table.A_and_elasticity(np.array([s]))[0][0])
            if ref > 1e-10:
                assert got == pytest.approx(ref, rel=2e-2)

    def test_conjugate_table_matches_pointwise_search(self):
        # the table's one search over every grid point against
        # the search at each point on its own
        young = YoungSpec("power_over_log", 2.0, 1.0)
        table = ConjugateTable(young)
        ref = [conjugate_at(young, float(s)) for s in np.exp(table.log_s)]
        assert np.exp(table.log_v) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("family, q, eps", [
        ("power_over_log", 1.5, 0.1), ("power_over_log", 1.5, 1.0),
        ("power_over_log", 1.9, 1.0), ("power_over_log", 2.0, 1.0),
        ("power_over_log", 3.0, 1.0),
        ("power", 1.5, 0.0), ("power", 2.0, 0.0), ("power", 3.0, 0.0)])
    def test_conjugate_table_nodes_against_oracle(self, family, q, eps):
        # 39 nodes over |log s| <= 41, where the maximizing t reaches 2^142
        # at q = 1.5, against the multi-precision search over |log2 t| <= 200
        table = ConjugateTable(YoungSpec(family, q, eps))
        A = oracles.mp_young(family, q, eps)
        nodes = np.flatnonzero(np.abs(table.log_s) <= 41.0)[::13]
        ref = [oracles.brute_conjugate(A, float(s), lo=2.0 ** -200, hi=2.0 ** 200)
               for s in np.exp(table.log_s[nodes])]
        assert len(nodes) == 39
        assert np.exp(table.log_v[nodes]) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_conjugate_table_lookup_matches_interp(self):
        # direct segment lookup against np.interp (clamped below the grid)
        # plus the linear log-log extension above it, and e against the slope
        # of the segment np.searchsorted finds, for the default Young function
        # and the B_p-boundary ones of the parity set
        for young in (YoungSpec("power_over_log", 2.0, 1.0), YoungSpec("power", 1.49, 0.0),
                      YoungSpec("power_over_log", 1.5, 0.1),
                      YoungSpec("power_over_log", 3.05, 1.0)):
            table = ConjugateTable(young)
            ls, lv = table.log_s, table.log_v
            # arguments within 4 ulps of each node put log(s) on most nodes exactly
            near = [np.exp(ls)]
            for toward in (np.inf, 0.0):
                x = near[0]
                for _ in range(4):
                    x = np.nextafter(x, toward)
                    near.append(x)
            rng = np.random.default_rng(16)
            s = np.concatenate([np.exp(rng.uniform(ls[0] - 10.0, ls[-1] + 10.0, 4096)), *near])
            u = np.log(s)
            assert np.isin(ls, u).sum() > 500
            slopes = np.diff(lv) / np.diff(ls)
            ref = np.exp(np.where(u > ls[-1], lv[-1] + slopes[-1] * (u - ls[-1]),
                                  np.interp(u, ls, lv)))
            ref_e = np.concatenate([[0.0], slopes, slopes[-1:]])[np.searchsorted(ls, u, "right")]
            assert np.any(u < ls[0]) and np.any(u > ls[-1])
            A, e = table.A_and_elasticity(s)
            assert A == pytest.approx(ref, rel=1e-15, abs=0.0), young
            assert e == pytest.approx(ref_e, rel=1e-15, abs=0.0), young
            assert table.A_and_elasticity(0.0)[0] == 0.0

    def test_conjugate_table_lookup_at_inf(self):
        # s = inf lands on the padded copy of the top segment: Abar = inf at
        # the top slope; finite points read the same segments as the table
        # without that copy, bit for bit
        table = ConjugateTable(YoungSpec("power_over_log", 2.0, 1.0))
        A, e = table.A_and_elasticity(np.array([np.inf, 1.0]))
        assert A[0] == np.inf and e[0] == table._slope[-1] == table._slope[-2] > 0.0
        unpadded = copy.copy(table)
        for name in ("_node", "_value", "_slope"):
            setattr(unpadded, name, getattr(table, name)[:-1])
        rng = np.random.default_rng(3)
        ls = table.log_s
        s = np.concatenate([np.exp(rng.uniform(ls[0] - 10.0, ls[-1] + 10.0, 4096)),
                            np.exp(ls), [0.0, 1.0]])
        for got, want in zip(table.A_and_elasticity(s), unpadded.A_and_elasticity(s)):
            assert np.array_equal(got, want)
        assert np.array_equal(A[1:], table.A_and_elasticity(np.array([1.0]))[0])

    @pytest.mark.filterwarnings("error")
    def test_conjugate_table_lookup_at_nan(self):
        # nan's index cast reads segment 0 and gives Abar = nan, where it
        # raised IndexError, with no warning outside any errstate; the other
        # entries are read as on their own
        table = ConjugateTable(YoungSpec("power_over_log", 2.0, 1.0))
        s = np.array([np.nan, 1.0, 0.0, np.inf, np.nan])
        A, e = table.A_and_elasticity(s)
        assert np.isnan(A[[0, 4]]).all() and np.all(e[[0, 4]] == table._slope[0])
        for got, want in zip((A, e), table.A_and_elasticity(s[1:4])):
            assert np.array_equal(got[1:4], want)


class TestLuxemburg:
    def test_norm_of_one_is_one(self):
        # A(1) = 1 normalization makes the gauge of a constant exact
        young = YoungSpec("power_over_log", 2.0, 1.0)
        g = TreeGeometry(3)
        f = np.ones(8)
        assert cube_gauge(f, CubeId(0, 0), young, 3) == pytest.approx(1.0, rel=1e-10)

    def test_power_family_closed_form(self):
        young = YoungSpec("power", 2.0, 0.0)
        rng = np.random.default_rng(1)
        f = np.exp(rng.standard_normal(16))
        for cube in oracles.cube_ids(4):
            sub = f[cube.leaf_slice(4)]
            ref = float(np.mean(sub ** 2)) ** 0.5
            assert cube_gauge(f, cube, young, 4) == pytest.approx(ref, rel=1e-10)

    @given(st.floats(0.01, 100.0), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_positive_homogeneity(self, c, seed):
        young = YoungSpec("power_over_log", 2.0, 1.0)
        rng = np.random.default_rng(seed)
        f = np.exp(rng.standard_normal(8))
        root = CubeId(0, 0)
        a = cube_gauge(c * f, root, young, 3)
        b = c * cube_gauge(f, root, young, 3)
        assert a == pytest.approx(b, rel=1e-10)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_f(self, seed):
        young = YoungSpec("power_over_log", 2.0, 1.0)
        rng = np.random.default_rng(seed)
        f = np.exp(rng.standard_normal(8))
        g = f + np.abs(rng.standard_normal(8))
        root = CubeId(0, 0)
        assert cube_gauge(f, root, young, 3) <= \
            cube_gauge(g, root, young, 3) + 1e-12

    def test_matches_multiprecision_bisection(self):
        young = YoungSpec("power_over_log", 2.0, 1.0)
        rng = np.random.default_rng(4)
        f = np.exp(rng.standard_normal(8))
        A = young.A
        for cube in oracles.cube_ids(3):
            ref = oracles.brute_luxemburg(f, cube.level, cube.index, 3,
                                          lambda x: float(A(float(x))))
            assert cube_gauge(f, cube, young, 3) == pytest.approx(ref, rel=1e-10)

    def test_level_vectorization_agrees(self):
        young = YoungSpec("power_over_log", 2.0, 1.0)
        rng = np.random.default_rng(9)
        f = np.exp(rng.standard_normal(32))
        for level, row in enumerate(gauge_levels(f, young)):
            for j in range(1 << level):
                ref = cube_gauge(f, CubeId(level, j), young, 5)
                assert row[j] == pytest.approx(ref, rel=1e-10)

    GAUGES = [(YoungSpec("power", 1.5, 0.0), False), (YoungSpec("power", 2.0, 0.0), False),
              (YoungSpec("power", 3.0, 0.0), False),
              (YoungSpec("power_over_log", 2.0, 1.0), False),
              (YoungSpec("power_over_log", 2.0, 1.0), True)]

    @staticmethod
    def _gauge(young, conjugate):
        return _conjugate_table(young) if conjugate else young

    @classmethod
    def _A(cls, young, conjugate):
        return lambda x: cls._gauge(young, conjugate).A_and_elasticity(x)[0]

    class _Counted:
        """A gauge that counts its A_and_elasticity calls, and records the
        shape of each and its row width, which names the level it serves."""

        def __init__(self, gauge):
            self.gauge, self.calls, self.widths, self.shapes = gauge, 0, [], []
            self.q, self.inv_one = gauge.q, gauge.inv_one

        def A_and_elasticity(self, x):
            self.calls += 1
            self.widths.append(np.shape(x)[-1])
            self.shapes.append(np.shape(x))
            return self.gauge.A_and_elasticity(x)

    @staticmethod
    def _assert_certified(rows, lam, A):
        # mean A(row/lambda) crosses 1 inside [lambda(1-2e-12), lambda(1+2e-12)]
        for factor, above in ((1.0 - 2e-12, True), (1.0 + 2e-12, False)):
            means = np.mean(np.asarray(A(rows / (lam * factor)[:, None])), axis=1)
            assert np.all(means >= 1.0) if above else np.all(means <= 1.0)

    @pytest.mark.parametrize("young,conjugate", GAUGES)
    def test_certificate_on_every_cube(self, young, conjugate):
        # each cube's norm, from the pass over that cube's own leaves, is
        # certified and agrees with the cube's entry in the whole tree's pass
        A, gauge = self._A(young, conjugate), self._gauge(young, conjugate)
        rng = np.random.default_rng(12)
        for depth in range(8):
            f = np.exp(rng.normal(0.0, 1.5, 1 << depth))
            for level, lam in enumerate(gauge_levels(f, gauge)):
                alone = np.array([cube_gauge(f, CubeId(level, j), gauge, depth)
                                  for j in range(1 << level)])
                self._assert_certified(f.reshape(1 << level, -1), alone, A)
                np.testing.assert_allclose(lam, alone, rtol=2e-12, atol=0.0)

    @pytest.mark.parametrize("young,conjugate", GAUGES)
    def test_certificate_on_the_pyramid_path(self, young, conjugate):
        # every level of the leaves-up pass is certified
        A, gauge = self._A(young, conjugate), self._gauge(young, conjugate)
        rng = np.random.default_rng(12)
        spike = np.full(1 << 8, 1e-12)
        spike[[3, 77, 200]] = 1.0
        wide = np.geomspace(1e-150, 1e150, 1 << 8)
        rng.shuffle(wide)
        inputs = [np.exp(rng.normal(0.0, 1.5, 1 << depth)) for depth in range(13)]
        for f in inputs + [spike, wide]:
            for level, lam in enumerate(gauge_levels(f, gauge)):
                self._assert_certified(f.reshape(1 << level, -1), lam, A)

    def test_zero_children_close_at_zero(self):
        young = YoungSpec("power_over_log", 2.0, 1.0)
        f = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 3.0, 1.0])
        levels = gauge_levels(f, young)
        assert np.array_equal(levels[3], f)
        for level in (2, 1, 0):
            lam = levels[level]
            assert lam[0] == 0.0 if level > 0 else lam[0] > 0.0
            self._assert_certified(f.reshape(1 << level, -1)[lam > 0.0], lam[lam > 0.0], young.A)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_power_closed_form_at_depth_10(self, q):
        young = YoungSpec("power", q, 0.0)
        f = np.exp(np.random.default_rng(13).normal(0.0, 1.5, 1 << 10))
        for level, got in enumerate(gauge_levels(f, young)):
            ref = np.mean(f.reshape(1 << level, -1) ** q, axis=1) ** (1.0 / q)
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("young", [YoungSpec("power", 1.5, 0.0), YoungSpec("power", 3.0, 0.0),
                                       YoungSpec("power_over_log", 2.0, 1.0)])
    def test_leaves_in_closed_form(self, young):
        # a leaf's norm is |f| / A^-1(1), with no width-1 call of A: |f|
        # itself for a YoungSpec (A(1) = 1), certified for the conjugate
        # table, and 0 at a zero leaf
        f = np.exp(np.random.default_rng(18).normal(0.0, 1.5, 1 << 8))
        f[[5, 6, 7, 100]] = 0.0
        live = f > 0.0
        for conjugate in (False, True):
            gauge = self._Counted(self._gauge(young, conjugate))
            leaves = gauge_levels(f, gauge)[8]
            assert gauge.calls > 0 and 1 not in gauge.widths
            assert np.all(leaves[~live] == 0.0)
            if conjugate:
                self._assert_certified(f[live, None], leaves[live], self._A(young, True))
            else:
                assert np.array_equal(leaves, f)

    def test_evaluation_count_on_the_pyramid_path(self):
        # li and lacey gauges at p 1.5/2/3, each in one leaves-up pass: a
        # mean of 3.58 calls per level (none at the leaves), 5 at most
        young = YoungSpec("power_over_log", 2.0, 1.0)
        sigma = np.exp(np.random.default_rng(14).normal(0.0, 1.5, 1 << 12))
        counts = []
        for p in (1.5, 2.0, 3.0):
            for f, conjugate in ((sigma ** (1.0 / p), False), (sigma ** (1.0 - 1.0 / p), True)):
                gauge = self._Counted(self._gauge(young, conjugate))
                gauge_levels(f, gauge)
                counts += [gauge.widths.count(1 << (12 - level)) for level in range(13)]
        assert np.mean(counts) <= 3.8 and max(counts) <= 5

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_power_pyramid_call_count(self, q):
        # lambda^q of a parent is the mean of its children's: the start is
        # the root, so one call sees the step vanish and one pair certifies
        sigma = np.exp(np.random.default_rng(17).normal(0.0, 1.5, 1 << 12))
        gauge = self._Counted(YoungSpec("power", q, 0.0))
        gauge_levels(sigma, gauge)
        assert gauge.widths.count(1) == 0  # the leaves are |f| in closed form
        for level in range(12):
            assert gauge.widths.count(1 << (12 - level)) <= 2

    def test_iteration_cap_raises(self, monkeypatch):
        # a tolerance of 0 can never be met: the cap raises, not a silent
        # bracket, after 200 calls of A in all on the level that fails (the
        # first above the leaves, of width 2), not 200 per phase
        monkeypatch.setattr(bumps, "GAUGE_REL_TOL", 0.0)
        f = np.exp(np.random.default_rng(16).standard_normal(8))
        gauge = self._Counted(YoungSpec("power_over_log", 2.0, 1.0))
        with pytest.raises(NumericError):
            _luxemburg_norms(f, gauge)
        assert gauge.calls == gauge.widths.count(2) == 200

    def test_pair_that_closes_some_rows(self, monkeypatch):
        # at tol = 3e-15 some closing pairs close only part of a level: the
        # other rows go back to phase 1 by themselves (calls of A on fewer
        # rows than their level has) and still close, certified
        monkeypatch.setattr(bumps, "GAUGE_REL_TOL", 3e-15)
        young, shapes = YoungSpec("power_over_log", 2.0, 1.0), []
        for seed in range(10):
            f = np.exp(np.random.default_rng(seed).normal(0.0, 1.5, 1 << 8))
            for conjugate in (False, True):
                gauge = self._Counted(self._gauge(young, conjugate))
                for level, lam in enumerate(gauge_levels(f, gauge)):
                    self._assert_certified(f.reshape(1 << level, -1), lam,
                                           self._A(young, conjugate))
                shapes += gauge.shapes
        assert any(shape[-2] < (1 << 8) // shape[-1] for shape in shapes)

    @pytest.mark.parametrize("young,conjugate", GAUGES)
    def test_extreme_inputs(self, young, conjugate):
        A = self._A(young, conjugate)
        spike = np.full(1 << 8, 1e-12)
        spike[[3, 77, 200]] = 1.0
        wide = np.geomspace(1e-150, 1e150, 1 << 8)
        np.random.default_rng(15).shuffle(wide)
        for f in (spike, wide):
            for level, lam in enumerate(gauge_levels(f, self._gauge(young, conjugate))):
                assert np.all(np.isfinite(lam)) and np.all(lam > 0.0)
                self._assert_certified(f.reshape(1 << level, -1), lam, A)

    def test_bisection_safeguard_certified(self):
        # the conjugate of power_over_log at q = 1.5, which ensure_young
        # rejects (so only a table built directly holds it): on these leaves
        # Newton steps leave the bracket at every level above the leaves, the
        # bisection safeguard brings them back, and every level is certified
        young = YoungSpec("power_over_log", 1.5, 1.0)
        f = np.exp(3.0 * np.random.default_rng(0).standard_normal(16))
        table = ConjugateTable(young)
        for level, lam in enumerate(gauge_levels(f, table)):
            self._assert_certified(f.reshape(1 << level, -1), lam,
                                   lambda x: table.A_and_elasticity(x)[0])

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_zero_leaves_give_zero_norms(self, conjugate):
        # no level has an open row, so each returns zeros without calling A
        gauge = self._Counted(self._gauge(YoungSpec("power_over_log", 2.0, 1.0), conjugate))
        norms = _luxemburg_norms(np.zeros(16), gauge)
        assert norms.shape == (31,) and not norms.any() and gauge.calls == 0

    def test_non_finite_leaves_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError):
                _luxemburg_norms(np.array([1.0, bad]), YoungSpec())


class TestApNuConstants:
    def test_flat_pair_is_one(self):
        inst = make_instance(3, np.ones(8), np.ones(8), 2.0)
        assert ap_constant(inst.pair, "all") == pytest.approx(1.0)
        spec = BumpSpec()
        assert nu_constant(inst.pair, spec, "all") == pytest.approx(
            spec.psi(1.0), rel=1e-14)

    def test_instance_a_ap(self, instance_a):
        assert ap_constant(instance_a.pair, "all") == pytest.approx(4.0, rel=1e-12)

    def test_instance_a_nu_against_enumeration(self, instance_a):
        spec = BumpSpec()
        pair = instance_a.pair
        best = 0.0
        for level, index in oracles.all_cubes(2):
            s = oracles.brute_average(pair.sigma_leaves, level, index, 2)
            w = oracles.brute_average(pair.w_leaves, level, index, 2)
            best = max(best, w * s * float(oracles.mp_nu(2.0, s)))
        assert nu_constant(pair, spec, "all") == pytest.approx(best, rel=1e-12)
        # the sup sits at the sigma-spike leaf: 4 * ln^2(e + 4)
        assert best == pytest.approx(4.0 * math.log(math.e + 4.0) ** 2, rel=1e-12)

    def test_nu_dominates_ap_times_min_bump(self, instance_a):
        spec = BumpSpec()
        pair = instance_a.pair
        mins = min(float(spec.nu_p(2.0, pair.sigma_avgs[l][j]))
                   for l, j in oracles.all_cubes(2))
        assert nu_constant(pair, spec, "all") >= ap_constant(pair, "all") * mins - 1e-12

    def test_ap_scaling(self, instance_a):
        pair = instance_a.pair
        g = pair.geometry
        for c in (1e-6, 1e6):
            scaled = WeightPair(g, pair.w_leaves, c * pair.sigma_leaves, 2.0)
            assert ap_constant(scaled, "all") == pytest.approx(
                c * ap_constant(pair, "all"), rel=1e-12)


class TestMaximalAndEntropy:
    def test_dyadic_maximal_matches_brute(self):
        # row l of the running-max table is the maximal function down from
        # level l on every level-l cube; row 0 is M_d
        rng = np.random.default_rng(2)
        sigma = np.exp(rng.standard_normal(16))
        table = ancestor_table(_avg_pyramid(sigma, 4), 4, np.maximum)
        assert np.array_equal(dyadic_maximal(sigma, 4), table[0])
        for cube in oracles.cube_ids(4):
            ref = oracles.brute_dyadic_maximal(sigma, cube.level, cube.index, 4)
            got = table[cube.level, cube.leaf_slice(4)]
            assert np.allclose(got, ref, rtol=1e-12)

    def test_dyadic_maximal_rejects_bad_length_or_shape(self):
        # a leaf vector of another length or shape
        for f in (np.ones(8), np.ones(17), np.ones((4, 4))):
            with pytest.raises(DomainError):
                dyadic_maximal(f, 4)

    def test_instance_a_entropy_lambda_root(self, instance_a):
        g = instance_a.pair.geometry
        lam = entropy_lambdas(instance_a.pair)[CubeId(0, 0).flat_index]
        assert lam == pytest.approx(10.0 / 7.0, rel=1e-12)

    def test_entropy_lambda_at_least_one(self):
        for inst in random_corpus(60, seed=13, depths=(2, 3, 4, 5)):
            for lam in entropy_lambdas(inst.pair, "all"):
                assert lam >= 1.0 - 1e-12

    def test_entropy_lambda_table_matches_per_cube(self):
        spike = np.full(32, 1e-12)
        spike[3:7] = 8.0
        pairs = [inst.pair for inst in random_corpus(10, seed=17, depths=(0, 2, 3, 5))]
        pairs.append(WeightPair(TreeGeometry(5), np.ones(32), spike, 2.0))
        for pair in pairs:
            cubes = oracles.cube_ids(pair.geometry.depth)
            for cube, lam in zip(cubes, entropy_lambdas(pair, "all")):
                # lambda_Q reads sigma inside Q only: the root of Q's own subtree
                sub = pair.sigma_leaves[cube.leaf_slice(pair.geometry.depth)]
                ref = entropy_lambdas(WeightPair(TreeGeometry(pair.geometry.depth - cube.level),
                                                 sub, sub, 2.0))[0]
                assert lam == pytest.approx(ref, rel=1e-13)

    def test_entropy_lambdas_match_brute_force(self):
        # int_Q M(sigma chi_Q) / sigma(Q) from the brute-force maximal
        # function and leaf sums, on every cube at depths 0-5
        spike = np.full(32, 1e-12)
        spike[3:7] = 8.0
        pairs = [inst.pair for inst in random_corpus(12, seed=29, depths=(0, 1, 2, 3, 4, 5))]
        pairs.append(WeightPair(TreeGeometry(5), np.ones(32), spike, 2.0))
        for pair in pairs:
            depth, sigma = pair.geometry.depth, list(pair.sigma_leaves)
            cubes = oracles.cube_ids(pair.geometry.depth)
            for cube, lam in zip(cubes, entropy_lambdas(pair, "all")):
                m = oracles.brute_dyadic_maximal(sigma, cube.level, cube.index, depth)
                ref = math.fsum(m) * 2.0 ** -depth \
                    / oracles.brute_mass(sigma, cube.level, cube.index, depth)
                assert lam == pytest.approx(ref, rel=1e-13)

    def test_entropy_lambda_scale_invariant(self):
        rng = np.random.default_rng(21)
        g = TreeGeometry(4)
        sigma = np.exp(rng.standard_normal(16))
        for cube in [CubeId(0, 0), CubeId(2, 1), CubeId(4, 7)]:
            a, b = (entropy_lambdas(WeightPair(g, s, s, 2.0))[cube.flat_index]
                    for s in (sigma, 100.0 * sigma))
            assert a == pytest.approx(b, rel=1e-14)

    def test_entropy_lambda_rejects_cube_outside_tree(self):
        g = TreeGeometry(4)
        for cube in (CubeId(1, 5), CubeId(5, 0)):
            with pytest.raises(DomainError):
                entropy_lambda(np.ones(16), cube, g)

    def test_entropy_lambda_rejects_sigma_not_positive_and_finite(self):
        g = TreeGeometry(2)
        for sigma in ([1.0, 0.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0],
                      [1.0, np.nan, 1.0, 1.0], np.ones(8)):
            with pytest.raises(DomainError):
                entropy_lambdas(WeightPair(g, sigma, sigma, 2.0))

    def test_entropy_flat_pair(self):
        inst = make_instance(3, np.ones(8), np.ones(8), 2.0)
        spec = BumpSpec()
        assert entropy_constant(inst.pair, spec, "all") == pytest.approx(
            spec.phi(1.0), rel=1e-12)

    def test_entropy_pointwise_lower_bound(self):
        spec = BumpSpec()
        for inst in random_corpus(20, seed=5, depths=(3, 4)):
            pair = inst.pair
            val = entropy_constant(pair, spec, "all")
            p = pair.p
            for l, j in oracles.all_cubes(pair.geometry.depth):
                c = CubeId(l, j)
                lower = pair.w_avg_flat[c.flat_index] ** (1.0 / p) \
                    * pair.sigma_avg_flat[c.flat_index] ** (1.0 - 1.0 / p) * spec.phi(1.0)
                assert val >= lower - 1e-9

    def test_maximal_bound_instance_a(self, instance_a):
        spec = BumpSpec()
        # max over the 7 cubes of (sigma_Q ln^2(e + sigma_Q))^{1/2} at sigma_Q = 4
        assert maximal_bound_constant(instance_a.pair, spec, "all") == \
            pytest.approx(2.0 * math.log(math.e + 4.0), rel=1e-12)

    def test_maximal_bound_pth_power_identity(self):
        spec = BumpSpec()
        rng = np.random.default_rng(8)
        g = TreeGeometry(4)
        sigma = np.exp(np.abs(rng.standard_normal(16)))  # all averages >= 1
        pair = WeightPair(g, np.ones(16), sigma, 2.0)
        nb = maximal_bound_constant(pair, spec, "all")
        assert nb ** 2 == pytest.approx(nu_constant(pair, spec, "all"), rel=1e-10)


class TestOrliczConstants:
    YOUNG = bumps.DEFAULT_YOUNG

    def test_li_against_brute_oracle(self, instance_a):
        spec = BumpSpec()
        pair = instance_a.pair
        A = self.YOUNG.A
        p = 2.0
        froot = pair.sigma_leaves ** 0.5
        best = 0.0
        for level, index in oracles.all_cubes(2):
            w = oracles.brute_average(pair.w_leaves, level, index, 2)
            s = oracles.brute_average(pair.sigma_leaves, level, index, 2)
            norm = oracles.brute_luxemburg(froot, level, index, 2,
                                           lambda x: float(A(float(x))))
            lam = s / norm ** p
            best = max(best, w ** 0.5 * (s / norm)
                       * float(oracles.mp_phi(max(lam, 1.0))) ** 0.5)
        val, table = orlicz_li_constant(pair, self.YOUNG, spec, "all")
        assert val == pytest.approx(best, rel=1e-9)

    def test_lacey_against_brute_oracle(self, instance_a):
        spec = BumpSpec()
        pair = instance_a.pair
        p = 2.0
        fdual = pair.sigma_leaves ** 0.5
        Abar = lambda x: oracles.brute_conjugate(
            lambda t: float(self.YOUNG.A(float(t))), float(x))
        best = 0.0
        for level, index in oracles.all_cubes(2):
            w = oracles.brute_average(pair.w_leaves, level, index, 2)
            s = oracles.brute_average(pair.sigma_leaves, level, index, 2)
            norm = oracles.brute_luxemburg(fdual, level, index, 2, Abar, tol=1e-10)
            lam = norm ** p / s
            best = max(best, w ** 0.5 * norm
                       * float(oracles.mp_phi(max(lam, 1.0))) ** 0.5)
        val, _ = orlicz_lacey_constant(pair, self.YOUNG, spec, "all")
        # tabulated conjugate carries grid-interpolation error
        assert val == pytest.approx(best, rel=2e-2)

    def test_generalized_holder(self):
        # sigma_Q <= 2 ||sigma^{1/p}||_A ||sigma^{1/p'}||_Abar on random pairs
        abar = _conjugate_table(self.YOUNG)
        count = 0
        for inst in random_corpus(1000, seed=77, depths=(2, 3, 4, 5, 6)):
            pair = inst.pair
            p, depth = pair.p, pair.geometry.depth
            na = gauge_levels(pair.sigma_leaves ** (1.0 / p), self.YOUNG)
            nb = gauge_levels(pair.sigma_leaves ** (1.0 - 1.0 / p), abar)
            for level in (0, depth // 2):
                s = pair.sigma_avgs[level]
                assert np.all(s <= 2.0 * na[level] * nb[level] * (1.0 + 1e-9))
                count += len(s)
        assert count >= 1000

    def test_li_lambda_table_scale_invariant(self, instance_a):
        spec = BumpSpec()
        pair = instance_a.pair
        _, table = orlicz_li_constant(pair, self.YOUNG, spec, "all")
        scaled = WeightPair(pair.geometry, pair.w_leaves,
                            100.0 * pair.sigma_leaves, 2.0)
        _, table2 = orlicz_li_constant(scaled, self.YOUNG, spec, "all")
        assert table2 == pytest.approx(table, rel=1e-10)

    def test_nu_lambda_table_not_scale_invariant(self, instance_a):
        spec = BumpSpec()
        pair = instance_a.pair
        t1 = nu_lambdas(pair, spec, "all")
        scaled = WeightPair(pair.geometry, pair.w_leaves,
                            100.0 * pair.sigma_leaves, 2.0)
        t2 = nu_lambdas(scaled, spec, "all")
        assert any(abs(a - b) > 1e-6 for a, b in zip(t1, t2))

    def test_sepcon_flat_pair(self):
        inst = make_instance(3, np.ones(8), np.ones(8), 2.0)
        # ||1||_Abar is a fixed positive number; w_Q = 1 for all Q
        val = sepcon_constant(inst.pair, self.YOUNG, "all")
        assert val > 0.0
        froot = np.ones(8)
        ref = cube_gauge(froot, CubeId(0, 0), _conjugate_table(self.YOUNG), 3)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_family_constants_restrict_the_all_table(self):
        # Lacey's lambda lies below 1 (at a leaf it is Abar^-1(1)^-p, ~0.14 at
        # p = 3), where phi is extended by phi(1): not a rounding guard
        spec = BumpSpec()
        abar = _conjugate_table(self.YOUNG)
        corpus = random_corpus(8, seed=31, depths=(2, 3, 4, 5), ps=(2.0, 3.0))
        corpus.append(random_instance(SearchConfig(depth=6, dist="lognormal"), 3.0))
        for inst in corpus:
            pair, S = inst.pair, inst.family
            p, pd = pair.p, pair.p_dual
            lux = gauge_levels(pair.sigma_leaves ** (1.0 / p), self.YOUNG)
            lux_bar = gauge_levels(pair.sigma_leaves ** (1.0 / pd), abar)
            phi = lambda lam: float(spec.phi(max(lam, 1.0))) ** (1.0 / pd)
            li, lacey, sep = [], [], []
            for c in S.cubes:
                w, s = pair.w_avg_flat[c.flat_index], pair.sigma_avg_flat[c.flat_index]
                n, nb = lux[c.level][c.index], lux_bar[c.level][c.index]
                li.append(w ** (1.0 / p) * (s / n) * phi(s / n ** p))
                lacey.append(w ** (1.0 / p) * nb * phi(nb ** p / s ** (p - 1.0)))
                sep.append(w ** (1.0 / p) * nb)
            for fn, terms in ((orlicz_li_constant, li), (orlicz_lacey_constant, lacey)):
                _, table_all = fn(pair, self.YOUNG, spec, "all")
                value, table = fn(pair, self.YOUNG, spec, S)
                assert np.array_equal(table, table_all[S.flat_mask])
                assert value == pytest.approx(max(terms), rel=1e-14)
            assert (orlicz_lacey_constant(pair, self.YOUNG, spec, "all")[1] < 1.0).any()
            assert sepcon_constant(pair, self.YOUNG, S) == pytest.approx(max(sep), rel=1e-12)

    def test_refinement_to_depth_12(self):
        # splitting every leaf of a depth-6 instance into 64 equal leaves
        # changes no gauge: levels 0-6 agree, and below level 6 every cube
        # is constant, so its gauge is its depth-6 ancestor's
        spec = BumpSpec()
        for inst in random_corpus(6, seed=41, depths=(6,), ps=(2.0, 3.0)):
            pair = inst.pair
            fine = WeightPair(TreeGeometry(12), oracles.refine(pair.w_leaves, 6),
                              oracles.refine(pair.sigma_leaves, 6), pair.p)
            for fn in (orlicz_li_constant, orlicz_lacey_constant):
                assert fn(fine, self.YOUNG, spec)[0] == pytest.approx(
                    fn(pair, self.YOUNG, spec)[0], rel=1e-12, abs=0.0)
            assert sepcon_constant(fine, self.YOUNG) == pytest.approx(
                sepcon_constant(pair, self.YOUNG), rel=1e-12, abs=0.0)
            for power, gauge in ((1.0 / pair.p, self.YOUNG),
                                 (1.0 / pair.p_dual, _conjugate_table(self.YOUNG))):
                coarse = _luxemburg_norms(pair.sigma_leaves ** power, gauge)
                levels = gauge_levels(fine.sigma_leaves ** power, gauge)
                np.testing.assert_allclose(np.concatenate(levels[:7]), coarse,
                                           rtol=2e-12, atol=0.0)
                for level in range(7, 13):
                    ancestor = np.repeat(levels[6], 1 << (level - 6))
                    np.testing.assert_allclose(levels[level], ancestor, rtol=2e-12, atol=0.0)

    @pytest.mark.parametrize("p, young", [(1.5, YoungSpec("power_over_log", 1.5, 0.1)),
                                          (3.0, bumps.DEFAULT_YOUNG)])
    def test_reflection_at_depth_12(self, p, young):
        # mirroring the leaves of a depth-12 pair mirrors both gauges' flat
        # buffers, and leaves every gauge-based constant as it was over all
        # cubes and over the mirrored stopping-time family
        spec = BumpSpec()
        inst = random_instance(SearchConfig(depth=12, strategy="stopping_time",
                                            dist="lognormal", seed=12), p)
        pair, S = inst.pair, inst.family
        mirror = WeightPair(pair.geometry, pair.w_leaves[::-1], pair.sigma_leaves[::-1], p)
        mirror_S = SparseFamily(oracles.reflect(S.flat_mask))
        assert 1 < len(S.cubes) < S.flat_mask.size
        for power, gauge in ((1.0 / p, young), (1.0 / pair.p_dual, _conjugate_table(young))):
            np.testing.assert_allclose(_luxemburg_norms(mirror.sigma_leaves ** power, gauge),
                                       oracles.reflect(_luxemburg_norms(
                                           pair.sigma_leaves ** power, gauge)),
                                       rtol=2e-12, atol=0.0)
        for cubes, mirror_cubes in (("all", "all"), (S, mirror_S)):
            for fn in (orlicz_li_constant, orlicz_lacey_constant):
                assert fn(mirror, young, spec, mirror_cubes)[0] == pytest.approx(
                    fn(pair, young, spec, cubes)[0], rel=1e-12, abs=0.0)
            assert sepcon_constant(mirror, young, mirror_cubes) == pytest.approx(
                sepcon_constant(pair, young, cubes), rel=1e-12, abs=0.0)

    def test_prop31_clamps_lambda_in_both_factors(self):
        spec = BumpSpec()
        inst = random_instance(SearchConfig(depth=6, dist="lognormal"), 3.0)
        pair, S = inst.pair, inst.family
        p, pd = pair.p, pair.p_dual
        w, s = _select(pair.w_avg_flat, S), _select(pair.sigma_avg_flat, S)
        tc = testing_constant(pair, S)[0]
        for lam in (nu_lambdas(pair, spec, S),
                    orlicz_lacey_constant(pair, self.YOUNG, spec, S)[1]):
            up = np.maximum(lam, 1.0)
            want = float((w ** (1.0 / p) * s ** (1.0 / pd) * up ** (1.0 / p)
                          * spec.phi(up) ** (1.0 / pd)).max())
            assert prop31_bound(pair, S, lam, spec, tc).rhs == want

    def test_li_requires_bp(self, instance_a):
        spec = BumpSpec()
        with pytest.raises(AdmissibilityError):
            orlicz_li_constant(instance_a.pair, YoungSpec("power", 2.0, 0.0),
                               spec, "all")

    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_library_paths_certify_the_young_function(self, instance_a, q):
        # q = 1 (no conjugate growth exponent) and q = 0.5 (concave): each
        # Young-function path raises AdmissibilityError, not a
        # ZeroDivisionError or a silent value
        pair, spec, young = instance_a.pair, BumpSpec(), YoungSpec("power", q)
        for run in (lambda: orlicz_li_constant(pair, young, spec),
                    lambda: orlicz_lacey_constant(pair, young, spec),
                    lambda: sepcon_constant(pair, young),
                    lambda: anneal(Objective("conjecture_sepcon", young=young),
                                   SearchConfig(depth=2, steps=2))):
            with pytest.raises(AdmissibilityError, match="inadmissible Young function"):
                run()

