"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (outside pytest's capture) so a
plain `pytest -v` run shows the per-criterion verdicts.  Tolerances are
pinned in the asserts; report-only quantities are printed, not asserted.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from conftest import cli_env, level_arrays, make_instance, random_corpus
from sparsebump import (CubeId, TreeGeometry, WeightPair,
                        carleson_embedding_ratio, testing_constant)
from sparsebump.bumps import (BumpSpec, YoungSpec, ap_constant, check_bump,
                              entropy_lambda, entropy_lambdas, nu_lambdas,
                              orlicz_li_constant)
from sparsebump.search import Objective, SearchConfig, sweep_results
from sparsebump.testing import (cov_bracket_report, cov_sides, hytonen_ratio,
                                operator_norm_lower, operator_norm_p2,
                                prop32_check, prop33_check, realized_levels,
                                sawyer_sum_bound)

ROOT = CubeId(0, 0)


def announce(capsys, num, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {verdict} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_reference_instance_regression(instance_a, capsys):
    start = time.perf_counter()
    pair, fam = instance_a.pair, instance_a.family
    tc, argmax = testing_constant(pair, fam)
    ap = ap_constant(pair, "all")
    lam = entropy_lambda(pair.sigma_leaves, ROOT, pair.geometry)
    lhs, rhs = cov_sides(fam, pair.sigma_avgs, pair.w_leaves, 2.0, pair.geometry)
    hyt = hytonen_ratio(fam, pair, ROOT).ratio
    elapsed = time.perf_counter() - start
    ok = (abs(tc - math.sqrt(23.0625 / 1.75)) <= 1e-9 * tc
          and abs(ap - 4.0) <= 1e-9 * 4.0
          and abs(lam - 10.0 / 7.0) <= 1e-9 * lam
          and abs(lhs ** 2 - 23.0625) <= 1e-9 * 23.0625
          and abs(rhs ** 2 - 16.625) <= 1e-9 * 16.625
          and abs(hyt - 1.44140625) <= 1e-9 * hyt
          and argmax == ROOT
          and elapsed < 1.0)
    announce(capsys, 1, ok,
             f"reference instance regression at 1e-9 ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_tracked_lemma_suite(capsys):
    spec = BumpSpec()
    start = time.perf_counter()
    violations = 0
    checked = 0
    for inst in random_corpus(1000, seed=101):
        pair, fam = inst.pair, inst.family
        cubes = fam.sorted_cubes()
        targets = [cubes[0], cubes[len(cubes) // 2]]
        levels = realized_levels(fam, pair)
        for R in targets:
            for k in levels[:4]:
                rep = prop32_check(fam, pair, R, k)
                checked += 1
                violations += not rep.passed
            rep = prop33_check(fam, pair, spec, R)
            checked += 1
            violations += not rep.passed
            rep = sawyer_sum_bound(pair, fam, spec, R)
            checked += 1
            violations += not rep.passed
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120.0
    announce(capsys, 2, ok,
             f"{checked} tracked-constant checks, {violations} violations "
             f"({elapsed:.1f} s)")


def test_criterion_3_cov_bracket(capsys):
    rng = np.random.default_rng(555)
    violations = 0
    for inst in random_corpus(1000, seed=202, ps=(2.0,), depths=(2, 3, 4, 5, 6, 7)):
        fam = inst.pair  # alias for brevity below
        a = {q: float(np.abs(rng.standard_normal()) + 0.01)
             for q in inst.family.cubes}
        rep = cov_bracket_report(inst.family, level_arrays(a, inst.pair.geometry.depth),
                                 inst.pair.w_leaves, 2.0, inst.pair.geometry)
        violations += not rep.passed
    ratios = []
    for inst in random_corpus(200, seed=203, ps=(1.5, 3.0), depths=(2, 3, 4, 5)):
        a = {q: float(np.abs(rng.standard_normal()) + 0.01)
             for q in inst.family.cubes}
        lhs, rhs = cov_sides(inst.family, level_arrays(a, inst.pair.geometry.depth),
                             inst.pair.w_leaves, inst.pair.p, inst.pair.geometry)
        ratios.append(lhs / rhs)
    ok = violations == 0
    announce(capsys, 3, ok,
             f"p=2 bracket violations: {violations}/1000; "
             f"p in {{1.5, 3}} two-sided ratio range "
             f"[{min(ratios):.4f}, {max(ratios):.4f}] (reported, not asserted)")


def test_criterion_4_homogeneity_laws(capsys):
    spec = BumpSpec()
    ok = True
    for p in (1.5, 2.0, 3.0):
        # the Orlicz gauge needs a Young function integrable for this p
        young = YoungSpec("power_over_log", min(2.0, p), 1.0)
        inst = make_instance(4, *_random_pair(4, seed=17), p)
        pair, fam = inst.pair, inst.family
        g = pair.geometry
        base_tc, _ = testing_constant(pair, fam)
        base_ap = ap_constant(pair, "all")
        for c in (1e-6, 1e6):
            s_pair = WeightPair(g, pair.w_leaves, c * pair.sigma_leaves, p)
            w_pair = WeightPair(g, c * pair.w_leaves, pair.sigma_leaves, p)
            tc_s, _ = testing_constant(s_pair, fam)
            tc_w, _ = testing_constant(w_pair, fam)
            ok &= abs(tc_s - c ** (1.0 - 1.0 / p) * base_tc) <= 1e-10 * tc_s
            ok &= abs(tc_w - c ** (1.0 / p) * base_tc) <= 1e-10 * tc_w
            ok &= abs(ap_constant(s_pair, "all") - c ** (p - 1.0) * base_ap) \
                <= 1e-10 * ap_constant(s_pair, "all")
            ok &= abs(ap_constant(w_pair, "all") - c * base_ap) \
                <= 1e-10 * ap_constant(w_pair, "all")
        # lambda tables: Orlicz and entropy invariant, nu-bump not
        scaled = WeightPair(g, pair.w_leaves, 100.0 * pair.sigma_leaves, p)
        _, li1 = orlicz_li_constant(pair, young, spec, fam)
        _, li2 = orlicz_li_constant(scaled, young, spec, fam)
        ok &= bool(np.all(np.abs(li2 - li1) <= 1e-10 * np.abs(li1)))
        e1 = entropy_lambdas(pair, fam)
        e2 = entropy_lambdas(scaled, fam)
        ok &= bool(np.all(np.abs(e2 - e1) <= 1e-10 * np.abs(e1)))
        n1 = nu_lambdas(pair, spec, fam)
        n2 = nu_lambdas(scaled, spec, fam)
        ok &= bool(np.any(np.abs(n2 - n1) > 1e-6))
    announce(capsys, 4, ok, "exact scaling laws at 1e-10, "
             "nu-bump lambda table verified non-invariant")


def _random_pair(depth, seed):
    rng = np.random.default_rng(seed)
    n = 1 << depth
    return np.exp(rng.standard_normal(n)), np.exp(1.5 * rng.standard_normal(n))


def test_criterion_5_operator_norm_consistency(capsys):
    worst_dense = 0.0
    lower_ok = True
    testing_ok = True
    for inst in random_corpus(100, seed=303, ps=(2.0,), depths=(2, 3, 4, 5, 6)):
        pair, fam = inst.pair, inst.family
        norm = operator_norm_p2(fam, pair)
        dense = float(np.linalg.svd(oracles.dense_operator(
            pair.geometry.depth, fam.masks, pair.w_leaves, pair.sigma_leaves, 2.0),
            compute_uv=False)[0])
        worst_dense = max(worst_dense, abs(norm - dense) / dense)
        lower = operator_norm_lower(fam, pair, budget=6, seed=0)
        lower_ok &= lower <= norm + 1e-9
        t1, _ = testing_constant(pair, fam)
        t2, _ = testing_constant(pair.swapped(), fam)
        testing_ok &= max(t1, t2) <= norm + 1e-9
    ok = worst_dense <= 1e-6 and lower_ok and testing_ok
    announce(capsys, 5, ok,
             f"power iteration vs dense eigensolve max rel err {worst_dense:.2e}; "
             "lower bounds and testing constants below the norm")


def test_criterion_6_depth_sweep_boundedness(tmp_path, capsys):
    header = "p,depth,best_ratio,evaluations,seconds"
    lines = [header]
    ok = True
    growths = []
    for p in (1.5, 2.0, 3.0):
        obj = Objective("main_theorem", p=p)
        cfg = SearchConfig(depth=4, steps=10_000, seed=606)
        rows = sweep_results(obj, cfg, depths=(4, 5, 6, 7, 8))[0]
        for depth, ratio, evals, seconds in rows:
            assert evals >= 10_000
            lines.append(f"{p:g},{depth},{ratio:.17g},{evals},{seconds:.17g}")
        growth = rows[-1][1] / rows[0][1] - 1.0
        growths.append((p, growth))
        ok &= growth < 0.25
    table = tmp_path / "theorem_sweep.csv"
    table.write_text("\n".join(lines) + "\n")
    detail = ", ".join(f"p={p:g}: {g * 100:+.1f}%" for p, g in growths)
    announce(capsys, 6, ok,
             f"best testing/bump ratio growth depth 4 to 8 under 25% ({detail}); "
             f"table written to {table}")


def test_criterion_7_carleson_embedding(capsys):
    ok = True
    trend = {s: 0.0 for s in (0.25, 0.5, 0.75)}
    for inst in random_corpus(100, seed=404, depths=(3, 4, 5, 6)):
        for s in trend:
            base = carleson_embedding_ratio(inst.family, inst.pair.w_leaves, s,
                                            ROOT, inst.pair.geometry)
            scaled = carleson_embedding_ratio(inst.family,
                                              1e5 * inst.pair.w_leaves, s,
                                              ROOT, inst.pair.geometry)
            ok &= abs(scaled.ratio - base.ratio) <= 1e-12 * abs(base.ratio)
            trend[s] = max(trend[s], base.ratio)
    table = ", ".join(f"s={s:g}: max ratio {r:.3f}" for s, r in trend.items())
    announce(capsys, 7, ok,
             f"ratio invariant under weight scaling at 1e-12; trend ({table})")


def test_criterion_8_admissibility_engine(capsys):
    accepted = []
    for psi in ("log_power", "log_loglog"):
        rep = check_bump(BumpSpec(psi_family=psi, psi_eps=1.0))
        accepted.append(rep.ok and math.isfinite(rep.s_psi) and rep.s_psi > 0)
    pure_log = BumpSpec(
        psi_family="custom",
        psi_fn=lambda t: np.where(t < 1.0, np.log(math.e + 1.0 / t),
                                  np.log(math.e + t)))
    rejected = not check_bump(pure_log).ok
    ok = all(accepted) and rejected
    announce(capsys, 8, ok, "eps=1 families accepted with finite tail sums; "
             "pure-log small-t family rejected (divergent dyadic tail)")


def test_criterion_9_artifact_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("run1", "run2"):
        d = tmp_path / tag
        d.mkdir()
        # identical flags per run; only the working directory differs
        cmds = [
            ["gen", "--depth", "4", "--seed", "9", "--out", "inst.json"],
            ["constants", "--in", "inst.json", "--out", "const.csv"],
            ["check", "--suite", "all", "--trials", "5", "--seed", "9",
             "--out", "check.csv"],
            ["search", "--objective", "main_theorem", "--depths", "3",
             "--steps", "50", "--out", "search.csv"],
        ]
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "sparsebump.cli"] + cmd,
                                  capture_output=True, cwd=d, env=cli_env())
            assert proc.returncode == 0, proc.stderr
        outputs.append([
            (d / name).read_bytes()
            for name in ("inst.json", "const.csv", "check.csv", "search.csv")])
    ok = outputs[0] == outputs[1]
    announce(capsys, 9, ok,
             "gen/constants/check/search artifacts byte-identical across runs")
