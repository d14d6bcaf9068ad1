"""Command-line interface: artifacts, headers, exit codes, determinism."""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env, random_corpus
from sparsebump import cli, testing
from sparsebump.bumps import BumpSpec, nu_lambdas
from sparsebump.cli import _lemma_reports, main
from sparsebump.dyadic import Instance, instance_from_dict
from sparsebump.search import Objective, evaluate


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return path.read_text()


class TestGen:
    def test_writes_valid_instance_json(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run_cli("gen", "--depth", "3", "--out", str(out)) == 0
        data = json.loads(read(out))
        inst = instance_from_dict(data)
        assert inst.pair.geometry.depth == 3
        assert data["meta"]["config"]["cmd"] == "gen"
        assert len(data["meta"]["config_hash"]) == 16

    def test_depth_zero_single_leaf(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run_cli("gen", "--depth", "0", "--out", str(out)) == 0
        data = json.loads(read(out))
        assert len(data["sigma_leaves"]) == 1
        inst = instance_from_dict(data)
        assert len(inst.family.cubes) == 1

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli("gen", "--depth", "4", "--seed", "3", "--out", str(out))
        assert read(a) == read(b)

    def test_p_outside_domain_exits_2_and_writes_nothing(self, tmp_path):
        # the instance is built at --p, so a p that constants --in would
        # reject is rejected here too
        out = tmp_path / "inst.json"
        assert run_cli("gen", "--depth", "2", "--p", "1.0", "--out", str(out)) == 2
        assert not out.exists()


class TestConstants:
    @pytest.fixture()
    def instance_file(self, tmp_path, instance_a):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_a.to_json_dict(), sort_keys=True))
        return path

    def test_rows_and_header(self, tmp_path, instance_file):
        out = tmp_path / "constants.csv"
        assert run_cli("constants", "--in", str(instance_file),
                       "--out", str(out)) == 0
        lines = read(out).splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1].startswith("# config_hash ")
        assert lines[2] == "name,value"
        rows = dict(ln.split(",") for ln in lines[3:])
        assert float(rows["a_p"]) == pytest.approx(4.0)
        assert float(rows["testing_p"]) == pytest.approx((23.0625 / 1.75) ** 0.5,
                                                         rel=1e-12)
        assert float(rows["op_norm_p2"]) > float(rows["testing_p"]) - 1e-9
        assert list(rows) == sorted(rows)

    def test_inadmissible_bumps_rejected(self, tmp_path, instance_file):
        spec = tmp_path / "bumps.json"
        spec.write_text(json.dumps(
            {"psi": {"family": "log_power", "eps": 0.0},
             "phi": {"family": "log_loglog", "eps": 1.0}}))
        assert run_cli("constants", "--in", str(instance_file),
                       "--bumps", str(spec), "--out", "-") == 2

    def test_missing_file_is_usage_error(self):
        assert run_cli("constants", "--in", "/nonexistent.json") == 2

    def test_inadmissible_young_rejected(self, tmp_path, instance_file, capsys):
        young = tmp_path / "young.json"
        young.write_text(json.dumps({"family": "power", "q": 0.5}))
        assert run_cli("constants", "--in", str(instance_file), "--young", str(young),
                       "--out", str(tmp_path / "c.csv")) == 2
        assert "not convex" in capsys.readouterr().err

    @pytest.mark.parametrize("young", [{"family": "power", "q": 1},
                                       {"family": "power_over_log", "q": 1, "eps": 0.5}])
    def test_young_q_at_most_one_rejected(self, tmp_path, instance_file, capsys, young):
        # Abar's growth exponent q/(q - 1) needs q > 1: exit 2, not a ZeroDivisionError
        spec, out = tmp_path / "young.json", tmp_path / "c.csv"
        spec.write_text(json.dumps(young))
        assert run_cli("constants", "--in", str(instance_file), "--young", str(spec),
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "q = 1.0 is not above 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("p, young, member", [
        ("1.9", {"family": "power_over_log", "q": 1.95, "eps": 1.0}, False),
        ("2", {"family": "power", "q": 1.99}, True)])
    def test_orlicz_rows_follow_bp_membership(self, tmp_path, p, young, member):
        # NaN Orlicz rows exactly when the Young function is not in B_p
        inst, spec, out = (tmp_path / name for name in ("inst.json", "young.json", "c.csv"))
        assert run_cli("gen", "--depth", "3", "--p", p, "--out", str(inst)) == 0
        spec.write_text(json.dumps(young))
        assert run_cli("constants", "--in", str(inst), "--young", str(spec),
                       "--out", str(out)) == 0
        rows = dict(ln.split(",") for ln in read(out).splitlines()[3:])
        for name in ("orlicz_li", "orlicz_lacey"):
            assert math.isfinite(float(rows[name])) is member
        assert math.isfinite(float(rows["entropy"]))


    def test_non_finite_rows_exit_1(self, tmp_path):
        # finite leaves whose constants overflow (testing_p is about 1e205,
        # a_p about 1e616): exit 1 with one stderr line naming the rows, no
        # RuntimeWarning, and no file holding inf or nan rows
        path, out = tmp_path / "big.json", tmp_path / "c.csv"
        path.write_text(json.dumps({"depth": 2, "p": 3.0, "w_leaves": [1.0] * 4,
                                    "sigma_leaves": [sys.float_info.max] * 4,
                                    "sparse": {"strategy": "tower", "eta": 0.5}}))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "sparsebump.cli",
                               "constants", "--in", str(path), "--out", str(out)],
                              env=cli_env(), capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == ("non-finite constants: a_p, entropy, nu_bump, orlicz_lacey, "
                               "testing_p, testing_p_dual\n")
        assert not out.exists()


class TestCheck:
    def test_random_corpus_all_suites_pass(self, tmp_path):
        out = tmp_path / "check.csv"
        assert run_cli("check", "--suite", "all", "--trials", "10",
                       "--seed", "4", "--out", str(out)) == 0
        lines = read(out).splitlines()
        assert lines[2] == "name,lhs,rhs,bound,ratio,pass"
        body = lines[3:]
        assert body == sorted(body)
        assert any("prop32" in ln for ln in body)
        assert any("cov" in ln for ln in body)
        assert any("scale_testing" in ln for ln in body)

    def test_single_instance_file(self, tmp_path, instance_a):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_a.to_json_dict(), sort_keys=True))
        out = tmp_path / "check.csv"
        assert run_cli("check", "--in", str(path), "--suite", "lemmas",
                       "--out", str(out)) == 0
        assert any(ln.startswith("file_prop33") for ln in read(out).splitlines())

    def test_unknown_suite_is_usage_error(self):
        assert run_cli("check", "--suite", "bogus") == 2

    def test_overflowed_family_sums_exit_1(self, tmp_path):
        # finite leaves whose level-set sums overflow: the lemma rows raise
        # NumericError (exit 1, the overflow named, no RuntimeWarning before
        # it), neither a false violation nor a "not finite" usage error from
        # the scaled pairs
        path = tmp_path / "big.json"
        for p in (2.0, 3.0):
            path.write_text(json.dumps({"depth": 2, "p": p, "w_leaves": [1.0] * 4,
                                        "sigma_leaves": [sys.float_info.max] * 4,
                                        "sparse": {"strategy": "tower", "eta": 0.5}}))
            proc = subprocess.run([sys.executable, "-W", "error", "-m", "sparsebump.cli",
                                   "check", "--in", str(path),
                                   "--out", str(tmp_path / "check.csv")],
                                  env=cli_env(), capture_output=True, text=True)
            assert proc.returncode == 1
            assert proc.stderr == "family sums overflowed\n"

    def test_hard_failure_exits_1_and_names_the_seed(self, tmp_path, capsys, monkeypatch):
        failing = testing.CheckReport.make("cov_forced", 2.0, 1.0, bound=1.0, hard=True)
        monkeypatch.setattr(cli, "_cov_reports", lambda pair, S: [failing])
        out = tmp_path / "check.csv"
        assert run_cli("check", "--suite", "cov", "--trials", "1", "--seed", "4",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == "hard-assert failure: cov_forced (instance seed 4)\n"
        assert read(out).splitlines()[3].startswith("seed4_cov_forced,")

    def test_one_testing_constant_per_pair(self, tmp_path, instance_a, monkeypatch):
        # the pair, its dual and the four scaled pairs of the homogeneity
        # rows, each once
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_a.to_json_dict(), sort_keys=True))
        calls, real = [], testing.testing_constant
        monkeypatch.setattr(testing, "testing_constant",
                            lambda pair, S: calls.append(pair) or real(pair, S))
        assert run_cli("check", "--in", str(path), "--suite", "all",
                       "--out", str(tmp_path / "check.csv")) == 0
        assert len(calls) == 6

    def test_theorem_rows_match_the_main_theorem_objective(self):
        # check's theorem_main ratios and search's main_theorem objective are
        # two expressions of one ratio: r1 on the instance, r2 on its dual at p'
        for inst in random_corpus(40, seed=31):
            pair, S = inst.pair, inst.family
            ratios = {r.name: r.ratio for r in cli._check_one(inst, BumpSpec(), "lemmas")}
            dual = Instance(pair.swapped(), S, {})
            assert ratios["theorem_main_r1"] == evaluate(Objective("main_theorem", pair.p), inst)
            assert ratios["theorem_main_r2"] == evaluate(Objective("main_theorem", pair.p_dual),
                                                         dual)

    def test_lemma_rows_match_the_per_R_checkers(self):
        # the all-R pass behind `check` against the public checker of the
        # same name and R, for depths 2-8 and all four strategies
        spec = BumpSpec()
        for inst in random_corpus(28, seed=23):
            pair, S = inst.pair, inst.family
            want = []
            for R in S.sorted_cubes():
                want += [testing.prop32_check(S, pair, R, k)
                         for k in testing.realized_levels(S, pair)]
                want += [testing.prop33_check(S, pair, spec, R),
                         testing.sawyer_sum_bound(pair, S, spec, R)]
            want += testing.eset_split_check(pair, S, S.sorted_cubes()[0])
            tc = testing.testing_constant(pair, S)[0]
            want.append(testing.prop31_bound(pair, S, nu_lambdas(pair, spec, S), spec, tc))
            want += testing.theorem_main_ratio(pair, S, spec, tc)
            got = _lemma_reports(pair, S, spec, tc)
            assert [r.name for r in got] == [r.name for r in want]
            for g, w in zip(got, want):
                assert (g.passed, g.hard, g.bound) == (w.passed, w.hard, w.bound), g.name
                for field in ("lhs", "rhs", "ratio"):
                    assert getattr(g, field) == pytest.approx(getattr(w, field), rel=1e-12,
                                                              abs=0.0), (g.name, field)


class TestSearch:
    def test_sweep_artifact(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("search", "--objective", "main_theorem", "--depths", "2",
                       "--steps", "40", "--out", str(out)) == 0
        lines = read(out).splitlines()
        assert lines[2] == "depth,best_ratio,evaluations,seconds"
        depth, ratio, evals, seconds = lines[3].split(",")
        assert depth == "2"
        assert float(ratio) > 0.0
        assert seconds == "0"  # byte-stable default

    def test_result_out_replayable(self, tmp_path):
        res = tmp_path / "result.json"
        assert run_cli("search", "--objective", "main_theorem", "--depths", "2",
                       "--steps", "40", "--out", str(tmp_path / "s.csv"),
                       "--result-out", str(res)) == 0
        payload = json.loads(read(res))
        inst = instance_from_dict(payload["result"]["best_instance"])
        assert inst.pair.geometry.depth == 2

    def test_result_out_anneals_each_depth_once(self, tmp_path, monkeypatch):
        from sparsebump import search
        calls, anneal = [], search.anneal

        def counted(objective, config):
            calls.append(config.depth)
            return anneal(objective, config)

        monkeypatch.setattr(search, "anneal", counted)
        out, res = tmp_path / "s.csv", tmp_path / "result.json"
        assert run_cli("search", "--objective", "main_theorem", "--depths", "2", "3",
                       "--steps", "40", "--out", str(out), "--result-out", str(res)) == 0
        assert calls == [2, 3]
        rows = [ln.split(",") for ln in read(out).splitlines()[3:]]
        best = max(rows, key=lambda r: float(r[1]))
        result = json.loads(read(res))["result"]
        assert result["best_ratio"] == float(best[1])
        assert result["evaluations"] == int(best[2])

    def test_prop31_orlicz_at_p3_reverifies(self, tmp_path, capsys):
        # its walks reach sigma leaves below the density floor; the stored
        # best must replay to the ratio the anneal evaluated
        assert run_cli("search", "--objective", "prop31_orlicz", "--p", "3",
                       "--depths", "3", "5", "--steps", "150", "--seed", "3",
                       "--out", str(tmp_path / "s.csv")) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_objective_is_usage_error(self):
        assert run_cli("search", "--objective", "bogus") == 2

    @pytest.mark.parametrize("strategy", ["all_above_level:x", "bogus"])
    def test_unknown_strategy_is_usage_error(self, capsys, strategy):
        # only the four STRATEGIES names: argparse's usage error, no traceback
        assert run_cli("search", "--objective", "main_theorem", "--strategy", strategy) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err

    def test_inadmissible_young_rejected(self, tmp_path, capsys):
        young = tmp_path / "young.json"
        young.write_text(json.dumps({"family": "power", "q": 0.5}))
        assert run_cli("search", "--objective", "main_theorem", "--depths", "2",
                       "--steps", "5", "--young", str(young),
                       "--out", str(tmp_path / "s.csv")) == 2
        assert "not convex" in capsys.readouterr().err

    @pytest.mark.parametrize("q", [1, 1.5])
    def test_sepcon_young(self, tmp_path, capsys, q):
        # the separated-bump objective runs its conjugate gauge for q > 1,
        # and exits 2 with one line at q = 1, whose conjugate is not finite
        young, out = tmp_path / "young.json", tmp_path / "s.csv"
        young.write_text(json.dumps({"family": "power", "q": q}))
        code = run_cli("search", "--objective", "conjecture_sepcon", "--depths", "2",
                       "--steps", "5", "--young", str(young), "--out", str(out))
        err = capsys.readouterr().err
        if q == 1:
            assert code == 2 and len(err.splitlines()) == 1 and "not above 1" in err
        else:
            assert code == 0 and err == ""
            assert float(read(out).splitlines()[3].split(",")[1]) > 0.0


class TestReport:
    def test_merges_with_provenance(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("check", "--suite", "cov", "--trials", "3", "--seed", "1",
                "--out", str(a))
        run_cli("check", "--suite", "cov", "--trials", "3", "--seed", "1",
                "--out", str(b))
        out = tmp_path / "merged.csv"
        assert run_cli("report", "--in", str(a), str(b), "--out", str(out)) == 0
        lines = read(out).splitlines()
        assert lines[0] == "file,config_hash,schema,row"
        assert any(ln.endswith(",DUPLICATE") for ln in lines[1:])

    def test_no_inputs_is_usage_error(self):
        assert run_cli("report") == 2


class TestUsageErrors:
    """Bad flags exit 2 with a one-line message, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--depth", "3", "--dist", "spike", "--dist-params", "1"],
        ["search", "--objective", "main_theorem", "--depths", "2", "--steps", "5",
         "--dist", "lognormal", "--dist-params", "0", "1", "2"],
        ["search", "--objective", "conjecture_sepcon", "--depths", "2", "--steps", "5",
         "--young", "custom.json"],
        *(["search", "--objective", "conjecture_sepcon", "--depths", "2", "--steps", "5",
           flag, name] for flag, name in (("--young", "q_text.json"),
                                          ("--young", "truncated.json"),
                                          ("--bumps", "psi_custom.json"),
                                          ("--bumps", "psi_no_eps.json"),
                                          ("--bumps", "psi_nonsense.json"),
                                          ("--young", "young_extra.json"),
                                          ("--bumps", "bumps_extra.json"),
                                          ("--bumps", "phi_extra.json"))),
        *([cmd, "--in", name] for cmd in ("constants", "check")
          for name in ("no_w.json", "not_json.json", "cube_text.json", "sparse_extra.json")),
    ])
    def test_exits_2_with_one_line(self, tmp_path, argv):
        phi = '"phi": {"family": "log_loglog", "eps": 1.0}'
        pair = '"depth": 1, "p": 2, "sigma_leaves": [1, 2]'
        for name, text in (("custom.json", '{"family": "custom"}'),
                           ("q_text.json", '{"family": "power", "q": "two"}'),
                           ("truncated.json", '{"family": "pow'),
                           ("psi_custom.json", '{"psi": {"family": "custom", "eps": 1.0}, '
                                               + phi + '}'),
                           ("psi_no_eps.json", '{"psi": {"family": "log_power"}, ' + phi + '}'),
                           ("psi_nonsense.json", '{"psi": {"family": "nonsense", "eps": 1.0}, '
                                                 + phi + '}'),
                           # unknown keys: "Q" would otherwise run with q = 2
                           ("young_extra.json", '{"family": "power", "Q": 3}'),
                           ("bumps_extra.json", '{"psi": {"family": "log_power", "eps": 1.0}, '
                                                + phi + ', "eta": 0.5}'),
                           ("phi_extra.json", '{"psi": {"family": "log_power", "eps": 1.0}, '
                                              '"phi": {"family": "log_loglog", "eps": 1.0, '
                                              '"esp": 2.0}}'),
                           # instance files: "sed" would otherwise run seed 0
                           ("no_w.json", '{' + pair + ', "sparse": {"strategy": "tower", '
                                         '"eta": 0.5}}'),
                           ("not_json.json", "depth = 1\n"),
                           ("cube_text.json", '{' + pair + ', "w_leaves": [1, 1], '
                                              '"sparse": {"cubes": [["a", 0]]}}'),
                           ("sparse_extra.json", '{' + pair + ', "w_leaves": [1, 1], "sparse": '
                                                 '{"strategy": "random_greedy", "eta": 0.3, '
                                                 '"sed": 5}}')):
            (tmp_path / name).write_text(text)
        proc = subprocess.run([sys.executable, "-m", "sparsebump.cli", *argv,
                               "--out", str(tmp_path / "out")],
                              cwd=tmp_path, env=cli_env(), capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("argv, name", [
        (["gen", "--depth", "3", "--seed", "-1"], "seed"),
        (["gen", "--depth", "-1"], "depth"),
        (["check", "--trials", "2", "--seed", "-5"], "seed"),
        (["check", "--trials", "-3"], "trials"),
        (["search", "--objective", "main_theorem", "--depths", "-1"], "depth"),
        (["search", "--objective", "main_theorem", "--depths", "2", "--steps", "5",
          "--seed", "-1"], "seed"),
    ])
    def test_negative_seed_depth_or_trials_exit_2(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and name in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd,dist", [("gen", "spike"), ("search", "lognormal"),
                                          ("search", "spike")])
    def test_dist_params_default_per_distribution(self, tmp_path, cmd, dist):
        argv = ["--depth", "3"] if cmd == "gen" else \
            ["--objective", "main_theorem", "--depths", "3", "--steps", "5"]
        assert run_cli(cmd, *argv, "--dist", dist, "--out", str(tmp_path / "out")) == 0


class TestParserReuse:
    def test_defaults_survive_an_earlier_call(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run_cli("search", "--objective", "main_theorem", "--depths", "3",
                       "--steps", "5", "--out", str(first)) == 0
        assert run_cli("search", "--objective", "main_theorem", "--steps", "5",
                       "--out", str(second)) == 0
        assert '"depths": [3]' in read(first).splitlines()[0]
        assert '"depths": [4]' in read(second).splitlines()[0]

    def test_gen_default_after_dist_params_matches_a_fresh_process(self, tmp_path):
        outs = [tmp_path / f"{name}.json" for name in ("before", "params", "after", "fresh")]
        assert run_cli("gen", "--depth", "3", "--out", str(outs[0])) == 0
        assert run_cli("gen", "--depth", "3", "--dist-params", "0", "2",
                       "--out", str(outs[1])) == 0
        assert run_cli("gen", "--depth", "3", "--out", str(outs[2])) == 0
        proc = subprocess.run([sys.executable, "-m", "sparsebump.cli", "gen", "--depth", "3",
                               "--out", str(outs[3])], env=cli_env())
        assert proc.returncode == 0
        before, params, after, fresh = (out.read_bytes() for out in outs)
        assert before == after == fresh
        assert params != fresh


class TestDeterminism:
    def test_artifacts_byte_identical_across_processes(self, tmp_path):
        outputs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            cmds = [
                ["gen", "--depth", "3", "--seed", "5", "--out", str(d / "g.json")],
                ["check", "--suite", "cov", "--trials", "4", "--seed", "5",
                 "--out", str(d / "c.csv")],
                ["search", "--objective", "main_theorem", "--depths", "2",
                 "--steps", "30", "--out", str(d / "s.csv")],
            ]
            for cmd in cmds:
                proc = subprocess.run([sys.executable, "-m", "sparsebump.cli"] + cmd,
                                      env=cli_env())
                assert proc.returncode == 0
            outputs.append([read(d / n) for n in ("g.json", "c.csv", "s.csv")])
        assert outputs[0] == outputs[1]


class TestTracedNames:
    def test_every_traced_name_resolves(self):
        # the benchmark's tracer wraps these functions by name, so each must
        # stay callable under it; the tracer file is read, never changed
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.TRACED
        for qualname in tracer.TRACED:
            module_name, _, attr_path = qualname.partition(".")
            owner = importlib.import_module(f"sparsebump.{module_name}")
            *outer, attr = attr_path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            # a method must be defined on its class, where the tracer rebinds it
            assert callable(vars(owner).get(attr)), qualname


class TestArtifactDiff:
    def test_exit_codes_and_report(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "artifact_diff.py"
        rows = ["# config line", "name,lhs,rhs,bound,ratio,pass",
                "prop33,0.5,1,4,0.5,true", "sawyer_sum,0.25,1,4,0.25,true"]

        def diff(new_rows):
            for side, lines in (("old", rows), ("new", new_rows)):
                (tmp_path / side).mkdir(exist_ok=True)
                (tmp_path / side / "check.csv").write_text("\n".join(lines) + "\n")
            return subprocess.run([sys.executable, str(script), str(tmp_path / "old"),
                                   str(tmp_path / "new")], capture_output=True,
                                  text=True, env=cli_env())

        same = diff(rows)
        assert same.returncode == 0, same.stdout
        assert "no flips, no missing rows" in same.stdout
        moved = diff(rows[:2] + ["prop33,0.75,1,4,0.75,true", rows[3]])
        assert moved.returncode == 0, moved.stdout
        assert "  prop33: 0.333\n  every other row name (1): 0\n" in moved.stdout
        flipped = diff(rows[:3] + ["sawyer_sum,0.25,1,4,0.25,false"])
        assert flipped.returncode == 1
        assert "flip check.csv: sawyer_sum#1 pass true -> false" in flipped.stdout
        deleted = diff(rows[:3])
        assert deleted.returncode == 1
        assert "missing row check.csv: sawyer_sum#1" in deleted.stdout


class TestBenchPairs:
    @staticmethod
    def _bench():
        path = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
        spec = importlib.util.spec_from_file_location("bench_pairs", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        return bench

    @pytest.mark.parametrize("seed_args, seed", [([], "0"), (["--seed", "7"], "7")])
    def test_seed_reaches_every_run(self, tmp_path, monkeypatch, capsys, seed_args, seed):
        # every run's command line, with subprocess.run replaced by a canned run
        bench = self._bench()
        spec = {"run_seconds": 3, "end_to_end": [
            {"name": "throughput_per_s", "better": "higher", "bound": 0.25}]}
        for tree in ("old", "new"):
            (tmp_path / tree).mkdir()
            (tmp_path / tree / "BENCHMARK.json").write_text(json.dumps(spec))
        calls = []

        def run(cmd, cwd, **kwargs):
            calls.append((cmd, Path(cwd).name))
            line = {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"throughput_per_s": {"value": 1.0, "unit": "1/s"}}}
            return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(line) + "\n")

        monkeypatch.setattr(bench.subprocess, "run", run)
        argv = [str(tmp_path / "old"), str(tmp_path / "new"), "--workload", "w", *seed_args]
        assert bench.main(argv) == 0
        assert [tree for _, tree in calls[:4]] == ["old", "new", "new", "old"]
        assert len(calls) == 2 * bench.PAIRS
        for cmd, _ in calls:
            assert cmd[1:] == ["perfbench/run.py", "--workload", "w", "--seed", seed,
                               "--seconds", "3", "--trace", "0"]
        assert "gain claim does not hold" in capsys.readouterr().out

    def test_summary_of_canned_runs(self):
        # the summary only: the benchmark itself is never run here
        bench = self._bench()

        def run(ops, setup):
            return {"correct": True, "attempted": 40, "failed": 0,
                    "metrics": {"throughput_per_s": {"value": ops, "unit": "1/s"},
                                "setup_s": {"value": setup, "unit": "s"}}}

        # (old, new): new is faster in pairs 0 and 2, ties in pair 1, slower in pair 3;
        # its set-up is lower only in pair 3
        pairs = [(run(10.0, 0.2), run(12.0, 0.2)), (run(11.0, 0.2), run(11.0, 0.3)),
                 (run(12.0, 0.2), run(13.0, 0.3)), (run(13.0, 0.2), run(9.0, 0.1))]
        rows = bench.summarize(pairs, {"throughput_per_s": "higher", "setup_s": "lower"})
        assert rows == [("throughput_per_s", 11.5, 11.5, 10.75, 12.25, 2, 1),
                        ("setup_s", 0.2, 0.25, 0.2, 0.2, 1, 2)]
        lines = bench.summary_lines(rows, len(pairs))
        assert lines == [
            "throughput_per_s: median old 11.5 new 11.5 (change +0.00%); old quartiles "
            "10.75-12.25 (spread 1.5); new won 2/4, old won 1/4",
            "setup_s: median old 0.2 new 0.25 (change +25.00%); old quartiles "
            "0.2-0.2 (spread 0); new won 1/4, old won 2/4"]
        assert bench.run_line("new", 3, pairs[3][1], ["throughput_per_s"]) == \
            "pair 3 new: throughput_per_s=9 correct=True attempted=40 failed=0"

        # verdicts on each side of the claim rule (>= 9/10 pairs won and a
        # median gain above the old quartile spread) and of the bound
        ten = [(run(10.0 + i / 10, 0.2), run(12.0 + i / 10 if i else 9.0, 0.24))
               for i in range(10)]
        thr, setup = bench.summarize(ten, {"throughput_per_s": "higher", "setup_s": "lower"})
        assert thr[0] == "throughput_per_s" and thr[-2:] == (9, 1)
        assert thr[1:5] == pytest.approx((10.45, 12.45, 10.225, 10.675))
        assert bench.verdict(thr, 10, "higher", 0.25) == (
            "throughput_per_s: gain claim holds (new won 9/10, gain 2 vs old spread 0.45); "
            "within bound 0.25 (worsening -19.14%)")
        assert bench.verdict(setup, 10, "lower", 0.25) == (
            "setup_s: gain claim does not hold (new won 0/10, gain -0.04 vs old spread 0); "
            "within bound 0.25 (worsening +20.00%)")
        verdicts = {  # (row, better, bound): (claim holds, within bound)
            (("t", 10.0, 12.0, 9.5, 10.5, 8, 2), "higher", 0.25): (False, True),  # 8/10 won
            (("t", 10.0, 10.9, 9.5, 10.5, 10, 0), "higher", 0.25): (False, True),  # 0.9 < 1
            (("t", 10.0, 11.1, 9.5, 10.5, 10, 0), "higher", 0.25): (True, True),
            (("t", 10.0, 7.4, 9.5, 10.5, 0, 10), "higher", 0.25): (False, False),  # -26 %
            (("s", 0.2, 0.26, 0.2, 0.2, 0, 10), "lower", 0.25): (False, False),  # +30 %
            (("s", 0.2, 0.1, 0.18, 0.22, 9, 1), "lower", 0.25): (True, True),
            (("m", 40.0, 43.0, 39.0, 41.0, 0, 10), "lower", 0.1): (False, True)}  # +7.5 %
        for (row, better, bound), (claim, within) in verdicts.items():
            line = bench.verdict(row, 10, better, bound)
            assert ("gain claim holds" in line) == claim, line
            assert (f"within bound {bound:g}" in line) == within, line
